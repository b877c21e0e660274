"""Timing spans around cowsim's public functions, installed from outside.

Every module that imported a wrapped function holds its own reference to it
(cowsim.cli.run_protocol, cowsim.protocol.run_simulation, ...), and calls
resolve through the caller's namespace, so each of those references is
replaced. Private helpers are left alone: their time is part of the caller's
self time, and renaming them cannot break the trace. A public name that is
missing is reported absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _count_detect(counts, args, kwargs, result):
    counts["simulation.detect.slots"] += int(np.size(args[0] if args else kwargs["intensity"]))
    counts["simulation.detect.clicks"] += int(np.count_nonzero(result))


def _count_experiment(counts, args, kwargs, result):
    cfg = args[0] if args else kwargs["config"]
    tau = cfg.params.pulse_period_ns
    gated = max(int(cfg.gate_ns // tau) + 1, 2 * len(cfg.pattern) + 1)
    counts["experiment.slots_sampled"] += cfg.n_frames * gated * 3


# (module, function, counter called after the span closes)
WRAPPED = (
    ("cli", "main", None),
    ("simulation", "run_simulation", None),
    ("simulation", "generate_symbols", None),
    ("simulation", "propagate", None),
    ("simulation", "interferometer_outputs", None),
    ("simulation", "detect", _count_detect),
    ("simulation", "simulate_stream", None),
    ("simulation", "estimate_qber", None),
    ("attacks", "apply_intercept_resend", None),
    ("protocol", "run_protocol", None),
    ("protocol", "announce", None),
    ("protocol", "sift", None),
    ("protocol", "estimate_parameters", None),
    ("experiment", "run_experiment", _count_experiment),
    ("optimize", "sweep_loss", None),
    ("optimize", "optimize_mu", None),
    ("rates", "secret_key_rate", None),
)

# per-layer metric -> (the wrapped function it needs, unit)
PER_LAYER = {f"{m}.{f}.self_s": (f"{m}.{f}", "s")
             for m, f, _ in WRAPPED if f != "run_simulation"}
PER_LAYER.update({
    "simulation.run_simulation.calls": ("simulation.run_simulation", "count"),
    "optimize.optimize_mu.calls": ("optimize.optimize_mu", "count"),
    "rates.secret_key_rate.calls": ("rates.secret_key_rate", "count"),
    "simulation.detect.slots": ("simulation.detect", "count"),
    "simulation.detect.click_ratio": ("simulation.detect", "ratio"),
    "experiment.slots_sampled": ("experiment.run_experiment", "count"),
})


class Tracer:
    """Records (op, name, start, end, parent) spans in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(int)
        self.absent: list[str] = []
        self.op = -1
        self._first = 0  # index of the current op's first span
        self._stack: list[int] = []
        self._per_op: list[dict] = []

    def install(self):
        for mod_name, fn_name, counter in WRAPPED:
            module = importlib.import_module(f"cowsim.{mod_name}")
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, counter)
            for name, mod in list(sys.modules.items()):
                if name == "cowsim" or name.startswith("cowsim."):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (self.op, name, start, end, parent)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                counter(self.counts, args, kwargs, return_value)
            return return_value
        return wrapper

    def begin_op(self):
        self.op += 1
        self._first = len(self.spans)
        self.counts.clear()

    def end_op(self, op_s: float):
        """Fold this op's spans into per-layer self times and counts."""
        spans = self.spans[self._first:]
        self_s = defaultdict(float)
        for op, name, start, end, parent in spans:
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][1]] -= end - start
        row = {f"{name}.self_s": value for name, value in self_s.items()}
        row.update(self.counts)
        slots = self.counts["simulation.detect.slots"]
        row["simulation.detect.click_ratio"] = (
            self.counts["simulation.detect.clicks"] / slots if slots else 0.0)
        row["op_s"] = op_s
        row["self_sum_s"] = sum(self_s.values())
        self._per_op.append(row)

    def discard_ops(self):
        """Forget the ops recorded so far (the warm-up)."""
        self._per_op.clear()

    def metrics(self) -> dict:
        """Median over ops of each per-layer metric; absent layers left out."""
        out = {}
        for key, (source, unit) in PER_LAYER.items():
            if source not in self.absent:
                out[key] = (statistics.median(row.get(key, 0) for row in self._per_op), unit)
        return out

    def coverage(self) -> float:
        """Median share of each op's measured time that its self times cover."""
        return statistics.median(row["self_sum_s"] / row["op_s"] for row in self._per_op)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
