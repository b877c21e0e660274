"""Benchmark cowsim through its command line, in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: cowsim is imported from ./src. Each
operation is one call of cowsim.cli.main(argv) with --out to a file under
perfbench/out; operations run in rounds of two with the same seed, and the
second must reproduce the first byte for byte. The last line of standard
output is a JSON object with correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5


def cpu_seconds() -> float:
    """CPU time of this process, all its threads and the children it reaped.

    Operations are timed in CPU time, not wall time: on a shared virtual
    machine the wall clock also counts the time the host gives this CPU to
    other guests, which moves from minute to minute and is not the program's.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class SpeedProbe:
    """A fixed kernel timed beside each measurement: how fast the host runs
    this process right now.

    The host's speed moves by up to 1.8x within minutes, as other guests load
    the physical core. A timing in CPU seconds times REFERENCE_S over the
    probe's CPU seconds is a timing in reference seconds, the time it would
    take on the host at its fast state; that cancels most of the swing.
    Workloads slow down as much as a probe of their own kind of work, so
    there are two: "scalar", a loop of scalar numpy calls like the
    closed-form optimiser, and "array", one pass of the Monte Carlo's kind
    of work (random draws, sqrt, cos, exp, a threshold) over preallocated
    arrays of 2*10^6 pulses.
    """

    # CPU seconds of each kernel on a 2.1 GHz Xeon vCPU at the host's fast state
    REFERENCE_S = {"scalar": 0.012, "array": 0.055}

    def __init__(self, kind: str):
        import numpy as np
        self.np, self.kind = np, kind
        if kind == "array":
            n = 2_000_000
            self._a, self._b, self._c = np.empty(n), np.empty(n), np.empty(n)
            self._mask = np.empty(n, dtype=bool)
            self._rng = np.random.Generator(np.random.Philox(key=5))

    def seconds(self) -> float:
        np = self.np
        start = time.process_time()
        if self.kind == "scalar":
            for i in range(3000):
                a = np.asarray(0.3 + i * 1e-5)
                b = np.exp(-a) * 2.0 / (1.0 + np.exp(-a))
                float(np.where(b > 0.0, b, 0.0))
        else:
            a, b, c, mask = self._a, self._b, self._c, self._mask
            self._rng.random(out=a)
            np.sqrt(np.multiply(a, 0.3, out=b), out=b)
            np.multiply(b, np.cos(a, out=c), out=c)
            np.exp(np.negative(c, out=c), out=c)
            np.less(self._rng.random(out=a), c, out=mask)
            np.count_nonzero(mask)
        return time.process_time() - start

    def scale(self, before: float, after: float) -> float:
        """Reference seconds per CPU second, from the probes either side."""
        return self.REFERENCE_S[self.kind] / ((before + after) / 2)


def set_up(workload_name: str):
    """Import cowsim from the checkout and build the workload's inputs.

    Returns (cli module, workload, seconds spent importing cowsim)."""
    if not (SRC / "cowsim" / "__init__.py").is_file():
        raise SystemExit(f"run.py: error: no cowsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.process_time()
    import cowsim.cli as cli
    import_s = time.process_time() - start
    return cli, WORKLOADS[workload_name], import_s


def probe_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up in fresh interpreters, in reference seconds: (process start to
    inputs built, import of cowsim), one sample per probe."""
    setup, imports = [], []
    probe = SpeedProbe("scalar")  # imports are interpreter work
    before = probe.seconds()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-probe"], capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up probe failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.splitlines()[-1])
        after = probe.seconds()
        scale = probe.scale(before, after)
        setup.append(child["ready"] * scale)
        imports.append(child["import_s"] * scale)
        before = after
    return setup, imports


def op_seed(workload: str, seed: int, round_index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{round_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Runner:
    def __init__(self, cli, workload, seed: int, tmp: Path, probe: SpeedProbe, tracer=None):
        self.cli, self.w, self.seed, self.tmp, self.tracer = cli, workload, seed, tmp, tracer
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.op_ref_s: list[float] = []  # CPU time in reference seconds
        self.speed_s: list[float] = []
        self.failures: list[str] = []
        self._speed = probe.seconds()

    def _op(self, seed: int, tag: str):
        out = self.tmp / f"{tag}.csv"
        dump = self.tmp / f"{tag}.events.csv" if self.w.dump_events else None
        argv = self.w.argv(seed, str(out), str(dump) if dump else None)
        if self.tracer:
            self.tracer.begin_op()
        cpu, wall = cpu_seconds(), time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = f"exception {exc!r}"
        wall = time.perf_counter() - wall
        cpu = cpu_seconds() - cpu
        if self.tracer:
            self.tracer.end_op(wall)
        # each main() call leaves an argparse parser in a reference cycle;
        # collecting it here starts every operation from the same heap
        gc.collect()
        speed = self.probe.seconds()
        self.speed_s.append(speed)
        cpu *= self.probe.scale(self._speed, speed)
        self._speed = speed
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        events = dump.read_text(encoding="utf-8") if dump and dump.exists() else None
        return code, text, events, cpu

    def round(self, index: int, timed: bool):
        """Two operations with one seed; the second must repeat the first."""
        seed = op_seed(self.w.name, self.seed, index)
        code_a, text_a, events_a, sec_a = self._op(seed, "a")
        code_b, text_b, events_b, sec_b = self._op(seed, "b")
        fail_a = self.w.verify(code_a, text_a, events_a) if isinstance(code_a, int) else [code_a]
        fail_b = list(fail_a)
        if (code_b, text_b, events_b) != (code_a, text_a, events_a):
            fail_b.append("rerun with the same seed is not byte-identical")
        self.attempted += 2
        self.failed += bool(fail_a) + bool(fail_b)
        for f in fail_a + fail_b:
            if len(self.failures) < 20:
                self.failures.append(f"round {index} (seed {seed}): {f}")
        if timed:
            self.op_ref_s += [sec_a, sec_b]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    cli, workload, import_s = set_up(args.workload)
    if args.setup_probe:
        print(json.dumps({"ready": time.process_time(), "import_s": import_s}))
        return 0
    probe = SpeedProbe(workload.probe)
    probe.seconds()  # fault in its arrays: they belong to the baseline
    base_rss = rss_bytes()
    setup, imports = probe_setup(args.workload)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        runner = Runner(cli, workload, args.seed, tmp, probe, tracer)
        runner.round(0, timed=False)  # warm-up
        if tracer:
            tracer.discard_ops()
        deadline = time.perf_counter() + args.seconds
        index = 1
        while time.perf_counter() < deadline or index == 1:
            runner.round(index, timed=True)
            index += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    op_s = statistics.median(runner.op_ref_s)
    correct = runner.failed == 0
    label = f"{args.workload}_seed{args.seed}"
    if tracer:
        coverage = tracer.coverage()
        correct = correct and abs(coverage - 1.0) <= 0.05
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        metrics["setup.import_s"] = {"value": statistics.median(imports), "unit": "s"}
        tracer.write(OUT / f"trace_{label}.jsonl")
        print(f"traced: op median {op_s:.6f} reference s, {workload.items / op_s:.6g} "
              f"{workload.item}/s; self times cover {coverage:.2%} of the op's "
              f"wall time; absent: {tracer.absent or 'none'}", file=sys.stderr)
    else:
        peak = peak_rss_bytes()
        metrics = {
            "items_per_s": {"value": workload.items / op_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak / 1e6, "unit": "MB"},
            "rss_bytes_per_item": {"value": (peak - base_rss) / workload.items, "unit": "B"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (OUT / f"result_{label}_trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(f"{len(runner.op_ref_s)} timed ops of {workload.items} {workload.item}; "
          f"{workload.probe} speed probe median {statistics.median(runner.speed_s):.5f} s "
          f"(reference {SpeedProbe.REFERENCE_S[workload.probe]} s)", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
