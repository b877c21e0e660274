"""The benchmark's workloads: the cowsim command line each one runs, and the
checks its output must pass.

A check is either an independent computation (from model.py) or a property
the method must have. Statistical checks allow six standard deviations, so a
correct program fails one about once in 10^9 checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import model

Z = 6.0  # standard deviations allowed in a statistical check
P_TAIL = 1e-9  # smallest tail probability accepted for a small count


def parse_csv(text: str):
    """Split cowsim output into (metadata dict, header, rows)."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition(" = ")
            if sep:
                meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header or [], rows


class Report:
    """Collects the checks that failed for one operation."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)

    def near(self, name: str, observed: float, expected: float, tol: float):
        self.require(math.isfinite(observed) and abs(observed - expected) <= tol,
                     f"{name} = {observed!r}, expected {expected!r} +- {tol:.3g}")


def _same_value(echoed: str, value) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(echoed) == float(value)
        except ValueError:
            return False
    return echoed == str(value)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    item: str  # what one item of the throughput is
    items: int  # items per operation
    probe: str  # kind of work, for the speed probe that calibrates timings
    expected_code: int
    settings: dict  # passed with --set
    check: Callable  # (report, params, metadata, header, rows, event dump)
    preset: dict = field(default_factory=dict)  # expected in the output, not passed
    flags: tuple = ()
    dump_events: bool = False

    @property
    def params(self) -> dict:
        return {**self.preset, **self.settings}

    def argv(self, seed: int, out: str, dump: str | None) -> list[str]:
        argv = [self.command, *self.flags, "--seed", str(seed), "--out", out]
        for key, value in self.settings.items():
            argv += ["--set", f"{key}={value}"]
        if self.dump_events:
            argv += ["--dump-events", dump]
        return argv

    def verify(self, code: int, text: str, dump: str | None) -> list[str]:
        """Failures of one operation's exit code and outputs (empty if none)."""
        rep = Report()
        rep.require(code == self.expected_code,
                    f"exit code {code}, expected {self.expected_code}")
        if code == self.expected_code:
            meta, header, rows = parse_csv(text)
            rep.require(meta.get("command") == self.command,
                        f"metadata command {meta.get('command')!r}")
            for key, value in self.params.items():
                rep.require(_same_value(meta.get(key, ""), value),
                            f"metadata {key} = {meta.get(key)!r}, expected {value!r}")
            try:
                self.check(rep, self.params, meta, header, rows, dump)
            except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
                rep.failures.append(f"malformed output: {exc!r}")
        return rep.failures


def _row(header, rows) -> dict:
    if len(rows) != 1:
        raise ValueError(f"expected one result row, got {len(rows)}")
    return dict(zip(header, rows[0]))


def _stream_model(p) -> model.StreamModel:
    return model.StreamModel(p["n_symbols"], p["mu"], p["loss_db"], p["f"],
                             p["t_b"], p["eta"], p["p_d"], p["v"],
                             p["insertion_loss"])


def check_mc_clean(rep: Report, p, meta, header, rows, dump):
    r = _row(header, rows)
    n = p["n_symbols"]
    m = _stream_model(p)
    rep.require(r["abort"] == "false" and r["abort_reason"] == "none",
                f"clean run aborted: {r['abort_reason']}")
    n_sym, n_det, n_amb, n_sift, n_sec = (int(r[k]) for k in (
        "n_symbols", "n_detected", "n_ambiguous", "n_sifted", "n_secret"))
    rep.require(n_sym == n, f"n_symbols = {n_sym}")
    rep.require(0 <= n_sec <= n_sift <= n_det <= n and n_amb <= n_det,
                "counts out of order: secret <= sifted <= detected <= symbols")

    emp_r = float(r["empirical_r"])
    rep.near("empirical_r", emp_r, m.p_signal,
             Z * math.sqrt(m.p_signal * (1 - m.p_signal) / m.n_bits))
    rep.near("monitoring_rate", float(r["monitoring_rate"]), m.monitoring_rate,
             Z * math.sqrt(m.monitor_clicks) / m.n_nonempty)
    v_d, v_10 = float(r["v_d"]), float(r["v_10"])
    rep.near("v_d", v_d, m.v_expected,
             Z * model.visibility_sigma(m.v_expected, m.n_decoy_clicks))
    rep.near("v_10", v_10, m.v_expected,
             Z * model.visibility_sigma(m.v_expected, m.n_10_clicks))
    rep.near("sifted_rate", float(r["sifted_rate"]), m.sifted_per_symbol,
             Z * math.sqrt(m.sifted_per_symbol / n))

    q = float(r["qber"])
    rep.require(float(r["qber_lo"]) <= q <= float(r["qber_hi"]),
                "qber outside its own interval")
    errors = round(q * n_sift)
    low, high = model.poisson_tails(errors, m.qber * n_sift)
    rep.require(min(low, high) > P_TAIL,
                f"{errors} bit errors in {n_sift} sifted, expected {m.qber * n_sift:.2f}")

    # distillation of the reported estimates, by the paper's accounting
    v_worst = min(max(min(v_10, v_d), 0.0), 1.0)
    i_eve = model.eve_information(p["mu"], m.t, v_worst, p["protocol"], p["pns_model"])
    rep.near("i_eve", float(r["i_eve"]), i_eve, 1e-7)
    n_secret = max(0, math.floor(n_sift * (1.0 - model.entropy(q) - i_eve)))
    rep.near("n_secret", n_sec, n_secret, 1 + 1e-7 * n_sift)
    rep.near("secret_fraction", float(r["secret_fraction"]), n_sec / n, 1e-8 * n_sec / n + 1e-12)

    # ... and of the closed-form expectations, allowing for the noise of V
    expected = m.sifted_per_symbol * (1.0 - model.entropy(m.qber) - model.eve_information(
        p["mu"], m.t, p["v"], p["protocol"], p["pns_model"]))
    sigma_v = model.visibility_sigma(m.v_expected, min(m.n_decoy_clicks, m.n_10_clicks))
    tol = Z * (m.sifted_per_symbol * sigma_v / model.xi(p["mu"] * m.t)
               + math.sqrt(m.sifted_per_symbol / n))
    rep.near("secret_fraction vs R_s(1-h(Q)-I_Eve)", float(r["secret_fraction"]),
             expected, tol)


def check_mc_attack(rep: Report, p, meta, header, rows, dump):
    r = _row(header, rows)
    n = p["n_symbols"]
    rep.require(r["abort"] == "true" and r["abort_reason"] == "visibility-mismatch",
                f"attack not caught: abort={r['abort']} reason={r['abort_reason']}")
    rep.require(int(r["n_secret"]) == 0, "secret bits left after an abort")
    t = model.transmission(p["loss_db"])
    # no dark counts and full visibility: every D_M2 click in a decoy is Eve's
    loss_of_v = p["p_ir"] * model.xi(p["mu"] * t)
    m = _stream_model(p)  # the attack keeps the mean intensity reaching Bob
    v_d, v_10 = float(r["v_d"]), float(r["v_10"])
    rep.near("1 - v_d", 1.0 - v_d, loss_of_v,
             Z * model.visibility_sigma(1.0 - loss_of_v, m.n_decoy_clicks))
    rep.require(v_10 < v_d, f"v_10 = {v_10} not below v_d = {v_d}: the 1-0 "
                            "class spans two windows and must lose more")

    ev_meta, ev_header, events = parse_csv(dump or "")
    rep.require(ev_meta.get("command") == "simulate-events"
                and ev_meta.get("seed") == meta.get("seed"),
                "event dump is not from this run")
    rep.require(ev_header == ["detector", "sequence_index", "slot_index"],
                f"event dump header {ev_header}")
    seen: dict[int, int] = {}
    for det, seq, slot in events:
        if det == "D_B":
            s = int(seq)
            rep.require(0 <= s < n and slot in ("0", "1"), f"bad D_B event {seq},{slot}")
            seen[s] = seen.get(s, 0) + 1
    rep.require(len(seen) == int(r["n_detected"]),
                f"{len(seen)} detected symbols in the dump, {r['n_detected']} in the summary")
    repeated = sum(1 for c in seen.values() if c > 1)
    rep.require(repeated == int(r["n_ambiguous"]),
                f"{repeated} ambiguous symbols in the dump, {r['n_ambiguous']} in the summary")


def check_experiment(rep: Report, p, meta, header, rows, dump):
    fm = model.FrameModel(p["frame_pattern"], p["mu"], p["loss_db"], p["t_b"],
                          p["eta"], p["p_d"], p["v"], p["insertion_loss"],
                          p["pulse_period_ns"], p["gate_ns"],
                          p["frame_period_ns"], p["deadtime_ns"])
    rep.require(header == ["slot_time_ns", "detector", "count"], f"header {header}")
    counts: dict[str, list[int]] = {}
    for time_ns, det, count in rows:
        slot = len(counts.setdefault(det, []))
        rep.require(abs(float(time_ns) - slot * p["pulse_period_ns"]) <= 1e-6,
                    f"{det} slot {slot} at {time_ns} ns")
        counts[det].append(int(count))
    rep.require(sorted(counts) == ["D_B", "D_M1", "D_M2"]
                and all(len(c) == fm.n_slots for c in counts.values()),
                f"histogram is not 3 detectors x {fm.n_slots} gated slots")

    # a lit slot clicks p_signal / p_dark times more often than a dark one
    db = counts["D_B"]
    threshold = max(db) * math.sqrt(fm.p_dark / fm.p_signal)
    peaks = [k for k, c in enumerate(db) if c >= threshold]
    rep.require(peaks == fm.filled, f"D_B peaks at {peaks}, pattern fills {fm.filled}")

    duration_s = p["n_frames"] * fm.frame_s
    total = 0.0
    for det in ("D_B", "D_M1", "D_M2"):
        rate = float(meta[f"rate_hz_{det}"])
        total += rate
        lo, hi = fm.rate_bounds(det)
        tol = Z / math.sqrt(max(lo * duration_s, 1.0))
        rep.require(lo * (1 - tol) <= rate <= hi * (1 + tol),
                    f"{det} rate {rate:.6g} Hz outside [{lo:.6g}, {hi:.6g}] +- {tol:.2%}")
        rep.require(rate * fm.dead_s <= 1.0, f"{det} rate {rate} Hz above 1/deadtime")
        rep.near(f"{det} histogram total", sum(counts[det]), rate * duration_s,
                 1e-6 * rate * duration_s)
    rep.near("raw_rate_hz", float(meta["raw_rate_hz"]), total, 1e-8 * total)


def check_curve(rep: Report, p, meta, header, rows, dump):
    protocols = p["protocols"].split(",")
    vs = [float(x) for x in p["visibilities"].split(",")]
    losses = [float(x) for x in p["loss_grid"].split(",")]
    rep.require(header == ["protocol", "V", "loss_db", "mu_star", "r_sk"], f"header {header}")
    keys = [(proto, v, loss) for proto in protocols for v in vs for loss in losses]
    rep.require(len(rows) == len(keys), f"{len(rows)} rows, expected {len(keys)}")
    lo_mu, hi_mu = p["mu_min"], p["mu_max"]
    coarse = ([lo_mu + (hi_mu - lo_mu) * k / 100 for k in range(101)]
              + [lo_mu * (hi_mu / lo_mu) ** (k / 100) for k in range(101)])
    rsk = {}
    for key, row in zip(keys, rows):
        proto, v, loss = key
        rep.require((row[0], float(row[1]), float(row[2])) == key, f"row {row} out of order")
        mu_star, r_sk = float(row[3]), float(row[4])
        rsk[key] = r_sk
        rep.require(lo_mu <= mu_star <= hi_mu and r_sk >= 0.0, f"row {row} out of range")

        def rate(mu):
            return model.curve_rsk(mu, loss, v, proto, p["pns_model"], p["f"],
                                   p["t_b"], p["eta"], p["p_d"])
        rep.near(f"r_sk at {key}", r_sk, rate(mu_star), 1e-6 * r_sk + 1e-15)
        best = max(rate(mu) for mu in coarse)
        rep.require(best <= r_sk * (1 + 1e-6) + 1e-15,
                    f"r_sk at {key} = {r_sk} beaten by {best} on a coarse mu grid")

    if "cow" in protocols and "bb84-decoy" in protocols and 1.0 in vs:
        for loss in losses:
            a, b = rsk[("cow", 1.0, loss)], rsk[("bb84-decoy", 1.0, loss)]
            rep.require(abs(a - b) <= 1e-9 * max(a, b),
                        f"cow {a} != bb84-decoy {b} at V=1, {loss} dB")
    by_v = sorted(vs, reverse=True)
    for proto in protocols:
        for v in vs:
            series = [rsk[(proto, v, loss)] for loss in losses]
            rep.require(all(x >= y for x, y in zip(series, series[1:])),
                        f"{proto} V={v} rises with loss")
        for loss in losses:
            series = [rsk[(proto, v, loss)] for v in by_v]
            rep.require(all(x >= y for x, y in zip(series, series[1:])),
                        f"{proto} at {loss} dB rises as V falls")


_CLEAN_OPTICS = dict(mu=0.5, loss_db=0.0, f=0.1, t_b=0.9, eta=0.1, p_d=1e-5,
                     insertion_loss=0.5, deadtime_ns=0.0, background=0.0,
                     protocol="cow", pns_model="printed")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc_clean",
        command="simulate",
        why="no-attack Monte Carlo of 10^6 symbols: the optical chain and "
            "detection dominate time and memory",
        item="symbols", items=1_000_000, probe="array", expected_code=0,
        # 6 sigma: at the default 3 the abort rule stops 0.45 % of clean runs
        settings=dict(n_symbols=1_000_000, attack="none", v=0.92,
                      tolerance_sigmas=6.0, **_CLEAN_OPTICS),
        check=check_mc_clean),
    Workload(
        name="mc_attack",
        command="simulate",
        why="intercept-resend at p_ir=0.5 over 10 dB, with the event dump: "
            "attack path, abort and the write path",
        item="symbols", items=2_000_000, probe="array", expected_code=2,
        settings=dict(n_symbols=2_000_000, attack="intercept-resend", p_ir=0.5,
                      mu=0.5, loss_db=10.0, f=0.3, t_b=0.5, eta=0.25, p_d=0.0,
                      v=1.0, insertion_loss=0.0, deadtime_ns=0.0, background=0.0,
                      tolerance_sigmas=3.0),
        dump_events=True,
        check=check_mc_attack),
    Workload(
        name="experiment_preset",
        command="experiment",
        why="framed D010 proof-of-principle preset: gated slots, dark counts "
            "and deadtime across frames",
        item="frames", items=600_000, probe="array", expected_code=0,
        settings=dict(n_frames=600_000),
        # the paper's setup: 434 MHz pulses, 600 kHz frames, 10 us deadtime
        preset=dict(mu=0.5, loss_db=5.0, eta=0.1, p_d=2.5e-5 * 1.7, t_b=0.85,
                    v=0.92, pulse_period_ns=1e9 / 434e6, gate_ns=25.0,
                    deadtime_ns=10000.0, insertion_loss=0.5,
                    frame_period_ns=1e9 / 600e3, frame_pattern="D010"),
        check=check_experiment),
    Workload(
        name="analysis_curve",
        command="curve",
        why="99 mu-optimised closed-form points: the only workload on rates "
            "and optimize, with no simulation",
        item="curve points", items=99, probe="scalar", expected_code=0,
        flags=("--pns-model", "alt"),
        settings=dict(protocols="cow,bb84-decoy,bb84", visibilities="1.0,0.9,0.8",
                      loss_grid="0,5,10,15,20,25,30,35,40,45,50", f=0.1,
                      t_b=0.9, eta=0.1, p_d=1e-5, mu_min=1e-4, mu_max=1.0,
                      rate_mode="linearized"),
        preset=dict(pns_model="alt"),
        check=check_curve),
)}
