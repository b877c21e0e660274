"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated tolerance and runtime budget.

Reference constants were produced by an independent high-precision (mpmath,
40 digits) evaluation of the rate chain before the implementation existed.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cowsim import (
    AttackConfig,
    AttackKind,
    OpticsConfig,
    PnsKind,
    PnsModel,
    Protocol,
    ProtocolParams,
    RateMode,
    announce,
    counting_rate,
    monitoring_rate,
    run_experiment,
    run_protocol,
    run_simulation,
    secret_key_rate,
    sift,
    sweep_loss,
    visibility_robustness,
    xi,
)
from cowsim.config import EXPERIMENT_PRESET
from cowsim.experiment import ExperimentConfig
from cowsim.simulation import BIT0, BIT1, DECOY, DetectionRecord, SymbolStream

RSK_REFERENCE = 0.03364479379661617  # mpmath oracle, 40 digits
FIG2 = dict(f=0.1, t_b=1.0, eta=0.1, p_d=1e-5)
LOSS_GRID = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_closed_form_regression():
    t0 = time.perf_counter()
    params = ProtocolParams(mu=0.5, loss_db=0.0, v=1.0, **FIG2)
    res = secret_key_rate(params, Protocol.COW,
                          PnsModel(PnsKind.DETECTABLE_AS_PRINTED))
    elapsed = time.perf_counter() - t0
    assert abs(res.r_sk - RSK_REFERENCE) <= 1e-4
    assert elapsed < 1.0
    report(1, f"R_sk = {res.r_sk:.6f} vs oracle {RSK_REFERENCE:.6f} "
              f"({elapsed*1e3:.1f} ms)")


def test_criterion_2_curve_facts():
    # The monotone detectable-PNS variant is used here: the as-printed
    # mu/(2t) grows with loss and reverses the cutoff ordering of fact (c),
    # which is the recorded open question about that expression.
    t0 = time.perf_counter()
    model = PnsModel(PnsKind.DETECTABLE_ALT)
    template = ProtocolParams(mu=0.5, loss_db=0.0, v=1.0, **FIG2)
    points = sweep_loss(template, list(Protocol), LOSS_GRID, model,
                        visibilities=[1.0, 0.9, 0.8])
    series = {}
    for p in points:
        series.setdefault((p.protocol, p.v), []).append(p.r_sk_star)

    # (a) identical optimized curves at V = 1
    for a, b in zip(series[(Protocol.COW, 1.0)],
                    series[(Protocol.BB84_DECOY, 1.0)]):
        if a > 0.0 or b > 0.0:
            assert abs(a - b) < 1e-9 * max(a, b)

    # (b) nonincreasing in loss and in (1 - V)
    for rates in series.values():
        assert all(x >= y for x, y in zip(rates, rates[1:]))
    for proto in Protocol:
        for i in range(len(LOSS_GRID)):
            v1 = series[(proto, 1.0)][i]
            v09 = series[(proto, 0.9)][i]
            v08 = series[(proto, 0.8)][i]
            assert v1 >= v09 >= v08

    # (c) plain BB84 dies strictly earlier at V = 0.8, and the time-bin
    # protocol keeps more of its rate when V drops at 10 dB
    def first_zero(key):
        for loss, rate in zip(LOSS_GRID, series[key]):
            if rate == 0.0:
                return loss
        return math.inf

    plain_cut = first_zero((Protocol.BB84_PLAIN, 0.8))
    cow_cut = first_zero((Protocol.COW, 0.8))
    assert plain_cut < cow_cut
    rob = visibility_robustness(template, 10.0, model)
    assert not math.isnan(rob.cow_ratio) and not math.isnan(rob.bb84_decoy_ratio)
    assert rob.cow_ratio > rob.bb84_decoy_ratio
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"V=1 identity, monotone curves, plain cutoff {plain_cut} dB < "
              f"{cow_cut} dB, ratios {rob.cow_ratio:.3f} > "
              f"{rob.bb84_decoy_ratio:.3f} ({elapsed:.2f} s)")


def test_criterion_3_monte_carlo_vs_analysis():
    t0 = time.perf_counter()
    n = 1_000_000
    params = ProtocolParams(mu=0.5, loss_db=0.0, f=0.1, t_b=0.9, eta=0.1,
                            p_d=1e-5, v=0.92)
    cfg = OpticsConfig(params=params, insertion_loss=0.5)
    sim = run_simulation(cfg, n, seed=3)
    s = sim.stats

    r_exact = counting_rate(params, RateMode.EXACT)
    sigma_r = math.sqrt(r_exact * (1.0 - r_exact) / sim.n_bits)
    assert abs(sim.empirical_r - r_exact) < 3.0 * sigma_r

    mon = monitoring_rate(params)
    n_nonempty = int(np.count_nonzero(sim.stream.amplitudes > 0))
    sigma_m = math.sqrt(mon * (1.0 - mon) / n_nonempty)
    assert abs(sim.monitoring_rate_per_pulse - mon) < 3.0 * sigma_m

    assert abs(s.v_d - 0.92) <= 0.01
    assert abs(s.v_10 - 0.92) <= 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, f"R {sim.empirical_r:.5f}~{r_exact:.5f}, monitoring "
              f"{sim.monitoring_rate_per_pulse:.3e}~{mon:.3e}, "
              f"V_d {s.v_d:.3f}, V_10 {s.v_10:.3f} ({elapsed:.1f} s)")


def test_criterion_4_xi_relation():
    t0 = time.perf_counter()
    params = ProtocolParams(mu=0.5, loss_db=10.0, f=0.3, t_b=0.5, eta=0.25,
                            p_d=0.0, v=1.0)  # mu t = 0.05
    cfg = OpticsConfig(params=params, insertion_loss=0.0)
    xi_val = xi(params.mu, params.t)
    assert xi_val == pytest.approx(0.97500, abs=1e-5)
    details = []
    for p_ir, seed in ((0.25, 41), (0.5, 42), (1.0, 43)):
        attack = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=p_ir)
        sim = run_simulation(cfg, 1_000_000, seed=seed, attack=attack)
        st = sim.stats
        total = st.n_m1_d + st.n_m2_d
        p2 = st.n_m2_d / total
        sigma = 2.0 * math.sqrt(max(p2 * (1.0 - p2), 1e-12) / total)
        predicted = p_ir * xi_val  # (1 - r) p_ir xi with r = 0
        observed = 1.0 - sim.stats.v_d
        assert abs(observed - predicted) < 3.0 * sigma
        details.append(f"p_ir={p_ir}: 1-V={observed:.4f}~{predicted:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, "; ".join(details) + f" ({elapsed:.1f} s)")


def test_criterion_5_qber_visibility_independence():
    t0 = time.perf_counter()
    # dark rate raised to 1e-4 so the null comparison carries real counts
    counts = {}
    for i, v in enumerate((0.8, 0.9, 1.0)):
        params = ProtocolParams(mu=0.5, loss_db=0.0, f=0.1, t_b=0.9, eta=0.1,
                                p_d=1e-4, v=v)
        sim = run_simulation(OpticsConfig(params=params), 1_000_000,
                             seed=51 + i)
        q = sim.qber
        counts[v] = (q.n_errors, q.n_sifted)
    zs = []
    for va, vb in ((0.8, 0.9), (0.9, 1.0), (0.8, 1.0)):
        (ka, na), (kb, nb) = counts[va], counts[vb]
        pool = (ka + kb) / (na + nb)
        z = (ka / na - kb / nb) / math.sqrt(
            pool * (1.0 - pool) * (1.0 / na + 1.0 / nb))
        zs.append(z)
        assert abs(z) < 3.0
    elapsed = time.perf_counter() - t0
    report(5, "pairwise z = " + ", ".join(f"{z:+.2f}" for z in zs) +
              f" ({elapsed:.1f} s)")


def test_criterion_6_experiment_preset():
    t0 = time.perf_counter()
    params = ProtocolParams(
        mu=EXPERIMENT_PRESET["mu"], loss_db=EXPERIMENT_PRESET["loss_db"],
        f=0.1, t_b=EXPERIMENT_PRESET["t_b"], eta=EXPERIMENT_PRESET["eta"],
        p_d=EXPERIMENT_PRESET["p_d"], v=0.92,
        pulse_period_ns=EXPERIMENT_PRESET["pulse_period_ns"])
    cfg = ExperimentConfig(params=params, n_frames=600000)
    result = run_experiment(cfg, seed=5)

    db = result.counts["D_B"]
    peaks = [i for i, c in enumerate(db) if c >= 0.05 * db.max()]
    assert peaks == [0, 1, 2, 5, 6]  # slots 1,2,3,6,7 of the 8-slot frame

    assert 8.5e3 <= result.raw_rate_hz <= 34e3

    assert result.qber is not None
    assert result.qber.value < 0.052
    elapsed = time.perf_counter() - t0
    report(6, f"peaks at slots {[p + 1 for p in peaks]}, raw rate "
              f"{result.raw_rate_hz/1e3:.1f} kHz in [8.5, 34], QBER "
              f"{result.qber.value:.4f} < 0.052 ({elapsed:.1f} s)")


def test_criterion_7_protocol_pipeline():
    t0 = time.perf_counter()
    n = 1_000_000
    params = ProtocolParams(mu=0.5, loss_db=0.0, f=0.1, t_b=0.9, eta=0.1,
                            p_d=0.0, v=1.0)
    rep = run_protocol(OpticsConfig(params=params), n, seed=3)
    assert not rep.estimation.abort
    assert rep.sim.qber.value == 0.0

    # bit-level identity of the sifted keys of the reported run
    pair = sift(rep.sim.stream, rep.announcement, rep.sim.record)
    assert np.array_equal(pair.alice_bits, pair.bob_bits)

    ana = secret_key_rate(params, Protocol.COW, PnsModel(), RateMode.EXACT)
    r_ex = counting_rate(params, RateMode.EXACT)
    p_sift = (1.0 - params.f) * r_ex
    sigma = (1.0 - rep.estimation.i_eve) * math.sqrt(p_sift * (1.0 - p_sift) / n)
    assert abs(rep.distill.n_secret / n - ana.r_sk) < 3.0 * sigma

    # hand-traced four-symbol sifting example
    kinds = np.array([BIT0, BIT1, DECOY, BIT0], dtype=np.int8)
    stream = SymbolStream(kinds=kinds, mu=0.5, amplitudes=np.zeros(8),
                          phases=np.zeros(8))
    record = DetectionRecord(
        d_b_seq=np.array([0, 2]), d_b_slot=np.array([0, 0]),
        d_m1_seq=np.empty(0, int), d_m1_slot=np.empty(0, int),
        d_m2_seq=np.empty(0, int), d_m2_slot=np.empty(0, int))
    traced = sift(stream, announce(record), record)
    assert list(traced.kept_indices) == [0]
    assert list(traced.alice_bits) == [0]
    assert list(traced.bob_bits) == [0]
    elapsed = time.perf_counter() - t0
    report(7, f"alice==bob over {len(pair.alice_bits)} sifted bits, "
              f"n_secret/n = {rep.distill.n_secret / n:.5f} ~ {ana.r_sk:.5f}, "
              f"hand trace exact ({elapsed:.1f} s)")


def test_criterion_8_byte_identical_outputs(tmp_path):
    t0 = time.perf_counter()
    commands = [
        ("keyrate", "--set", "t_b=1.0"),
        ("curve", "--set", "loss_grid=0,10,20", "--set", "visibilities=1.0,0.8"),
        ("simulate", "--set", "n_symbols=50000", "--seed", "7"),
        ("experiment", "--set", "n_frames=50000", "--seed", "7"),
    ]
    for args in commands:
        paths = [tmp_path / f"{args[0]}_{k}.csv" for k in (1, 2)]
        codes = []
        for path in paths:
            proc = subprocess.run(
                [sys.executable, "-m", "cowsim", *args, "--out", str(path)],
                capture_output=True)
            codes.append(proc.returncode)
        assert codes[0] == codes[1]
        assert paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - t0
    report(8, f"4 commands byte-identical on rerun ({elapsed:.1f} s)")
