"""Monte Carlo optics: physics bookkeeping, estimator consistency, determinism."""

import math

import numpy as np
import pytest

from cowsim import (
    OpticsConfig,
    ProtocolParams,
    RateMode,
    UndefinedEstimateError,
    counting_rate,
    detect,
    estimate_qber,
    estimate_visibility,
    generate_symbols,
    interferometer_outputs,
    monitoring_rate,
    propagate,
    qber,
    run_simulation,
)
from cowsim.simulation import (
    BIT0,
    BIT1,
    DECOY,
    SymbolStream,
    _suppress_deadtime,
    stage_rng,
)


def params(mu=0.5, **over):
    kw = dict(loss_db=0.0, f=0.1, t_b=0.9, eta=0.1, p_d=1e-5, v=1.0)
    kw.update(over)
    return ProtocolParams(mu=mu, **kw)


class TestGenerateSymbols:
    def test_no_decoys(self):
        s = generate_symbols(100000, 0.0, 0.5, seed=1)
        assert np.count_nonzero(s.kinds == DECOY) == 0

    def test_degenerate_all_decoy(self):
        s = generate_symbols(10000, 1.0 - 1e-9, 0.5, seed=2)
        assert np.count_nonzero(s.kinds != DECOY) == 0

    def test_binomial_decoy_count(self):
        n, f = 1_000_000, 0.1
        s = generate_symbols(n, f, 0.5, seed=3)
        k = np.count_nonzero(s.kinds == DECOY)
        sigma = math.sqrt(n * f * (1.0 - f))
        assert abs(k - n * f) < 3.0 * sigma

    def test_pulse_layout(self):
        s = generate_symbols(1000, 0.2, 0.5, seed=4)
        assert len(s.amplitudes) == 2000 and len(s.phases) == 2000
        a = math.sqrt(0.5)
        first, second = s.amplitudes[0::2], s.amplitudes[1::2]
        assert np.all(first[s.kinds == BIT0] == a)
        assert np.all(second[s.kinds == BIT0] == 0.0)
        assert np.all(first[s.kinds == BIT1] == 0.0)
        assert np.all(second[s.kinds == BIT1] == a)
        assert np.all(first[s.kinds == DECOY] == a)
        assert np.all(second[s.kinds == DECOY] == a)
        assert np.all(s.phases == 0.0)

    def test_deterministic(self):
        a = generate_symbols(5000, 0.1, 0.5, seed=9)
        b = generate_symbols(5000, 0.1, 0.5, seed=9)
        assert np.array_equal(a.kinds, b.kinds)


class TestPropagate:
    def test_lossless(self):
        s = generate_symbols(100, 0.1, 0.5, seed=1)
        data_intensity, monitor_amplitude = propagate(s.amplitudes, params(t_b=1.0))
        nonempty = s.amplitudes > 0
        assert data_intensity[nonempty] == pytest.approx(0.5)
        assert np.all(monitor_amplitude == 0.0)

    def test_split_values(self):
        s = SymbolStream(kinds=np.array([BIT0], dtype=np.int8), mu=0.5,
                         amplitudes=np.array([math.sqrt(0.5), 0.0]),
                         phases=np.zeros(2))
        p = ProtocolParams.from_transmission(0.5, 0.316228, f=0.1, t_b=0.9,
                                             eta=0.1, p_d=1e-5, v=1.0)
        data_intensity, monitor_amplitude = propagate(s.amplitudes, p)
        assert data_intensity[0] == pytest.approx(0.1423026, abs=1e-6)
        assert monitor_amplitude[0] ** 2 == pytest.approx(0.0158114, abs=1e-6)

    def test_dark_source(self):
        s = generate_symbols(100, 0.1, 0.0, seed=1)
        data_intensity, monitor_amplitude = propagate(s.amplitudes, params())
        assert np.all(data_intensity == 0.0)
        assert np.all(monitor_amplitude == 0.0)


def overlap_slot(a_first, a_second, phase, v, insertion_loss):
    """Output intensities where the two pulses of a two-pulse train overlap."""
    i1, i2 = interferometer_outputs(np.array([a_first, a_second]),
                                    np.array([phase, 0.0]), v, insertion_loss)
    return i1[1], i2[1]


class TestInterfere:
    def test_destructive_port_exact_zero(self):
        m1, m2 = overlap_slot(0.3, 0.3, 0.0, 1.0, 0.0)
        assert m2 == 0.0
        assert m1 == pytest.approx(0.3 ** 2 * 4 / 4)

    def test_single_pulse_splits_evenly(self):
        m1, m2 = overlap_slot(0.4, 0.0, 0.0, 1.0, 0.25)
        assert m1 == m2 == pytest.approx(0.75 * 0.16 / 4)

    def test_reduced_visibility_ratio(self):
        m1, m2 = overlap_slot(0.5, 0.5, 0.0, 0.92, 0.5)
        assert m2 / (m1 + m2) == pytest.approx((1.0 - 0.92) / 2.0, abs=1e-12)

    def test_energy_bookkeeping_random_patterns(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 200))
            amps = rng.random(n) * rng.integers(0, 2, n)
            phases = rng.random(n) * 2 * math.pi
            v = float(rng.random())
            il = float(rng.random() * 0.9)
            i1, i2 = interferometer_outputs(amps, phases, v, il)
            total_in = float(np.sum(amps ** 2))
            total_out = float(np.sum(i1) + np.sum(i2))
            assert total_out == pytest.approx((1.0 - il) * total_in, rel=1e-12)


class TestDetect:
    def test_dark_free_vacuum_never_clicks(self):
        clicks = detect(np.zeros(10000), 0.1, 0.0, stage_rng(1, 99))
        assert not np.any(clicks)

    def test_bright_always_clicks(self):
        clicks = detect(np.full(1000, 1e6), 1.0, 0.0, stage_rng(1, 99))
        assert np.all(clicks)

    def test_click_fraction(self):
        n = 1_000_000
        clicks = detect(np.full(n, 0.5), 0.1, 0.0, stage_rng(5, 99))
        p = 0.04877057549928599
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(np.mean(clicks) - p) < 3.0 * sigma


class TestRunSimulation:
    def test_dark_and_source_free_is_empty(self):
        cfg = OpticsConfig(params=params(mu=0.0, p_d=0.0))
        sim = run_simulation(cfg, 5000, seed=3)
        assert len(sim.record.d_b_seq) == 0
        assert len(sim.record.d_m1_seq) == 0
        assert len(sim.record.d_m2_seq) == 0

    def test_rates_match_closed_forms(self):
        p = params(v=0.92)
        cfg = OpticsConfig(params=p)
        sim = run_simulation(cfg, 400000, seed=3)
        s = sim.summary
        r_exact = counting_rate(p, RateMode.EXACT)
        sig = math.sqrt(r_exact * (1 - r_exact) / s.n_bits)
        assert abs(s.empirical_r - r_exact) < 3 * sig
        mon = monitoring_rate(p)
        sig_m = math.sqrt(mon / (1.1 * 400000))
        assert abs(s.monitoring_rate_per_pulse - mon) < 3 * sig_m + 2 * p.p_d

    def test_visibility_estimator_consistency(self):
        # lossless interferometer and a strong tap for high-count estimates
        p = params(t_b=0.5, eta=0.5, p_d=0.0, v=0.9, f=0.3)
        cfg = OpticsConfig(params=p, insertion_loss=0.0)
        sim = run_simulation(cfg, 400000, seed=11)
        st = sim.stats
        for v_hat, (n1, n2) in ((sim.summary.v_d, (st.n_m1_d, st.n_m2_d)),
                                (sim.summary.v_10, (st.n_m1_10, st.n_m2_10))):
            total = n1 + n2
            p2 = n2 / total
            sigma = 2 * math.sqrt(max(p2 * (1 - p2), 1e-12) / total)
            assert abs(v_hat - 0.9) < 3 * sigma + 1e-3

    def test_perfect_visibility_dark_free_m2_silent(self):
        p = params(t_b=0.5, p_d=0.0, v=1.0)
        cfg = OpticsConfig(params=p, insertion_loss=0.0)
        sim = run_simulation(cfg, 100000, seed=5)
        assert sim.stats.n_m2_d == 0
        assert sim.stats.n_m2_10 == 0

    def test_qber_independent_of_setup_visibility(self):
        # raised dark rate sharpens the null comparison
        counts = {}
        for i, v in enumerate((0.8, 0.9, 1.0)):
            p = params(v=v, p_d=1e-4)
            sim = run_simulation(OpticsConfig(params=p), 300000, seed=100 + i)
            q = sim.summary.qber
            counts[v] = (q.n_errors, q.n_sifted)
        pairs = [(0.8, 0.9), (0.9, 1.0), (0.8, 1.0)]
        for va, vb in pairs:
            (ka, na), (kb, nb) = counts[va], counts[vb]
            pool = (ka + kb) / (na + nb)
            z = (ka / na - kb / nb) / math.sqrt(pool * (1 - pool) * (1 / na + 1 / nb))
            assert abs(z) < 3.0

    def test_deterministic_record(self):
        cfg = OpticsConfig(params=params(v=0.92))
        a = run_simulation(cfg, 50000, seed=21)
        b = run_simulation(cfg, 50000, seed=21)
        for attr in ("d_b_seq", "d_b_slot", "d_m1_seq", "d_m1_slot",
                     "d_m2_seq", "d_m2_slot"):
            assert np.array_equal(getattr(a.record, attr), getattr(b.record, attr))
        c = run_simulation(cfg, 50000, seed=22)
        assert not np.array_equal(a.record.d_b_seq, c.record.d_b_seq)


class TestDeadtime:
    def test_suppression(self):
        times = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 30.0])
        keep = _suppress_deadtime(times, 5.0)
        assert list(times[keep]) == [0.0, 10.0, 30.0]

    def test_continuous_mode_min_gap(self):
        p = params(mu=1.0, eta=1.0, t_b=0.9, p_d=0.0, pulse_period_ns=1.0)
        cfg = OpticsConfig(params=p, deadtime_ns=7.0)
        sim = run_simulation(cfg, 20000, seed=2)
        g = 2 * sim.record.d_b_seq + sim.record.d_b_slot
        assert np.all(np.diff(g) >= 7)


class TestEstimators:
    def test_visibility_values(self):
        assert estimate_visibility(100, 0) == 1.0
        assert estimate_visibility(50, 50) == 0.0
        assert estimate_visibility(96, 4) == pytest.approx(0.92)

    def test_visibility_undefined(self):
        with pytest.raises(UndefinedEstimateError):
            estimate_visibility(0, 0)

    def test_qber_noiseless_zero(self):
        cfg = OpticsConfig(params=params(p_d=0.0))
        sim = run_simulation(cfg, 50000, seed=8)
        assert sim.summary.qber.value == 0.0

    def test_qber_matches_dark_count_formula(self):
        p = params()
        sim = run_simulation(OpticsConfig(params=p), 1_000_000, seed=3)
        est = sim.summary.qber
        q_ref = qber(p).q_det
        sigma = math.sqrt(q_ref * (1 - q_ref) / est.n_sifted)
        assert abs(est.value - q_ref) < 3 * sigma
        assert est.lo <= est.value <= est.hi

    def test_qber_all_flipped_synthetic(self):
        kinds = np.array([BIT0, BIT1, BIT0], dtype=np.int8)
        seq = np.array([0, 1, 2])
        est = estimate_qber(seq, np.array([1, 0, 1]), kinds[seq])
        assert est.value == 1.0

    def test_qber_undefined_without_detections(self):
        kinds = np.array([BIT0], dtype=np.int8)
        seq = np.empty(0, int)
        with pytest.raises(UndefinedEstimateError):
            estimate_qber(seq, np.empty(0, int), kinds[seq])
