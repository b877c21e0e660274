"""Intercept-resend attack: stream transformation, the predicted signatures of
rates.predicted_signature, and closed-form oracles for the data-line side
effects of the resend policy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim import (
    AttackConfig,
    AttackKind,
    OpticsConfig,
    PnsModel,
    Protocol,
    ProtocolParams,
    apply_intercept_resend,
    eve_information,
    generate_symbols,
    predicted_signature,
    run_protocol,
    run_simulation,
    simulate_stream,
    xi,
)
from cowsim.simulation import (
    BIT0,
    BIT1,
    DECOY,
    SymbolStream,
    _bernoulli,
    _candidates,
    stage_rng,
)

# attack study configuration: mu t = 0.05 with a strong monitoring tap and a
# lossless interferometer so the class estimates carry real statistics
ATTACK_KW = dict(loss_db=10.0, f=0.3, t_b=0.5, eta=0.25, p_d=0.0, v=1.0)


def attack_params(mu=0.5, **over):
    kw = {**ATTACK_KW, **over}
    return ProtocolParams(mu=mu, **kw)


def ir(p_ir):
    return AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=p_ir)


def data_click_probs(params, p_ir):
    """Per-bit-symbol signal-slot click probabilities of the resend policy."""
    p = -math.expm1(-params.mu * params.t)
    boost = 1.0 / (p * (2.0 - p))
    keep = 1.0 - params.p_d
    p_un = 1.0 - keep * math.exp(-params.eta * params.mu * params.t * params.t_b)
    p_att_hit = 1.0 - keep * math.exp(
        -params.eta * 2.0 * boost * params.mu * params.t * params.t_b)
    p_att = p * p_att_hit + (1.0 - p) * params.p_d
    return p_un, p_att, (1.0 - p_ir) * p_un + p_ir * p_att


def dense_attacked_train(kinds, mu, config, params, rng):
    """Every pulse's (amplitude, phase) of Alice's train after the attack,
    built pulse by pulse from the attack's draws: the attack mask (an exact
    Bernoulli(p_ir) per window, from the one helper that draws them), Eve's
    detections (one Bernoulli(1 - exp(-mu t)) process over the pulses of the
    attacked windows in train order, a detection on an empty pulse dropped)
    and one phase per resent window in window order. The reference the window
    lookup must reproduce."""
    n, a = len(kinds), math.sqrt(mu)
    amplitudes = np.zeros(2 * n)
    amplitudes[0::2][kinds != BIT1] = a
    amplitudes[1::2][kinds != BIT0] = a
    phases = np.zeros(2 * n)
    p_det = -math.expm1(-mu * params.t)
    if not config.is_active() or p_det <= 0.0:
        return amplitudes, phases
    boost = 1.0 / (p_det * (2.0 - p_det))
    attacked = np.zeros(n, dtype=np.int8)
    _bernoulli(rng, config.p_ir, attacked, 1)
    attacked = attacked.view(bool)
    attacked_pulses = np.flatnonzero(np.repeat(attacked, 2))
    detected = np.zeros(2 * n, dtype=bool)
    detected[attacked_pulses[_candidates(rng, p_det, len(attacked_pulses))]] = True
    detected &= amplitudes > 0.0
    det = [detected[0::2], detected[1::2]]
    resent = det[0] | det[1]
    theta = np.zeros(n)
    theta[resent] = rng.random(np.count_nonzero(resent)) * (2.0 * math.pi)
    first, second = amplitudes[0::2], amplitudes[1::2]
    guess_bit = (1.0 - params.f) / 2.0 >= params.f * (1.0 - p_det)
    for i, pulse in enumerate((first, second)):
        pulse[attacked] = 0.0  # vacuum unless Eve resends
        pulse[det[0] & det[1]] = math.sqrt(boost * mu)
        single = det[i] & ~det[1 - i] if guess_bit else det[0] ^ det[1]
        pulse[single] = math.sqrt((2.0 if guess_bit else 1.0) * boost * mu)
        phases[i::2][resent] = theta[resent]
    return amplitudes, phases


def dense_intercept_resend(stream, config, params, rng):
    """The attack with the earlier dense draw layout: for every window an
    attack uniform, a phase and two detection uniforms. Returns the attacked
    stream in the sparse layout: the reference for the statistics of the
    sparse draw."""
    n, mu, kinds = stream.n_symbols, stream.mu, stream.kinds
    p_det = -math.expm1(-mu * params.t)
    boost = 1.0 / (p_det * (2.0 - p_det))
    attacked = rng.random(n) < config.p_ir
    theta = rng.random(n) * (2.0 * math.pi)
    u = rng.random((n, 2))
    det_first = attacked & (kinds != BIT1) & (u[:, 0] < p_det)
    det_second = attacked & (kinds != BIT0) & (u[:, 1] < p_det)
    guess_bit = (1.0 - params.f) / 2.0 >= params.f * (1.0 - p_det)
    a_pair, a_single = math.sqrt(boost * mu), math.sqrt(2.0 * boost * mu)
    rows = [[0.0, 0.0], [a_pair, a_pair]]
    rows += [[a_single, 0.0], [0.0, a_single]] if guess_bit else []
    vacuum, pair, first, second = range(3, 7)
    shapes = kinds.astype(np.uint8)
    shapes[attacked] = vacuum
    shapes[det_first | det_second] = pair
    if guess_bit:
        shapes[det_first & ~det_second] = first
        shapes[det_second & ~det_first] = second
    resent = np.flatnonzero(det_first | det_second)
    out = SymbolStream(kinds, mu, shapes=shapes, table=np.vstack((stream.table, rows)),
                       resent=resent, phases=theta[resent])
    return out


class TestStreamTransform:
    @settings(max_examples=200, deadline=None)
    @given(kinds=st.lists(st.integers(0, 2), min_size=1, max_size=200),
           mu=st.floats(0.0, 50.0), p_ir=st.floats(0.0, 1.0), f=st.floats(0.0, 0.99),
           loss_db=st.floats(0.0, 30.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_lookup_equals_dense_train(self, kinds, mu, p_ir, f, loss_db, seed):
        kinds = np.array(kinds, dtype=np.int8)
        params = attack_params(mu=mu, f=f, loss_db=loss_db)
        out = apply_intercept_resend(SymbolStream(kinds, mu), ir(p_ir), params,
                                     stage_rng(seed, 2))
        amplitudes, phases = dense_attacked_train(kinds, mu, ir(p_ir), params,
                                                  stage_rng(seed, 2))
        idx = np.arange(-1, 2 * len(kinds) + 1)  # one pulse past either end
        a, ph = out.pulses(idx)
        assert np.array_equal(a, np.pad(amplitudes, 1))
        assert np.array_equal(np.broadcast_to(ph, a.shape), np.pad(phases, 1))

    def test_inactive_attack_is_identity(self):
        stream = generate_symbols(20000, 0.3, 0.5, seed=1)
        # a set p_ir leaves the attack inactive while its kind is none
        for cfg in (AttackConfig(), ir(0.0), AttackConfig(p_ir=0.5)):
            out = apply_intercept_resend(stream, cfg, attack_params(), stage_rng(1, 2))
            assert out is stream
            assert np.count_nonzero(out.shapes >= 3) == 0  # no window has Eve's code
            assert len(out.resent) == 0

    def test_full_attack_log(self):
        stream = generate_symbols(50000, 0.3, 0.5, seed=2)
        params = attack_params()
        # the attacked stream is Eve's record: her shape codes mark the
        # attacked windows, and the resent ones are listed
        out = apply_intercept_resend(stream, ir(1.0), params, stage_rng(2, 2))
        n_attacked = np.count_nonzero(out.shapes >= 3)
        assert n_attacked == 50000
        assert len(out.resent) <= n_attacked
        p = -math.expm1(-params.mu * params.t)
        n_bits = np.count_nonzero(stream.kinds != DECOY)
        sigma = math.sqrt(n_bits * p * (1 - p))
        eve_known_bits = np.count_nonzero(out.kinds[out.resent] != DECOY)
        assert abs(eve_known_bits - n_bits * p) < 3 * sigma

    def test_phases_randomized_per_window(self):
        stream = generate_symbols(50000, 0.3, 0.5, seed=3)
        out = apply_intercept_resend(stream, ir(1.0), attack_params(), stage_rng(3, 2))
        amplitudes, phases = out.pulses(np.arange(2 * out.n_symbols))
        resent = amplitudes > 0
        # original stream is all phase 0; every resent pulse gets a fresh one
        assert np.all(phases[resent] != 0.0)
        # the two pulses of a resent decoy share their window phase
        both = (amplitudes[0::2] > 0) & (amplitudes[1::2] > 0)
        assert np.all(phases[0::2][both] == phases[1::2][both])

    def test_conclusive_limit_restores_visibility(self):
        # mu t = 50: Eve resolves every pair, decoy coherence survives
        params = attack_params(mu=500.0)
        cfg = OpticsConfig(params=params, insertion_loss=0.0)
        sim = run_simulation(cfg, 20000, seed=4, attack=ir(1.0))
        assert sim.stats.v_d == pytest.approx(1.0, abs=1e-12)


class TestSparseAgainstDenseDraw:
    """The sparse draw of Eve's detections and phases has the statistics of
    the dense per-window draw: two independent samples of seeds agree."""

    N_SEEDS = 100

    def sample(self, params, n, seed, dense):
        # one seed's counts under a half intercept-resend attack
        attack, cfg = ir(0.5), OpticsConfig(params=params, insertion_loss=0.0)
        stream = generate_symbols(n, params.f, params.mu, seed)
        draw = dense_intercept_resend if dense else apply_intercept_resend
        out = draw(stream, attack, params, stage_rng(seed, 2))
        conclusive = len(out.resent)
        known = np.count_nonzero(out.kinds[out.resent] != DECOY)
        sim = simulate_stream(cfg, out, seed)
        st = sim.stats
        return [st.n_m1_10, st.n_m2_10, st.n_m1_d, st.n_m2_d, conclusive, known,
                len(sim.record.d_b)]

    @pytest.mark.parametrize("over", [
        dict(),  # mu t = 0.05: single clicks dominate, resent as the guessed bit
        dict(loss_db=0.0),  # mu t = 0.5: many decoys resent as pairs
        dict(loss_db=3.0, f=0.6),  # decoys dominate: a single click is resent as a pair
    ], ids=["10dB", "0dB", "pair-guess"])
    def test_counts_agree(self, over):
        params, n = attack_params(**over), 20000
        # the dense sample takes the next seeds, so the samples are independent
        sparse, dense = (np.array([self.sample(params, n, seed, d)
                                   for seed in range(self.N_SEEDS * d,
                                                     self.N_SEEDS * (d + 1))])
                         for d in (False, True))
        gap = sparse.mean(axis=0) - dense.mean(axis=0)
        se = np.sqrt((sparse.var(axis=0, ddof=1) + dense.var(axis=0, ddof=1)) / self.N_SEEDS)
        # a count that is 0 on every seed (no D_M2 click inside a coherent
        # pair at v = 1 and p_d = 0) must be 0 in both samples
        assert np.all(np.abs(gap) <= 4.0 * se), (gap, se)


class TestXiRelation:
    @pytest.mark.parametrize("p_ir", [0.25, 0.5, 1.0])
    def test_decoy_class_visibility(self, p_ir):
        params = attack_params()
        cfg = OpticsConfig(params=params, insertion_loss=0.0)
        sim = run_simulation(cfg, 300000, seed=17, attack=ir(p_ir))
        st = sim.stats
        total = st.n_m1_d + st.n_m2_d
        p2 = st.n_m2_d / total
        sigma = 2.0 * math.sqrt(max(p2 * (1 - p2), 1e-12) / total)
        predicted = 1.0 - p_ir * xi(params.mu, params.t)
        assert abs(sim.stats.v_d - predicted) < 3.0 * sigma

    def test_cross_boundary_class_damaged_harder(self):
        # per-window phases break 1-0 coherence even for conclusive windows,
        # so the mismatch between the classes is what trips the abort rule
        params = attack_params()
        cfg = OpticsConfig(params=params, insertion_loss=0.0)
        sim = run_simulation(cfg, 300000, seed=18, attack=ir(0.5))
        assert sim.stats.v_10 < sim.stats.v_d


class TestPredictedSignature:
    def test_no_attack(self):
        params = attack_params(mu=0.05, loss_db=0.0)
        v, i_eve = predicted_signature(params, 0.0, Protocol.COW,
                                       PnsModel.ERROR_FREE)
        assert v == 1.0 and i_eve == 0.0

    def test_half_attack_values(self):
        params = attack_params(mu=0.05, loss_db=0.0)
        v, i_eve = predicted_signature(params, 0.5, Protocol.COW,
                                       PnsModel.ERROR_FREE)
        assert i_eve == pytest.approx(0.5, rel=1e-12)
        assert 1.0 - v == pytest.approx(0.4875026035157897, abs=1e-9)

    @pytest.mark.parametrize("p_ir", [0.1, 0.5, 0.9])
    def test_round_trip_through_estimator(self, p_ir):
        params = attack_params(mu=0.05, loss_db=0.0)
        model = PnsModel.ERROR_FREE
        v, i_eve = predicted_signature(params, p_ir, Protocol.COW, model)
        est = eve_information(
            ProtocolParams(mu=0.05, loss_db=0.0, f=params.f, t_b=params.t_b,
                           eta=params.eta, p_d=params.p_d, v=v),
            Protocol.COW, model)
        assert est.p_ir == pytest.approx(p_ir, abs=1e-9)
        assert est.i_eve == pytest.approx(i_eve, abs=1e-9)


class TestDataLineSideEffects:
    # Each single-seed z-check below fails a correct draw with probability
    # P(|z| > 4) = 6.3e-5. At 2e6 symbols 4 sd is narrower than 3 sd at 5e5
    # symbols, so a bias a 3 sd check at 5e5 would catch still fails here.
    N = 2_000_000

    def test_rate_matches_policy_oracle(self):
        params = attack_params()
        cfg = OpticsConfig(params=params, insertion_loss=0.0)
        for p_ir in (0.5, 1.0):
            sim = run_simulation(cfg, self.N, seed=23, attack=ir(p_ir))
            _, _, expected = data_click_probs(params, p_ir)
            n = sim.n_bits
            sigma = math.sqrt(expected * (1 - expected) / n)
            assert abs(sim.empirical_r - expected) < 4 * sigma

    def test_qber_stays_at_no_attack_level(self):
        # time-basis resends land in the correct slot; with darks as the only
        # error source the attacked QBER follows the same dark-count formula
        # with the policy's slightly different click rates
        params = attack_params(p_d=1e-4)
        cfg = OpticsConfig(params=params, insertion_loss=0.0)
        base = run_protocol(cfg, self.N, seed=29).qber
        atk = run_protocol(cfg, self.N, seed=31, attack=ir(1.0)).qber

        def oracle(p_ir):
            p_un, p_att, _ = data_click_probs(params, p_ir)
            pw = params.p_d
            w = [(1.0 - p_ir, p_un), (p_ir, p_att)]
            num = sum(wi * pw * (1 - pr) for wi, pr in w)
            den = sum(wi * (pr * (1 - pw) + pw * (1 - pr)) for wi, pr in w)
            return num / den

        for est, p_ir in ((base, 0.0), (atk, 1.0)):
            q_ref = oracle(p_ir)
            sigma = math.sqrt(q_ref * (1 - q_ref) / est.n_sifted)
            assert abs(est.value - q_ref) < 4 * sigma
        # and the attack-induced change itself is marginal
        assert abs(atk.value - base.value) < 6 * math.sqrt(
            base.value * (1 - base.value) / base.n_sifted)

    def test_eve_information_accounting(self):
        # Eve knows every sifted bit that came from a window she resent
        params = attack_params()
        p_ir = 0.5
        # about 43 k sifted bits: the expected fraction, 0.4907, sits 4.4 sd
        # inside the 0.48 edge of the approx check below
        n = 10_000_000
        stream = generate_symbols(n, params.f, params.mu, seed=37)
        out = apply_intercept_resend(stream, ir(p_ir), params, stage_rng(37, 2))
        cfg = OpticsConfig(params=params, insertion_loss=0.0)
        from cowsim.simulation import simulate_stream
        sim = simulate_stream(cfg, out, seed=37)
        from cowsim import sift
        pair = sift(out, sim.record.d_b)
        attacked = out.shapes >= 3  # every attacked window has one of Eve's codes
        known = np.count_nonzero(attacked[pair.kept_indices])
        frac = known / len(pair.kept_indices)
        p_un, p_att, mix = data_click_probs(params, p_ir)
        expected = p_ir * p_att / mix
        sigma = math.sqrt(expected * (1 - expected) / len(pair.kept_indices))
        assert abs(frac - expected) < 3 * sigma
        # consistent with the I = (1-r) p_IR accounting at leading order
        assert frac == pytest.approx(p_ir, abs=0.02)
