"""Monte Carlo optics: physics bookkeeping, estimator consistency, determinism."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cowsim import (
    AttackConfig,
    AttackKind,
    ExperimentConfig,
    MonitoringStats,
    OpticsConfig,
    ProtocolParams,
    RateMode,
    counting_rate,
    detect,
    estimate_qber,
    generate_symbols,
    interferometer_outputs,
    monitoring_rate,
    propagate,
    run_experiment,
    run_protocol,
    run_simulation,
    secret_key_rate,
    sift,
    simulate_stream,
)
from cowsim import simulation
from cowsim.attacks import apply_intercept_resend
from cowsim.experiment import FRAME_PATTERNS
from cowsim.simulation import (
    BIT0,
    BIT1,
    DECOY,
    _CHUNK,
    _STAGE_SYMBOLS,
    SymbolStream,
    _bernoulli,
    _bright_runs,
    _candidates,
    _class_candidates,
    _click_probability,
    _optics,
    _probability,
    _run_chain,
    _suppress_deadtime,
    _wilson,
    stage_rng,
)


def params(mu=0.5, **over):
    kw = dict(loss_db=0.0, f=0.1, t_b=0.9, eta=0.1, p_d=1e-5, v=1.0)
    kw.update(over)
    return ProtocolParams(mu=mu, **kw)


def dense_train(stream):
    """Every pulse's (amplitude, phase), from the window lookup over the
    whole train."""
    amplitudes, phases = stream.pulses(np.arange(2 * stream.n_symbols))
    return amplitudes, np.broadcast_to(phases, amplitudes.shape)


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
        amplitudes, phases = dense_train(s)
        assert len(amplitudes) == 2000 and len(phases) == 2000
        a = math.sqrt(0.5)
        first, second = amplitudes[0::2], amplitudes[1::2]
        assert np.all(first[s.kinds == BIT0] == a)
        assert np.all(second[s.kinds == BIT0] == 0.0)
        assert np.all(first[s.kinds == BIT1] == 0.0)
        assert np.all(second[s.kinds == BIT1] == a)
        assert np.all(first[s.kinds == DECOY] == a)
        assert np.all(second[s.kinds == DECOY] == a)
        assert np.all(phases == 0.0)

    def test_chunk_size_leaves_the_draw(self, monkeypatch):
        # n is a multiple of no chunk size, so the last chunk is a short one;
        # f = 0.1 has a long expansion, so ties go to later rounds
        n, f = 2 * _CHUNK + 12345, 0.1
        reference = generate_symbols(n, f, 0.5, seed=6).kinds
        for chunk in (8, 64, 8 * 1001, 1 << 20):
            monkeypatch.setattr(simulation, "_CHUNK", chunk)
            s = generate_symbols(n, f, 0.5, seed=6)
            assert s.kinds.dtype == np.int8
            assert np.array_equal(s.kinds, reference), chunk

    def test_deterministic(self):
        a = generate_symbols(5000, 0.1, 0.5, seed=9)
        b = generate_symbols(5000, 0.1, 0.5, seed=9)
        assert np.array_equal(a.kinds, b.kinds)


def float_symbols(n, f, seed):
    """The earlier symbol layout, one uniform per symbol: BIT0 below (1-f)/2,
    BIT1 below 1 - f, DECOY above. The reference of the byte-wise draw's
    statistics."""
    u = stage_rng(seed, _STAGE_SYMBOLS).random(n)
    return (u >= (1.0 - f) / 2.0).astype(np.int8) + (u >= 1.0 - f)


class TestBytewiseAgainstFloatSymbols:
    """Symbols drawn as a fair bit plus an exact Bernoulli(f) decoy flag have
    the statistics of the earlier one-uniform-per-symbol draw: two
    independent samples of seeds agree on the kind counts and on a clean
    run's monitoring tallies, sifted bits and errors."""

    N_SEEDS = 100

    def sample(self, n, seed, floats):
        p = params(f=0.3, t_b=0.5, v=0.9, p_d=1e-3)
        kinds = float_symbols(n, p.f, seed) if floats else generate_symbols(
            n, p.f, p.mu, seed).kinds
        stream = SymbolStream(kinds, p.mu)
        sim = simulate_stream(OpticsConfig(params=p, insertion_loss=0.0), stream, seed)
        key = sift(stream, sim.record.d_b)
        st = sim.stats
        return [*np.bincount(kinds, minlength=3), st.n_m1_10, st.n_m2_10, st.n_m1_d,
                st.n_m2_d, len(key.alice_bits),
                int(np.count_nonzero(key.alice_bits != key.bob_bits))]

    def test_counts_agree(self):
        n = 20000
        # the float sample takes the next seeds, so the samples are independent
        bytewise, floats = (np.array([self.sample(n, seed, d)
                                      for seed in range(self.N_SEEDS * d,
                                                        self.N_SEEDS * (d + 1))])
                            for d in (False, True))
        gap = bytewise.mean(axis=0) - floats.mean(axis=0)
        se = np.sqrt((bytewise.var(axis=0, ddof=1) + floats.var(axis=0, ddof=1))
                     / self.N_SEEDS)
        assert np.all(se > 0.0)
        assert np.all(np.abs(gap) <= 4.0 * se), (gap, se)


def lexicographic_bernoulli(p, n, raw):
    """Pure-Python reference of _bernoulli: trial i succeeds when its bytes,
    read as the leading bytes of a uniform, compare below the bytes of p's
    binary expansion. Every trial takes a byte in index order, then each trial
    still tied takes its next one, round by round; a round draws whole
    8-byte words. Returns the successes and the count of trials tied on every
    byte of p."""
    digits, x = [], Fraction(p)
    while x:
        x *= 256
        digits.append(math.floor(x))
        x -= digits[-1]
    drawn = [[] for _ in range(n)]
    tied = list(range(n)) if digits else []
    while tied:
        stream = np.asarray(raw(-(-len(tied) // 8)), dtype=np.uint64).tobytes()
        for i, byte in zip(tied, stream):
            drawn[i].append(byte)
        tied = [i for i in tied if drawn[i] == digits[:len(drawn[i])] and
                len(drawn[i]) < len(digits)]
    return (np.array([u < digits for u in drawn], dtype=bool),
            sum(u == digits for u in drawn) if digits else 0)


class TestBernoulli:
    @staticmethod
    def draw(p, n, seed):
        """(successes, generator after the draw) of n trials."""
        out = np.zeros(n, dtype=np.int8)
        rng = stage_rng(seed, _STAGE_SYMBOLS)
        _bernoulli(rng, p, out, 1)
        return out.view(bool), rng

    @pytest.mark.parametrize("k", [1, 77, 128, 255])
    def test_k_over_256_is_one_byte_per_trial(self, k):
        n = 2 * _CHUNK + 13
        hit, rng = self.draw(k / 256, n, seed=k)
        words = stage_rng(k, _STAGE_SYMBOLS).bit_generator.random_raw(-(-n // 8) + 1)
        assert np.array_equal(hit, words.view(np.uint8)[:n] < k)
        # the next word is the one after the first ceil(n / 8)
        assert rng.bit_generator.random_raw() == words[-1]

    @settings(max_examples=300, deadline=None)
    @given(p=st.one_of(st.floats(0.0, 1.0),
                       st.integers(0, 2 ** 16).map(lambda k: k / 2 ** 16),
                       st.integers(1, 2 ** 24).map(lambda k: 1.0 - k / 2 ** 24)),
           n=st.integers(1, 3000), seed=st.integers(0, 2 ** 64 - 1),
           chunk=st.sampled_from([8, 64, _CHUNK]))
    def test_matches_lexicographic_byte_comparison(self, p, n, seed, chunk):
        with mock.patch.object(simulation, "_CHUNK", chunk):
            hit, _ = self.draw(p, n, seed)
        reference, _ = lexicographic_bernoulli(
            p, n, stage_rng(seed, _STAGE_SYMBOLS).bit_generator.random_raw)
        assert np.array_equal(hit, reference)

    @pytest.mark.parametrize("p", [0x4C01 / 2 ** 16, 0xC3 / 2 ** 16])
    def test_tie_on_every_byte_fails(self, p):
        # two expansion bytes and 2^18 trials: a few trials tie on both
        n = 1 << 18
        hit, _ = self.draw(p, n, seed=7)
        reference, full_ties = lexicographic_bernoulli(
            p, n, stage_rng(7, _STAGE_SYMBOLS).bit_generator.random_raw)
        assert full_ties > 0
        assert np.array_equal(hit, reference)

    def test_zero_draws_nothing(self):
        hit, rng = self.draw(0.0, 1000, seed=1)
        assert not hit.any()
        first = stage_rng(1, _STAGE_SYMBOLS).bit_generator.random_raw()
        assert rng.bit_generator.random_raw() == first

    def test_one_always_succeeds(self):
        # the only expansion byte of 1.0 is 256, above every byte drawn
        hit, _ = self.draw(1.0, 1000, seed=1)
        assert hit.all()

    @pytest.mark.parametrize("p", [0.1, 0.45, 1e-5, 0.999])
    def test_binomial_count(self, p):
        n = 10_000_000
        hit, _ = self.draw(p, n, seed=12)
        z = (np.count_nonzero(hit) - n * p) / math.sqrt(n * p * (1.0 - p))
        assert abs(z) < 5.0


class TestPropagate:
    def test_lossless(self):
        amplitudes = dense_train(generate_symbols(100, 0.1, 0.5, seed=1))[0]
        data_intensity, monitor_amplitude = propagate(amplitudes, params(t_b=1.0))
        nonempty = amplitudes > 0
        assert data_intensity[nonempty] == pytest.approx(0.5)
        assert np.all(monitor_amplitude == 0.0)

    def test_split_values(self):
        s = SymbolStream(kinds=np.array([BIT0], dtype=np.int8), mu=0.5)
        amplitudes = dense_train(s)[0]
        assert list(amplitudes) == [math.sqrt(0.5), 0.0]
        p = ProtocolParams(mu=0.5, loss_db=-10.0 * math.log10(0.316228), f=0.1, t_b=0.9,
                           eta=0.1, p_d=1e-5, v=1.0)
        data_intensity, monitor_amplitude = propagate(amplitudes, p)
        assert data_intensity[0] == pytest.approx(0.1423026, abs=1e-6)
        assert monitor_amplitude[0] ** 2 == pytest.approx(0.0158114, abs=1e-6)

    def test_dark_source(self):
        amplitudes = dense_train(generate_symbols(100, 0.1, 0.0, seed=1))[0]
        data_intensity, monitor_amplitude = propagate(amplitudes, params())
        assert np.all(data_intensity == 0.0)
        assert np.all(monitor_amplitude == 0.0)


def overlap_slot(a_first, a_second, phase, v, insertion_loss):
    """Output intensities where the delayed first pulse meets the second."""
    return interferometer_outputs(a_first, a_second, phase, v, insertion_loss)


def train_pairs(amplitudes, phases):
    """(left, right, dphi) of every interferometer output slot of a train: slot
    j pairs the delayed pulse j-1 with pulse j, and the edge slots hold one
    pulse each."""
    left = np.concatenate(([0.0], amplitudes))
    right = np.concatenate((amplitudes, [0.0]))
    return left, right, np.concatenate(([0.0], phases)) - np.concatenate((phases, [0.0]))


def dense_intensities(config, amplitudes, phases, n_slots=0):
    """Every slot's intensity at D_B, D_M1 and D_M2, from the whole train at
    once. Slots past the light, up to n_slots, are dark."""
    p = config.params
    data, monitor = propagate(amplitudes, p)
    m1, m2 = interferometer_outputs(*train_pairs(monitor, phases), p.v,
                                    config.insertion_loss)
    return [np.pad(i, (0, max(n_slots - len(i), 0))) for i in (data, m1, m2)]


def dense_click_probabilities(config, amplitudes, phases, n_slots=0):
    """Every slot's click probability for D_B, D_M1 and D_M2: the reference
    the sparse sampler must reproduce. Slots past the light, up to n_slots,
    hold dark counts only."""
    p = config.params
    return [1.0 - (1.0 - p.p_d) * (1.0 - config.background) * np.exp(-p.eta * i)
            for i in dense_intensities(config, amplitudes, phases, n_slots)]


def reference_click_bounds(config, peak):
    """(D_B, D_M1, D_M2) click probabilities at the brightest slot of a train
    whose pulses are no brighter than peak: the peak pulse, or two peak pulses
    in phase. The chain's bounds were this formula at the peak pulse before
    it read them off its per-code tables."""
    p = config.params
    data, monitor = propagate(np.array([peak]), p)
    pair = interferometer_outputs(monitor, monitor, 0.0, p.v, config.insertion_loss)[0]
    bounds = _click_probability(np.concatenate((data, pair)), p.eta, p.p_d,
                                config.background).tolist()
    return bounds[0], bounds[1], bounds[1]


def short_attacked_train():
    """Resends brighter than Alice's pulses, one next to a clean window on
    either side (monitor slots 4 and 6 touch them only at a boundary)."""
    cfg = OpticsConfig(params=params(mu=1.0, t_b=0.5, eta=1.0, p_d=1e-2, v=0.5),
                       insertion_loss=0.0)
    kinds = np.array([DECOY, BIT1, DECOY, BIT0, DECOY, BIT1], dtype=np.int8)
    pair, single = math.sqrt(3.2), math.sqrt(6.4)  # a boost of 3.2 at mu = 1
    eve = [[0.0, 0.0], [pair, pair], [single, 0.0], [0.0, single]]
    stream = SymbolStream(kinds, 1.0, shapes=np.array([2, 6, 2, 5, 4, 1], dtype=np.uint8),
                          table=np.vstack((SymbolStream(kinds, 1.0).table, eve)),
                          resent=np.array([1, 3, 4]), phases=np.array([1.5, 4.7, 3.0]))
    return cfg, stream


def random_short_attacked_train(seed):
    """Random resent windows at random phases, with window 0, the last window
    and a run of three adjacent windows among them; only resent windows take
    Eve's bright rows, and any window her vacuum row."""
    rng = np.random.default_rng(seed)
    cfg = OpticsConfig(params=params(mu=1.0, t_b=0.5, eta=1.0, p_d=1e-2, v=0.9),
                       insertion_loss=0.0)
    n = int(rng.integers(5, 13))
    is_resent = rng.random(n) < 0.4
    is_resent[[0, -1]] = True
    run = int(rng.integers(1, n - 3))
    is_resent[run:run + 3] = True
    resent = np.flatnonzero(is_resent)
    kinds = rng.integers(0, 3, n).astype(np.int8)
    eve = np.vstack(([0.0, 0.0], rng.uniform(0.0, 1.8, (2, 2))))
    shapes = np.where(is_resent, rng.integers(0, 6, n), rng.integers(0, 4, n))
    stream = SymbolStream(kinds, 1.0, shapes=shapes.astype(np.uint8),
                          table=np.vstack((SymbolStream(kinds, 1.0).table, eve)),
                          resent=resent, phases=rng.uniform(0.0, 2 * math.pi, len(resent)))
    assert resent[0] == 0 and resent[-1] == n - 1 and np.any(np.diff(resent) == 1)
    return cfg, stream


def run_slots(first, last, span):
    """The slots [2 first, 2 last + span) of each run of windows, expanded
    into one ascending list: span 2 on D_B, 3 on a monitor."""
    return np.concatenate([np.arange(0), *map(np.arange, 2 * first, 2 * last + span)])


def boosted_slots(stream):
    """The D_B and monitor slots of the stream's bright runs, expanded."""
    first, last = _bright_runs(stream)
    return run_slots(first, last, 2), run_slots(first, last, 3)


def reference_boosted_slots(windows):
    """D_B and monitor slots touching the ascending bright windows, listed per
    window: its two pulse slots, and on a monitor also the boundary slot on
    either side, which adjacent windows share."""
    data = (2 * windows[:, None] + np.arange(2)).ravel()
    monitor = (2 * windows[:, None] + np.arange(3)).ravel()
    return data, monitor[np.diff(monitor, prepend=-1) > 0]


def reference_class_candidates(rng, p_lo, p_hi, n, boosted):
    """The generic map of candidate ranks over an ascending slot list: the
    p_lo ranks placed past the boosted slots they skip, the p_hi ranks looked
    up in the list, and one stable sort of both. Returns the slots, each
    one's bound, and the indices of those drawn at p_hi."""
    lo = _candidates(rng, p_lo, n - len(boosted))
    lo += np.searchsorted(boosted - np.arange(len(boosted)), lo, side="right")
    slots = np.concatenate((lo, boosted[_candidates(rng, p_hi, len(boosted))]))
    order = np.argsort(slots, kind="stable")
    return (slots[order], np.where(order < len(lo), p_lo, p_hi),
            np.flatnonzero(order >= len(lo)))


def reference_candidates(rng, p, n):
    """Bernoulli(p) slots over n slots from Generator.geometric's gaps, each
    clipped at n + 1, drawn in chunks of the sampler's size."""
    size = int(n * p + 5.0 * math.sqrt(n * p)) + 1
    chunks, last = [], -1
    while last < n:
        chunks.append(last + np.cumsum(np.minimum(rng.geometric(p, size), n + 1)))
        last = int(chunks[-1][-1])
    pos = np.concatenate(chunks)
    return pos[pos < n]


def framed_preset(**over):
    """The framed D010 preset's optics, with its frame and its gated slots."""
    p = params(mu=0.5, loss_db=5.0, f=0.1, t_b=0.85, eta=0.1, p_d=2.5e-5 * 1.7,
               v=0.92, pulse_period_ns=1e9 / 434e6)
    cfg = ExperimentConfig(params=p, **over)
    frame = SymbolStream(np.array(FRAME_PATTERNS["D010"], dtype=np.int8), p.mu)
    return cfg, frame, int(cfg.gate_ns // p.pulse_period_ns) + 1


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

    @settings(max_examples=200, deadline=None)
    @given(pulses=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                                     st.floats(0.0, 2 * math.pi)),
                           min_size=2, max_size=200),
           v=st.floats(0.0, 1.0), il=st.floats(0.0, 0.9))
    def test_energy_bookkeeping_random_patterns(self, pulses, v, il):
        amps, phases = np.array(pulses).T
        i1, i2 = interferometer_outputs(*train_pairs(amps, phases), v, il)
        total_in = float(np.sum(amps ** 2))
        total_out = float(np.sum(i1) + np.sum(i2))
        assert total_out == pytest.approx((1.0 - il) * total_in, rel=1e-12)


class TestDetect:
    def test_dark_free_vacuum_never_clicks(self):
        clicks = detect(_click_probability(np.zeros(10000), 0.1, 0.0, 0.0), 1.0,
                        stage_rng(1, 99))
        assert not np.any(clicks)

    def test_bright_always_clicks(self):
        clicks = detect(_click_probability(np.full(1000, 1e6), 1.0, 0.0, 0.0), 1.0,
                        stage_rng(1, 99))
        assert np.all(clicks)

    def test_click_fraction(self):
        n = 1_000_000
        clicks = detect(_click_probability(np.full(n, 0.5), 0.1, 0.0, 0.0), 1.0,
                        stage_rng(5, 99))
        p = 0.04877057549928599
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(np.mean(clicks) - p) < 3.0 * sigma

    @staticmethod
    def assert_kept_fraction(p, p_hat, seed):
        """Each candidate is kept with probability p / p_hat: the kept count
        within 5 sigma of its mean, and every candidate kept where p = p_hat."""
        ratio = np.broadcast_to(p / p_hat, p.shape)
        kept = detect(p, p_hat, stage_rng(seed, 99))
        mean, var = float(np.sum(ratio)), float(np.sum(ratio * (1.0 - ratio)))
        assert abs(np.count_nonzero(kept) - mean) < 5.0 * math.sqrt(var)
        assert np.all(kept[ratio == 1.0])

    def test_thinning_at_one_bound(self):
        p = np.repeat([0.0, 0.01, 0.05, 0.2], 250_000)
        self.assert_kept_fraction(p, 0.2, seed=6)

    def test_thinning_at_a_bound_per_candidate(self):
        rng = np.random.default_rng(7)
        p_hat = rng.choice([0.003, 0.04, 0.3, 1.0], 1_000_000)
        p = p_hat * rng.choice([0.0, 0.25, 0.9, 1.0], len(p_hat))
        self.assert_kept_fraction(p, p_hat, seed=7)


def slot_classes(p, n_bins=8):
    """Slots grouped by click probability: by value when it takes few values,
    else into n_bins equal-size bins of rank (an attack's random phases)."""
    values, label = np.unique(p, return_inverse=True)
    if len(values) <= 40:
        return label
    return np.argsort(np.argsort(p, kind="stable")) * n_bins // len(p)


def assert_counts_match(counts, p, n_reps, label=None):
    """Clicks summed over n_reps independent repetitions of the slots against
    the sum of their Bernoulli(p) draws, within 5 sigma per slot class."""
    label = slot_classes(p) if label is None else label
    for c in range(label.max() + 1):
        in_c = label == c
        mean = n_reps * float(np.sum(p[in_c]))
        var = n_reps * float(np.sum(p[in_c] * (1.0 - p[in_c])))
        observed = int(np.sum(counts[in_c]))
        if var == 0.0:
            assert observed == mean
        else:
            assert abs(observed - mean) < 5.0 * math.sqrt(var), (c, observed, mean)


class TestSparseSampler:
    """The sparse draw has the distribution of one Bernoulli draw per slot."""

    N_SEEDS = 200

    def stream_config(self):
        p = params(t_b=0.5, eta=0.25, f=0.3, p_d=1e-3, v=0.92)
        return OpticsConfig(params=p, background=1e-3)

    def assert_stream_exact(self, cfg, stream, per_slot=False):
        dense = dense_click_probabilities(cfg, *dense_train(stream))
        counts = [np.zeros(len(p), dtype=np.int64) for p in dense]
        for seed in range(self.N_SEEDS):
            for k, ss in enumerate(_run_chain(cfg, stream, seed)):
                assert np.all(ss < len(dense[k])) and np.all(np.diff(ss) > 0)
                counts[k] += np.bincount(ss, minlength=len(dense[k]))
        for c, p in zip(counts, dense):
            assert_counts_match(c, p, self.N_SEEDS, np.arange(len(p)) if per_slot else None)

    def test_every_slot_of_a_short_train(self):
        # bright enough that a slot left out of the candidates would show
        cfg = OpticsConfig(params=params(mu=4.0, t_b=0.5, eta=0.5, p_d=1e-2, v=0.9))
        stream = SymbolStream(np.array([DECOY, BIT1, BIT0, DECOY], dtype=np.int8), 4.0)
        self.assert_stream_exact(cfg, stream, per_slot=True)

    def test_every_slot_of_a_short_attacked_train(self):
        cfg, stream = short_attacked_train()
        assert boosted_slots(stream)[1].tolist() == [2, 3, 4, 6, 7, 8, 9, 10]
        self.assert_stream_exact(cfg, stream, per_slot=True)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_slot_of_random_short_attacked_trains(self, seed):
        self.assert_stream_exact(*random_short_attacked_train(seed), per_slot=True)

    @pytest.mark.parametrize("mu", [20.0, 40.0])
    def test_every_slot_where_resent_windows_are_dim(self, mu):
        # from mu t of about 18 the boost 1 / (p_det (2 - p_det)) is 1 to within
        # rounding, and at 20 and 40 Eve's pair resend rounds to sqrt(mu); at 40
        # p_det itself rounds to 1, at 20 it does not. Dim resent windows still
        # step in phase, so they lie in the runs like the bright ones
        p = params(mu=mu, t_b=0.5, eta=0.02, p_d=1e-2, v=0.9)
        kinds = np.array([DECOY, BIT1, DECOY, DECOY, BIT0, DECOY, BIT1, BIT0], dtype=np.int8)
        attack = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=1.0)
        stream = apply_intercept_resend(SymbolStream(kinds, p.mu), attack, p, stage_rng(1, 2))
        assert stream.table[4].tolist() == [math.sqrt(mu)] * 2  # Eve's pair row
        first, last = _bright_runs(stream)
        assert first.tolist() == [0] and last.tolist() == [len(kinds) - 1]
        assert stream.resent.tolist() == list(range(len(kinds)))
        self.assert_stream_exact(OpticsConfig(params=p, insertion_loss=0.0), stream,
                                 per_slot=True)

    def test_clean_stream(self):
        cfg = self.stream_config()
        self.assert_stream_exact(cfg, generate_symbols(2000, 0.3, 0.5, seed=1))

    def test_intercept_resend_stream(self):
        cfg = self.stream_config()
        attack = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=0.5)
        stream = apply_intercept_resend(generate_symbols(2000, 0.3, 0.5, seed=1),
                                        attack, cfg.params, stage_rng(1, 2))
        assert np.count_nonzero(stream.shapes >= 3) > 0  # windows with Eve's codes
        self.assert_stream_exact(cfg, stream)

    def test_framed_preset(self):
        cfg, frame, n_slots = framed_preset(n_frames=2000, deadtime_ns=0.0)
        first = run_experiment(cfg, seed=0)
        assert len(first.slot_times_ns) == n_slots
        dense = dense_click_probabilities(cfg, *dense_train(frame), n_slots)
        totals = {name: np.zeros_like(c) for name, c in first.counts.items()}
        for seed in range(self.N_SEEDS):
            for name, c in run_experiment(cfg, seed).counts.items():
                totals[name] += c
        for name, p_slot in zip(("D_B", "D_M1", "D_M2"), dense):
            assert_counts_match(totals[name], p_slot, self.N_SEEDS * cfg.n_frames)

    @settings(max_examples=300, deadline=None)
    @given(windows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5),
                                      st.floats(0.0, 2 * math.pi)),
                            min_size=1, max_size=30),
           rows=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 3.0)),
                         min_size=6, max_size=6),
           mu=st.floats(0.0, 9.0), loss_db=st.floats(0.0, 60.0), t_b=st.floats(0.01, 1.0),
           eta=st.floats(0.0, 1.0), p_d=st.floats(0.0, 0.1), v=st.floats(0.0, 1.0),
           il=st.floats(0.0, 0.99), bg=st.floats(0.0, 0.1))
    def test_bound_holds_at_every_slot(self, windows, rows, mu, loss_db, t_b, eta, p_d,
                                       v, il, bg):
        # windows index Alice's three rows or three arbitrary ones at random
        # phases; every window carries a phase, so every window is listed
        kinds, shapes, theta = (np.array(c) for c in zip(*windows))
        kinds = kinds.astype(np.int8)
        table = np.vstack((SymbolStream(kinds, mu).table, np.reshape(rows, (3, 2))))
        stream = SymbolStream(kinds, mu, shapes=shapes.astype(np.uint8), table=table,
                              resent=np.arange(len(kinds)), phases=theta)
        cfg = OpticsConfig(params=params(loss_db=loss_db, t_b=t_b, eta=eta, p_d=p_d, v=v),
                           insertion_loss=il, background=bg)
        bounds = zip(dense_click_probabilities(cfg, *dense_train(stream)),
                     reference_click_bounds(cfg, math.sqrt(mu)),
                     reference_click_bounds(cfg, table.max()))
        for k, (p, p_lo, p_hi) in enumerate(bounds):
            p_hat = np.full(len(p), p_lo)
            p_hat[boosted_slots(stream)[k > 0]] = p_hi
            assert np.all(p <= p_hat)


class TestFrameChain:
    """A framed run draws each slot class of its frame exactly, and the gated
    slots past the light as one dark class without a slot list."""

    @pytest.mark.parametrize("gate_ns, frame_period_ns, n_frames", [
        (5.0, 1e9 / 600e3, 100000),  # 9 slots: no dark slot on a monitor
        (2.5e6, 3e6, 50),  # over 10**6 gated slots, almost all dark
    ])
    def test_every_class_at_any_gate(self, gate_ns, frame_period_ns, n_frames):
        cfg, frame, _ = framed_preset(gate_ns=gate_ns, frame_period_ns=frame_period_ns,
                                      n_frames=n_frames, deadtime_ns=0.0)
        result = run_experiment(cfg, seed=2)
        n_slots = len(result.slot_times_ns)
        dense = dense_click_probabilities(cfg, *dense_train(frame), n_slots)
        for name, p_slot in zip(("D_B", "D_M1", "D_M2"), dense):
            assert len(p_slot) == n_slots
            assert_counts_match(result.counts[name], p_slot, cfg.n_frames)

    def test_long_gate_costs_its_clicks_not_its_slots(self):
        # 100 frames of 1,085,001 gated slots. A candidate draw at the bright
        # bound would take about 1.45 M candidates per detector, 11.6 MB for
        # their int64 slots alone; the dark class holds about 4.6 k clicks
        cfg, _, _ = framed_preset(frame_period_ns=3e6, gate_ns=2.5e6, n_frames=100)
        tracemalloc.start()
        try:
            result = run_experiment(cfg, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_slots = len(result.slot_times_ns)
        assert n_slots > 10 ** 6
        # the result's own slot arrays: three int64 histograms and the slot times
        own = result.slot_times_ns.nbytes + sum(c.nbytes for c in result.counts.values())
        assert own == 32 * n_slots
        # beyond them, a few arrays of 8 B per click: about 0.4 MB here, where
        # a candidate draw peaks 13 MB above them
        assert peak - own < 2 * 2 ** 20


class TestClickBounds:
    """The chain reads each detector's bounds off its per-code tables, and
    evaluates the optics once per run."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
                                  min_size=2, max_size=2), max_size=4),
           mu=st.floats(0.0, 50.0), loss_db=st.floats(0.0, 60.0), t_b=st.floats(0.01, 1.0),
           eta=st.floats(0.0, 1.0), p_d=st.floats(0.0, 0.1), v=st.floats(0.0, 1.0),
           il=st.floats(0.0, 0.99), bg=st.floats(0.0, 0.1))
    @example(rows=[[0.0, 0.0]] * 4, mu=0.0, loss_db=0.0, t_b=1.0, eta=1.0, p_d=0.0, v=1.0,
             il=0.0, bg=0.0)
    @example(rows=[], mu=50.0, loss_db=0.0, t_b=0.5, eta=1.0, p_d=0.1, v=1.0, il=0.0, bg=0.1)
    def test_bounds_are_the_peak_formula(self, rows, mu, loss_db, t_b, eta, p_d, v, il, bg):
        # up to four extra rows, zero rows included, beside Alice's three
        kinds = np.array([DECOY, BIT0, BIT1], dtype=np.int8)
        table = np.vstack((SymbolStream(kinds, mu).table, np.reshape(rows, (-1, 2))))
        stream = SymbolStream(kinds, mu, shapes=kinds.astype(np.uint8), table=table)
        cfg = OpticsConfig(params=params(mu, loss_db=loss_db, t_b=t_b, eta=eta, p_d=p_d, v=v),
                           insertion_loss=il, background=bg)
        with mock.patch.object(simulation, "_class_candidates",
                               wraps=_class_candidates) as spy:
            _run_chain(cfg, stream, 0)
        drawn = [c.args[1:3] for c in spy.call_args_list]
        expected = zip(reference_click_bounds(cfg, math.sqrt(mu)),
                       reference_click_bounds(cfg, table.max()))
        for k, (p_lo, p_hi) in enumerate(expected):
            assert drawn[k] == (p_lo, p_hi), k  # == on floats: bit for bit

    def test_one_run_evaluates_the_optics_once(self):
        attack = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=0.5)
        with mock.patch.object(simulation, "propagate", wraps=propagate) as spy:
            run_simulation(OpticsConfig(params=params()), 2000, seed=1, attack=attack)
            assert spy.call_count == 1
            spy.reset_mock()
            run_experiment(framed_preset(n_frames=100)[0], seed=1)
            assert spy.call_count == 1


class TestBrightRuns:
    """Resent windows kept as runs give the candidates, bounds and draws of
    the generic map over the expanded slot list."""

    @settings(max_examples=300, deadline=None)
    @given(windows=st.lists(st.sampled_from("cdb"), min_size=1, max_size=40),
           span=st.sampled_from([2, 3]), p_lo=st.floats(1e-3, 1.0),
           p_hi=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 64 - 1))
    @example(windows=list("b"), span=3, p_lo=0.5, p_hi=1.0, seed=0)
    @example(windows=list("bbcbbdbb"), span=2, p_lo=0.2, p_hi=0.9, seed=1)
    @example(windows=list("bbcbbdbb"), span=3, p_lo=0.2, p_hi=0.9, seed=1)
    @example(windows=list("ccdcc"), span=3, p_lo=0.3, p_hi=0.3, seed=2)
    def test_runs_map_like_the_slot_list(self, windows, span, p_lo, p_hi, seed):
        # windows are clean (c), resent no brighter than Alice's pulses (d) or
        # resent brighter (b): every resent window, d or b, is in a run
        code = np.array(["cdb".index(w) for w in windows])
        stream = SymbolStream(np.zeros(len(code), dtype=np.int8), 1.0,
                              shapes=np.where(code, 2 + code, 0).astype(np.uint8),
                              table=np.vstack((SymbolStream(np.zeros(1, np.int8), 1.0).table,
                                               [[1.0, 1.0], [0.0, 1.5]])),
                              resent=np.flatnonzero(code), phases=np.zeros(np.count_nonzero(code)))
        first, last = _bright_runs(stream)
        boosted = reference_boosted_slots(np.flatnonzero(code >= 1))[span - 2]
        assert np.array_equal(run_slots(first, last, span), boosted)
        n = 2 * len(code) + span - 2
        runs, generic = stage_rng(seed, 3), stage_rng(seed, 3)
        slots, p_hat, hi_at = _class_candidates(runs, p_lo, p_hi, n, first, last, span)
        ref_slots, ref_p_hat, ref_hi_at = reference_class_candidates(generic, p_lo, p_hi, n,
                                                                     boosted)
        assert np.array_equal(slots, ref_slots)
        assert np.array_equal(np.broadcast_to(p_hat, ref_p_hat.shape), ref_p_hat)
        assert np.array_equal(hi_at, ref_hi_at)
        assert runs.random() == generic.random()  # the same draws, in the same order


class TestCandidates:
    @pytest.mark.parametrize("n", [1, 1000, 10 ** 7])
    @pytest.mark.parametrize("p", [5e-324, 1e-9, 2.4e-3, 0.044, 0.123,
                                   np.nextafter(1 / 3, 0.0), 1 / 3, 0.5, 1.0])
    def test_gaps_are_generator_geometric(self, p, n):
        # below 1/3 the gaps invert exponentials as numpy's geometric does; if
        # numpy changes its algorithm, this fails before the golden hashes
        rng, reference = stage_rng(5, 3), stage_rng(5, 3)
        assert np.array_equal(_candidates(rng, p, n), reference_candidates(reference, p, n))
        assert rng.random() == reference.random()

    def test_gaps_past_2_52_slots(self):
        # gaps + 2**52 is exact only below 2**52: past it the draw is numpy's
        rng, reference = stage_rng(5, 3), stage_rng(5, 3)
        p, n = 1e-16, 2 ** 53  # gaps of 10**16 on average, past 2**52
        assert np.array_equal(_candidates(rng, p, n), reference_candidates(reference, p, n))
        assert rng.random() == reference.random()


class TestIntensityTables:
    """The chain's click probabilities, looked up per pulse code, equal every
    slot's optics and detector evaluated over the whole train, bit for bit."""

    def assert_exact(self, cfg, stream, n_slots=0):
        tables = _optics(cfg, stream.table)
        for k, dense in enumerate(dense_click_probabilities(cfg, *dense_train(stream), n_slots)):
            every = np.arange(len(dense))
            assert np.array_equal(_probability(cfg, tables, stream, k, every, every), dense), k

    def test_short_attacked_train(self):
        self.assert_exact(*short_attacked_train())

    @pytest.mark.parametrize("seed", range(8))
    def test_random_short_attacked_trains(self, seed):
        self.assert_exact(*random_short_attacked_train(seed))

    def test_intercept_resend_stream(self):
        cfg = OpticsConfig(params=params(v=0.9), insertion_loss=0.3)
        attack = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=0.5)
        stream = apply_intercept_resend(generate_symbols(2000, 0.3, 0.5, seed=1),
                                        attack, cfg.params, stage_rng(1, 2))
        self.assert_exact(cfg, stream)

    def test_framed_preset_with_its_dark_gated_slots(self):
        cfg, frame, n_slots = framed_preset()
        assert n_slots > 2 * frame.n_symbols + 1  # slots past the light are gated
        self.assert_exact(cfg, frame, n_slots)


class TestRunSimulation:
    def test_dark_and_source_free_is_empty(self):
        cfg = OpticsConfig(params=params(mu=0.0, p_d=0.0))
        sim = run_simulation(cfg, 5000, seed=3)
        assert len(sim.record.d_b) == 0
        assert len(sim.record.d_m1) == 0
        assert len(sim.record.d_m2) == 0

    def test_per_symbol_bookkeeping_below_two_bytes(self):
        # no candidate clicks: the peak is simulate_stream's own per-symbol
        # work, which needs no more than a one-byte mask at a time
        n = 1_000_000
        stream = generate_symbols(n, 0.1, 0.5, seed=6)
        tracemalloc.start()
        try:
            sim = simulate_stream(OpticsConfig(params=params(eta=0.0, p_d=0.0)), stream, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sim.record.d_b) == len(sim.record.d_m1) == len(sim.record.d_m2) == 0
        assert peak < 2 * n

    def test_attacked_run_at_0db_peak_memory(self):
        # Eve detects 39 % of the pulses at 0 dB, and 21 % of the windows are
        # resent brighter than Alice's pulses. The bound lies midway between
        # the peak with a slot list of the bright windows (51.5 MB) and that
        # with their runs (33.4 MB): numpy's allocations, so it is deterministic
        cfg = OpticsConfig(params=params())
        attack = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=0.5)
        tracemalloc.start()
        try:
            run_simulation(cfg, 2_000_000, seed=3, attack=attack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 42.45e6

    def test_attacked_stream_keeps_no_per_window_float(self):
        # what an attacked stream holds beyond kinds: a one-byte shape code per
        # window, and an index and a phase per resent window (a few percent)
        n = 1_000_000
        p = params(loss_db=10.0)
        stream = generate_symbols(n, p.f, p.mu, seed=6)
        attack = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=0.5)
        tracemalloc.start()
        try:
            out = apply_intercept_resend(stream, attack, p, stage_rng(6, 2))
            n_resent = len(out.resent)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < n_resent < 0.05 * n and len(out.phases) == n_resent
        assert kept < 2 * n + 16 * n_resent + 4096

    def test_rates_match_closed_forms(self):
        p = params(v=0.92)
        cfg = OpticsConfig(params=p)
        sim = run_simulation(cfg, 400000, seed=3)
        r_exact = counting_rate(p, RateMode.EXACT)
        sig = math.sqrt(r_exact * (1 - r_exact) / sim.n_bits)
        assert abs(sim.empirical_r - r_exact) < 3 * sig
        mon = monitoring_rate(p)
        sig_m = math.sqrt(mon / (1.1 * 400000))
        assert abs(sim.monitoring_rate_per_pulse - mon) < 3 * sig_m + 2 * p.p_d

    def test_visibility_estimator_consistency(self):
        # lossless interferometer and a strong tap for high-count estimates
        p = params(t_b=0.5, eta=0.5, p_d=0.0, v=0.9, f=0.3)
        cfg = OpticsConfig(params=p, insertion_loss=0.0)
        sim = run_simulation(cfg, 400000, seed=11)
        st = sim.stats
        for v_hat, (n1, n2) in ((sim.stats.v_d, (st.n_m1_d, st.n_m2_d)),
                                (sim.stats.v_10, (st.n_m1_10, st.n_m2_10))):
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
            q = run_protocol(OpticsConfig(params=p), 300000, seed=100 + i).qber
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
        for attr in ("d_b", "d_m1", "d_m2"):
            assert np.array_equal(getattr(a.record, attr), getattr(b.record, attr))
        c = run_simulation(cfg, 50000, seed=22)
        assert not np.array_equal(a.record.d_b, c.record.d_b)


class TestDeadtime:
    def test_suppression(self):
        times = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 30.0])
        keep = _suppress_deadtime(times, 5.0)
        assert list(times[keep]) == [0.0, 10.0, 30.0]

    @staticmethod
    def reference_suppression(times, deadtime):
        """One pass over every click, keeping those at least deadtime after
        the last kept one."""
        keep = np.zeros(len(times), dtype=bool)
        last = -math.inf
        for i, t in enumerate(times):
            if t - last >= deadtime:
                keep[i] = True
                last = t
        return keep

    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.integers(0, 12), max_size=300),
           deadtime=st.integers(1, 8), step=st.sampled_from([0.5, 1.0, 2.5]))
    # a burst: the click after a head's next is close too, so the first jump searches
    @example(gaps=[0] + [1] * 30, deadtime=8, step=1.0)
    # a later jump lands on 8, whose next click (16) is a deadtime away and so is
    # kept: a jump from 8 must not skip to the click after it (17)
    @example(gaps=[0, 1, 4, 3, 8, 1, 12, 1], deadtime=8, step=1.0)
    def test_matches_one_pass_over_every_click(self, gaps, deadtime, step):
        # half-integer grids hold repeated times and gaps exactly one deadtime
        times = np.cumsum(gaps) * step
        keep = _suppress_deadtime(times, deadtime * step)
        assert np.array_equal(keep, self.reference_suppression(times, deadtime * step))

    @settings(max_examples=300, deadline=None)
    @given(clicks=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 10),
                                     st.none() | st.integers(-2, 2)), max_size=80),
           deadtime=st.sampled_from([10000.0, 1e4 / 3, 7e9 / 434e6, 0.1]))
    @example(clicks=[], deadtime=10000.0)
    @example(clicks=[(3, 4, None)], deadtime=10000.0)
    # the preset's borderline: clicks 6 frames apart, 6 * 1e9/600e3 against 10000 ns,
    # met by a head's click after next and again by a later search
    @example(clicks=[(0, 3, None), (1, 0, None), (5, 3, None), (0, 5, None), (1, 0, None),
                     (2, 0, None), (3, 3, None)], deadtime=10000.0)
    def test_matches_one_pass_at_float_edges(self, clicks, deadtime):
        # framed times on a 600 kHz frame clock and a 434 MHz pulse clock, none
        # dyadic; a click with a nudge sits that many floats off t + deadtime
        # for the last kept click t, which rounds: the jumps must follow the
        # loop's subtraction. Clicks never go back, so some times repeat
        times, frame, last = [], 0, -math.inf
        for frames, slot, nudge in clicks:
            frame += frames
            t = frame * (1e9 / 600e3) + slot * (1e9 / 434e6)
            if nudge is not None and times:
                t = last + deadtime
                for _ in range(abs(nudge)):
                    t = np.nextafter(t, math.copysign(math.inf, nudge))
            times.append(max(float(t), times[-1]) if times else float(t))
            if times[-1] - last >= deadtime:
                last = times[-1]
        times = np.array(times)
        keep = _suppress_deadtime(times, deadtime)
        assert np.array_equal(keep, self.reference_suppression(times, deadtime))

    def test_matches_one_pass_on_framed_times(self):
        # a D_B-like click list: 40k clicks over 600k frames of 11 gated slots
        rng = np.random.default_rng(3)
        frames, slots = rng.integers(0, 600000, 40000), rng.integers(0, 11, 40000)
        times = np.sort(frames * (1e9 / 600e3) + slots * (1e9 / 434e6))
        keep = _suppress_deadtime(times, 10000.0)
        assert np.array_equal(keep, self.reference_suppression(times, 10000.0))

    def test_continuous_mode_min_gap(self):
        p = params(mu=1.0, eta=1.0, t_b=0.9, p_d=0.0, pulse_period_ns=1.0)
        cfg = OpticsConfig(params=p, deadtime_ns=7.0)
        sim = run_simulation(cfg, 20000, seed=2)
        assert np.all(np.diff(sim.record.d_b) >= 7)


class TestEstimators:
    def test_visibility_values(self):
        for n_m1, n_m2, v in ((100, 0, 1.0), (50, 50, 0.0), (96, 4, pytest.approx(0.92))):
            stats = MonitoringStats(n_m1, n_m2, n_m1, n_m2)
            assert stats.v_10 == v and stats.v_d == v

    def test_visibility_undefined(self):
        assert math.isnan(MonitoringStats(0, 0, 5, 1).v_10)
        assert math.isnan(MonitoringStats(5, 1, 0, 0).v_d)

    def test_qber_noiseless_zero(self):
        cfg = OpticsConfig(params=params(p_d=0.0))
        assert run_protocol(cfg, 50000, seed=8).qber.value == 0.0

    def test_qber_matches_dark_count_formula(self):
        p = params()
        est = run_protocol(OpticsConfig(params=p), 1_000_000, seed=3).qber
        q_ref = secret_key_rate(p).qber.q_det
        sigma = math.sqrt(q_ref * (1 - q_ref) / est.n_sifted)
        assert abs(est.value - q_ref) < 3 * sigma
        assert est.lo <= est.value <= est.hi

    def test_wilson_exact_at_its_edges(self):
        # q = 0 and q = 1 must lie inside their own intervals, bounds in [0, 1]
        for n in range(1, 5001):
            lo, hi = _wilson(0, n)
            assert lo == 0.0 and 0.0 < hi <= 1.0
            lo, hi = _wilson(n, n)
            assert 0.0 <= lo < 1.0 and hi == 1.0
        for n in range(1, 101):
            for k in range(n + 1):
                lo, hi = _wilson(k, n)
                assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_qber_all_flipped_synthetic(self):
        est = estimate_qber(np.array([0, 1, 0]), np.array([1, 0, 1]))
        assert est.value == 1.0

    def test_qber_undefined_without_detections(self):
        assert estimate_qber(np.empty(0, int), np.empty(0, int)) is None
