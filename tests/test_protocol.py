"""Classical protocol: announcement, sifting, estimation/abort, distillation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cowsim import (
    AbortReason,
    AttackConfig,
    AttackKind,
    DistillationSummary,
    MonitoringStats,
    OpticsConfig,
    PnsModel,
    ProtocolParams,
    RateMode,
    SiftedKeyPair,
    announce,
    distill_accounting,
    estimate_parameters,
    estimate_qber,
    run_protocol,
    run_simulation,
    secret_key_rate,
    sift,
)
from cowsim.simulation import BIT0, BIT1, DECOY, DetectionRecord, SymbolStream


def empty_int():
    return np.empty(0, dtype=int)


def record_with(seq, slot):
    """Data-line clicks of symbols seq at arrival slots slot."""
    d_b = 2 * np.asarray(seq, dtype=int) + np.asarray(slot, dtype=int)
    return DetectionRecord(d_b=d_b, d_m1=empty_int(), d_m2=empty_int())


def stream_of(kinds):
    k = np.asarray(kinds, dtype=np.int8)
    return SymbolStream(kinds=k, mu=0.5)


def params(mu=0.5, **over):
    kw = dict(loss_db=0.0, f=0.1, t_b=0.9, eta=0.1, p_d=1e-5, v=1.0)
    kw.update(over)
    return ProtocolParams(mu=mu, **kw)


class TestAnnounce:
    def test_empty(self):
        ann = announce(record_with([], []))
        assert len(ann.detected_indices) == 0
        assert len(ann.ambiguous_indices) == 0

    def test_projection_withholds_slots(self):
        ann = announce(record_with([0, 2], [0, 1]))
        assert list(ann.detected_indices) == [0, 2]
        assert len(ann.ambiguous_indices) == 0
        # the message structure carries indices only
        fields = {f.name for f in dataclasses.fields(ann)}
        assert fields == {"detected_indices", "ambiguous_indices"}

    def test_double_click_flagged_once(self):
        ann = announce(record_with([5, 5, 7], [0, 1, 0]))
        assert list(ann.detected_indices) == [5, 7]
        assert list(ann.ambiguous_indices) == [5]


class TestSift:
    def test_hand_trace(self):
        # four symbols, clicks at 0 and 2; symbol 2 is a decoy
        stream = stream_of([BIT0, BIT1, DECOY, BIT0])
        record = record_with([0, 2], [0, 0])
        pair = sift(stream, record.d_b)
        assert list(pair.kept_indices) == [0]
        assert list(pair.alice_bits) == [0]
        assert list(pair.bob_bits) == [0]

    def test_noiseless_full_detection(self):
        kinds = [BIT0, BIT1, BIT1, BIT0]
        stream = stream_of(kinds)
        record = record_with([0, 1, 2, 3], [0, 1, 1, 0])
        pair = sift(stream, record.d_b)
        assert np.array_equal(pair.alice_bits, pair.bob_bits)
        assert len(pair.kept_indices) == 4

    def test_only_decoy_clicks(self):
        stream = stream_of([DECOY, DECOY, BIT0])
        record = record_with([0, 1], [0, 1])
        pair = sift(stream, record.d_b)
        assert len(pair.kept_indices) == 0

    def test_ambiguous_symbols_removed(self):
        stream = stream_of([BIT0, BIT1])
        record = record_with([0, 0, 1], [0, 1, 1])
        pair = sift(stream, record.d_b)
        assert list(pair.kept_indices) == [1]

    @staticmethod
    def dense_sift(stream, announcement, record):
        """Per-symbol reference: a keep mask and Bob's slot for every symbol."""
        keep_mask = np.zeros(stream.n_symbols, dtype=bool)
        keep_mask[announcement.detected_indices] = True
        keep_mask[announcement.ambiguous_indices] = False
        keep_mask &= stream.kinds != DECOY
        kept = np.nonzero(keep_mask)[0]
        bob_slot = np.zeros(stream.n_symbols, dtype=np.int8)
        bob_slot[record.d_b >> 1] = record.d_b & 1
        return SiftedKeyPair(alice_bits=(stream.kinds[kept] == BIT1).astype(np.int8),
                             bob_bits=bob_slot[kept], kept_indices=kept)

    @settings(max_examples=300, deadline=None)
    @given(kinds=st.lists(st.sampled_from([BIT0, BIT1, DECOY]), min_size=1, max_size=12),
           n_frames=st.integers(1, 4), data=st.data())
    def test_matches_dense_reference(self, kinds, n_frames, data):
        # each symbol of each frame clicks in no slot, one slot or both
        n_total = len(kinds) * n_frames
        slots = data.draw(st.lists(st.sampled_from([(), (0,), (1,), (0, 1)]),
                                   min_size=n_total, max_size=n_total))
        seq = [k for k, s in enumerate(slots) for _ in s]
        record = record_with(seq, [b for s in slots for b in s])
        pair = sift(stream_of(kinds), record.d_b)
        # symbol k of a framed run is symbol k mod n of its frame; the
        # reference keeps what Bob announced, sift reads only the clicks
        ref = self.dense_sift(stream_of(kinds * n_frames), announce(record), record)
        for name in ("alice_bits", "bob_bits", "kept_indices"):
            np.testing.assert_array_equal(getattr(pair, name), getattr(ref, name))


    @staticmethod
    def loop_sift(kinds, d_b):
        """Per-click reference: a click is kept if no other click shares its
        symbol k, and symbol k mod len(kinds) is a bit."""
        alice, bob, kept = [], [], []
        for i, slot in enumerate(d_b.tolist()):
            k = slot // 2
            if k in (d_b[i - 1] // 2 if i else -1, d_b[i + 1] // 2 if i + 1 < len(d_b) else -1):
                continue  # a double click
            kind = kinds[k % len(kinds)]
            if kind != DECOY:
                alice.append(int(kind == BIT1))
                bob.append(slot % 2)
                kept.append(k)
        return SiftedKeyPair(alice_bits=np.array(alice, dtype=np.int8),
                             bob_bits=np.array(bob, dtype=np.int8),
                             kept_indices=np.array(kept, dtype=d_b.dtype))

    @settings(max_examples=300, deadline=None)
    @given(case=st.lists(st.sampled_from([BIT0, BIT1, DECOY]), min_size=1, max_size=12).flatmap(
        lambda kinds: st.tuples(st.just(kinds), st.sets(st.integers(0, 8 * len(kinds) - 1)))))
    @example(case=([BIT0, DECOY], set()))  # an empty record
    def test_matches_per_click_loop(self, case):
        # up to four frames: clicks past the first index symbols at or past n_symbols
        kinds, slots = case
        d_b = np.array(sorted(slots), dtype=int)
        pair, ref = sift(stream_of(kinds), d_b), self.loop_sift(kinds, d_b)
        for name in ("alice_bits", "bob_bits", "kept_indices"):
            got, want = getattr(pair, name), getattr(ref, name)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype, name


class TestEstimateParameters:
    def test_perfect_visibilities(self):
        stats = MonitoringStats(100, 0, 200, 0)
        rep = estimate_parameters(stats, params())
        assert stats.v_10 == 1.0 and stats.v_d == 1.0
        assert not rep.abort
        assert rep.i_eve == pytest.approx(0.25)  # r = mu/(2t)

    def test_mismatch_aborts(self):
        rep = estimate_parameters(MonitoringStats(1000, 0, 750, 250),
                                  params())
        assert rep.abort
        assert rep.reason is AbortReason.VISIBILITY_MISMATCH

    def test_equal_counts_never_abort(self):
        for n1, n2 in ((10, 10), (100, 5), (7, 0)):
            rep = estimate_parameters(MonitoringStats(n1, n2, n1, n2),
                                      params())
            assert not rep.abort

    def test_abort_symmetric_in_classes(self):
        a = estimate_parameters(MonitoringStats(1000, 0, 750, 250), params())
        b = estimate_parameters(MonitoringStats(750, 250, 1000, 0), params())
        assert a.abort == b.abort

    def test_class_without_m2_clicks_keeps_its_width(self):
        # v_d = 1 from 41 decoy clicks with none on D_M2, against v_10 = 0.83:
        # a Wald error is 0 for that class, and the run aborted at 3 sigma
        rep = estimate_parameters(
            MonitoringStats(n_m1_10=94, n_m2_10=9, n_m1_d=41, n_m2_d=0), params())
        assert not rep.abort and rep.reason is AbortReason.NONE

    def test_undefined_reasons(self):
        rep = estimate_parameters(MonitoringStats(50, 0, 0, 0), params())
        assert rep.abort and rep.reason is AbortReason.NO_DECOY_STATISTICS
        rep = estimate_parameters(MonitoringStats(0, 0, 50, 0), params())
        assert rep.abort and rep.reason is AbortReason.NO_BIT_PAIR_STATISTICS

    def test_worst_visibility_drives_information(self):
        rep = estimate_parameters(MonitoringStats(96, 4, 1000, 0),
                                  params(), tolerance_sigmas=10.0)
        worst = estimate_parameters(MonitoringStats(96, 4, 96, 4), params())
        assert rep.i_eve == pytest.approx(worst.i_eve)


class TestDistillAccounting:
    def test_error_free(self):
        assert distill_accounting(1000, 0.0, 0.0).n_secret == 1000

    def test_reference_value(self):
        summary = distill_accounting(1000, 0.11, 0.2)
        assert summary.n_secret == 300

    def test_clamped_at_zero(self):
        assert distill_accounting(1000, 0.5, 0.5).n_secret == 0
        assert distill_accounting(1000, 0.11, 0.95).n_secret == 0

    def test_range_checks(self):
        with pytest.raises(ValueError):
            distill_accounting(-1, 0.0, 0.0)
        with pytest.raises(ValueError):
            distill_accounting(10, 1.5, 0.0)


class TestRunProtocol:
    def test_noiseless_chain(self):
        p = params(p_d=0.0, v=1.0)
        rep = run_protocol(OpticsConfig(params=p), 200000, seed=3)
        est, dist = rep.estimation, rep.distill
        assert not est.abort
        assert rep.qber.value == 0.0
        assert rep.sim.stats.v_10 == 1.0 and rep.sim.stats.v_d == 1.0
        assert est.i_eve == pytest.approx(0.25)
        assert dist.n_secret == math.floor(dist.n_sifted * 0.75)

    def test_keys_identical_for_any_setup_visibility(self):
        # the data line is interference free: without darks the keys match
        # bit for bit no matter how badly the interferometer is tuned
        for v in (0.5, 0.8):
            p = params(p_d=0.0, v=v)
            sim = run_simulation(OpticsConfig(params=p), 100000, seed=13)
            pair = sift(sim.stream, sim.record.d_b)
            assert np.array_equal(pair.alice_bits, pair.bob_bits)

    def test_secret_fraction_tracks_analysis(self):
        p = params(p_d=0.0, v=1.0)
        rep = run_protocol(OpticsConfig(params=p), 400000, seed=3)
        ana = secret_key_rate(p, model=PnsModel.DETECTABLE_AS_PRINTED, mode=RateMode.EXACT)
        p_sift = (1.0 - p.f) * (1.0 - math.exp(-p.eta * p.mu * p.t * p.t_b))
        sigma = 0.75 * math.sqrt(p_sift * (1 - p_sift) / 400000)
        assert abs(rep.distill.n_secret / 400000 - ana.r_sk) < 3 * sigma

    def test_full_intercept_resend_collapses_key(self):
        p = params(t_b=0.5, eta=0.25, f=0.3, p_d=0.0)
        atk = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=1.0)
        rep = run_protocol(OpticsConfig(params=p, insertion_loss=0.0),
                           200000, seed=5, attack=atk)
        assert rep.estimation.abort or rep.estimation.i_eve > 0.95
        assert rep.distill.n_secret == 0

    @pytest.mark.parametrize("f, p_ir, aborts", [(0.1, 0.0, False),
                                                  (0.0, 0.0, True),
                                                  (0.3, 0.5, True),
                                                  (0.3, 1.0, False)])
    def test_report_holds_each_stage(self, f, p_ir, aborts):
        # each field is the object its stage returned for this run; at p_ir = 1
        # both classes lose most of their visibility, so their mismatch sits at
        # the 3-sigma edge on half the seeds and only 6 sigma keeps the run going
        tolerance = 6.0 if p_ir == 1.0 else 3.0
        p = params(f=f, t_b=0.5, eta=0.25)
        cfg = OpticsConfig(params=p)
        atk = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=p_ir)
        rep = run_protocol(cfg, 50000, seed=23, attack=atk, tolerance_sigmas=tolerance)
        sim = run_simulation(cfg, 50000, seed=23, attack=atk)
        # assert_equal compares arrays by value and counts nan equal to nan
        np.testing.assert_equal(dataclasses.asdict(rep.sim.record),
                                dataclasses.asdict(sim.record))
        assert rep.sim.stats == sim.stats
        np.testing.assert_equal(dataclasses.asdict(rep.announcement),
                                dataclasses.asdict(announce(sim.record)))
        pair = sift(sim.stream, sim.record.d_b)
        np.testing.assert_equal(dataclasses.asdict(rep.sifted), dataclasses.asdict(pair))
        assert rep.qber == estimate_qber(pair.alice_bits, pair.bob_bits)
        est = estimate_parameters(rep.sim.stats, p, tolerance)
        np.testing.assert_equal(dataclasses.asdict(rep.estimation),
                                dataclasses.asdict(est))
        assert est.abort == aborts
        n_sifted = len(pair.kept_indices)
        if est.abort:
            assert rep.distill == DistillationSummary(n_sifted, 1.0, 0)
        else:
            assert rep.distill == distill_accounting(n_sifted, rep.qber.value,
                                                     est.i_eve)

    @pytest.mark.parametrize("deadtime_ns, p_ir", [(0.0, 0.0), (3.0, 0.0),
                                                    (0.0, 0.5), (3.0, 0.5)])
    def test_qber_counts_are_the_sifted_key(self, deadtime_ns, p_ir):
        # dark counts make errors and ambiguous symbols; deadtime and the
        # attack reshape which clicks survive
        p = params(mu=1.0, eta=0.5, p_d=2e-3)
        atk = AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=p_ir)
        rep = run_protocol(OpticsConfig(params=p, deadtime_ns=deadtime_ns),
                           100000, seed=17, attack=atk)
        q, pair = rep.qber, rep.sifted
        assert np.all(np.diff(rep.sim.record.d_b) > 0)  # sift relies on it
        assert q.n_errors > 0
        assert q.n_sifted == len(pair.kept_indices) == rep.distill.n_sifted
        assert q.n_errors == np.count_nonzero(pair.alice_bits != pair.bob_bits)

    def test_no_decoys_aborts_with_reason(self):
        p = params(f=0.0)
        rep = run_protocol(OpticsConfig(params=p), 20000, seed=7)
        assert rep.estimation.abort
        assert rep.estimation.reason is AbortReason.NO_DECOY_STATISTICS
