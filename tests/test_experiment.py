"""Framed-sequence mode: histogram structure, deadtime behavior, rates."""

import math

import numpy as np
import pytest

from cowsim import DetectionRecord, ExperimentConfig, ProtocolParams, run_experiment
from cowsim.experiment import DETECTORS

TAU = 1e9 / 434e6


def preset_config(**over):
    kw = dict(n_frames=150000)
    kw.update(over)
    params = kw.pop("params", None) or ProtocolParams(
        mu=0.5, loss_db=5.0, f=0.1, t_b=0.85, eta=0.1, p_d=2.5e-5 * 1.7,
        v=0.92, pulse_period_ns=TAU)
    return ExperimentConfig(params=params, **kw)


def peak_slots(counts, threshold=0.05):
    return [i for i, c in enumerate(counts) if c >= threshold * counts.max()]


def frames_and_slots(result):
    """Each detector's clicks as (frame, slot) arrays, read from the record."""
    n_slots = len(result.slot_times_ns)
    rec = result.record
    return {name: np.divmod(g, n_slots)
            for name, g in zip(DETECTORS, (rec.d_b, rec.d_m1, rec.d_m2))}


class TestHistogram:
    def test_data_line_peaks_at_nonempty_pulses(self):
        result = run_experiment(preset_config(), seed=5)
        assert peak_slots(result.counts["D_B"]) == [0, 1, 2, 5, 6]

    def test_empty_slots_still_carry_dark_floor(self):
        result = run_experiment(preset_config(), seed=5)
        db = result.counts["D_B"]
        floor = [db[i] for i in (3, 4, 7)]
        assert all(f > 0 for f in floor)
        assert max(floor) < 0.01 * db.max()

    def test_slot_times(self):
        result = run_experiment(preset_config(n_frames=1000), seed=1)
        assert result.slot_times_ns[0] == 0.0
        assert result.slot_times_ns[1] == pytest.approx(TAU)
        # 25 ns gate covers the 8-pulse train plus trailing dark-only slots
        assert len(result.slot_times_ns) == 11

    def test_counts_are_the_records_slots(self):
        # one click format in both modes: ascending absolute slots
        # frame * n_slots + slot, of which the histogram counts the slot
        result = run_experiment(preset_config(n_frames=20000), seed=3)
        assert isinstance(result.record, DetectionRecord)
        n_slots = len(result.slot_times_ns)
        rec = result.record
        for name, g in zip(DETECTORS, (rec.d_b, rec.d_m1, rec.d_m2)):
            assert np.all(np.diff(g) > 0)
            assert np.array_equal(result.counts[name],
                                  np.bincount(g % n_slots, minlength=n_slots))


class TestDeadtime:
    def test_one_click_per_detector_per_frame(self):
        cfg = preset_config()
        assert cfg.deadtime_ns >= 8 * cfg.params.pulse_period_ns
        result = run_experiment(cfg, seed=5)
        for ff, _ in frames_and_slots(result).values():
            if len(ff):
                assert np.bincount(ff).max() <= 1

    def test_click_spacing_respects_deadtime(self):
        cfg = preset_config(n_frames=50000)
        result = run_experiment(cfg, seed=9)
        for ff, ss in frames_and_slots(result).values():
            times = ff * cfg.frame_period_ns + ss * cfg.params.pulse_period_ns
            if len(times) > 1:
                assert np.diff(times).min() >= cfg.deadtime_ns

    def test_deadtime_strictly_reduces_rate(self):
        busy = run_experiment(preset_config(), seed=5)
        free = run_experiment(preset_config(deadtime_ns=0.0), seed=5)
        assert free.raw_rate_hz > busy.raw_rate_hz


class TestRates:
    def test_raw_rate_in_expected_band(self):
        result = run_experiment(preset_config(), seed=5)
        assert 8.5e3 <= result.raw_rate_hz <= 34e3

    def test_dark_only_qber_is_small(self):
        result = run_experiment(preset_config(), seed=5)
        assert result.qber is not None
        assert result.qber.value < 0.052

    def test_deterministic(self):
        a = run_experiment(preset_config(n_frames=30000), seed=11)
        b = run_experiment(preset_config(n_frames=30000), seed=11)
        for name in ("D_B", "D_M1", "D_M2"):
            assert np.array_equal(a.counts[name], b.counts[name])

    def test_visibility_classes_estimated(self):
        result = run_experiment(preset_config(n_frames=400000), seed=5)
        st = result.stats
        assert not math.isnan(st.v_d) and not math.isnan(st.v_10)
        # wide band: counts are small and dark counts bias the raw estimate
        assert 0.6 < st.v_d <= 1.0
        assert 0.6 < st.v_10 <= 1.0


class TestValidation:
    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            ExperimentConfig(params=preset_config().params, pattern="D0")

    def test_frame_period_too_short(self):
        with pytest.raises(ValueError):
            ExperimentConfig(params=preset_config().params, frame_period_ns=10.0)
