"""Framed-sequence simulation mode: a fixed short pulse pattern repeated at a
sequence clock, with gated detectors and non-paralyzable deadtime spanning
frames. Produces per-slot arrival histograms and raw detection rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulation import (
    BIT0,
    BIT1,
    DECOY,
    MonitoringStats,
    OpticsConfig,
    QberEstimate,
    UndefinedEstimateError,
    _monitoring_tally,
    _pulse_train,
    _run_chain,
    estimate_qber,
)

__all__ = ["FRAME_PATTERNS", "ExperimentConfig", "ExperimentResult", "run_experiment"]

# pulse-slot layout per logical symbol: two slots, the arrival slot is the bit
FRAME_PATTERNS = {
    "D010": (DECOY, BIT0, BIT1, BIT0),
}

_STAGE_EXP_DATA = 10
_STAGE_EXP_M1 = 11
_STAGE_EXP_M2 = 12

DETECTORS = ("D_B", "D_M1", "D_M2")


@dataclass(frozen=True)
class ExperimentConfig(OpticsConfig):
    """The optics of a framed run: n_frames repetitions of a pulse pattern,
    one every frame_period_ns, with the range checks of OpticsConfig. The
    gate closes within its frame."""

    deadtime_ns: float = 10000.0
    frame_period_ns: float = 1e9 / 600e3
    n_frames: int = 600000
    pattern: str = "D010"

    def __post_init__(self):
        super().__post_init__()
        if self.pattern not in FRAME_PATTERNS:
            raise ValueError(f"unknown frame pattern {self.pattern!r}")
        if self.n_frames <= 0:
            raise ValueError("n_frames must be positive")
        frame_ns = 2 * len(FRAME_PATTERNS[self.pattern]) * self.params.pulse_period_ns
        if not frame_ns <= self.frame_period_ns < math.inf:
            raise ValueError("frame_period_ns must be finite and no shorter "
                             "than the pulse train")
        if not self.gate_ns < self.frame_period_ns:
            raise ValueError("gate_ns must be shorter than frame_period_ns")


@dataclass
class ExperimentResult:
    slot_times_ns: np.ndarray
    counts: dict
    clicks: dict
    rate_hz: dict
    raw_rate_hz: float
    qber: QberEstimate | None
    stats: MonitoringStats


def run_experiment(config: ExperimentConfig, seed: int) -> ExperimentResult:
    """Simulate n_frames repetitions of the pattern.

    Frames are separated by much more than one slot, so there is no
    interference across frames; the interferometer state restarts each frame.
    Dark counts fill every gated slot. Deadtime is applied per detector on the
    absolute click times, so one click can mask several following frames.
    """
    tau = config.params.pulse_period_ns
    frame = _pulse_train(np.array(FRAME_PATTERNS[config.pattern], dtype=np.int8),
                         config.params.mu)
    n_pulses = 2 * frame.n_symbols
    n_slots = max(int(config.gate_ns // tau) + 1, n_pulses + 1)
    clicks = dict(zip(DETECTORS, _run_chain(
        config, frame, seed, (_STAGE_EXP_DATA, _STAGE_EXP_M1, _STAGE_EXP_M2),
        config.n_frames, n_slots, config.frame_period_ns)))

    counts = {name: np.bincount(ss, minlength=n_slots) for name, (_, ss) in clicks.items()}
    duration_s = config.n_frames * config.frame_period_ns * 1e-9
    rate_hz = {name: len(ss) / duration_s for name, (_, ss) in clicks.items()}

    ff, ss = clicks["D_B"]
    in_train = ss < n_pulses  # later gated slots hold dark counts only
    ff, ss = ff[in_train], ss[in_train]
    try:
        qber = estimate_qber(ff * frame.n_symbols + ss // 2, ss % 2,
                             frame.kinds[ss // 2])
    except UndefinedEstimateError:
        qber = None
    return ExperimentResult(
        slot_times_ns=np.arange(n_slots) * tau,
        counts=counts, clicks=clicks, rate_hz=rate_hz,
        raw_rate_hz=sum(rate_hz.values()), qber=qber,
        stats=_monitoring_tally(frame.kinds, clicks["D_M1"][1], clicks["D_M2"][1]))
