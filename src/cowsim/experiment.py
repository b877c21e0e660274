"""Framed-sequence simulation mode: a fixed short pulse pattern repeated at a
sequence clock, with gated detectors and non-paralyzable deadtime spanning
frames. Produces per-slot arrival histograms, raw detection rates and the
data-line QBER of the sifted key."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import sift
from .simulation import (
    BIT0,
    BIT1,
    DECOY,
    DetectionRecord,
    MonitoringStats,
    OpticsConfig,
    QberEstimate,
    SymbolStream,
    _frame_chain,
    _monitoring_tally,
    estimate_qber,
)

__all__ = ["FRAME_PATTERNS", "ExperimentConfig", "ExperimentResult", "run_experiment"]

# pulse-slot layout per logical symbol: two slots, the arrival slot is the bit
FRAME_PATTERNS = {
    "D010": (DECOY, BIT0, BIT1, BIT0),
}

DETECTORS = ("D_B", "D_M1", "D_M2")


@dataclass(frozen=True)
class ExperimentConfig(OpticsConfig):
    """The optics of a framed run: n_frames repetitions of a pulse pattern,
    one every frame_period_ns, with the range checks of OpticsConfig. The
    detectors' gate of gate_ns closes within its frame."""

    gate_ns: float = 25.0
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
        if not 0.0 < self.gate_ns < self.frame_period_ns:
            raise ValueError("gate_ns must be > 0 and shorter than frame_period_ns")


@dataclass
class ExperimentResult:
    slot_times_ns: np.ndarray
    record: DetectionRecord
    counts: dict
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
    frame = SymbolStream(np.array(FRAME_PATTERNS[config.pattern], dtype=np.int8),
                         config.params.mu)
    n_pulses = 2 * frame.n_symbols
    n_slots = max(int(config.gate_ns // tau) + 1, n_pulses + 1)
    clicks = dict(zip(DETECTORS, _frame_chain(config, frame, seed, n_slots)))
    ss = {name: s for name, (_, _, s) in clicks.items()}

    counts = {name: np.bincount(s, minlength=n_slots) for name, s in ss.items()}
    duration_s = config.n_frames * config.frame_period_ns * 1e-9
    rate_hz = {name: len(s) / duration_s for name, s in ss.items()}

    _, ff, s = clicks["D_B"]
    in_train = s < n_pulses  # later gated slots hold dark counts only
    # sifted like a stream: pulse s of frame f is pulse f * n_pulses + s
    key = sift(frame, (ff * n_pulses + s)[in_train])
    qber = estimate_qber(key.alice_bits, key.bob_bits)
    slot_times_ns = np.arange(n_slots, dtype=float)
    slot_times_ns *= tau  # in place: no int64 temporary per slot beside the histograms
    return ExperimentResult(
        slot_times_ns=slot_times_ns, record=DetectionRecord(*(g for g, _, _ in clicks.values())),
        counts=counts, rate_hz=rate_hz,
        raw_rate_hz=sum(rate_hz.values()), qber=qber,
        stats=_monitoring_tally(frame.kinds, ss["D_M1"], ss["D_M2"]))
