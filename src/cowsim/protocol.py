"""The classical side of the exchange: announcement, sifting, parameter
estimation with an abort rule, and distillation accounting.

Error correction and privacy amplification are rate accounting only: the
sifted key shrinks by the fraction h(Q) + I_Eve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .rates import (
    PnsModel,
    Protocol,
    ProtocolParams,
    binary_entropy,
    eve_information,
)
from .simulation import (
    DECOY,
    BIT1,
    DetectionRecord,
    MonitoringStats,
    OpticsConfig,
    QberEstimate,
    SimResult,
    SymbolStream,
    _wilson,
    estimate_qber,
    run_simulation,
)

__all__ = [
    "Announcement",
    "SiftedKeyPair",
    "AbortReason",
    "EstimationReport",
    "DistillationSummary",
    "ProtocolReport",
    "announce",
    "sift",
    "estimate_parameters",
    "distill_accounting",
    "run_protocol",
]


@dataclass(frozen=True)
class Announcement:
    """Bob's public message: which symbols produced data-line detections.
    Arrival slots are withheld because the slot is the bit."""

    detected_indices: np.ndarray
    ambiguous_indices: np.ndarray


@dataclass
class SiftedKeyPair:
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    kept_indices: np.ndarray

    def __post_init__(self):
        if len(self.alice_bits) != len(self.bob_bits):
            raise ValueError("sifted keys must have equal length")
        if len(self.kept_indices) != len(self.alice_bits):
            raise ValueError("one kept index per sifted bit")


class AbortReason(Enum):
    NONE = "none"
    VISIBILITY_MISMATCH = "visibility-mismatch"
    NO_DECOY_STATISTICS = "no-decoy-statistics"
    NO_BIT_PAIR_STATISTICS = "no-bit-pair-statistics"


@dataclass(frozen=True)
class EstimationReport:
    """The abort decision and the I_Eve it charges. The visibilities it reads
    are MonitoringStats.v_10 and v_d."""

    abort: bool
    reason: AbortReason
    i_eve: float


@dataclass(frozen=True)
class DistillationSummary:
    n_sifted: int
    shrink_fraction: float
    n_secret: int


@dataclass(frozen=True)
class ProtocolReport:
    """The result of each stage of one exchange, as that stage returned it."""

    sim: SimResult
    announcement: Announcement
    sifted: SiftedKeyPair
    qber: QberEstimate | None
    estimation: EstimationReport
    distill: DistillationSummary


def announce(record: DetectionRecord) -> Announcement:
    """Project the detection record onto what Bob reveals publicly.

    A symbol whose both slots clicked (a dark count in the empty slot) is
    announced once and flagged ambiguous.
    """
    seq, first, last = _runs(record.d_b)
    return Announcement(detected_indices=seq[first], ambiguous_indices=seq[first & ~last])


def _runs(d_b: np.ndarray) -> tuple:
    """d_b >> 1, and which clicks of the ascending d_b start and end a symbol's run."""
    seq = d_b >> 1
    first, last = np.ones((2, len(seq)), dtype=bool)
    first[1:] = last[:-1] = seq[1:] != seq[:-1]
    return seq, first, last


def sift(stream: SymbolStream, d_b: np.ndarray) -> SiftedKeyPair:
    """Pair Alice's sent bits with Bob's arrival-slot bits for the symbols
    whose data line clicked in one slot only, dropping decoys.

    d_b holds ascending data-line slots, 2k + bit for symbol k. Symbol k is
    symbol k mod n_symbols of the stream, so a framed run repeats its frame's
    kinds."""
    seq, first, last = _runs(d_b)
    n = stream.n_symbols  # k - k // n * n below: an int64 % costs several floor divides
    kinds = stream.kinds.take(seq - seq // n * n if len(seq) and seq[-1] >= n else seq)
    # integer indices: a boolean mask this irregular gathers several times slower
    at = np.flatnonzero(first & last & (kinds != DECOY))  # a bit symbol clicked once
    return SiftedKeyPair(alice_bits=(kinds.take(at) == BIT1).view(np.int8),
                         bob_bits=(d_b.take(at) & 1).astype(np.int8),
                         kept_indices=seq.take(at))


def estimate_parameters(stats: MonitoringStats, params: ProtocolParams,
                        tolerance_sigmas: float = 3.0,
                        protocol: Protocol = Protocol.COW,
                        model: PnsModel = PnsModel.DETECTABLE_AS_PRINTED) -> EstimationReport:
    """The abort rule on the visibilities of the two classes, and Eve's
    information computed from the worse of them.

    The protocol demands equal visibilities across the two classes. A class's
    visibility is 2p - 1 for the share p of its clicks on D_M1, so the run
    aborts when Newcombe's hybrid score interval for p_10 - p_d, built from
    each class's Wilson interval at z = tolerance_sigmas (finite and
    positive), excludes 0. Unlike a Wald error, a Wilson interval keeps its
    width when a class has no D_M2 clicks. An undefined class aborts with its
    own reason code.
    """
    if not 0.0 < tolerance_sigmas < math.inf:
        raise ValueError(f"tolerance_sigmas must be finite and > 0, got {tolerance_sigmas}")
    v_d, v_10 = stats.v_d, stats.v_10
    if math.isnan(v_d) or math.isnan(v_10):
        reason = (AbortReason.NO_DECOY_STATISTICS if math.isnan(v_d)
                  else AbortReason.NO_BIT_PAIR_STATISTICS)
        return EstimationReport(abort=True, reason=reason, i_eve=1.0)

    n_10, n_d = stats.n_m1_10 + stats.n_m2_10, stats.n_m1_d + stats.n_m2_d
    p_10, p_d = stats.n_m1_10 / n_10, stats.n_m1_d / n_d
    lo_10, hi_10 = _wilson(stats.n_m1_10, n_10, tolerance_sigmas)
    lo_d, hi_d = _wilson(stats.n_m1_d, n_d, tolerance_sigmas)
    mismatch = (p_10 - p_d > math.hypot(p_10 - lo_10, hi_d - p_d)
                or p_d - p_10 > math.hypot(hi_10 - p_10, p_d - lo_d))

    v_worst = min(v_10, v_d)
    eve = eve_information(replace(params, v=min(max(v_worst, 0.0), 1.0)),
                          protocol, model)
    return EstimationReport(abort=mismatch,
                            reason=AbortReason.VISIBILITY_MISMATCH if mismatch
                            else AbortReason.NONE,
                            i_eve=eve.i_eve)


def distill_accounting(n_sifted: int, q: float, i_eve: float) -> DistillationSummary:
    """Secret bits left after removing the fraction h(Q) + I_Eve, never negative."""
    if n_sifted < 0 or not 0.0 <= q <= 1.0 or not 0.0 <= i_eve <= 1.0:
        raise ValueError("inputs out of range")
    shrink = binary_entropy(q) + i_eve
    n_secret = max(0, math.floor(n_sifted * (1.0 - shrink)))
    return DistillationSummary(n_sifted=n_sifted, shrink_fraction=shrink,
                               n_secret=n_secret)


def run_protocol(config: OpticsConfig, n_symbols: int, seed: int,
                 attack=None, tolerance_sigmas: float = 3.0,
                 protocol: Protocol = Protocol.COW,
                 model: PnsModel = PnsModel.DETECTABLE_AS_PRINTED) -> ProtocolReport:
    """End-to-end exchange: generate, optionally attack, simulate, announce,
    sift, estimate, distill. An abort is a result, not an exception."""
    sim = run_simulation(config, n_symbols, seed, attack)
    ann = announce(sim.record)
    sifted = sift(sim.stream, sim.record.d_b)
    qber = estimate_qber(sifted.alice_bits, sifted.bob_bits)
    estimation = estimate_parameters(sim.stats, config.params,
                                     tolerance_sigmas, protocol, model)
    n_sifted = len(sifted.kept_indices)
    # an abort or an empty key shrinks by h(0) + 1 = 1
    distill = (distill_accounting(n_sifted, 0.0, 1.0) if estimation.abort or qber is None
               else distill_accounting(n_sifted, qber.value, estimation.i_eve))
    return ProtocolReport(sim=sim, announcement=ann, sifted=sifted, qber=qber,
                          estimation=estimation, distill=distill)
