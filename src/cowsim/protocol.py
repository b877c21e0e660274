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
    SimResult,
    SymbolStream,
    run_simulation,
    visibility_stderr,
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
    """Bob's public message: which symbols produced data-line detections and
    when D_M2 fired. Arrival slots are withheld because the slot is the bit;
    monitoring times carry no bit information."""

    detected_indices: np.ndarray
    ambiguous_indices: np.ndarray
    m2_times: np.ndarray


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
    v_10: float
    se_10: float
    v_d: float
    se_d: float
    abort: bool
    reason: AbortReason
    i_eve: float
    i_eve_feasible: bool


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
    estimation: EstimationReport
    distill: DistillationSummary


def announce(record: DetectionRecord) -> Announcement:
    """Project the detection record onto what Bob reveals publicly.

    A symbol whose both slots clicked (a dark count in the empty slot) is
    announced once and flagged ambiguous.
    """
    seq = record.d_b_seq
    detected = np.unique(seq)
    counts = np.bincount(seq, minlength=0)
    ambiguous = np.nonzero(counts > 1)[0]
    m2_times = 2 * record.d_m2_seq + record.d_m2_slot
    return Announcement(detected_indices=detected,
                        ambiguous_indices=ambiguous,
                        m2_times=m2_times)


def sift(stream: SymbolStream, announcement: Announcement,
         record: DetectionRecord) -> SiftedKeyPair:
    """Drop decoy detections and ambiguous symbols; pair Alice's sent bits
    with Bob's arrival-slot bits for the surviving indices."""
    keep_mask = np.zeros(stream.n_symbols, dtype=bool)
    keep_mask[announcement.detected_indices] = True
    keep_mask[announcement.ambiguous_indices] = False
    keep_mask &= stream.kinds != DECOY
    kept = np.nonzero(keep_mask)[0]

    bob_slot = np.zeros(stream.n_symbols, dtype=np.int8)
    bob_slot[record.d_b_seq] = record.d_b_slot
    alice_bits = (stream.kinds[kept] == BIT1).astype(np.int8)
    bob_bits = bob_slot[kept]
    return SiftedKeyPair(alice_bits=alice_bits, bob_bits=bob_bits,
                         kept_indices=kept)


def estimate_parameters(stats: MonitoringStats, params: ProtocolParams,
                        tolerance_sigmas: float = 3.0,
                        protocol: Protocol = Protocol.COW,
                        model: PnsModel = PnsModel()) -> EstimationReport:
    """Visibility estimates per class with binomial standard errors, the abort
    rule, and Eve's information computed from the worst visibility.

    The protocol demands equal visibilities across the two classes; the test
    is |v_10 - v_d| against tolerance_sigmas combined standard errors, which
    must be finite and positive. An undefined class aborts with its own reason
    code.
    """
    if not 0.0 < tolerance_sigmas < math.inf:
        raise ValueError(f"tolerance_sigmas must be finite and > 0, got {tolerance_sigmas}")
    v_d, v_10 = stats.v_d, stats.v_10
    if math.isnan(v_d) or math.isnan(v_10):
        no_decoy = math.isnan(v_d)
        return EstimationReport(
            v_10=float("nan"), se_10=0.0, v_d=v_d,
            se_d=0.0 if no_decoy else visibility_stderr(stats.n_m1_d, stats.n_m2_d),
            abort=True, i_eve=1.0, i_eve_feasible=False,
            reason=AbortReason.NO_DECOY_STATISTICS if no_decoy
            else AbortReason.NO_BIT_PAIR_STATISTICS)

    se_10 = visibility_stderr(stats.n_m1_10, stats.n_m2_10)
    se_d = visibility_stderr(stats.n_m1_d, stats.n_m2_d)
    combined = math.hypot(se_10, se_d)
    mismatch = abs(v_10 - v_d) > tolerance_sigmas * combined

    v_worst = min(v_10, v_d)
    eve = eve_information(replace(params, v=min(max(v_worst, 0.0), 1.0)),
                          protocol, model)
    return EstimationReport(v_10=v_10, se_10=se_10, v_d=v_d, se_d=se_d,
                            abort=mismatch,
                            reason=AbortReason.VISIBILITY_MISMATCH if mismatch
                            else AbortReason.NONE,
                            i_eve=eve.i_eve, i_eve_feasible=eve.feasible)


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
                 model: PnsModel = PnsModel()) -> ProtocolReport:
    """End-to-end exchange: generate, optionally attack, simulate, announce,
    sift, estimate, distill. An abort is a result, not an exception."""
    sim = run_simulation(config, n_symbols, seed, attack)
    ann = announce(sim.record)
    n_sifted = len(sift(sim.stream, ann, sim.record).kept_indices)
    estimation = estimate_parameters(sim.stats, config.params,
                                     tolerance_sigmas, protocol, model)
    if estimation.abort or n_sifted == 0:
        distill = DistillationSummary(n_sifted=n_sifted, shrink_fraction=1.0,
                                      n_secret=0)
    else:  # sim.qber counts the same sifted bits, so it is defined here
        distill = distill_accounting(n_sifted, sim.qber.value, estimation.i_eve)
    return ProtocolReport(sim=sim, announcement=ann, estimation=estimation,
                          distill=distill)
