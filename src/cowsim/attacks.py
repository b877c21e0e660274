"""Eavesdropper transformations on the pulse stream.

The intercept-resend attack measures arrival times on symbol-aligned two-pulse
windows downstream of the lossy channel (per-pulse intensity mu t there) and
resends over a lossless line. Every resent pulse carries the window's own
uniformly random phase, which is what breaks coherence across window
boundaries. Resend amplitudes are scaled by 1/P(at least one detection per
non-empty pair) so the expected intensity reaching Bob matches the unattacked
channel; a one-detection window concentrates its whole restored budget in the
detected pulse. With that bookkeeping the count-based decoy-class visibility
converges to 1 - (1-r) p_ir xi exactly, the visibility that
rates.predicted_signature gives for the attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rates import ProtocolParams
from .simulation import BIT0, BIT1, DECOY, SymbolStream, _uniform_chunks

__all__ = [
    "AttackKind",
    "AttackConfig",
    "AttackLog",
    "apply_intercept_resend",
]


class AttackKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"


@dataclass(frozen=True)
class AttackConfig:
    kind: AttackKind = AttackKind.NONE
    p_ir: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_ir <= 1.0:
            raise ValueError("p_ir must be in [0, 1]")

    def is_active(self) -> bool:
        return self.kind is AttackKind.INTERCEPT_RESEND and self.p_ir > 0.0


@dataclass
class AttackLog:
    attacked_windows: np.ndarray
    eve_conclusive: int
    eve_known_bits: int

    def __post_init__(self):
        if self.eve_conclusive > len(self.attacked_windows):
            raise ValueError("conclusive count cannot exceed attacked count")


def apply_intercept_resend(stream: SymbolStream, config: AttackConfig,
                           params: ProtocolParams,
                           rng: np.random.Generator):
    """Attack a fraction p_ir of the symbol windows, returning the modified
    stream and a log of what Eve learned.

    The stream must be clean, as generate_symbols returns it. Per attacked
    window: Eve detects each non-empty pulse with probability 1 - exp(-mu t).
    Two detections identify the decoy, resent phase-coherently within the
    window; one detection resends the maximum-posterior symbol for that click
    position; no detection resends vacuum. The resent windows become rows of
    the stream's amplitude table, each with the window's own phase.
    """
    n = stream.n_symbols
    empty_log = AttackLog(attacked_windows=np.empty(0, dtype=np.int64),
                          eve_conclusive=0, eve_known_bits=0)
    if not config.is_active():
        return stream, empty_log

    mu_t = stream.mu * params.t
    p_det = -math.expm1(-mu_t)
    if p_det <= 0.0:
        return stream, empty_log
    # restores Bob's expected intensity per window across Eve's outcome mix
    boost = 1.0 / (p_det * (2.0 - p_det))

    # fixed draw layout: (attack mask, window phase, two pulse detections) per window
    attacked, clicks = np.empty(n, dtype=bool), np.empty((n, 2), dtype=bool)
    for rows, u in _uniform_chunks(rng, n):
        np.less(u, config.p_ir, out=attacked[rows])
    theta = rng.random(n) * (2.0 * math.pi)
    for rows, u in _uniform_chunks(rng, n, 2):
        np.less(u, p_det, out=clicks[rows])

    det_first = attacked & (stream.kinds != BIT1) & clicks[:, 0]
    det_second = attacked & (stream.kinds != BIT0) & clicks[:, 1]

    # MAP guess for a single click: bit at that position unless decoys dominate
    bit_posterior = (1.0 - params.f) / 2.0
    decoy_posterior = params.f * (1.0 - p_det)
    guess_bit = bit_posterior >= decoy_posterior

    a_pair = math.sqrt(boost * stream.mu)
    a_single = math.sqrt(2.0 * boost * stream.mu)
    # Eve's resends index rows appended to Alice's table; a single click is
    # resent as a pair unless the guess is the bit at that position
    vacuum, pair, first, second = range(len(stream.table), len(stream.table) + 4)
    rows = [[0.0, 0.0], [a_pair, a_pair]]
    if guess_bit:
        rows += [[a_single, 0.0], [0.0, a_single]]

    resent = det_first | det_second
    shapes = stream.shapes.astype(np.uint8)
    shapes[attacked] = vacuum
    shapes[resent] = pair
    if guess_bit:
        shapes[det_first & ~det_second] = first
        shapes[det_second & ~det_first] = second

    theta[~resent] = 0.0  # only a resent window carries a phase

    is_bit = stream.kinds != DECOY
    known_bits = int(np.count_nonzero(is_bit & resent))
    conclusive = int(np.count_nonzero(resent))
    log = AttackLog(attacked_windows=np.nonzero(attacked)[0],
                    eve_conclusive=conclusive,
                    eve_known_bits=known_bits)
    return SymbolStream(kinds=stream.kinds, mu=stream.mu, shapes=shapes,
                        table=np.vstack((stream.table, rows)), theta=theta), log

