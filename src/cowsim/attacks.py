"""Eavesdropper transformations on the pulse stream.

The intercept-resend attack measures arrival times on symbol-aligned two-pulse
windows downstream of the lossy channel (per-pulse intensity mu t there) and
resends over a lossless line. Each resent window carries its own uniformly
random phase, which is what breaks coherence across window boundaries. Resend
amplitudes are scaled by 1/P(at least one detection per non-empty pair) so the
expected intensity reaching Bob matches the unattacked channel; a one-detection
window puts its whole restored budget in the detected pulse. No photon is
split, so the count-based decoy-class visibility converges to 1 - p_ir xi(mu t),
rates.predicted_signature's 1 - (1-r) p_ir xi at r = 0. The attacked stream is
Eve's record: an attacked window has one of her shape codes, a resent one is in
`resent`. Only the attack mask costs a draw per window, one raw byte for most;
Eve's detections and phases cost O(resent windows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rates import ProtocolParams
from .simulation import SymbolStream, _bernoulli, _candidates

__all__ = [
    "AttackKind",
    "AttackConfig",
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


def apply_intercept_resend(stream: SymbolStream, config: AttackConfig,
                           params: ProtocolParams,
                           rng: np.random.Generator) -> SymbolStream:
    """Attack a fraction p_ir of the symbol windows and return the attacked
    stream.

    The stream must be clean, as generate_symbols returns it. Per attacked
    window: Eve detects each non-empty pulse with probability 1 - exp(-mu t).
    Two detections identify the decoy, resent phase-coherently within the
    window; one detection resends the maximum-posterior symbol for that click
    position; no detection resends vacuum. The resent windows index rows
    appended to the stream's amplitude table, and each draws its own phase.
    """
    p_det = -math.expm1(-stream.mu * params.t)
    if not config.is_active() or p_det <= 0.0:
        return stream
    # restores Bob's expected intensity per window across Eve's outcome mix
    boost = 1.0 / (p_det * (2.0 - p_det))
    # Eve's resends index rows appended to Alice's table: vacuum, pair, and a
    # single click on pulse p at row single + p, kept only if the guess is a bit
    vacuum, pair, single = range(len(stream.table), len(stream.table) + 3)

    # fixed draw layout: the attack mask, an exact Bernoulli(p_ir) per window
    # that turns it vacuum; then Eve's detections, one Bernoulli(p_det)
    # process over the attacked windows' two pulses (rank r is pulse r & 1 of
    # attacked window r >> 1); then a phase per resent window
    shapes = stream.shapes.astype(np.uint8)
    _bernoulli(rng, config.p_ir, shapes, vacuum)
    windows = np.flatnonzero(shapes == vacuum)
    hits = _candidates(rng, p_det, 2 * len(windows))
    hit_windows, pulse = windows.take(hits >> 1), (hits & 1).astype(np.int8)
    del windows, hits  # large at 0 dB, where Eve detects 39 % of the pulses
    # no photon, no detection: the empty pulse of bit b (BIT0 = 0, BIT1 = 1) is 1 - b
    lit = np.flatnonzero(stream.kinds[hit_windows] + pulse != 1)
    hit_windows, pulse = hit_windows[lit], pulse[lit]
    first = np.diff(hit_windows, prepend=-1) > 0  # a window's first detection
    resent = hit_windows[first]
    both = np.diff(np.flatnonzero(first), append=len(first)) > 1

    # MAP guess for a single click: bit at that position unless decoys dominate
    guess_bit = (1.0 - params.f) / 2.0 >= params.f * (1.0 - p_det)
    a_pair = math.sqrt(boost * stream.mu)
    a_single = math.sqrt(2.0 * boost * stream.mu)
    rows = [[0.0, 0.0], [a_pair, a_pair]]
    if guess_bit:
        rows += [[a_single, 0.0], [0.0, a_single]]
    shapes[resent] = np.where(both | (not guess_bit), pair, single + pulse[first])
    phases = rng.random(len(resent)) * (2.0 * math.pi)
    return SymbolStream(kinds=stream.kinds, mu=stream.mu, shapes=shapes,
                        table=np.vstack((stream.table, rows)), resent=resent,
                        phases=phases)
