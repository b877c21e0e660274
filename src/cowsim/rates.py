"""Closed-form rate and security analysis for time-bin QKD with weak coherent pulses.

All functions are pure and side-effect free. One numpy kernel, `_keyrate`,
composes R_sk = R_s (1 - h(Q) - I_Eve) at a mean photon number that may be an
array: `secret_key_rate` is its float view at params.mu, and its result
carries the sifted rate, the QBER and Eve's information. The optimizer scores
whole mu grids with it, and a batch of points at once: t and v may then be
(P, 1) columns, one row per point. The kernel also decides the model's domain:
the linearized counting rate mu t t_B eta may not exceed 1, and a dead channel
(R_s = 0) has an all-zero QBER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Protocol",
    "PnsModel",
    "RateMode",
    "ProtocolParams",
    "QberBreakdown",
    "EveInfo",
    "KeyRateResult",
    "binary_entropy",
    "counting_rate",
    "monitoring_rate",
    "xi",
    "eve_information",
    "secret_key_rate",
    "predicted_signature",
]


class Protocol(Enum):
    COW = "cow"
    BB84_DECOY = "bb84-decoy"
    BB84_PLAIN = "bb84"


class PnsModel(Enum):
    """Photon-number-splitting accounting model.

    The error-free variant gives Eve mu*(1-t); the two detectable variants give
    mu/(2t) (as printed in the source analysis) or mu*t/2 (the monotone
    alternative). The fraction is clamped into [0, 1].
    """

    ERROR_FREE = "error-free"
    DETECTABLE_AS_PRINTED = "printed"
    DETECTABLE_ALT = "alt"


class RateMode(Enum):
    EXACT = "exact"
    LINEARIZED = "linearized"


@dataclass(frozen=True)
class ProtocolParams:
    """Scalar parameters of one channel/detector configuration.

    mu is the mean photon number of a non-empty pulse, f the decoy fraction,
    loss_db the line loss (t = 10**(-loss_db/10) is derived), t_b the
    transmission of Bob's tap beam-splitter, eta the detector efficiency, p_d
    the dark-count probability per detector per gated slot and v the
    interference visibility. mu = 0 and eta = 0 are admitted as limit cases.
    """

    mu: float
    loss_db: float = 0.0
    f: float = 0.1
    t_b: float = 1.0
    eta: float = 0.1
    p_d: float = 1e-5
    v: float = 1.0
    pulse_period_ns: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        # an infinite or huge loss underflows the transmission to zero
        if not (self.loss_db >= 0.0 and self.t > 0.0):
            raise ValueError(f"loss_db must be >= 0 with a nonzero transmission, "
                             f"got {self.loss_db}")
        if not 0.0 <= self.f < 1.0:
            raise ValueError(f"f must be in [0, 1), got {self.f}")
        if not 0.0 < self.t_b <= 1.0:
            raise ValueError(f"t_b must be in (0, 1], got {self.t_b}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.p_d < 1.0:
            raise ValueError(f"p_d must be in [0, 1), got {self.p_d}")
        if not 0.0 <= self.v <= 1.0:
            raise ValueError(f"v must be in [0, 1], got {self.v}")
        if not 0.0 < self.pulse_period_ns < math.inf:
            raise ValueError(f"pulse_period_ns must be finite and > 0, "
                             f"got {self.pulse_period_ns}")

    @property
    def t(self) -> float:
        """Channel transmission derived from the dB loss."""
        return 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class QberBreakdown:
    q_total: float
    q_opt: float
    q_det: float


@dataclass(frozen=True)
class EveInfo:
    r: float
    p_ir: float
    i_ir: float
    i_eve: float
    feasible: bool


@dataclass(frozen=True)
class KeyRateResult:
    mu: float
    r_s: float
    qber: QberBreakdown
    eve: EveInfo
    r_sk_raw: float
    r_sk: float


# ---------------------------------------------------------------------------
# numpy kernels: mu may be an array, t and v scalars or (P, 1) columns, the rest scalars
# ---------------------------------------------------------------------------

def _entropy(p):
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("binary entropy argument must lie in [0, 1]")
    inner = (p > 0.0) & (p < 1.0)
    ps = np.where(inner, p, 0.5)  # safe placeholder for log
    h = -(ps * np.log2(ps) + (1.0 - ps) * np.log2(1.0 - ps))
    return np.where(inner, h, 0.0)


def _counting(mu, t, params: ProtocolParams, mode: RateMode):
    x = mu * t * params.t_b * params.eta
    if mode is RateMode.EXACT:
        return -np.expm1(-x)
    if np.any(x > 1.0):
        # a probability above 1 would make the dark-count QBER negative
        raise ValueError(
            f"mu = {np.max(mu):.9g} puts the linearized counting rate mu t t_B eta "
            f"at {np.max(x):.9g}, above 1; lower mu or set rate_mode=exact")
    return x


def _xi(mu_t):
    e = np.exp(-np.asarray(mu_t, dtype=float))
    return 2.0 * e / (1.0 + e)


def _pns_r(mu, t, model: PnsModel):
    if model is PnsModel.ERROR_FREE:
        r = mu * (1.0 - t)
    elif model is PnsModel.DETECTABLE_AS_PRINTED:
        with np.errstate(over="ignore"):
            r = mu / (2.0 * t)
    else:
        r = mu * t / 2.0
    return np.clip(r, 0.0, 1.0)


def _intercept_resend(mu_t, protocol: Protocol):
    """(scale, loss) of intercept-resend: Eve learns I = (1-r) p_ir / scale,
    and 1 - V = I loss. COW's IR is in the time basis, (1, xi(mu t)); BB84's
    is interferometric, error (1-r) p_ir / 4 and information (1-r) p_ir / 2."""
    if protocol is Protocol.COW:
        return 1.0, _xi(mu_t)
    return 2.0, 1.0


def _eve(mu, t, v, protocol: Protocol, model: PnsModel):
    """Return (r, p_ir, i_ir, i_eve, feasible) as numpy arrays."""
    if protocol is Protocol.BB84_PLAIN:
        # without decoy states every multi-photon pulse leaks for free
        model = PnsModel.ERROR_FREE
    r = np.asarray(_pns_r(mu, t, model), dtype=float)
    scale, loss = _intercept_resend(mu * t, protocol)
    room = 1.0 - r
    # xi underflows to 0 above mu t of about 745: V = 1 still needs no IR, and
    # any deficit there, or with no room, is infeasible (p_ir = inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        i_ir_needed = np.where(v < 1.0, (1.0 - v) / loss, 0.0)
        p_ir_needed = np.where(i_ir_needed == 0.0, 0.0, scale * i_ir_needed / room)
    feasible = p_ir_needed <= 1.0
    i_ir = np.where(feasible, i_ir_needed, room)
    p_ir = np.where(feasible, p_ir_needed, 1.0)
    i_eve = np.minimum(r + i_ir, 1.0)
    return r, p_ir, i_ir, i_eve, feasible


def _keyrate(params: ProtocolParams, mu, protocol: Protocol, model: PnsModel,
             mode: RateMode, t=None, v=None):
    """R_sk = R_s (1 - h(Q) - I_Eve) and its terms at mean photon number mu.

    mu may be an array; t and v default to params' and may be (P, 1) columns
    that broadcast against mu; every other input is read from params. Returns
    (r_s, q_opt, q_det, eve, raw) with eve the (r, p_ir, i_ir, i_eve,
    feasible) of _eve and raw the unclamped rate.
    """
    t = params.t if t is None else t
    v = params.v if v is None else v
    r = _counting(mu, t, params, mode)
    p_s = 1.0 - params.f
    dark = params.p_d * (1.0 - r)
    r_s = (r + 2.0 * dark) * p_s
    # a dead channel sifts nothing: its QBER parts are zero. p_s cancels from
    # both parts, so q_det <= 1/2 and q_opt <= (1 - V) / 2 at subnormal rates
    safe = np.where(r_s > 0.0, r + 2.0 * dark, np.inf)
    q_det = dark / safe
    if protocol is Protocol.COW:
        q_opt = np.zeros_like(q_det)
    else:
        q_opt = (1.0 - v) / 2.0 * (r / safe)
    eve = _eve(mu, t, v, protocol, model)
    raw = r_s * (1.0 - _entropy(q_opt + q_det) - eve[3])
    return r_s, q_opt, q_det, eve, raw


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------

def binary_entropy(p: float) -> float:
    """Shannon entropy of a binary variable, in bits, with 0*log(0) = 0."""
    return float(_entropy(p))


def counting_rate(params: ProtocolParams, mode: RateMode) -> float:
    """Data-line detection probability per non-empty pulse.

    EXACT is the Poissonian 1 - exp(-mu t t_B eta); LINEARIZED is the product
    mu t t_B eta used throughout the rate analysis.
    """
    return float(_counting(params.mu, params.t, params, mode))


def monitoring_rate(params: ProtocolParams) -> float:
    """Average monitoring-line detection probability per pulse, mu t (1-t_B) eta / 2."""
    return float(0.5 * params.mu * params.t * (1.0 - params.t_b) * params.eta)


def xi(mu: float, t: float) -> float:
    """Probability 2 e^{-mu t} / (1 + e^{-mu t}) that an attacker sees a photon
    in exactly one pulse of a non-empty pair, given she saw at least one."""
    if mu < 0.0 or not 0.0 < t <= 1.0:
        raise ValueError("require mu >= 0 and t in (0, 1]")
    return float(_xi(mu * t))


def _eve_info(eve) -> EveInfo:
    r, p_ir, i_ir, i_eve, feasible = eve
    return EveInfo(r=float(r), p_ir=float(p_ir), i_ir=float(i_ir),
                   i_eve=float(i_eve), feasible=bool(feasible))


def eve_information(params: ProtocolParams, protocol: Protocol = Protocol.COW,
                    model: PnsModel = PnsModel.DETECTABLE_AS_PRINTED) -> EveInfo:
    """Eve's total information fraction r + I for the observed visibility.

    The intercept-resend fraction p_ir is inferred from the visibility deficit;
    when even p_ir = 1 cannot account for it, the result is clamped to full
    information and flagged infeasible instead of raising, so optimizers can
    traverse the region.
    """
    return _eve_info(_eve(params.mu, params.t, params.v, protocol, model))


def secret_key_rate(params: ProtocolParams, protocol: Protocol = Protocol.COW,
                    model: PnsModel = PnsModel.DETECTABLE_AS_PRINTED,
                    mode: RateMode = RateMode.LINEARIZED) -> KeyRateResult:
    """Secret fraction R_s (1 - h(Q) - I_Eve) with its full breakdown.

    r_s is the sifted fraction per emitted bit, [R + 2 p_d (1-R)] (1-f), for
    every protocol variant: the decoy fraction f plays the role of the
    rarely-used basis. The arrival-time measurement is interference free, so
    the QBER's optical part is zero for the time-bin protocol and only the
    BB84 variants pick up R (1-V)/2; a dead channel (R_s = 0) has all parts
    zero. r_sk_raw keeps the possibly negative value for diagnostics; r_sk is
    the clamped max(0, .) that curves and optimizers use.
    """
    r_s, q_opt, q_det, eve, raw = _keyrate(params, params.mu, protocol, model, mode)
    q_opt, q_det, raw = float(q_opt), float(q_det), float(raw)
    return KeyRateResult(mu=params.mu, r_s=float(r_s),
                         qber=QberBreakdown(q_total=q_opt + q_det, q_opt=q_opt,
                                            q_det=q_det),
                         eve=_eve_info(eve), r_sk_raw=raw, r_sk=max(0.0, raw))


def predicted_signature(params: ProtocolParams, p_ir: float,
                        protocol: Protocol = Protocol.COW,
                        model: PnsModel = PnsModel.DETECTABLE_AS_PRINTED
                        ) -> tuple[float, float]:
    """Closed-form (V, I_Eve) of an intercept-resend attack on a fraction p_ir
    of the windows, p_ir = 0 for none: the inverse of eve_information."""
    r = eve_information(params, protocol, model).r
    scale, loss = _intercept_resend(params.mu * params.t, protocol)
    info = (1.0 - r) * p_ir / scale
    return 1.0 - info * float(loss), min(r + info, 1.0)
