"""Closed-form rate and security analysis for time-bin QKD with weak coherent pulses.

All functions are pure and side-effect free. The scalar API wraps a set of
numpy-compatible kernels so that the optimizer can evaluate whole mu grids in
one shot; both paths share the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Protocol",
    "PnsKind",
    "PnsModel",
    "RateMode",
    "ProtocolParams",
    "QberBreakdown",
    "EveInfo",
    "KeyRateResult",
    "UndefinedRateError",
    "binary_entropy",
    "transmission",
    "counting_rate",
    "monitoring_rate",
    "sifted_rate",
    "qber",
    "xi",
    "pns_fraction",
    "eve_information",
    "secret_key_rate",
]

LN2 = math.log(2.0)


class UndefinedRateError(ValueError):
    """Raised when a rate expression has a vanishing denominator."""


class Protocol(Enum):
    COW = "cow"
    BB84_DECOY = "bb84-decoy"
    BB84_PLAIN = "bb84"


class PnsKind(Enum):
    ERROR_FREE = "error-free"
    DETECTABLE_AS_PRINTED = "printed"
    DETECTABLE_ALT = "alt"


@dataclass(frozen=True)
class PnsModel:
    """Photon-number-splitting accounting model.

    The error-free variant gives Eve mu*(1-t); the two detectable variants give
    mu/(2t) (as printed in the source analysis) or mu*t/2 (the monotone
    alternative). The fraction is clamped into [0, 1] unless clamp is False.
    """

    kind: PnsKind = PnsKind.DETECTABLE_AS_PRINTED
    clamp: bool = True


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

    @classmethod
    def from_transmission(cls, mu: float, t: float, **kwargs) -> "ProtocolParams":
        if not 0.0 < t <= 1.0:
            raise ValueError(f"t must be in (0, 1], got {t}")
        return cls(mu=mu, loss_db=-10.0 * math.log10(t), **kwargs)


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
# numpy kernels: mu may be an array, every other argument is a scalar
# ---------------------------------------------------------------------------

def _entropy(p):
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("binary entropy argument must lie in [0, 1]")
    inner = (p > 0.0) & (p < 1.0)
    ps = np.where(inner, p, 0.5)  # safe placeholder for log
    h = -(ps * np.log2(ps) + (1.0 - ps) * np.log2(1.0 - ps))
    return np.where(inner, h, 0.0)


def _counting(mu, t, t_b, eta, mode: RateMode):
    x = mu * t * t_b * eta
    if mode is RateMode.EXACT:
        return -np.expm1(-x)
    return x


def _sifted(mu, t, t_b, eta, p_d, f, mode: RateMode):
    r = _counting(mu, t, t_b, eta, mode)
    return (r + 2.0 * p_d * (1.0 - r)) * (1.0 - f)


def _qber_parts(mu, t, t_b, eta, p_d, f, v, protocol: Protocol, mode: RateMode):
    r = np.asarray(_counting(mu, t, t_b, eta, mode), dtype=float)
    r_s = np.asarray(_sifted(mu, t, t_b, eta, p_d, f, mode), dtype=float)
    p_s = 1.0 - f
    defined = r_s > 0.0
    safe = np.where(defined, r_s, 1.0)
    q_det = np.where(defined, (1.0 - r) * p_d * p_s / safe, np.nan)
    if protocol is Protocol.COW:
        q_opt = np.zeros_like(q_det)
    else:
        q_opt = np.where(defined, r * (1.0 - v) / 2.0 * p_s / safe, np.nan)
    return q_opt, q_det


def _xi(mu_t):
    e = np.exp(-np.asarray(mu_t, dtype=float))
    return 2.0 * e / (1.0 + e)


def _pns_r(mu, t, model: PnsModel):
    if model.kind is PnsKind.ERROR_FREE:
        r = mu * (1.0 - t)
    elif model.kind is PnsKind.DETECTABLE_AS_PRINTED:
        r = mu / (2.0 * t)
    else:
        r = mu * t / 2.0
    if model.clamp:
        r = np.clip(r, 0.0, 1.0)
    return r


def _eve(mu, t, v, protocol: Protocol, model: PnsModel):
    """Return (r, p_ir, i_ir, i_eve, feasible) as numpy arrays."""
    if protocol is Protocol.BB84_PLAIN:
        r = _pns_r(mu, t, PnsModel(PnsKind.ERROR_FREE, model.clamp))
    else:
        r = _pns_r(mu, t, model)
    r = np.asarray(r, dtype=float)
    if protocol is Protocol.COW:
        # 1 - V = I xi, and the IR is in the time basis: I = (1-r) p_ir
        i_ir_needed = (1.0 - v) / _xi(mu * t)
        scale = 1.0
    else:
        # interferometric IR: error (1-r) p_ir / 4, information (1-r) p_ir / 2
        i_ir_needed = np.full_like(r, 1.0 - v)
        scale = 2.0
    safe = np.where(r < 1.0, 1.0 - r, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_ir_needed = np.where(r < 1.0, scale * i_ir_needed / safe, np.inf)
    p_ir_needed = np.where(i_ir_needed == 0.0, 0.0, p_ir_needed)
    feasible = p_ir_needed <= 1.0
    i_ir = np.where(feasible, i_ir_needed, 1.0 - r)
    p_ir = np.where(feasible, p_ir_needed, 1.0)
    i_eve = r + i_ir
    return r, p_ir, i_ir, i_eve, feasible


def _rsk_arrays(mu, t, t_b, eta, p_d, f, v, protocol: Protocol, model: PnsModel, mode: RateMode):
    """Clamped and raw secret-key rate over a mu array; NaN-free clamped output."""
    mu = np.asarray(mu, dtype=float)
    r_s = _sifted(mu, t, t_b, eta, p_d, f, mode)
    q_opt, q_det = _qber_parts(mu, t, t_b, eta, p_d, f, v, protocol, mode)
    q = q_opt + q_det
    _, _, _, i_eve, _ = _eve(mu, t, v, protocol, model)
    with np.errstate(invalid="ignore"):
        raw = r_s * (1.0 - _entropy(np.where(np.isnan(q), 0.0, np.clip(q, 0.0, 1.0))) - i_eve)
    raw = np.where(np.isnan(q), np.nan, raw)
    clamped = np.where(np.isnan(raw), 0.0, np.maximum(raw, 0.0))
    return raw, clamped


# ---------------------------------------------------------------------------
# scalar API
# ---------------------------------------------------------------------------

def binary_entropy(p: float) -> float:
    """Shannon entropy of a binary variable, in bits, with 0*log(0) = 0."""
    return float(_entropy(p))


def transmission(loss_db: float) -> float:
    """Channel transmission t = 10**(-loss_db/10)."""
    if loss_db < 0.0:
        raise ValueError(f"loss_db must be >= 0, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def counting_rate(params: ProtocolParams, mode: RateMode = RateMode.EXACT) -> float:
    """Data-line detection probability per non-empty pulse.

    EXACT is the Poissonian 1 - exp(-mu t t_B eta); LINEARIZED is the product
    mu t t_B eta used throughout the rate analysis.
    """
    return float(_counting(params.mu, params.t, params.t_b, params.eta, mode))


def monitoring_rate(params: ProtocolParams) -> float:
    """Average monitoring-line detection probability per pulse, mu t (1-t_B) eta / 2."""
    return float(0.5 * params.mu * params.t * (1.0 - params.t_b) * params.eta)


def sifted_rate(params: ProtocolParams,
                mode: RateMode = RateMode.LINEARIZED) -> float:
    """Sifted-key fraction per emitted bit, [R + 2 p_d (1-R)] (1-f).

    The same expression holds for every protocol variant here: the decoy
    fraction f plays the role of the rarely-used basis, so p_s = 1 - f.
    """
    return float(_sifted(params.mu, params.t, params.t_b, params.eta,
                         params.p_d, params.f, mode))


def qber(params: ProtocolParams, protocol: Protocol = Protocol.COW,
         mode: RateMode = RateMode.LINEARIZED) -> QberBreakdown:
    """QBER split into its optical and dark-count parts.

    The arrival-time measurement is interference free, so the optical part is
    identically zero for the time-bin protocol and only the BB84 variants pick
    up R (1-V)/2.
    """
    q_opt, q_det = _qber_parts(params.mu, params.t, params.t_b, params.eta,
                               params.p_d, params.f, params.v, protocol, mode)
    q_opt, q_det = float(q_opt), float(q_det)
    if math.isnan(q_det):
        raise UndefinedRateError("sifted rate is zero; QBER undefined")
    return QberBreakdown(q_total=q_opt + q_det, q_opt=q_opt, q_det=q_det)


def xi(mu: float, t: float) -> float:
    """Probability 2 e^{-mu t} / (1 + e^{-mu t}) that an attacker sees a photon
    in exactly one pulse of a non-empty pair, given she saw at least one."""
    if mu < 0.0 or not 0.0 < t <= 1.0:
        raise ValueError("require mu >= 0 and t in (0, 1]")
    return float(_xi(mu * t))


def pns_fraction(params: ProtocolParams, model: PnsModel) -> float:
    """Fraction of bits Eve learns for free from multi-photon pulses and loss."""
    return float(_pns_r(params.mu, params.t, model))


def eve_information(params: ProtocolParams, protocol: Protocol = Protocol.COW,
                    model: PnsModel = PnsModel()) -> EveInfo:
    """Eve's total information fraction r + I for the observed visibility.

    The intercept-resend fraction p_ir is inferred from the visibility deficit;
    when even p_ir = 1 cannot account for it, the result is clamped to full
    information and flagged infeasible instead of raising, so optimizers can
    traverse the region.
    """
    r, p_ir, i_ir, i_eve, feasible = _eve(params.mu, params.t, params.v, protocol, model)
    return EveInfo(r=float(r), p_ir=float(p_ir), i_ir=float(i_ir),
                   i_eve=float(i_eve), feasible=bool(feasible))


def secret_key_rate(params: ProtocolParams, protocol: Protocol = Protocol.COW,
                    model: PnsModel = PnsModel(),
                    mode: RateMode = RateMode.LINEARIZED) -> KeyRateResult:
    """Secret fraction R_s (1 - h(Q) - I_Eve) with its full breakdown.

    r_sk_raw keeps the possibly negative value for diagnostics; r_sk is the
    clamped max(0, .) that curves and optimizers use.
    """
    r_s = sifted_rate(params, mode)
    # a dead channel sifts nothing: its rates and QBER are all zero
    q = qber(params, protocol, mode) if r_s > 0.0 else QberBreakdown(0.0, 0.0, 0.0)
    eve = eve_information(params, protocol, model)
    raw = r_s * (1.0 - binary_entropy(q.q_total) - eve.i_eve)
    return KeyRateResult(mu=params.mu, r_s=r_s, qber=q, eve=eve,
                         r_sk_raw=raw, r_sk=max(0.0, raw))
