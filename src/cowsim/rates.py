"""Closed-form rate and security analysis for time-bin QKD with weak coherent pulses.

All functions are pure and side-effect free. One numpy kernel, `_keyrate`,
composes R_sk = R_s (1 - h(Q) - I_Eve) at a mean photon number that may be an
array: `secret_key_rate`, `sifted_rate` and `qber` are its float view at
params.mu, and the optimizer scores whole mu grids with it. The kernel also
decides the model's domain: the linearized counting rate mu t t_B eta may not
exceed 1, and a dead channel (R_s = 0) has an all-zero QBER.
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


def _counting(mu, params: ProtocolParams, mode: RateMode):
    x = mu * params.t * params.t_b * params.eta
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
    if model.kind is PnsKind.ERROR_FREE:
        r = mu * (1.0 - t)
    elif model.kind is PnsKind.DETECTABLE_AS_PRINTED:
        with np.errstate(over="ignore"):
            r = mu / (2.0 * t)
    else:
        r = mu * t / 2.0
    if model.clamp:
        return np.clip(r, 0.0, 1.0)
    if not np.all(np.isfinite(r)):
        # an infinite r would turn Eve's information into inf or nan
        raise ValueError(f"the unclamped PNS fraction mu/(2t) overflows at "
                         f"mu = {np.max(mu):.9g}, t = {t:.9g}; set pns_clamp=true")
    return r


def _eve(mu, t, v, protocol: Protocol, model: PnsModel):
    """Return (r, p_ir, i_ir, i_eve, feasible) as numpy arrays."""
    if protocol is Protocol.BB84_PLAIN:
        # without decoy states every multi-photon pulse leaks for free
        model = PnsModel(PnsKind.ERROR_FREE, model.clamp)
    r = np.asarray(_pns_r(mu, t, model), dtype=float)
    if protocol is Protocol.COW:
        # 1 - V = I xi, and the IR is in the time basis: I = (1-r) p_ir. xi
        # underflows to 0 above mu t of about 745: V = 1 still needs no IR,
        # and any deficit there is infeasible
        with np.errstate(divide="ignore"):
            i_ir_needed = (1.0 - v) / _xi(mu * t) if v < 1.0 else np.zeros_like(r)
        scale = 1.0
    else:
        # interferometric IR: error (1-r) p_ir / 4, information (1-r) p_ir / 2
        i_ir_needed = np.full_like(r, 1.0 - v)
        scale = 2.0
    safe = np.where(r < 1.0, 1.0 - r, 1.0)
    p_ir_needed = np.where(r < 1.0, scale * i_ir_needed / safe, np.inf)
    p_ir_needed = np.where(i_ir_needed == 0.0, 0.0, p_ir_needed)
    feasible = p_ir_needed <= 1.0
    i_ir = np.where(feasible, i_ir_needed, 1.0 - r)
    p_ir = np.where(feasible, p_ir_needed, 1.0)
    i_eve = r + i_ir
    return r, p_ir, i_ir, i_eve, feasible


def _keyrate(params: ProtocolParams, mu, protocol: Protocol, model: PnsModel,
             mode: RateMode):
    """R_sk = R_s (1 - h(Q) - I_Eve) and its terms at mean photon number mu.

    mu may be an array; every other input is read from params. Returns
    (r_s, q_opt, q_det, eve, raw) with eve the (r, p_ir, i_ir, i_eve,
    feasible) of _eve and raw the unclamped rate.
    """
    r = _counting(mu, params, mode)
    p_s = 1.0 - params.f
    r_s = (r + 2.0 * params.p_d * (1.0 - r)) * p_s
    # a dead channel sifts nothing: its QBER parts are zero
    safe = np.where(r_s > 0.0, r_s, np.inf)
    q_det = (1.0 - r) * params.p_d * p_s / safe
    if protocol is Protocol.COW:
        q_opt = np.zeros_like(q_det)
    else:
        q_opt = r * (1.0 - params.v) / 2.0 * p_s / safe
    eve = _eve(mu, params.t, params.v, protocol, model)
    raw = r_s * (1.0 - _entropy(q_opt + q_det) - eve[3])
    return r_s, q_opt, q_det, eve, raw


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
    return float(_counting(params.mu, params, mode))


def monitoring_rate(params: ProtocolParams) -> float:
    """Average monitoring-line detection probability per pulse, mu t (1-t_B) eta / 2."""
    return float(0.5 * params.mu * params.t * (1.0 - params.t_b) * params.eta)


def sifted_rate(params: ProtocolParams,
                mode: RateMode = RateMode.LINEARIZED) -> float:
    """Sifted-key fraction per emitted bit, [R + 2 p_d (1-R)] (1-f).

    The same expression holds for every protocol variant here: the decoy
    fraction f plays the role of the rarely-used basis, so p_s = 1 - f.
    """
    return secret_key_rate(params, mode=mode).r_s


def qber(params: ProtocolParams, protocol: Protocol = Protocol.COW,
         mode: RateMode = RateMode.LINEARIZED) -> QberBreakdown:
    """QBER split into its optical and dark-count parts.

    The arrival-time measurement is interference free, so the optical part is
    identically zero for the time-bin protocol and only the BB84 variants pick
    up R (1-V)/2. A dead channel (zero sifted rate) has all parts zero.
    """
    return secret_key_rate(params, protocol, mode=mode).qber


def xi(mu: float, t: float) -> float:
    """Probability 2 e^{-mu t} / (1 + e^{-mu t}) that an attacker sees a photon
    in exactly one pulse of a non-empty pair, given she saw at least one."""
    if mu < 0.0 or not 0.0 < t <= 1.0:
        raise ValueError("require mu >= 0 and t in (0, 1]")
    return float(_xi(mu * t))


def pns_fraction(params: ProtocolParams, model: PnsModel) -> float:
    """Fraction of bits Eve learns for free from multi-photon pulses and loss."""
    return float(_pns_r(params.mu, params.t, model))


def _eve_info(eve) -> EveInfo:
    r, p_ir, i_ir, i_eve, feasible = eve
    return EveInfo(r=float(r), p_ir=float(p_ir), i_ir=float(i_ir),
                   i_eve=float(i_eve), feasible=bool(feasible))


def eve_information(params: ProtocolParams, protocol: Protocol = Protocol.COW,
                    model: PnsModel = PnsModel()) -> EveInfo:
    """Eve's total information fraction r + I for the observed visibility.

    The intercept-resend fraction p_ir is inferred from the visibility deficit;
    when even p_ir = 1 cannot account for it, the result is clamped to full
    information and flagged infeasible instead of raising, so optimizers can
    traverse the region.
    """
    return _eve_info(_eve(params.mu, params.t, params.v, protocol, model))


def secret_key_rate(params: ProtocolParams, protocol: Protocol = Protocol.COW,
                    model: PnsModel = PnsModel(),
                    mode: RateMode = RateMode.LINEARIZED) -> KeyRateResult:
    """Secret fraction R_s (1 - h(Q) - I_Eve) with its full breakdown.

    r_sk_raw keeps the possibly negative value for diagnostics; r_sk is the
    clamped max(0, .) that curves and optimizers use.
    """
    r_s, q_opt, q_det, eve, raw = _keyrate(params, params.mu, protocol, model, mode)
    q_opt, q_det, raw = float(q_opt), float(q_det), float(raw)
    return KeyRateResult(mu=params.mu, r_s=float(r_s),
                         qber=QberBreakdown(q_total=q_opt + q_det, q_opt=q_opt,
                                            q_det=q_det),
                         eve=_eve_info(eve), r_sk_raw=raw, r_sk=max(0.0, raw))
