"""Mean-photon-number optimization and loss-sweep curve generation.

The objective R_sk(mu) can develop kinks and flat-zero regions where the PNS
fraction or the required intercept-resend fraction saturates, so a coarse grid
scan locates the winning basin before a golden-section refinement polishes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .rates import (
    KeyRateResult,
    PnsModel,
    Protocol,
    ProtocolParams,
    RateMode,
    _keyrate,
    secret_key_rate,
)

__all__ = [
    "OptimizationSpec",
    "OptimizeResult",
    "CurvePoint",
    "RobustnessResult",
    "optimize_mu",
    "sweep_loss",
    "visibility_robustness",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationSpec:
    mu_min: float = 1e-4
    mu_max: float = 1.0
    grid_points: int = 2000
    refine_tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.mu_min < self.mu_max < math.inf:
            raise ValueError("require 0 < mu_min < mu_max < inf")
        if self.grid_points < 100:
            raise ValueError("grid_points must be >= 100")
        if not 0.0 < self.refine_tolerance < self.mu_max - self.mu_min:
            raise ValueError("refine_tolerance must be in (0, mu_max - mu_min)")


@dataclass(frozen=True)
class OptimizeResult:
    mu_star: float
    keyrate: KeyRateResult
    all_zero: bool = False


@dataclass(frozen=True)
class CurvePoint:
    protocol: Protocol
    v: float
    loss_db: float
    mu_star: float
    r_sk_star: float


@dataclass(frozen=True)
class RobustnessResult:
    cow_ratio: float
    bb84_decoy_ratio: float


def optimize_mu(params: ProtocolParams, protocol: Protocol = Protocol.COW,
                model: PnsModel = PnsModel(),
                spec: OptimizationSpec = OptimizationSpec(),
                mode: RateMode = RateMode.LINEARIZED) -> OptimizeResult:
    """Maximize the clamped secret-key rate over mu in [mu_min, mu_max].

    Grid scan, then golden-section refinement inside the best grid cell's
    neighborhood. Ties break toward smaller mu (fewer multi-photon pulses).
    Deterministic for a fixed spec.
    """
    def f(mu):
        return np.maximum(_keyrate(params, mu, protocol, model, mode)[-1], 0.0)

    grid = np.linspace(spec.mu_min, spec.mu_max, spec.grid_points)
    vals = f(grid)
    if not np.any(vals > 0.0):
        result = secret_key_rate(replace(params, mu=spec.mu_min), protocol, model, mode)
        return OptimizeResult(mu_star=spec.mu_min, keyrate=result, all_zero=True)

    i = int(np.argmax(vals))  # first max: smallest-mu tie break on the grid
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]

    # golden-section maximization; >= keeps the left interval on ties
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = float(f(c))
    fd = float(f(d))
    best_mu, best_val = float(grid[i]), float(vals[i])
    width = math.inf
    # a tolerance below the float spacing at mu* would stall the bracket
    while spec.refine_tolerance < b - a < width:
        width = b - a
        for mu_cand, val_cand in ((c, fc), (d, fd)):
            if val_cand > best_val or (val_cand == best_val and mu_cand < best_mu):
                best_mu, best_val = float(mu_cand), float(val_cand)
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = float(f(d))
    mid = 0.5 * (a + b)
    fm = float(f(mid))
    if fm > best_val or (fm == best_val and mid < best_mu):
        best_mu, best_val = mid, fm

    result = secret_key_rate(replace(params, mu=best_mu), protocol, model, mode)
    return OptimizeResult(mu_star=best_mu, keyrate=result, all_zero=False)


def sweep_loss(params_template: ProtocolParams, protocols: Sequence[Protocol],
               loss_grid: Sequence[float], model: PnsModel = PnsModel(),
               spec: OptimizationSpec = OptimizationSpec(),
               visibilities: Sequence[float] | None = None,
               mode: RateMode = RateMode.LINEARIZED) -> list[CurvePoint]:
    """One optimized point per (protocol, visibility, loss).

    Rows are emitted protocol-major, then visibility in the given order, then
    loss ascending; points are independent so the ordering is reproducible.
    """
    losses = list(loss_grid)
    if not losses:
        raise ValueError("loss_grid must be nonempty")
    if any(b <= a for a, b in zip(losses, losses[1:])):
        raise ValueError("loss_grid must be strictly ascending")
    if visibilities is None:
        visibilities = [params_template.v]
    points = []
    for protocol in protocols:
        for v in visibilities:
            for loss in losses:
                params = replace(params_template, loss_db=loss, v=v)
                opt = optimize_mu(params, protocol, model, spec, mode)
                points.append(CurvePoint(
                    protocol=protocol, v=v, loss_db=loss,
                    mu_star=opt.mu_star, r_sk_star=opt.keyrate.r_sk))
    return points


def visibility_robustness(params_template: ProtocolParams, loss_db: float,
                          model: PnsModel = PnsModel(),
                          spec: OptimizationSpec = OptimizationSpec(),
                          mode: RateMode = RateMode.LINEARIZED,
                          v_low: float = 0.8,
                          v_high: float = 1.0) -> RobustnessResult:
    """Ratio R_sk*(v_low) / R_sk*(v_high) for the time-bin protocol and decoy
    BB84, by default the 0.8-versus-1 comparison.

    Each numerator and denominator is separately mu-optimized. A vanishing
    denominator flags the ratio undefined (NaN) rather than raising.
    """
    ratios = {}
    for protocol in (Protocol.COW, Protocol.BB84_DECOY):
        rates = {}
        for v in (v_low, v_high):
            params = replace(params_template, loss_db=loss_db, v=v)
            rates[v] = optimize_mu(params, protocol, model, spec, mode).keyrate.r_sk
        ratios[protocol] = (rates[v_low] / rates[v_high] if rates[v_high] > 0.0
                            else float("nan"))
    return RobustnessResult(cow_ratio=ratios[Protocol.COW],
                            bb84_decoy_ratio=ratios[Protocol.BB84_DECOY])
