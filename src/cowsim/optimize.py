"""Mean-photon-number optimization and loss-sweep curve generation.

The objective R_sk(mu) can develop kinks and flat-zero regions where the PNS
fraction or the required intercept-resend fraction saturates, so a coarse grid
scan locates the winning basin before a golden-section refinement polishes it.
Points that differ only in loss and visibility are one batch: the grid scan
runs per point, the refinement runs once, elementwise over the batch, and a
curve is one batch per protocol.
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
    """The mu range [mu_min, mu_max], its scan grid, and the golden-section
    stop: the refinement of a point ends once its bracket [a, b] is no wider
    than refine_tolerance * b, a tolerance relative to mu."""

    mu_min: float = 1e-4
    mu_max: float = 1.0
    grid_points: int = 2000
    refine_tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.mu_min < self.mu_max < math.inf:
            raise ValueError("require 0 < mu_min < mu_max < inf")
        # the mu scan holds about 140 B per grid point, so 10**6 is about 140 MB
        if not 100 <= self.grid_points <= 10**6:
            raise ValueError(f"grid_points must be in [100, 10**6], got {self.grid_points}")
        if not 0.0 < self.refine_tolerance < 1.0:
            raise ValueError("refine_tolerance must be in (0, 1)")


@dataclass(frozen=True)
class OptimizeResult:
    mu_star: float
    keyrate: KeyRateResult
    all_zero: bool = False
    at_edge: bool = False  # mu* is mu_min or mu_max: a wider range may do better


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


def _optimize(batch: Sequence[ProtocolParams], protocol: Protocol, model: PnsModel,
              spec: OptimizationSpec, mode: RateMode):
    """(mu*, r_sk at mu*, all_zero) lists for points that differ only in
    loss_db and v.

    Grid scan per point, then one golden-section refinement inside each best
    grid cell's neighborhood, elementwise over the batch; a point's bracket
    freezes when it stops shrinking. Ties break toward smaller mu (fewer
    multi-photon pulses). Deterministic for a fixed spec.
    """
    if not batch:
        return [], [], []
    t = np.array([[p.t] for p in batch])
    v = np.array([[p.v] for p in batch])

    def f(mu):
        raw = _keyrate(batch[0], mu[:, None], protocol, model, mode, t, v)[-1][:, 0]
        return np.maximum(raw, 0.0), raw

    grid = np.linspace(spec.mu_min, spec.mu_max, spec.grid_points)
    i, best_val = np.empty(len(batch), dtype=int), np.empty(len(batch))
    # one point at a time: a (points, grid) block would multiply the peak memory
    for n, p in enumerate(batch):
        row = np.maximum(_keyrate(p, grid, protocol, model, mode)[-1], 0.0)
        i[n] = np.argmax(row)  # first max: smallest mu on the grid
        best_val[n] = row[i[n]]
    all_zero = ~(best_val > 0.0)
    best_mu = grid[i]
    a = grid[np.maximum(i - 1, 0)]
    b = grid[np.minimum(i + 1, len(grid) - 1)]

    # golden-section maximization; >= keeps the left interval on ties
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c)[0], f(d)[0]
    width = np.full(len(batch), math.inf)
    # a tolerance below the float spacing at mu* would stall the bracket
    run = ~all_zero & (spec.refine_tolerance * b < b - a)
    while np.any(run):
        width = np.where(run, b - a, width)
        for mu_x, f_x in ((c, fc), (d, fd)):
            up = run & ((f_x > best_val) | ((f_x == best_val) & (mu_x < best_mu)))
            best_mu, best_val = np.where(up, mu_x, best_mu), np.where(up, f_x, best_val)
        left = run & (fc >= fd)  # b, d, fd = d, c, fc; then a new c
        right = run & ~left  # a, c, fc = c, d, fd; then a new d
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d, fc, fd = (np.where(left, b - _INV_PHI * (b - a), np.where(right, d, c)),
                        np.where(right, a + _INV_PHI * (b - a), np.where(left, c, d)),
                        np.where(right, fd, fc), np.where(left, fc, fd))
        f_new = f(np.where(left, c, d))[0]
        fc, fd = np.where(left, f_new, fc), np.where(right, f_new, fd)
        run &= (spec.refine_tolerance * b < b - a) & (b - a < width)
    mid = 0.5 * (a + b)
    fm = f(mid)[0]
    up = (fm > best_val) | ((fm == best_val) & (mid < best_mu))
    best_mu = np.where(all_zero, spec.mu_min, np.where(up, mid, best_mu))
    return best_mu.tolist(), [max(0.0, x) for x in f(best_mu)[1].tolist()], all_zero.tolist()


def optimize_mu(params: ProtocolParams, protocol: Protocol = Protocol.COW,
                model: PnsModel = PnsModel.DETECTABLE_AS_PRINTED,
                spec: OptimizationSpec = OptimizationSpec(),
                mode: RateMode = RateMode.LINEARIZED) -> OptimizeResult:
    """Maximize the clamped secret-key rate over mu in [mu_min, mu_max]: the
    batch of one of _optimize, with the full breakdown at mu*."""
    (mu_star,), _, (all_zero,) = _optimize([params], protocol, model, spec, mode)
    result = secret_key_rate(replace(params, mu=mu_star), protocol, model, mode)
    return OptimizeResult(mu_star=mu_star, keyrate=result, all_zero=all_zero,
                          at_edge=mu_star in (spec.mu_min, spec.mu_max))


def sweep_loss(params_template: ProtocolParams, protocols: Sequence[Protocol],
               loss_grid: Sequence[float],
               model: PnsModel = PnsModel.DETECTABLE_AS_PRINTED,
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
    keys = [(v, loss) for v in visibilities for loss in losses]
    batch = [replace(params_template, loss_db=loss, v=v) for v, loss in keys]
    points = []
    for protocol in protocols:
        mu_star, r_sk, _ = _optimize(batch, protocol, model, spec, mode)
        points += [CurvePoint(protocol=protocol, v=v, loss_db=loss, mu_star=m, r_sk_star=r)
                   for (v, loss), m, r in zip(keys, mu_star, r_sk)]
    return points


def visibility_robustness(params_template: ProtocolParams, loss_db: float,
                          model: PnsModel = PnsModel.DETECTABLE_AS_PRINTED,
                          spec: OptimizationSpec = OptimizationSpec(),
                          mode: RateMode = RateMode.LINEARIZED,
                          v_low: float = 0.8,
                          v_high: float = 1.0) -> RobustnessResult:
    """Ratio R_sk*(v_low) / R_sk*(v_high) for the time-bin protocol and decoy
    BB84, by default the 0.8-versus-1 comparison.

    Each numerator and denominator is separately mu-optimized. A vanishing
    denominator flags the ratio undefined (NaN) rather than raising.
    """
    points = sweep_loss(params_template, (Protocol.COW, Protocol.BB84_DECOY), [loss_db],
                        model, spec, (v_low, v_high), mode)
    rates = [point.r_sk_star for point in points]  # (low, high) per protocol
    cow, bb84 = (low / high if high > 0.0 else float("nan")
                 for low, high in zip(rates[::2], rates[1::2]))
    return RobustnessResult(cow_ratio=cow, bb84_decoy_ratio=bb84)
