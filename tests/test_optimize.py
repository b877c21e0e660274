"""Optimizer and curve-generation tests, including a brute-force grid oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cowsim import (
    OptimizationSpec,
    PnsKind,
    PnsModel,
    Protocol,
    ProtocolParams,
    RateMode,
    optimize_mu,
    sweep_loss,
    visibility_robustness,
)
from cowsim.rates import _keyrate, secret_key_rate


def params(mu=0.5, **over):
    kw = dict(loss_db=0.0, f=0.1, t_b=1.0, eta=0.1, p_d=1e-5, v=1.0)
    kw.update(over)
    return ProtocolParams(mu=mu, **kw)


class TestOptimizeMu:
    def test_cow_boundary_optimum(self):
        # p_d=0, V=1, t=1: objective ~ mu (1 - mu/2), stationary at the bound
        res = optimize_mu(params(p_d=0.0), Protocol.COW, PnsModel())
        assert res.mu_star == pytest.approx(1.0, abs=1e-4)
        assert not res.all_zero

    def test_bb84_plain_half_loss(self):
        p = ProtocolParams.from_transmission(0.5, 0.5, f=0.1, t_b=1.0,
                                             eta=0.1, p_d=0.0, v=1.0)
        res = optimize_mu(p, Protocol.BB84_PLAIN, PnsModel())
        assert res.mu_star == pytest.approx(1.0, abs=1e-3)

    def test_bb84_plain_clamped(self):
        # unconstrained optimum 1/(2(1-t)) = 5 exceeds mu_max
        p = ProtocolParams.from_transmission(0.5, 0.9, f=0.1, t_b=1.0,
                                             eta=0.1, p_d=0.0, v=1.0)
        res = optimize_mu(p, Protocol.BB84_PLAIN, PnsModel())
        assert res.mu_star == pytest.approx(1.0, abs=1e-3)

    def test_all_zero_objective(self):
        res = optimize_mu(params(eta=0.0, p_d=0.0), Protocol.COW, PnsModel())
        assert res.all_zero
        assert res.mu_star == OptimizationSpec().mu_min
        assert res.keyrate.r_sk == 0.0

    def test_deterministic(self):
        a = optimize_mu(params(loss_db=7.0, v=0.9), Protocol.COW, PnsModel())
        b = optimize_mu(params(loss_db=7.0, v=0.9), Protocol.COW, PnsModel())
        assert a.mu_star == b.mu_star
        assert a.keyrate.r_sk == b.keyrate.r_sk

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OptimizationSpec(mu_min=0.0)
        with pytest.raises(ValueError):
            OptimizationSpec(mu_min=0.5, mu_max=0.1)
        with pytest.raises(ValueError):
            OptimizationSpec(grid_points=10)
        with pytest.raises(ValueError):
            OptimizationSpec(refine_tolerance=2.0)

    @pytest.mark.parametrize("loss_db", [0.0, 20.0])
    def test_tolerance_below_float_spacing(self, loss_db):
        # the bracket stops shrinking about one ulp from mu*: a finer
        # tolerance ends there instead of looping forever
        p = params(loss_db=loss_db, t_b=0.9)
        fine = optimize_mu(p, spec=OptimizationSpec(refine_tolerance=1e-300)).mu_star
        ref = optimize_mu(p, spec=OptimizationSpec(refine_tolerance=1e-15)).mu_star
        assert abs(fine - ref) <= 4 * math.ulp(ref)


class TestBruteForceAgreement:
    def test_fifty_random_draws(self):
        """Golden-section result matches a 1e6-point grid within 1e-9 relative."""
        rng = np.random.default_rng(20240917)
        spec = OptimizationSpec()
        dense = np.linspace(spec.mu_min, spec.mu_max, 1_000_000)
        protocols = list(Protocol)
        kinds = list(PnsKind)
        for _ in range(50):
            p = ProtocolParams(
                mu=0.5,
                loss_db=float(rng.uniform(0.0, 30.0)),
                f=float(rng.uniform(0.0, 0.3)),
                t_b=float(rng.uniform(0.5, 1.0)),
                eta=float(rng.uniform(0.05, 1.0)),
                p_d=float(rng.uniform(0.0, 1e-4)),
                v=float(rng.uniform(0.7, 1.0)),
            )
            protocol = protocols[int(rng.integers(len(protocols)))]
            model = PnsModel(kinds[int(rng.integers(len(kinds)))])
            res = optimize_mu(p, protocol, model, spec)
            raw = _keyrate(p, dense, protocol, model, RateMode.LINEARIZED)[-1]
            brute = float(np.max(np.maximum(raw, 0.0)))
            scale = max(brute, 1e-30)
            assert abs(res.keyrate.r_sk - brute) <= 1e-9 * scale
            # the reported row is the same kernel's value, bit for bit
            for k in (0, len(dense) // 3, int(np.argmax(raw))):
                m = float(dense[k])
                assert secret_key_rate(replace(p, mu=m), protocol, model).r_sk_raw == raw[k]


class TestSweepLoss:
    LOSSES = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]

    def test_single_point_matches_optimize(self):
        pt = sweep_loss(params(), [Protocol.COW], [0.0], PnsModel())[0]
        res = optimize_mu(params(loss_db=0.0), Protocol.COW, PnsModel())
        assert pt.mu_star == res.mu_star
        assert pt.r_sk_star == res.keyrate.r_sk

    def test_nonincreasing_in_loss(self):
        pts = sweep_loss(params(), list(Protocol), self.LOSSES, PnsModel(),
                         visibilities=[1.0, 0.9, 0.8])
        series = {}
        for p in pts:
            series.setdefault((p.protocol, p.v), []).append(p.r_sk_star)
        for rates in series.values():
            assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_v1_identity(self):
        pts = sweep_loss(params(), [Protocol.COW, Protocol.BB84_DECOY],
                         self.LOSSES, PnsModel(), visibilities=[1.0])
        cow = [p.r_sk_star for p in pts if p.protocol is Protocol.COW]
        dec = [p.r_sk_star for p in pts if p.protocol is Protocol.BB84_DECOY]
        for a, b in zip(cow, dec):
            if a > 0.0 or b > 0.0:
                assert abs(a - b) <= 1e-9 * max(a, b)

    def test_row_ordering(self):
        pts = sweep_loss(params(), [Protocol.COW, Protocol.BB84_PLAIN],
                         [0.0, 10.0], PnsModel(), visibilities=[1.0, 0.9])
        key = [(p.protocol.value, p.v, p.loss_db) for p in pts]
        assert key == [
            ("cow", 1.0, 0.0), ("cow", 1.0, 10.0),
            ("cow", 0.9, 0.0), ("cow", 0.9, 10.0),
            ("bb84", 1.0, 0.0), ("bb84", 1.0, 10.0),
            ("bb84", 0.9, 0.0), ("bb84", 0.9, 10.0),
        ]

    def test_bit_identical_rerun(self):
        a = sweep_loss(params(), list(Protocol), self.LOSSES, PnsModel(),
                       visibilities=[0.9])
        b = sweep_loss(params(), list(Protocol), self.LOSSES, PnsModel(),
                       visibilities=[0.9])
        assert a == b

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            sweep_loss(params(), [Protocol.COW], [], PnsModel())
        with pytest.raises(ValueError):
            sweep_loss(params(), [Protocol.COW], [5.0, 5.0], PnsModel())

    def test_points_clamped_and_bounded(self):
        from cowsim import OptimizationSpec
        spec = OptimizationSpec()
        pts = sweep_loss(params(v=0.8), list(Protocol), self.LOSSES, PnsModel(),
                         spec=spec)
        for p in pts:
            assert p.r_sk_star >= 0.0
            assert spec.mu_min <= p.mu_star <= spec.mu_max


class TestVisibilityRobustness:
    def test_time_bin_protocol_more_robust(self):
        for kind in (PnsKind.DETECTABLE_AS_PRINTED, PnsKind.DETECTABLE_ALT):
            rob = visibility_robustness(params(), 10.0, PnsModel(kind))
            assert not np.isnan(rob.cow_ratio) and not np.isnan(rob.bb84_decoy_ratio)
            assert rob.cow_ratio > rob.bb84_decoy_ratio

    def test_ratios_at_most_one(self):
        rob = visibility_robustness(params(), 10.0, PnsModel())
        assert 0.0 <= rob.bb84_decoy_ratio <= 1.0
        assert 0.0 <= rob.cow_ratio <= 1.0

    def test_undefined_at_dead_channel(self):
        rob = visibility_robustness(params(p_d=0.3), 50.0, PnsModel())
        assert np.isnan(rob.cow_ratio)

    def test_equal_visibilities_give_unit_ratios(self):
        rob = visibility_robustness(params(), 10.0, PnsModel(), v_low=1.0)
        assert rob.cow_ratio == 1.0
        assert rob.bb84_decoy_ratio == 1.0
