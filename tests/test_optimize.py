"""Optimizer and curve-generation tests, including a brute-force grid oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim import (
    OptimizationSpec,
    PnsModel,
    Protocol,
    ProtocolParams,
    RateMode,
    optimize_mu,
    sweep_loss,
    visibility_robustness,
)
from cowsim.optimize import _INV_PHI, _optimize
from cowsim.rates import _keyrate, secret_key_rate


def params(mu=0.5, **over):
    kw = dict(loss_db=0.0, f=0.1, t_b=1.0, eta=0.1, p_d=1e-5, v=1.0)
    kw.update(over)
    return ProtocolParams(mu=mu, **kw)


def scalar_optimize(params, protocol, model, spec, mode):
    """The golden-section search one point at a time, as optimize_mu ran it
    before the refinement was batched: the reference the batch must reproduce
    bit for bit. Returns (mu_star, r_sk, all_zero, refinement iterations)."""
    def f(mu):
        return np.maximum(_keyrate(params, mu, protocol, model, mode)[-1], 0.0)

    grid = np.linspace(spec.mu_min, spec.mu_max, spec.grid_points)
    vals = f(grid)
    if not np.any(vals > 0.0):
        result = secret_key_rate(replace(params, mu=spec.mu_min), protocol, model, mode)
        return spec.mu_min, result.r_sk, True, 0

    i = int(np.argmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = float(f(c))
    fd = float(f(d))
    best_mu, best_val = float(grid[i]), float(vals[i])
    width = math.inf
    iterations = 0
    while spec.refine_tolerance * b < b - a < width:
        iterations += 1
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
    return float(best_mu), result.r_sk, False, iterations


def bits(mu_star, r_sk, all_zero, *_):
    return float(mu_star).hex(), float(r_sk).hex(), all_zero


def assert_batch_matches_scalar(template, losses, visibilities, protocol, model,
                                spec=OptimizationSpec(), mode=RateMode.LINEARIZED):
    """Optimize the (visibility, loss) points as one batch and one by one;
    return the scalar results once every point agrees bit for bit."""
    batch = [replace(template, loss_db=loss, v=v) for v in visibilities for loss in losses]
    want = [scalar_optimize(p, protocol, model, spec, mode) for p in batch]
    got = list(zip(*_optimize(batch, protocol, model, spec, mode)))
    assert [bits(*g) for g in got] == [bits(*w) for w in want]
    return want


class TestOptimizeMu:
    def test_cow_boundary_optimum(self):
        # p_d=0, V=1, t=1: objective ~ mu (1 - mu/2), stationary at the bound
        res = optimize_mu(params(p_d=0.0), Protocol.COW, PnsModel.DETECTABLE_AS_PRINTED)
        assert res.mu_star == pytest.approx(1.0, abs=1e-4)
        assert not res.all_zero

    def test_bb84_plain_half_loss(self):
        p = ProtocolParams(mu=0.5, loss_db=-10.0 * math.log10(0.5), f=0.1, t_b=1.0,
                           eta=0.1, p_d=0.0, v=1.0)
        res = optimize_mu(p, Protocol.BB84_PLAIN, PnsModel.DETECTABLE_AS_PRINTED)
        assert res.mu_star == pytest.approx(1.0, abs=1e-3)

    def test_bb84_plain_clamped(self):
        # unconstrained optimum 1/(2(1-t)) = 5 exceeds mu_max
        p = ProtocolParams(mu=0.5, loss_db=-10.0 * math.log10(0.9), f=0.1, t_b=1.0,
                           eta=0.1, p_d=0.0, v=1.0)
        res = optimize_mu(p, Protocol.BB84_PLAIN, PnsModel.DETECTABLE_AS_PRINTED)
        assert res.mu_star == pytest.approx(1.0, abs=1e-3)

    def test_all_zero_objective(self):
        res = optimize_mu(params(eta=0.0, p_d=0.0), Protocol.COW, PnsModel.DETECTABLE_AS_PRINTED)
        assert res.all_zero
        assert res.mu_star == OptimizationSpec().mu_min
        assert res.keyrate.r_sk == 0.0

    def test_at_edge(self):
        # mu* on mu_min or mu_max, the all-zero optimum included, and nowhere else
        clamped = ProtocolParams(mu=0.5, loss_db=-10.0 * math.log10(0.9), f=0.1, t_b=1.0,
                                 eta=0.1, p_d=0.0, v=1.0)
        cases = [(params(loss_db=7.0, v=0.9), Protocol.COW, False),
                 (clamped, Protocol.BB84_PLAIN, True),
                 (params(eta=0.0, p_d=0.0), Protocol.COW, True)]
        for p, protocol, edge in cases:
            res = optimize_mu(p, protocol, PnsModel.DETECTABLE_AS_PRINTED)
            spec = OptimizationSpec()
            assert res.at_edge == edge == (res.mu_star in (spec.mu_min, spec.mu_max))

    def test_deterministic(self):
        a = optimize_mu(params(loss_db=7.0, v=0.9), Protocol.COW, PnsModel.DETECTABLE_AS_PRINTED)
        b = optimize_mu(params(loss_db=7.0, v=0.9), Protocol.COW, PnsModel.DETECTABLE_AS_PRINTED)
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

    def test_grid_points_bounded(self):
        # the mu scan holds about 140 B per grid point: 10**6 points take
        # about 140 MB, and 10**8 would take about 14 GB. A spec allocates nothing
        assert OptimizationSpec(grid_points=10**6).grid_points == 10**6
        with pytest.raises(ValueError, match=r"grid_points must be in \[100, 10\*\*6\]"):
            OptimizationSpec(grid_points=10**6 + 1)

    @pytest.mark.parametrize("loss_db", [0.0, 20.0])
    def test_tolerance_below_float_spacing(self, loss_db):
        # the bracket stops shrinking about one ulp from mu*: a finer
        # tolerance ends there instead of looping forever
        p = params(loss_db=loss_db, t_b=0.9)
        fine = optimize_mu(p, spec=OptimizationSpec(refine_tolerance=1e-300)).mu_star
        ref = optimize_mu(p, spec=OptimizationSpec(refine_tolerance=1e-15)).mu_star
        assert abs(fine - ref) <= 4 * math.ulp(ref)


class TestBatchedAgainstScalar:
    LOSSES = [0.0, 5.0, 10.0, 20.0, 30.0, 45.0]

    def test_all_zero_beside_positive(self):
        # PNS as printed leaves COW nothing past about 15 dB at V = 0.9
        want = assert_batch_matches_scalar(params(), [0.0, 20.0, 5.0], [0.9],
                                           Protocol.COW, PnsModel.DETECTABLE_AS_PRINTED)
        assert [w[2] for w in want] == [False, True, False]
        assert want[1][:2] == (OptimizationSpec().mu_min, 0.0)

    def test_grid_edge_bracket(self):
        # at p_d = 0, V = 1, t = 1 the optimum sits on mu_max: its bracket is
        # the grid's last cell, beside points refined in a two-cell bracket
        spec = OptimizationSpec()
        want = assert_batch_matches_scalar(params(p_d=0.0), [0.0, 10.0], [1.0, 0.9],
                                           Protocol.COW, PnsModel.DETECTABLE_ALT)
        grid = np.linspace(spec.mu_min, spec.mu_max, spec.grid_points)
        assert want[0][0] >= grid[-2]
        assert any(w[0] < grid[-2] for w in want)

    def test_rows_stop_at_different_iterations(self):
        # below the float spacing each bracket stalls about one ulp from its
        # own mu*, after a number of steps that differs from row to row
        spec = OptimizationSpec(refine_tolerance=1e-300)
        want = assert_batch_matches_scalar(params(t_b=0.9), self.LOSSES, [1.0, 0.8],
                                           Protocol.BB84_DECOY,
                                           PnsModel.DETECTABLE_ALT, spec)
        assert len({w[3] for w in want if not w[2]}) > 1

    @pytest.mark.parametrize("mode", list(RateMode))
    @pytest.mark.parametrize("model", list(PnsModel))
    def test_models_and_modes(self, model, mode):
        for protocol in Protocol:
            for tol in (1e-6, 1e-300):
                assert_batch_matches_scalar(params(t_b=0.9), self.LOSSES, [1.0, 0.9, 0.8],
                                            protocol, model,
                                            OptimizationSpec(refine_tolerance=tol), mode)

    def test_sweep_reports_the_scalar_points(self):
        losses, vis = [0.0, 10.0, 20.0], [1.0, 0.8]
        for protocol in Protocol:
            pts = sweep_loss(params(), [protocol], losses, PnsModel.DETECTABLE_AS_PRINTED,
                             visibilities=vis)
            want = [scalar_optimize(params(loss_db=loss, v=v), protocol,
                                    PnsModel.DETECTABLE_AS_PRINTED, OptimizationSpec(),
                                    RateMode.LINEARIZED)
                    for v in vis for loss in losses]
            assert [bits(p.mu_star, p.r_sk_star, None) for p in pts] == \
                [bits(w[0], w[1], None) for w in want]

    @settings(max_examples=40, deadline=None)
    @given(losses=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=5),
           visibilities=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           protocol=st.sampled_from(list(Protocol)), model=st.sampled_from(list(PnsModel)),
           mode=st.sampled_from(list(RateMode)), t_b=st.sampled_from([0.9, 1.0]),
           p_d=st.sampled_from([0.0, 1e-5, 1e-3]), tol=st.sampled_from([1e-6, 1e-300]))
    def test_random_batches(self, losses, visibilities, protocol, model, mode, t_b,
                            p_d, tol):
        assert_batch_matches_scalar(params(t_b=t_b, p_d=p_d), losses, visibilities,
                                    protocol, model,
                                    OptimizationSpec(refine_tolerance=tol), mode)


class TestBruteForceAgreement:
    def test_fifty_random_draws(self):
        """Golden-section result matches a 1e6-point grid within 1e-9 relative."""
        rng = np.random.default_rng(20240917)
        spec = OptimizationSpec()
        dense = np.linspace(spec.mu_min, spec.mu_max, 1_000_000)
        protocols = list(Protocol)
        models = list(PnsModel)
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
            model = models[int(rng.integers(len(models)))]
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
        pt = sweep_loss(params(), [Protocol.COW], [0.0], PnsModel.DETECTABLE_AS_PRINTED)[0]
        res = optimize_mu(params(loss_db=0.0), Protocol.COW, PnsModel.DETECTABLE_AS_PRINTED)
        assert pt.mu_star == res.mu_star
        assert pt.r_sk_star == res.keyrate.r_sk

    def test_nonincreasing_in_loss(self):
        pts = sweep_loss(params(), list(Protocol), self.LOSSES, PnsModel.DETECTABLE_AS_PRINTED,
                         visibilities=[1.0, 0.9, 0.8])
        series = {}
        for p in pts:
            series.setdefault((p.protocol, p.v), []).append(p.r_sk_star)
        for rates in series.values():
            assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_v1_identity(self):
        pts = sweep_loss(params(), [Protocol.COW, Protocol.BB84_DECOY],
                         self.LOSSES, PnsModel.DETECTABLE_AS_PRINTED, visibilities=[1.0])
        cow = [p.r_sk_star for p in pts if p.protocol is Protocol.COW]
        dec = [p.r_sk_star for p in pts if p.protocol is Protocol.BB84_DECOY]
        for a, b in zip(cow, dec):
            if a > 0.0 or b > 0.0:
                assert abs(a - b) <= 1e-9 * max(a, b)

    def test_row_ordering(self):
        pts = sweep_loss(params(), [Protocol.COW, Protocol.BB84_PLAIN],
                         [0.0, 10.0], PnsModel.DETECTABLE_AS_PRINTED, visibilities=[1.0, 0.9])
        key = [(p.protocol.value, p.v, p.loss_db) for p in pts]
        assert key == [
            ("cow", 1.0, 0.0), ("cow", 1.0, 10.0),
            ("cow", 0.9, 0.0), ("cow", 0.9, 10.0),
            ("bb84", 1.0, 0.0), ("bb84", 1.0, 10.0),
            ("bb84", 0.9, 0.0), ("bb84", 0.9, 10.0),
        ]

    def test_bit_identical_rerun(self):
        a = sweep_loss(params(), list(Protocol), self.LOSSES, PnsModel.DETECTABLE_AS_PRINTED,
                       visibilities=[0.9])
        b = sweep_loss(params(), list(Protocol), self.LOSSES, PnsModel.DETECTABLE_AS_PRINTED,
                       visibilities=[0.9])
        assert a == b

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            sweep_loss(params(), [Protocol.COW], [], PnsModel.DETECTABLE_AS_PRINTED)
        with pytest.raises(ValueError):
            sweep_loss(params(), [Protocol.COW], [5.0, 5.0], PnsModel.DETECTABLE_AS_PRINTED)

    def test_no_visibilities_no_points(self):
        assert sweep_loss(params(), [Protocol.COW], [0.0], PnsModel.DETECTABLE_AS_PRINTED,
                          visibilities=[]) == []

    def test_points_clamped_and_bounded(self):
        from cowsim import OptimizationSpec
        spec = OptimizationSpec()
        pts = sweep_loss(params(v=0.8), list(Protocol), self.LOSSES, PnsModel.DETECTABLE_AS_PRINTED,
                         spec=spec)
        for p in pts:
            assert p.r_sk_star >= 0.0
            assert spec.mu_min <= p.mu_star <= spec.mu_max


class TestVisibilityRobustness:
    def test_time_bin_protocol_more_robust(self):
        for model in (PnsModel.DETECTABLE_AS_PRINTED, PnsModel.DETECTABLE_ALT):
            rob = visibility_robustness(params(), 10.0, model)
            assert not np.isnan(rob.cow_ratio) and not np.isnan(rob.bb84_decoy_ratio)
            assert rob.cow_ratio > rob.bb84_decoy_ratio

    def test_ratios_at_most_one(self):
        rob = visibility_robustness(params(), 10.0, PnsModel.DETECTABLE_AS_PRINTED)
        assert 0.0 <= rob.bb84_decoy_ratio <= 1.0
        assert 0.0 <= rob.cow_ratio <= 1.0

    def test_undefined_at_dead_channel(self):
        rob = visibility_robustness(params(p_d=0.3), 50.0, PnsModel.DETECTABLE_AS_PRINTED)
        assert np.isnan(rob.cow_ratio)

    def test_equal_visibilities_give_unit_ratios(self):
        rob = visibility_robustness(params(), 10.0, PnsModel.DETECTABLE_AS_PRINTED, v_low=1.0)
        assert rob.cow_ratio == 1.0
        assert rob.bb84_decoy_ratio == 1.0
