import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxhhw.errors import ConditioningError, InvalidArgumentError
from fxhhw.stencils import (
    ShapeParameterWarning,
    StencilGeometry1,
    StencilGeometry2,
    boundary_first_weights,
    boundary_second_weights,
    collocation_weights_oracle,
    fd_limit_first_weights,
    fd_limit_second_weights,
    first_derivative_weights,
    gaussian_rbf,
    near_boundary_second_weights,
    second_derivative_weights,
    shape_parameters,
)
from conftest import experiment_grid


def g1(h, w, c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShapeParameterWarning)
        return StencilGeometry1(h=h, omega_plus=w, c=c)


def g2(h, wm, wp, c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShapeParameterWarning)
        return StencilGeometry2(h=h, w_minus2=wm, w_plus1=wp, c=c)


class TestGaussianRbf:
    def test_zero_distance(self):
        assert gaussian_rbf(0.0, 3.0) == 1.0

    def test_unit_ratio(self):
        assert gaussian_rbf(2.5, 2.5) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_direct_value(self):
        assert gaussian_rbf(2.0, 1.0) == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(InvalidArgumentError):
            gaussian_rbf(1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            gaussian_rbf(1.0, -2.0)


class TestFirstDerivativeWeights:
    def test_uniform_antisymmetry(self):
        h, c = 0.3, 4.0
        w = first_derivative_weights(g1(h, 1.0, c)).weights
        expected = (c * c + h * h) / (2 * c * c * h)
        assert w[0] == pytest.approx(-expected, rel=1e-14)
        assert w[1] == 0.0
        assert w[2] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 1.7, 2.4])
    def test_wide_shape_limit_is_classical(self, omega):
        h = 0.2
        w = first_derivative_weights(g1(h, omega, 1e8 * h)).weights
        ref = fd_limit_first_weights(h, omega).weights
        np.testing.assert_allclose(w, ref, rtol=1e-8)

    def test_constants_annihilated_exactly(self):
        # The closed forms sum to zero identically, not just to O(h^3/c^4).
        for h, w_, c in [(0.1, 1.5, 2.0), (3.0, 0.7, 17.0), (1e-3, 2.2, 0.5)]:
            w = first_derivative_weights(g1(h, w_, c)).weights
            assert abs(w.sum()) <= 1e-13 * np.abs(w).max()

    def test_rejects_degenerate_ratio(self):
        with pytest.raises(InvalidArgumentError):
            g1(0.1, 1e-9, 1.0)

    @pytest.mark.parametrize("omega", [0.5, 1.6, 2.4])
    def test_printed_h_over_c2_term(self, omega):
        # Pins the printed correction itself: (closed form - FD limit) c^2/h
        # is (w(2w-5)/(3(w+1)), -2(w-1)/3, (5w-2)/(3(w+1))); at w = 1.6 that
        # is (-0.369, -0.400, +0.769).
        h, c = 0.1, 1.0
        w = omega
        closed = first_derivative_weights(g1(h, w, c)).weights
        fd = fd_limit_first_weights(h, w).weights
        expected = [
            w * (2 * w - 5) / (3 * (w + 1)),
            -2 * (w - 1) / 3,
            (5 * w - 2) / (3 * (w + 1)),
        ]
        np.testing.assert_allclose((closed - fd) * c * c / h, expected, rtol=0, atol=1e-10)

    def test_matches_oracle_at_example_point(self):
        # Oracle solution for nodes {-0.1, 0, 0.15}, c=2 (frozen from the
        # dense collocation solve).  The printed closed forms share the 1/h
        # part and differ in the O(h/c^2) correction, so agreement here is
        # at the (h/c)^2 level, not exact.
        oracle = collocation_weights_oracle([-0.1, 0.0, 0.15], 2.0, 1).weights
        np.testing.assert_allclose(
            oracle,
            [-6.019983725936976, 3.3416500987132007, 2.678325754444979],
            rtol=1e-12,
        )
        closed = first_derivative_weights(g1(0.1, 1.5, 2.0)).weights
        gap = np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle))
        assert gap < 3.0 * (0.1 / 2.0) ** 2
        assert gap > 1e-4  # genuinely not a 1e-6 match; see the gap-law test


class TestSecondDerivativeWeights:
    def test_matches_oracle_at_example_point(self):
        oracle = collocation_weights_oracle([-0.2, -0.1, 0.0, 0.1], 5.0, 2).weights
        np.testing.assert_allclose(
            oracle,
            [-1.3340518149414535e-02, 1.0007997623559153e+02,
             -2.0011994692117173e+02, 1.0005332718880734e+02],
            rtol=1e-12,
        )
        closed = second_derivative_weights(g2(0.1, 2.0, 1.0, 5.0)).weights
        gap = np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle))
        assert gap < 3.0 * (0.1 / 5.0) ** 2

    @pytest.mark.parametrize("wm,wp", [(1.3, 0.6), (2.0, 1.0), (1.8, 2.2)])
    def test_second_moment_reproduced(self, wm, wp):
        # Applied to f(x) = x^2 the weights return 2 plus the documented
        # 2 h^2 (wm*wp - wm + wp)/c^2 defect.
        h, c = 0.05, 5.0
        ws = second_derivative_weights(g2(h, wm, wp, c))
        got = ws.apply(lambda x: x * x)
        defect = 2.0 * h * h * (wm * wp - wm + wp) / (c * c)
        assert got == pytest.approx(2.0 + defect, abs=1e-12)

    def test_constants_annihilated_exactly(self):
        for h, wm, wp, c in [(0.1, 2.0, 1.0, 5.0), (2.0, 1.3, 0.8, 40.0)]:
            w = second_derivative_weights(g2(h, wm, wp, c)).weights
            assert abs(w.sum()) <= 1e-12 * np.abs(w).max()

    def test_first_moment_annihilated_exactly(self):
        for h, wm, wp, c in [(0.1, 2.0, 1.0, 5.0), (2.0, 1.3, 0.8, 40.0)]:
            ws = second_derivative_weights(g2(h, wm, wp, c))
            got = ws.apply(lambda x: x)
            assert abs(got) <= 1e-12 / h

    @pytest.mark.parametrize("wm,wp", [(2.0, 1.0), (1.5, 0.8)])
    def test_wide_shape_limit_is_classical(self, wm, wp):
        h = 0.3
        w = second_derivative_weights(g2(h, wm, wp, 1e8 * h)).weights
        ref = fd_limit_second_weights(h, wm, wp).weights
        np.testing.assert_allclose(w, ref, rtol=1e-8, atol=1e-8 / h**2)

    def test_rejects_unit_w_minus(self):
        with pytest.raises(InvalidArgumentError):
            g2(0.1, 1.0, 1.0, 5.0)

    def test_rejects_zero_w_plus(self):
        with pytest.raises(InvalidArgumentError):
            g2(0.1, 2.0, 0.0, 5.0)

    def test_sum_decay_under_refinement(self):
        # |sum beta| stays at rounding level when h halves with c = O(1/h).
        sums = []
        for h in (0.1, 0.05, 0.025):
            w = second_derivative_weights(g2(h, 1.8, 1.2, 1.0 / h)).weights
            sums.append(abs(w.sum()) / np.abs(w).max())
        assert all(s < 1e-12 for s in sums)


class TestBoundaryWeights:
    def test_first_forward_difference_limit(self):
        w = boundary_first_weights(1.0, 1e9).weights
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_first_direct_substitution(self):
        w = boundary_first_weights(0.5, 2.0).weights
        np.testing.assert_allclose(w, [0.5 / 4.0 - 2.0, 2.0], rtol=1e-15)

    def test_first_constant_residual(self):
        h, c = 0.3, 2.5
        w = boundary_first_weights(h, c)
        assert w.apply(lambda x: 1.0) == pytest.approx(h / c**2, rel=1e-13)

    def test_second_at_unit_shape(self):
        w = boundary_second_weights(1.0).weights
        np.testing.assert_allclose(w, [-4.0, 2.0], rtol=1e-15)

    def test_second_shape_scaling(self):
        w = boundary_second_weights(2.0).weights
        np.testing.assert_allclose(w, [-1.0, 0.5], rtol=1e-15)

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.7, 50.0])
    def test_second_sum_identity(self, c):
        w = boundary_second_weights(c).weights
        assert w.sum() == pytest.approx(-2.0 / c**2, rel=1e-14)

    def test_second_rejects_zero_shape(self):
        with pytest.raises(InvalidArgumentError):
            boundary_second_weights(0.0)

    def test_first_rejects_zero_step(self):
        with pytest.raises(InvalidArgumentError):
            boundary_first_weights(0.0, 1.0)


class TestNearBoundarySecondWeights:
    def test_uniform_wide_shape_limit(self):
        h = 0.2
        w = near_boundary_second_weights(h, 1.0, 1e9).weights
        np.testing.assert_allclose(w, [1 / h**2, -2 / h**2, 1 / h**2], rtol=1e-9)

    def test_matches_oracle_at_example_point(self):
        oracle = collocation_weights_oracle([-0.1, 0.0, 0.13], 3.0, 2).weights
        np.testing.assert_allclose(
            oracle,
            [87.0473577764241, -154.05801285627518, 67.0108117764279],
            rtol=1e-12,
        )
        closed = near_boundary_second_weights(0.1, 1.3, 3.0).weights
        gap = np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle))
        assert gap < 3.0 * (0.1 / 3.0) ** 2

    def test_first_degree_exactness_in_wide_limit(self):
        # With the consistent geometry the wide-shape limit annihilates
        # linear functions exactly (classical 3-node stencil).
        w = near_boundary_second_weights(0.1, 1.3, 1e8)
        assert abs(w.apply(lambda x: x)) < 1e-6

    def test_rejects_zero_ratio(self):
        with pytest.raises(InvalidArgumentError):
            near_boundary_second_weights(0.1, 0.0, 1.0)


class TestShapeParameters:
    def test_benchmark_shape_values(self):
        sp = shape_parameters(experiment_grid((8, 6, 6, 6)))
        assert sp.c_s == pytest.approx(1834.59, abs=0.005)
        assert sp.c_v == pytest.approx(24.25, abs=0.005)
        assert sp.c_rd == pytest.approx(3.09, abs=0.005)
        assert sp.c_rf == pytest.approx(3.09, abs=0.005)

    def test_uniform_axis(self):
        from fxhhw.grids import Grid4D

        grid = Grid4D(
            s_nodes=np.arange(0.0, 1.05, 0.1),
            v_nodes=np.linspace(0.0, 1.0, 5),
            rd_nodes=np.linspace(-1.0, 1.0, 5),
            rf_nodes=np.linspace(-1.0, 1.0, 5),
        )
        assert shape_parameters(grid).c_s == pytest.approx(0.2, rel=1e-12)

    def test_requires_two_nodes(self):
        class Stub:
            s_nodes = np.array([1.0])
            v_nodes = np.linspace(0, 1, 4)
            rd_nodes = np.linspace(0, 1, 4)
            rf_nodes = np.linspace(0, 1, 4)
            ds = np.array([])
            dv = np.diff(v_nodes)
            drd = np.diff(rd_nodes)
            drf = np.diff(rf_nodes)

        with pytest.raises(InvalidArgumentError):
            shape_parameters(Stub())


class TestCollocationOracle:
    def test_symmetric_first_derivative(self):
        w = collocation_weights_oracle([-0.2, 0.0, 0.2], 2.0, 1).weights
        # middle weight vanishes by symmetry, up to solve rounding (the
        # system's conditioning is ~(c/h)^4)
        assert abs(w[1]) <= 1e-10 * np.abs(w).max()
        assert w[0] == pytest.approx(-w[2], rel=1e-10)

    def test_two_node_first_matches_boundary_pair_to_leading_order(self):
        h, c = 0.05, 5.0
        oracle = collocation_weights_oracle([0.0, h], c, 1).weights
        closed = boundary_first_weights(h, c).weights
        gap = np.max(np.abs(oracle - closed)) / np.max(np.abs(oracle))
        assert gap < 3.0 * (h / c) ** 2

    def test_refuses_ill_conditioned_system(self):
        with pytest.raises(ConditioningError) as err:
            collocation_weights_oracle([-1e-9, 0.0, 1e-9, 2e-9], 10.0, 2)
        assert err.value.cond > 1e14

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(InvalidArgumentError):
            collocation_weights_oracle([0.0, 0.0, 0.1], 1.0, 1)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidArgumentError):
            collocation_weights_oracle([0.0, 0.1], 1.0, 3)


class TestClosedFormVsOracleGapLaw:
    """The closed forms agree with the exact collocation solve at the
    O((h/c)^2) level, with the constant depending on the step ratios; the
    agreement becomes exact only in the wide-shape limit."""

    @pytest.mark.parametrize("ratio", [0.05, 0.02, 0.01])
    def test_first_derivative_gap_bounded(self, ratio, rng):
        worst = 0.0
        for _ in range(200):
            h = 10.0 ** rng.uniform(-2, 1)
            w = rng.uniform(0.5, 2.0)
            closed = first_derivative_weights(g1(h, w, h / ratio)).weights
            oracle = collocation_weights_oracle([-h, 0.0, w * h], h / ratio, 1).weights
            worst = max(worst, np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle)))
        assert worst < 3.0 * ratio**2

    @pytest.mark.parametrize("ratio", [0.05, 0.02])
    def test_second_derivative_gap_bounded(self, ratio, rng):
        worst = 0.0
        for _ in range(200):
            h = 10.0 ** rng.uniform(-2, 1)
            wm = rng.uniform(1.2, 2.5)
            wp = rng.uniform(0.5, 2.0)
            closed = second_derivative_weights(g2(h, wm, wp, h / ratio)).weights
            oracle = collocation_weights_oracle(
                [-wm * h, -h, 0.0, wp * h], h / ratio, 2
            ).weights
            worst = max(worst, np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle)))
        assert worst < 6.0 * ratio**2


class TestOrderOfAccuracy:
    """Empirical convergence on f = sin under h-halving with c = 10/h."""

    @staticmethod
    def _rate(errs):
        return np.mean([np.log2(a / b) for a, b in zip(errs, errs[1:])])

    def test_first_derivative_second_order(self):
        x0 = 0.4
        errs = []
        for h in (0.2, 0.1, 0.05, 0.025):
            ws = first_derivative_weights(g1(h, 1.37, 10.0 / h))
            errs.append(abs(ws.apply(np.sin, x0) - np.cos(x0)))
        assert self._rate(errs) >= 1.8

    def test_second_derivative_second_order(self):
        x0 = 0.4
        errs = []
        for h in (0.2, 0.1, 0.05, 0.025):
            ws = second_derivative_weights(g2(h, 1.6, 0.8, 10.0 / h))
            errs.append(abs(ws.apply(np.sin, x0) + np.sin(x0)))
        assert self._rate(errs) >= 1.8

    def test_near_boundary_row_is_low_order(self):
        # The three-node row loses second order: the rate on sin degrades
        # once the geometry is non-uniform.
        x0 = 0.4
        errs = []
        for h in (0.2, 0.1, 0.05, 0.025):
            ws = near_boundary_second_weights(h, 1.45, 10.0 / h)
            errs.append(abs(ws.apply(np.sin, x0) + np.sin(x0)))
        # first-order-ish decay, clearly below 2
        rate = self._rate(errs)
        assert 0.5 <= rate <= 2.0


class TestValidityGuards:
    def test_error_below_step(self):
        with pytest.raises(InvalidArgumentError):
            StencilGeometry1(h=1.0, omega_plus=1.0, c=0.5)

    def test_warns_in_marginal_regime(self):
        with pytest.warns(ShapeParameterWarning):
            StencilGeometry1(h=1.0, omega_plus=1.0, c=2.0)

    def test_silent_in_asymptotic_regime(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            StencilGeometry1(h=1.0, omega_plus=1.0, c=10.0)


@settings(max_examples=150, deadline=None)
@given(
    h=st.floats(1e-3, 10.0),
    w=st.floats(0.2, 4.0),
    cr=st.floats(5.0, 1e4),
)
def test_first_weights_consistency_property(h, w, cr):
    """For any valid geometry the weights kill constants identically, and
    applied to f(x) = x they return 1 + omega*h^2/c^2 exactly (the linear
    term of the derivative-approximation error expansion)."""
    ws = first_derivative_weights(g1(h, w, cr * h))
    scale = np.abs(ws.weights).max()
    assert abs(ws.weights.sum()) <= 5e-13 * scale
    c = cr * h
    assert ws.apply(lambda x: x) == pytest.approx(1.0 + w * h * h / (c * c), rel=1e-9)
