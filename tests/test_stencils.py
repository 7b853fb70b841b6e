import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxhhw.errors import ConditioningError, InvalidArgumentError
from fxhhw.operators import first_derivative_matrix
from fxhhw.stencils import (
    ShapeParameterWarning,
    boundary_first_row,
    boundary_second_row,
    collocation_weights_oracle,
    first_weight_rows,
    gaussian_rbf,
    near_boundary_second_row,
    second_weight_rows,
    shape_parameters,
)
from conftest import experiment_grid


def offsets1(h, w):
    """Node offsets of the three-node stencil {x-h, x, x+w*h}."""
    return np.array([-h, 0.0, w * h])


def offsets2(h, wm, wp):
    """Node offsets of the four-node stencil {x-wm*h, x-h, x, x+wp*h}."""
    return np.array([-wm * h, -h, 0.0, wp * h])


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
        w = first_weight_rows(h, 1.0, c)
        expected = (c * c + h * h) / (2 * c * c * h)
        assert w[0] == pytest.approx(-expected, rel=1e-14)
        assert w[1] == 0.0
        assert w[2] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 1.7, 2.4])
    def test_wide_shape_limit_is_classical(self, omega):
        h = 0.2
        w = first_weight_rows(h, omega, 1e8 * h)
        ref = first_weight_rows(h, omega)
        np.testing.assert_allclose(w, ref, rtol=1e-8)

    def test_constants_annihilated_exactly(self):
        # The closed forms sum to zero identically, not just to O(h^3/c^4).
        for h, w_, c in [(0.1, 1.5, 2.0), (3.0, 0.7, 17.0), (1e-3, 2.2, 0.5)]:
            w = first_weight_rows(h, w_, c)
            assert abs(w.sum()) <= 1e-13 * np.abs(w).max()

    def test_rejects_degenerate_ratio(self):
        with pytest.raises(InvalidArgumentError):
            first_weight_rows(0.1, 1e-9, 1.0)

    @pytest.mark.parametrize("omega", [0.5, 1.6, 2.4])
    def test_printed_h_over_c2_term(self, omega):
        # Pins the printed correction itself: (closed form - FD limit) c^2/h
        # is (w(2w-5)/(3(w+1)), -2(w-1)/3, (5w-2)/(3(w+1))); at w = 1.6 that
        # is (-0.369, -0.400, +0.769).
        h, c = 0.1, 1.0
        w = omega
        closed = first_weight_rows(h, w, c)
        fd = first_weight_rows(h, w)
        expected = [
            w * (2 * w - 5) / (3 * (w + 1)),
            -2 * (w - 1) / 3,
            (5 * w - 2) / (3 * (w + 1)),
        ]
        np.testing.assert_allclose((closed - fd) * c * c / h, expected, rtol=0, atol=1e-10)

    def test_fd_limit_is_classical_bit_for_bit(self):
        h = np.array([0.1, 0.37, 2.0, 5e-3])
        w = np.array([1.0, 0.6, 1.9, 3.3])
        np.testing.assert_array_equal(
            first_weight_rows(h, w),
            [-w / (h * (w + 1.0)), (w - 1.0) / (h * w), 1.0 / (h * w * (w + 1.0))],
        )

    def test_scalar_ratio_broadcasts_over_steps(self):
        h = np.array([0.1, 0.2, 0.4])
        np.testing.assert_array_equal(first_weight_rows(h, 1.5, 5.0),
                                      first_weight_rows(h, np.full(3, 1.5), 5.0))

    def test_matches_oracle_at_example_point(self):
        # Oracle solution for nodes {-0.1, 0, 0.15}, c=2 (frozen from the
        # dense collocation solve).  The printed closed forms share the 1/h
        # part and differ in the O(h/c^2) correction, so agreement here is
        # at the (h/c)^2 level, not exact.
        oracle = collocation_weights_oracle([-0.1, 0.0, 0.15], 2.0, 1)
        np.testing.assert_allclose(
            oracle,
            [-6.019983725936976, 3.3416500987132007, 2.678325754444979],
            rtol=1e-12,
        )
        closed = first_weight_rows(0.1, 1.5, 2.0)
        gap = np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle))
        assert gap < 3.0 * (0.1 / 2.0) ** 2
        assert gap > 1e-4  # genuinely not a 1e-6 match; see the gap-law test


class TestSecondDerivativeWeights:
    def test_matches_oracle_at_example_point(self):
        oracle = collocation_weights_oracle([-0.2, -0.1, 0.0, 0.1], 5.0, 2)
        np.testing.assert_allclose(
            oracle,
            [-1.3340518149414535e-02, 1.0007997623559153e+02,
             -2.0011994692117173e+02, 1.0005332718880734e+02],
            rtol=1e-12,
        )
        closed = second_weight_rows(0.1, 2.0, 1.0, 5.0)
        gap = np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle))
        assert gap < 3.0 * (0.1 / 5.0) ** 2

    @pytest.mark.parametrize("wm,wp", [(1.3, 0.6), (2.0, 1.0), (1.8, 2.2)])
    def test_second_moment_reproduced(self, wm, wp):
        # Applied to f(x) = x^2 the weights return 2 plus the documented
        # 2 h^2 (wm*wp - wm + wp)/c^2 defect.
        h, c = 0.05, 5.0
        d = offsets2(h, wm, wp)
        got = second_weight_rows(h, wm, wp, c) @ (d * d)
        defect = 2.0 * h * h * (wm * wp - wm + wp) / (c * c)
        assert got == pytest.approx(2.0 + defect, abs=1e-12)

    def test_constants_annihilated_exactly(self):
        for h, wm, wp, c in [(0.1, 2.0, 1.0, 5.0), (2.0, 1.3, 0.8, 40.0)]:
            w = second_weight_rows(h, wm, wp, c)
            assert abs(w.sum()) <= 1e-12 * np.abs(w).max()

    def test_first_moment_annihilated_exactly(self):
        for h, wm, wp, c in [(0.1, 2.0, 1.0, 5.0), (2.0, 1.3, 0.8, 40.0)]:
            got = second_weight_rows(h, wm, wp, c) @ offsets2(h, wm, wp)
            assert abs(got) <= 1e-12 / h

    @pytest.mark.parametrize("wm,wp", [(2.0, 1.0), (1.5, 0.8)])
    def test_wide_shape_limit_is_classical(self, wm, wp):
        h = 0.3
        w = second_weight_rows(h, wm, wp, 1e8 * h)
        ref = second_weight_rows(h, wm, wp)
        np.testing.assert_allclose(w, ref, rtol=1e-8, atol=1e-8 / h**2)

    def test_fd_limit_is_classical_bit_for_bit(self):
        h = np.array([0.1, 0.37, 2.0, 5e-3])
        wm = np.array([2.0, 1.3, 2.6, 1.05])
        wp = np.array([1.0, 0.6, 2.2, 1.7])
        h2 = h * h
        np.testing.assert_array_equal(second_weight_rows(h, wm, wp), [
            2.0 * (wp - 1.0) / (h2 * (wm - 1.0) * wm * (wm + wp)),
            2.0 * (wm - wp) / (h2 * (wm - 1.0) * (wp + 1.0)),
            -2.0 * (wm - wp + 1.0) / (h2 * wm * wp),
            2.0 * (wm + 1.0) / (h2 * (wm + wp) * (wp * wp + wp)),
        ])

    def test_scalar_ratios_broadcast_over_steps(self):
        h = np.array([0.1, 0.2, 0.4, 0.8])
        np.testing.assert_array_equal(second_weight_rows(h, 1.8, 1.2, 5.0),
                                      second_weight_rows(h, np.full(4, 1.8), np.full(4, 1.2), 5.0))

    @pytest.mark.parametrize("wm,wp,expected", [
        (1.3, 0.6, [-1.6410256410256411, 2.6333333333333335, -1.8256410256410258,
                    0.83333333333333338]),
        (2.0, 1.0, [1.0 / 3.0, 0.0, -1.0, 2.0 / 3.0]),
        (1.8, 2.2, [1.8041666666666666, -1.3343749999999999, -1.3393939393939395,
                    0.86960227272727274]),
    ])
    def test_printed_correction_over_c2(self, wm, wp, expected):
        # Pins the printed four-node correction: (closed form - FD limit) c^2
        # depends on the ratios only.  Frozen from a 60-digit evaluation of
        # the single-fraction closed forms.
        h, c = 0.1, 1.0
        closed = second_weight_rows(h, wm, wp, c)
        fd = second_weight_rows(h, wm, wp)
        np.testing.assert_allclose((closed - fd) * c * c, expected, rtol=0, atol=1e-10)

    # Rows 16-18 of experiment 3's spot-axis second-derivative matrix, from a
    # 60-digit (mpmath) evaluation of the single-fraction closed forms at the
    # float64 steps, ratios and c the matrix builder passes.
    EXPERIMENT3_S_ROWS = {
        16: [2.4710159629129979604e-05, 3.9052825740193411476e-06,
             -5.6900758683497815669e-05, 2.8285316480348494917e-05],
        17: [1.1189910487097879913e-05, 5.4108880419860557823e-07,
             -2.3754651654258680593e-05, 1.2023652362962195102e-05],
        18: [5.6891362970327197475e-06, -8.1598142096616499802e-07,
             -1.0290193670008766050e-05, 5.4170387939422113003e-06],
    }

    def test_experiment3_rows_within_rounding_of_60_digit_reference(self):
        # The FD part plus a small correction rounds to a few ulps; row 17's
        # beta_{i-1} is a cancellation-prone small weight.
        from fxhhw.config import bundled_config_path, from_yaml
        from fxhhw.operators import second_derivative_matrix

        g = from_yaml(bundled_config_path("experiment3")).grid()
        A = second_derivative_matrix(g.s_nodes, shape_parameters(g)["s"]).toarray()
        for row, ref in self.EXPERIMENT3_S_ROWS.items():
            np.testing.assert_allclose(A[row, row - 2:row + 2], ref, rtol=5e-15, atol=0)

    def test_rejects_unit_w_minus(self):
        with pytest.raises(InvalidArgumentError):
            second_weight_rows(0.1, 1.0, 1.0, 5.0)

    def test_rejects_zero_w_plus(self):
        with pytest.raises(InvalidArgumentError):
            second_weight_rows(0.1, 2.0, 0.0, 5.0)

    def test_sum_decay_under_refinement(self):
        # |sum beta| stays at rounding level when h halves with c = O(1/h).
        sums = []
        for h in (0.1, 0.05, 0.025):
            w = second_weight_rows(h, 1.8, 1.2, 1.0 / h)
            sums.append(abs(w.sum()) / np.abs(w).max())
        assert all(s < 1e-12 for s in sums)


class TestBoundaryWeights:
    def test_first_forward_difference_limit(self):
        w = boundary_first_row(1.0, 1e9)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_first_direct_substitution(self):
        w = boundary_first_row(0.5, 2.0)
        np.testing.assert_allclose(w, [0.5 / 4.0 - 2.0, 2.0], rtol=1e-15)

    def test_first_constant_residual(self):
        h, c = 0.3, 2.5
        w = boundary_first_row(h, c)
        assert w @ np.ones(2) == pytest.approx(h / c**2, rel=1e-13)

    def test_second_at_unit_shape(self):
        w = boundary_second_row(1.0)
        np.testing.assert_allclose(w, [-4.0, 2.0], rtol=1e-15)

    def test_second_shape_scaling(self):
        w = boundary_second_row(2.0)
        np.testing.assert_allclose(w, [-1.0, 0.5], rtol=1e-15)

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.7, 50.0])
    def test_second_sum_identity(self, c):
        w = boundary_second_row(c)
        assert w.sum() == pytest.approx(-2.0 / c**2, rel=1e-14)

    def test_second_rejects_zero_shape(self):
        with pytest.raises(InvalidArgumentError):
            boundary_second_row(0.0)

    def test_first_rejects_zero_step(self):
        with pytest.raises(InvalidArgumentError):
            boundary_first_row(0.0, 1.0)

    def test_first_fd_limit_is_forward_difference(self):
        h = 0.3
        np.testing.assert_array_equal(boundary_first_row(h), [-1.0 / h, 1.0 / h])
        np.testing.assert_allclose(boundary_first_row(h, 1e8 * h), boundary_first_row(h),
                                   rtol=1e-12)


class TestNearBoundarySecondWeights:
    def test_uniform_wide_shape_limit(self):
        h = 0.2
        w = near_boundary_second_row(h, h, 1e9)
        np.testing.assert_allclose(w, [1 / h**2, -2 / h**2, 1 / h**2], rtol=1e-9)

    def test_matches_oracle_at_example_point(self):
        oracle = collocation_weights_oracle([-0.1, 0.0, 0.13], 3.0, 2)
        np.testing.assert_allclose(
            oracle,
            [87.0473577764241, -154.05801285627518, 67.0108117764279],
            rtol=1e-12,
        )
        closed = near_boundary_second_row(0.1, 0.13, 3.0)
        gap = np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle))
        assert gap < 3.0 * (0.1 / 3.0) ** 2

    def test_first_degree_exactness_in_wide_limit(self):
        # With the consistent geometry the wide-shape limit annihilates
        # linear functions exactly (classical 3-node stencil).
        w = near_boundary_second_row(0.1, 0.13, 1e8)
        assert abs(w @ np.array([-0.1, 0.0, 0.13])) < 1e-6

    def test_rejects_zero_ratio(self):
        with pytest.raises(InvalidArgumentError):
            near_boundary_second_row(0.1, 0.0, 1.0)

    def test_fd_limit_is_classical_central_difference(self):
        hl, hr = 0.1, 0.13
        fd = near_boundary_second_row(hl, hr)
        np.testing.assert_array_equal(
            fd, [2.0 / (hl * (hl + hr)), -2.0 / (hl * hr), 2.0 / (hr * (hl + hr))]
        )
        np.testing.assert_allclose(near_boundary_second_row(hl, hr, 1e8 * hl), fd,
                                   rtol=1e-8)
        with pytest.raises(InvalidArgumentError):
            near_boundary_second_row(hl, 0.0)


class TestShapeParameters:
    def test_benchmark_shape_values(self):
        sp = shape_parameters(experiment_grid((8, 6, 6, 6)))
        assert sp["s"] == pytest.approx(1834.59, abs=0.005)
        assert sp["v"] == pytest.approx(24.25, abs=0.005)
        assert sp["rd"] == pytest.approx(3.09, abs=0.005)
        assert sp["rf"] == pytest.approx(3.09, abs=0.005)

    def test_uniform_axis(self):
        from fxhhw.grids import Grid4D

        grid = Grid4D(
            s_nodes=np.arange(0.0, 1.05, 0.1),
            v_nodes=np.linspace(0.0, 1.0, 5),
            rd_nodes=np.linspace(-1.0, 1.0, 5),
            rf_nodes=np.linspace(-1.0, 1.0, 5),
        )
        assert shape_parameters(grid)["s"] == pytest.approx(0.2, rel=1e-12)

    def test_requires_two_nodes(self):
        # The rule is the grid's: no Grid4D has a one-node axis, so every axis
        # shape_parameters reads has at least one step.
        from fxhhw.grids import Grid4D

        with pytest.raises(InvalidArgumentError, match="s_nodes must be a 1D axis with >= 2"):
            Grid4D(s_nodes=np.array([1.0]), v_nodes=np.linspace(0, 1, 4),
                   rd_nodes=np.linspace(0, 1, 4), rf_nodes=np.linspace(0, 1, 4))


class TestCollocationOracle:
    def test_symmetric_first_derivative(self):
        w = collocation_weights_oracle([-0.2, 0.0, 0.2], 2.0, 1)
        # middle weight vanishes by symmetry, up to solve rounding (the
        # system's conditioning is ~(c/h)^4)
        assert abs(w[1]) <= 1e-10 * np.abs(w).max()
        assert w[0] == pytest.approx(-w[2], rel=1e-10)

    def test_two_node_first_matches_boundary_pair_to_leading_order(self):
        h, c = 0.05, 5.0
        oracle = collocation_weights_oracle([0.0, h], c, 1)
        closed = boundary_first_row(h, c)
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
            closed = first_weight_rows(h, w, h / ratio)
            oracle = collocation_weights_oracle([-h, 0.0, w * h], h / ratio, 1)
            worst = max(worst, np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle)))
        assert worst < 3.0 * ratio**2

    @pytest.mark.parametrize("ratio", [0.05, 0.02])
    def test_second_derivative_gap_bounded(self, ratio, rng):
        worst = 0.0
        for _ in range(200):
            h = 10.0 ** rng.uniform(-2, 1)
            wm = rng.uniform(1.2, 2.5)
            wp = rng.uniform(0.5, 2.0)
            closed = second_weight_rows(h, wm, wp, h / ratio)
            oracle = collocation_weights_oracle([-wm * h, -h, 0.0, wp * h], h / ratio, 2)
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
            w = first_weight_rows(h, 1.37, 10.0 / h)
            errs.append(abs(w @ np.sin(x0 + offsets1(h, 1.37)) - np.cos(x0)))
        assert self._rate(errs) >= 1.8

    def test_second_derivative_second_order(self):
        x0 = 0.4
        errs = []
        for h in (0.2, 0.1, 0.05, 0.025):
            w = second_weight_rows(h, 1.6, 0.8, 10.0 / h)
            errs.append(abs(w @ np.sin(x0 + offsets2(h, 1.6, 0.8)) + np.sin(x0)))
        assert self._rate(errs) >= 1.8

    def test_near_boundary_row_is_low_order(self):
        # The three-node row loses second order: the rate on sin degrades
        # once the geometry is non-uniform.
        x0 = 0.4
        errs = []
        for h in (0.2, 0.1, 0.05, 0.025):
            w = near_boundary_second_row(h, 1.45 * h, 10.0 / h)
            errs.append(abs(w @ np.sin(x0 + offsets1(h, 1.45)) + np.sin(x0)))
        # first-order-ish decay, clearly below 2
        rate = self._rate(errs)
        assert 0.5 <= rate <= 2.0


class TestValidityGuards:
    def test_error_below_step(self):
        with pytest.raises(InvalidArgumentError):
            first_weight_rows(1.0, 1.0, 0.5)

    def test_warns_in_marginal_regime(self):
        with pytest.warns(ShapeParameterWarning):
            first_derivative_matrix(np.array([0.0, 1.0, 2.0, 3.0]), 2.0)

    def test_silent_in_asymptotic_regime(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first_derivative_matrix(np.array([0.0, 1.0, 2.0, 3.0]), 10.0)


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
    weights = first_weight_rows(h, w, cr * h)
    scale = np.abs(weights).max()
    assert abs(weights.sum()) <= 5e-13 * scale
    c = cr * h
    assert weights @ offsets1(h, w) == pytest.approx(1.0 + w * h * h / (c * c), rel=1e-9)
