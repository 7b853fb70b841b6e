import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxhhw.errors import GridDegeneracyError, InvalidArgumentError
from fxhhw.grids import (
    AXES,
    AxisSpec,
    Grid4D,
    build_focused_axis,
    build_rate_axis,
    build_s_axis,
    build_v_axis,
    uniform_grid,
)
from fxhhw.model import OptionSpec
from fxhhw.operators import face_masks
from fxhhw.pricing import SolutionField, payoff_vector
from conftest import experiment_grid


def s_spec(m, xi=0.1, strike=100.0, smax=1400.0):
    return AxisSpec(m, 0.0, smax, strike, xi)


def v_spec(m, xi=50.0, v0=0.04, vmax=10.0):
    return AxisSpec(m, 0.0, vmax, v0, xi)


def r_spec(m, xi=500.0, r0=0.1):
    return AxisSpec(m, -1.0, 1.0, r0, xi)


class TestSpotAxis:
    def test_endpoints_exact(self):
        s = build_s_axis(s_spec(16))
        assert s[0] == 0.0
        assert s[-1] == pytest.approx(1400.0, rel=1e-12)

    def test_benchmark_increment_scales(self):
        # m1=8 axis: largest increment 2*917.3, smallest ~13.02
        s = build_s_axis(s_spec(8))
        d = np.diff(s)
        assert 2.0 * d.max() == pytest.approx(1834.59, abs=0.01)
        assert d.min() == pytest.approx(13.02, abs=0.01)

    @pytest.mark.parametrize(
        "m,c_s", [(8, 1834.59), (10, 1595.55), (12, 1405.92), (16, 1130.55),
                  (20, 942.98), (32, 627.29), (64, 330.29), (128, 169.45)]
    )
    def test_benchmark_shape_column(self, m, c_s):
        s = build_s_axis(s_spec(m))
        assert 2.0 * np.diff(s).max() == pytest.approx(c_s, abs=0.01)

    def test_strike_outside_domain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_s_axis(AxisSpec(8, 0.0, 1400.0, 1500.0, 0.1))
        with pytest.raises(InvalidArgumentError):
            build_s_axis(AxisSpec(8, 1.0, 1400.0, 100.0, 0.1))


    def test_spec_rules_reported_in_one_raise(self):
        with pytest.raises(InvalidArgumentError) as err:
            AxisSpec(3, 1.0, 1.0, 1.0, 0.0)
        assert err.value.violations == [
            "axis needs m >= 4 nodes, got 3", "axis bounds must increase, got [1.0, 1.0]",
            "stretch parameter must be positive, got 0.0",
        ]

    @pytest.mark.parametrize("m", [5.5, True])
    def test_spec_size_must_be_an_integer(self, m):
        with pytest.raises(InvalidArgumentError) as err:
            AxisSpec(m, 0.0, 100.0, 50.0, 0.1)
        assert err.value.violations == [f"m must be an integer, got {m!r}"]


class TestVarianceAxis:
    def test_endpoints_exact(self):
        v = build_v_axis(v_spec(6))
        assert v[0] == 0.0
        assert v[-1] == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("m,c_v", [(6, 24.25), (8, 20.81), (10, 18.06), (14, 14.15)])
    def test_benchmark_shape_column(self, m, c_v):
        v = build_v_axis(v_spec(m))
        assert 3.0 * np.diff(v).max() == pytest.approx(c_v, abs=0.01)

    def test_focus_at_or_above_vmax_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_v_axis(AxisSpec(6, 0.0, 10.0, 10.0, 50.0))


class TestRateAxis:
    def test_endpoints_exact(self):
        r = build_rate_axis(r_spec(6))
        assert r[0] == pytest.approx(-1.0, rel=1e-12)
        assert r[-1] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m,c_r", [(6, 3.09), (8, 2.84), (10, 2.58)])
    def test_benchmark_shape_column(self, m, c_r):
        # benchmark column carries two decimals, truncated
        r = build_rate_axis(r_spec(m))
        assert 3.0 * np.diff(r).max() == pytest.approx(c_r, abs=0.01)

    def test_focus_outside_bounds_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_rate_axis(AxisSpec(6, -1.0, 1.0, 1.5, 500.0))

    @pytest.mark.parametrize("spec", [
        r_spec(6), r_spec(10), r_spec(14), r_spec(5, xi=1e-12),
        AxisSpec(9, -0.5, 0.25, 0.02, 40.0),
    ])
    def test_is_the_focused_axis_with_stretch_over_r_max(self, spec):
        focused = build_focused_axis(AxisSpec(spec.m, spec.lower, spec.upper, spec.focus,
                                              spec.xi / spec.upper))
        assert build_rate_axis(spec).tobytes() == focused.tobytes()


class TestUniformFallback:
    def test_tiny_xi_gives_uniform(self):
        s = build_s_axis(s_spec(11, xi=1e-12))
        np.testing.assert_allclose(np.diff(s), 140.0, rtol=1e-12)
        r = build_rate_axis(r_spec(5, xi=1e-12))
        np.testing.assert_allclose(np.diff(r), 0.5, rtol=1e-12)


class TestGrid4D:
    def test_experiment_grid_counts_and_bounds(self):
        g = experiment_grid((8, 6, 6, 6))
        assert g.shape == (8, 6, 6, 6)
        assert g.n == 1728
        assert g.s_nodes[0] == 0.0 and g.s_nodes[-1] == pytest.approx(1400.0)
        assert g.v_nodes[0] == 0.0 and g.v_nodes[-1] == pytest.approx(10.0)
        assert g.rd_nodes[0] == pytest.approx(-1.0) and g.rd_nodes[-1] == pytest.approx(1.0)

    def test_all_axes_strictly_increasing(self):
        g = experiment_grid((8, 6, 6, 6))
        for d in (g.steps("s"), g.steps("v"), g.steps("rd"), g.steps("rf")):
            assert np.all(d > 0)

    def test_non_monotone_axis_rejected(self):
        with pytest.raises(GridDegeneracyError):
            Grid4D(
                s_nodes=np.array([0.0, 2.0, 1.0, 3.0]),
                v_nodes=np.linspace(0, 1, 4),
                rd_nodes=np.linspace(-1, 1, 4),
                rf_nodes=np.linspace(-1, 1, 4),
            )

    def test_concentration_at_focus_points(self):
        g = experiment_grid((16, 10, 8, 8))
        i = int(np.argmin(np.abs(g.s_nodes - 100.0)))
        assert np.argmin(g.steps("s")) in (i - 1, i)
        j = int(np.argmin(np.abs(g.v_nodes - 0.04)))
        assert np.argmin(g.steps("v")) in (j - 1, j)
        k = int(np.argmin(np.abs(g.rd_nodes - 0.1)))
        assert np.argmin(g.steps("rd")) in (k - 1, k)

    def test_axes_order_is_the_field_layout(self):
        # Natural ordering written out: flat = i_s + m1*(i_v + m2*(i_rd + m3*i_rf)).
        g = uniform_grid((8, 5, 4, 6), 1400.0)
        assert g.shape == (8, 5, 4, 6)
        m = dict(zip(AXES, g.shape))
        values = np.arange(g.n, dtype=float)
        cube = SolutionField(values=values, grid=g, tau=0.0).reshape4()
        masks = face_masks(g)
        option = OptionSpec(kind="call", strike=700.0, maturity=1.0)
        payoff = payoff_vector(g, option)
        per_s = option.payoff(g.s_nodes)
        for i in itertools.product(*(range(m[ax]) for ax in AXES)):
            at = dict(zip(AXES, i))
            flat = at["s"] + m["s"] * (at["v"] + m["v"] * (at["rd"] + m["rd"] * at["rf"]))
            assert cube[at["rf"], at["rd"], at["v"], at["s"]] == values[flat]
            assert payoff[flat] == per_s[at["s"]]
            for ax in AXES:
                assert masks[f"{ax}_lo"][flat] == (at[ax] == 0)
                assert masks[f"{ax}_hi"][flat] == (at[ax] == m[ax] - 1)

    def test_refinement_halves_max_increment(self):
        # Asymptotic smooth-map property; at small m the boundary cell of a
        # strongly stretched axis shrinks slower (the benchmark shape column
        # itself has ratio 1.62 on the 8 -> 16 rung).
        for spec_fn, builder in (
            (s_spec, build_s_axis),
            (v_spec, build_v_axis),
            (r_spec, build_rate_axis),
        ):
            for m in (64, 128):
                a = builder(spec_fn(m))
                b = builder(spec_fn(2 * m))
                ratio = np.diff(a).max() / np.diff(b).max()
                assert 1.8 <= ratio <= 2.2


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(4, 256),
    xi=st.floats(1e-3, 1e3),
)
def test_axes_monotone_and_bounded_property(m, xi):
    s = build_s_axis(AxisSpec(m, 0.0, 1400.0, 100.0, xi))
    assert np.all(np.diff(s) > 0)
    assert s[0] == 0.0 and s[-1] == pytest.approx(1400.0, rel=1e-12)
    r = build_rate_axis(AxisSpec(m, -1.0, 1.0, 0.1, xi))
    assert np.all(np.diff(r) > 0)
    assert r[0] == pytest.approx(-1.0, rel=1e-12)
    assert r[-1] == pytest.approx(1.0, rel=1e-12)
