import math

import numpy as np
import pytest

from fxhhw import integrators, operators, pricing
from fxhhw.config import bundled_config_path, from_yaml
from fxhhw.errors import ConfigError, InvalidArgumentError, RangeError
from fxhhw.grids import AxisSpec, build_grid, uniform_grid
from fxhhw.integrators import KrylovConfig
from fxhhw.model import ModelParams, OptionSpec
from fxhhw.stencils import shape_parameters
from fxhhw.pricing import (
    SolutionField,
    greeks,
    interpolate,
    payoff_vector,
    price,
    relative_error,
    roc,
)
from conftest import experiment1_model, experiment_grid


@pytest.fixture(scope="module")
def exp1_coarse_field():
    par = experiment1_model()
    opt = OptionSpec("call", 100.0, 1.0)
    g = experiment_grid((10, 8, 6, 6))
    return price(par, opt, g, solver="krylov", boundary="dirichlet",
                 krylov=KrylovConfig(dim=400))


class TestPayoffVector:
    def test_natural_ordering(self):
        g = experiment_grid((6, 5, 4, 4))
        opt = OptionSpec("call", 100.0, 1.0)
        v = payoff_vector(g, opt)
        field = SolutionField(values=v, grid=g, tau=0.0)
        cube = field.reshape4()
        for irf in (0, 3):
            for ird in (0, 2):
                for iv in (0, 4):
                    np.testing.assert_array_equal(
                        cube[irf, ird, iv], opt.payoff(g.s_nodes)
                    )


class TestInterpolate:
    def test_node_query_bit_exact(self, exp1_coarse_field):
        f = exp1_coarse_field
        g = f.grid
        cube = f.reshape4()
        pt = (g.s_nodes[3], g.v_nodes[2], g.rd_nodes[1], g.rf_nodes[4])
        for method in ("linear", "cubic"):
            assert interpolate(f, pt, method) == cube[4, 1, 2, 3]

    def test_linear_midpoint_mean(self):
        g = experiment_grid((6, 5, 4, 4))
        vals = np.tile(np.array([0.0, 2.0, 4.0, 10.0, 20.0, 40.0]), 5 * 4 * 4)
        f = SolutionField(values=vals, grid=g, tau=0.0)
        s_mid = 0.5 * (g.s_nodes[1] + g.s_nodes[2])
        got = interpolate(f, (s_mid, g.v_nodes[0], g.rd_nodes[0], g.rf_nodes[0]), "linear")
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_cubic_reproduces_linear_data(self):
        g = experiment_grid((8, 5, 4, 4))
        vals = np.tile(0.25 * g.s_nodes + 3.0, 5 * 4 * 4)
        f = SolutionField(values=vals, grid=g, tau=0.0)
        q = (123.4, g.v_nodes[1], g.rd_nodes[1], g.rf_nodes[1])
        assert interpolate(f, q, "cubic") == pytest.approx(0.25 * 123.4 + 3.0, rel=1e-12)

    def test_out_of_domain_rejected(self, exp1_coarse_field):
        with pytest.raises(RangeError):
            interpolate(exp1_coarse_field, (2000.0, 0.04, 0.1, 0.1))
        with pytest.raises(RangeError):
            interpolate(exp1_coarse_field, (100.0, 0.04, -1.5, 0.1))

    @pytest.mark.parametrize("point", [(100.0, 0.04, 0.1), (100.0, 0.04, 0.1, 0.1, 0.1),
                                       ("s", 0.04, 0.1, 0.1), 100.0, None])
    def test_point_that_is_not_four_numbers_rejected(self, exp1_coarse_field, point):
        with pytest.raises(InvalidArgumentError, match="four numbers"):
            interpolate(exp1_coarse_field, point)

    def test_unknown_method_rejected(self, exp1_coarse_field):
        with pytest.raises(InvalidArgumentError):
            interpolate(exp1_coarse_field, (100.0, 0.04, 0.1, 0.1), "quintic")


class TestPriceSolutionBasics:
    def test_call_solution_nonnegative_and_monotone(self, exp1_coarse_field):
        # Coarse 10x8x6x6 grid: the scheme has no positivity fix, so tiny
        # undershoots appear near the payoff kink; they stay below 1% of the
        # strike on the region the experiments query (they shrink to
        # ~2e-4 * E on the acceptance grid, checked in the acceptance suite).
        f = exp1_coarse_field
        g = f.grid
        cube = f.reshape4()
        assert np.all(np.isfinite(cube))
        sm = g.s_nodes <= 620.0
        vm = g.v_nodes <= 3.2
        dm = np.abs(g.rd_nodes) <= 0.2
        fm = np.abs(g.rf_nodes) <= 0.2
        sub = cube[np.ix_(fm, dm, vm, sm)]
        assert sub.min() >= -0.01 * 100.0
        assert np.diff(sub, axis=-1).min() >= -0.01 * 100.0

    def test_s0_face_stays_zero_for_call(self, exp1_coarse_field):
        cube = exp1_coarse_field.reshape4()
        np.testing.assert_array_equal(cube[:, :, :, 0], 0.0)

    def test_default_krylov_solves_experiment2(self):
        # Arnoldi stops on its residual gate at about 170 steps, so the
        # derived subspace cap gives the dim-600 field bit for bit.
        cfg = from_yaml(bundled_config_path("experiment2"))
        args = (cfg.model, cfg.option, cfg.grid())
        f = price(*args, solver="krylov", boundary="abc")
        want = price(*args, solver="krylov", boundary="abc", krylov=KrylovConfig(dim=600))
        assert f.tau == cfg.option.maturity
        np.testing.assert_array_equal(f.values, want.values)

    def test_krylov_on_time_dependent_operator_rejected(self):
        from conftest import experiment3_model

        par = experiment3_model()
        opt = OptionSpec("call", 100.0, 0.25)
        g = experiment_grid((6, 5, 4, 4))
        with pytest.raises(ConfigError):
            price(par, opt, g, solver="krylov", theta_mode="time_dependent")

    def test_chebyshev_on_time_dependent_operator_rejected(self, par3):
        opt = OptionSpec("call", 100.0, 0.25)
        g = experiment_grid((6, 5, 4, 4))
        with pytest.raises(ConfigError, match="solver 'chebyshev' requires a time-independent"):
            price(par3, opt, g, solver="chebyshev", theta_mode="time_dependent")

    @pytest.mark.parametrize("solver, kernel", [
        ("auto", "chebyshev_expm_action"), ("chebyshev", "chebyshev_expm_action"),
        ("krylov", "krylov_expm_action"),
    ])
    def test_solver_calls_its_kernel_through_the_module(self, par1, monkeypatch, solver,
                                                         kernel):
        # The table looks each kernel up in ``pricing`` when it runs, and
        # passes Krylov's positional (A, v0, cfg): replacing the module
        # attribute, as an outside tracer does, reaches the call.
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            return np.zeros(args[0].shape[0])

        monkeypatch.setattr(pricing, kernel, record)
        cfg = KrylovConfig(dim=20)
        g = experiment_grid((6, 5, 4, 4))
        price(par1, OptionSpec("call", 100.0, 1.0), g, solver=solver, krylov=cfg)
        (args, kwargs), = calls
        assert args[0].shape == (g.n, g.n) and args[1].shape == (g.n,)
        if kernel == "krylov_expm_action":
            assert args[2] is cfg and kwargs == {"tau": 1.0}
        else:
            assert args[2:] == (1.0,) and kwargs == {}

    def test_krylov_solve_leaves_the_operator_as_built(self, par1, monkeypatch):
        # impose_boundaries sorts the column indices once; the Krylov kernel's
        # norm then has nothing to reorder in the field's operator.
        seen = []
        kernel = pricing.krylov_expm_action

        def record(A, *args, **kwargs):
            seen.append(A.indices.copy())
            return kernel(A, *args, **kwargs)

        monkeypatch.setattr(pricing, "krylov_expm_action", record)
        fld = price(par1, OptionSpec("call", 100.0, 1.0), experiment_grid((6, 5, 4, 4)),
                    solver="krylov", boundary="dirichlet", krylov=KrylovConfig(dim=20))
        base = fld.operator.base
        assert base.has_sorted_indices
        np.testing.assert_array_equal(base.indices, seen[0])

    def test_midpoint_requires_delta_tau(self, par3):
        opt = OptionSpec("call", 100.0, 0.25)
        g = experiment_grid((6, 5, 4, 4))
        with pytest.raises(ConfigError):
            price(par3, opt, g, solver="midpoint")

    def test_auto_solver_picks_midpoint_for_time_dependent(self, par3):
        opt = OptionSpec("call", 100.0, 0.25)
        g = experiment_grid((6, 5, 4, 4))
        f = price(par3, opt, g, solver="auto", delta_tau=0.005)
        assert np.all(np.isfinite(f.values))

    def test_solver_rejected_before_assembly(self, par3, monkeypatch):
        monkeypatch.setattr(operators, "assemble_operator", self._no_assembly)
        opt = OptionSpec("call", 100.0, 0.25)
        g = experiment_grid((6, 5, 4, 4))
        with pytest.raises(ConfigError):
            price(par3, opt, g, solver="krylov")
        for solver in ("midpoint", "auto"):
            with pytest.raises(ConfigError):
                price(par3, opt, g, solver=solver)
        # An unknown name, and a delta_tau that does not divide the 0.25y
        # maturity or is not positive.
        for solver, delta_tau in (("bogus", None), ("midpoint", 0.1), ("auto", 0.1),
                                  ("midpoint", -0.05)):
            with pytest.raises(ConfigError):
                price(par3, opt, g, solver=solver, delta_tau=delta_tau)

    def test_over_budget_krylov_dim_refused_before_assembly(self, par1, monkeypatch):
        monkeypatch.setattr(operators, "assemble_operator", self._no_assembly)
        monkeypatch.setattr(integrators, "BASIS_BUDGET_BYTES", 2**20)
        g = experiment_grid((6, 5, 4, 4))  # N = 480: dim 400 needs 1.5 MiB
        with pytest.raises(ConfigError) as err:
            price(par1, OptionSpec("call", 100.0, 1.0), g, solver="krylov",
                  krylov=KrylovConfig(dim=400))
        assert err.value.violations == [
            f"solver.krylov_dim: {v}" for v in integrators.krylov_dim_violations(400, g.n)]

    @pytest.mark.parametrize("solver", ["auto", "chebyshev"])
    def test_over_budget_krylov_dim_binds_krylov_only(self, par1, monkeypatch, solver):
        # The same settings pass the checks, and reach assembly, when the
        # solver builds no basis.
        monkeypatch.setattr(operators, "assemble_operator", self._no_assembly)
        monkeypatch.setattr(integrators, "BASIS_BUDGET_BYTES", 2**20)
        g = experiment_grid((6, 5, 4, 4))
        with pytest.raises(AssertionError, match="assembled before"):
            price(par1, OptionSpec("call", 100.0, 1.0), g, solver=solver,
                  krylov=KrylovConfig(dim=400))

    @pytest.mark.parametrize("kind, boundary", [
        ("call", "bogus"), ("put", "dirichlet"), ("put", "neumann_flux"),
    ])
    def test_boundary_rules_refused_before_assembly(self, par1, monkeypatch, kind,
                                                     boundary):
        monkeypatch.setattr(operators, "assemble_operator", self._no_assembly)
        g = experiment_grid((6, 5, 4, 4))
        with pytest.raises(ConfigError) as err:
            price(par1, OptionSpec(kind, 100.0, 1.0), g, boundary=boundary)
        assert err.value.violations == operators.boundary_violations(boundary, kind)

    def test_theta_mode_refused_before_assembly(self, par1, monkeypatch):
        monkeypatch.setattr(operators, "assemble_operator", self._no_assembly)
        g = experiment_grid((6, 5, 4, 4))
        with pytest.raises(ConfigError) as err:
            price(par1, OptionSpec("call", 100.0, 1.0), g, theta_mode="bogus")
        assert err.value.violations == operators.theta_mode_violations("bogus")

    @staticmethod
    def _no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the request was checked")

    def test_field_carries_its_boundary_operator(self, exp1_coarse_field):
        g = exp1_coarse_field.grid
        op = exp1_coarse_field.operator
        want = operators.impose_boundaries(
            operators.assemble_operator(g, experiment1_model()),
            "dirichlet",
            OptionSpec("call", 100.0, 1.0),
        )
        np.testing.assert_array_equal(op.pinned, want.pinned)
        assert op.pinned.any()
        assert (op.base != want.base).nnz == 0


class TestDeterministicLimit:
    def test_zero_volatility_call_matches_closed_form(self):
        base = experiment1_model()
        r = 0.05
        par = ModelParams(
            **{
                **base.__dict__,
                "v0": 0.0,
                "vbar": 0.0,
                "kappa": 1e-8,
                "gamma": 1e-8,
                "eta_d": 1e-8,
                "eta_f": 1e-8,
                "lambda_d": 0.0,
                "lambda_f": 0.0,
                "rd0": r,
                "rf0": r,
                "theta_d_params": (r, 0.0, 0.0),
                "theta_f_params": (r, 0.0, 0.0),
                "correlation": np.eye(4),
            }
        )
        opt = OptionSpec("call", 100.0, 1.0)
        g = build_grid(
            AxisSpec(32, 0.0, 1400.0, 100.0, 0.1),
            AxisSpec(6, 0.0, 10.0, 0.0, 50.0),
            AxisSpec(8, -1.0, 1.0, r, 500.0),
            AxisSpec(8, -1.0, 1.0, r, 500.0),
        )
        # the degenerate parameters trip the Feller advisory, by design
        with pytest.warns(UserWarning, match="Feller"):
            f = price(par, opt, g, solver="krylov", boundary="dirichlet",
                      krylov=KrylovConfig(dim=400))
        # flat equal rates: s_T = s0, value = e^{-rT} (s0 - E)^+
        for s0 in (160.0, 250.0, 420.0):
            want = math.exp(-r * 1.0) * (s0 - 100.0)
            got = f.interpolate((s0, 0.0, r, r), "cubic")
            assert got == pytest.approx(want, rel=5e-3)
        # deep OTM stays near zero
        assert abs(f.interpolate((20.0, 0.0, r, r), "cubic")) < 0.15


class TestGreeks:
    def test_slice_shapes_and_bounds(self, exp1_coarse_field):
        gs = greeks(exp1_coarse_field, rd=0.1, rf=0.1)
        g = exp1_coarse_field.grid
        m1, m2 = g.shape[0], g.shape[1]
        assert gs.delta.shape == (m2, m1)
        assert gs.vega.shape == (m2, m1) and gs.vanna.shape == (m2, m1)
        sm = g.s_nodes <= 620.0
        vm = g.v_nodes <= 3.2
        region = gs.delta[np.ix_(vm, sm)]
        assert region.min() >= -0.01 and region.max() <= 1.10

    def test_delta_vanishes_at_pinned_origin(self, exp1_coarse_field):
        # at moderate variance rows; extreme-variance rows cannot resolve
        # the s=0 limit with a one-sided two-node row on 10 spot nodes
        gs = greeks(exp1_coarse_field, rd=0.1, rf=0.1)
        rows = exp1_coarse_field.grid.v_nodes <= 0.5
        assert np.abs(gs.delta[rows, 0]).max() < 0.05

    def test_deep_itm_delta_near_discounted_forward(self, exp1_coarse_field):
        gs = greeks(exp1_coarse_field, rd=0.1, rf=0.1)
        g = exp1_coarse_field.grid
        iv = int(np.argmin(np.abs(g.v_nodes - 0.04)))
        delta_row = gs.delta[iv]
        d_itm = np.interp(1000.0, g.s_nodes, delta_row)
        assert d_itm > 0.9

    def test_vega_positive_near_the_money(self, exp1_coarse_field):
        # strict interior nonnegativity holds only on refined grids (the
        # acceptance suite checks it there); near the money it already holds
        gs = greeks(exp1_coarse_field, rd=0.1, rf=0.1)
        g = exp1_coarse_field.grid
        band = (g.s_nodes >= 80.0) & (g.s_nodes <= 300.0)
        vm = g.v_nodes <= 3.2
        assert gs.vega[np.ix_(vm, band)].min() > 0.0
        assert gs.vega[np.ix_(vm, g.s_nodes <= 620.0)].min() >= -2.0

    def test_out_of_range_rate_rejected(self, exp1_coarse_field):
        with pytest.raises(RangeError):
            greeks(exp1_coarse_field, rd=2.0, rf=0.1)

    @staticmethod
    def _differentiate(field, ms, mv, rd, rf):
        """The slice at rate nodes (rd, rf), differentiated with ms and mv."""
        g = field.grid
        vals = field.reshape4()[
            int(np.flatnonzero(g.rf_nodes == rf)[0]),
            int(np.flatnonzero(g.rd_nodes == rd)[0]),
        ]
        delta = vals @ ms.T.toarray()
        return delta, mv.toarray() @ vals, mv.toarray() @ delta

    def test_rbf_field_matches_shape_rule_matrices_bitwise(self, exp1_coarse_field):
        f = exp1_coarse_field
        g = f.grid
        rd, rf = g.rd_nodes[2], g.rf_nodes[3]
        shapes = shape_parameters(g)
        want = self._differentiate(
            f,
            operators.first_derivative_matrix(g.s_nodes, shapes["s"]),
            operators.first_derivative_matrix(g.v_nodes, shapes["v"]),
            rd, rf,
        )
        gs = greeks(f, rd=rd, rf=rf)
        for got, exp in zip((gs.delta, gs.vega, gs.vanna), want):
            np.testing.assert_array_equal(got, exp)

    def test_fd_baseline_field_uses_fd_matrices(self):
        f = price(experiment1_model(), OptionSpec("call", 100.0, 1.0),
                  uniform_grid((10, 8, 6, 6), 1400.0), solver="krylov",
                  krylov=KrylovConfig(dim=400), fd_limit=True)
        g = f.grid
        rd, rf = g.rd_nodes[2], g.rf_nodes[3]
        want = self._differentiate(
            f,
            operators.first_derivative_matrix(g.s_nodes, None),
            operators.first_derivative_matrix(g.v_nodes, None),
            rd, rf,
        )
        gs = greeks(f, rd=rd, rf=rf)
        for got, exp in zip((gs.delta, gs.vega, gs.vanna), want):
            np.testing.assert_array_equal(got, exp)

    def test_loaded_field_rejected(self, tmp_path, exp1_coarse_field):
        p = tmp_path / "field.npz"
        exp1_coarse_field.save(p)
        loaded = SolutionField.load(p)
        assert loaded.operator is None
        with pytest.raises(InvalidArgumentError):
            greeks(loaded, rd=0.1, rf=0.1)


class TestRoc:
    def test_benchmark_sequence(self):
        assert roc(8.25786, 8.45893, 8.42466) == pytest.approx(2.55, abs=0.01)

    def test_exact_second_order_sequence(self):
        vstar, c = 5.0, 3.0
        vals = [vstar + c / m**2 for m in (8, 16, 32)]
        assert roc(*vals) == pytest.approx(2.0, rel=1e-9)

    def test_degenerate_returns_marker(self):
        assert roc(1.0, 1.0, 2.0) is None
        assert roc(1.0, 2.0, 2.0) is None


class TestRelativeError:
    def test_benchmark_values(self):
        assert relative_error(8.444, 8.420) == pytest.approx(2.85e-3, abs=2e-5)
        assert relative_error(7.910, 7.888) == pytest.approx(2.79e-3, abs=2e-5)

    def test_exact_match(self):
        assert relative_error(3.14, 3.14) == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(InvalidArgumentError):
            relative_error(1.0, 0.0)


class TestFieldIO:
    def test_save_load_round_trip(self, tmp_path, exp1_coarse_field):
        p = tmp_path / "field.npz"
        exp1_coarse_field.save(p)
        loaded = SolutionField.load(p)
        np.testing.assert_array_equal(loaded.values, exp1_coarse_field.values)
        assert loaded.tau == exp1_coarse_field.tau
        np.testing.assert_array_equal(loaded.grid.s_nodes, exp1_coarse_field.grid.s_nodes)
