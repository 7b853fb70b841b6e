import math

import numpy as np
import pytest

from fxhhw.errors import InvalidArgumentError, ModelConfigError
from fxhhw.mc import McConfig, pathwise_delta, simulate_price
from fxhhw.model import ModelParams, OptionSpec
from conftest import experiment1_model


def deterministic_model(r_d=0.1, r_f=0.05, s0=200.0):
    base = experiment1_model()
    return ModelParams(
        **{
            **base.__dict__,
            "s0": s0,
            "v0": 0.0,
            "vbar": 0.0,
            "kappa": 1e-12,
            "gamma": 1e-12,
            "eta_d": 1e-12,
            "eta_f": 1e-12,
            "lambda_d": 0.0,
            "lambda_f": 0.0,
            "rd0": r_d,
            "rf0": r_f,
            "correlation": np.eye(4),
        }
    )


class TestConfigValidation:
    def test_bad_paths(self):
        with pytest.raises(InvalidArgumentError):
            McConfig(paths=0)

    def test_antithetic_needs_even_paths(self):
        with pytest.raises(InvalidArgumentError):
            McConfig(paths=101, antithetic=True)

    def test_every_failing_rule_reported_in_one_raise(self):
        with pytest.raises(InvalidArgumentError) as err:
            McConfig(paths=-1, steps_per_year=0, antithetic=True)
        assert err.value.violations == [
            "paths must be >= 1, got -1", "steps_per_year must be >= 1, got 0",
            "antithetic sampling needs an even path count",
        ]


class TestDeterministicLimit:
    def test_price_matches_closed_form(self):
        r_d, r_f, s0 = 0.1, 0.05, 200.0
        model = deterministic_model(r_d, r_f, s0)
        opt = OptionSpec("call", 100.0, 1.0)
        est = simulate_price(model, opt, McConfig(paths=64, steps_per_year=64, seed=1))
        want = math.exp(-r_d) * (s0 * math.exp(r_d - r_f) - 100.0)
        assert est.price == pytest.approx(want, rel=1e-9)
        assert est.stderr < 1e-5

    def test_pathwise_delta_deterministic(self):
        r_d, r_f, s0 = 0.1, 0.05, 200.0
        model = deterministic_model(r_d, r_f, s0)
        opt = OptionSpec("call", 100.0, 1.0)
        est = pathwise_delta(model, opt, McConfig(paths=64, steps_per_year=64, seed=1))
        want = math.exp(-r_d) * math.exp(r_d - r_f)  # indicator * s_T/s0 * discount
        assert est.price == pytest.approx(want, rel=1e-9)


class TestReproducibility:
    def test_same_seed_bitwise_identical(self, par1):
        opt = OptionSpec("call", 100.0, 1.0)
        cfg = McConfig(paths=20_000, steps_per_year=50, seed=123)
        a = simulate_price(par1, opt, cfg)
        b = simulate_price(par1, opt, cfg)
        assert a.price == b.price and a.stderr == b.stderr

    def test_different_seed_differs(self, par1):
        opt = OptionSpec("call", 100.0, 1.0)
        a = simulate_price(par1, opt, McConfig(paths=10_000, steps_per_year=50, seed=1))
        b = simulate_price(par1, opt, McConfig(paths=10_000, steps_per_year=50, seed=2))
        assert a.price != b.price


class TestStatisticalProperties:
    def test_se_scales_with_inverse_sqrt_paths(self, par1):
        opt = OptionSpec("call", 100.0, 1.0)
        ladder = [4_000, 16_000, 64_000]
        ses = [
            simulate_price(par1, opt, McConfig(paths=n, steps_per_year=50, seed=3)).stderr
            for n in ladder
        ]
        slope = np.polyfit(np.log(ladder), np.log(ses), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_variance_positivity_under_full_truncation(self):
        # Feller strongly violated: paths hit v < 0; no NaNs may appear.
        base = experiment1_model()
        model = ModelParams(**{**base.__dict__, "vbar": 0.01, "gamma": 1.5})
        opt = OptionSpec("call", 100.0, 1.0)
        est = simulate_price(model, opt, McConfig(paths=20_000, steps_per_year=50, seed=4))
        assert math.isfinite(est.price) and math.isfinite(est.stderr)

    def test_martingale_with_flat_zero_rates(self):
        base = experiment1_model()
        model = ModelParams(
            **{
                **base.__dict__,
                "rd0": 0.0,
                "rf0": 0.0,
                "lambda_d": 0.0,
                "lambda_f": 0.0,
                "eta_d": 1e-12,
                "eta_f": 1e-12,
                "theta_d_params": (0.0, 0.0, 0.0),
                "theta_f_params": (0.0, 0.0, 0.0),
                "correlation": np.eye(4),
            }
        )
        opt = OptionSpec("call", 1e-9, 1.0)  # payoff ~ s_T
        est = simulate_price(model, opt, McConfig(paths=100_000, steps_per_year=100, seed=5))
        assert abs(est.price - model.s0) <= 3.0 * est.stderr

    def test_antithetic_reduces_se(self, par1):
        opt = OptionSpec("call", 100.0, 1.0)
        plain = simulate_price(par1, opt, McConfig(paths=40_000, steps_per_year=50, seed=6))
        anti = simulate_price(
            par1, opt, McConfig(paths=40_000, steps_per_year=50, seed=6, antithetic=True)
        )
        assert anti.stderr < plain.stderr

    def test_deep_otm_delta_vanishes(self, par1):
        model = ModelParams(**{**par1.__dict__, "s0": 10.0})
        opt = OptionSpec("call", 100.0, 1.0)
        est = pathwise_delta(model, opt, McConfig(paths=50_000, steps_per_year=100, seed=7))
        assert abs(est.price) <= max(3.0 * est.stderr, 1e-6)


class TestCorrelationHandling:
    def test_non_psd_matrix_rejected(self, par1):
        R = np.eye(4)
        R[0, 1] = R[1, 0] = 0.995
        R[0, 2] = R[2, 0] = 0.995
        R[1, 2] = R[2, 1] = -0.9
        # bypass ModelParams validation to hit the MC-level check
        object.__setattr__(par1, "correlation", R)
        with pytest.raises(ModelConfigError):
            simulate_price(par1, OptionSpec("call", 100.0, 1.0), McConfig(paths=100, seed=0))


@pytest.fixture(scope="module")
def wide_domain_field():
    # s_max pushed to 28E so the deep-ITM query sits well inside
    from fxhhw.grids import AxisSpec, build_grid
    from fxhhw.integrators import KrylovConfig
    from fxhhw.pricing import price

    par = experiment1_model()
    opt = OptionSpec("call", 100.0, 1.0)
    grid = build_grid(
        AxisSpec(24, 0.0, 2800.0, 100.0, 0.1),
        AxisSpec(12, 0.0, 10.0, 0.04, 50.0),
        AxisSpec(8, -1.0, 1.0, 0.1, 500.0),
        AxisSpec(8, -1.0, 1.0, 0.1, 500.0),
    )
    return price(par, opt, grid, solver="krylov", boundary="dirichlet",
                 krylov=KrylovConfig(dim=500))


class TestCrossMethodDeltas:
    """Pathwise MC deltas against the PDE differentiation-matrix deltas."""

    def test_at_the_money_delta_within_three_se(self, wide_domain_field):
        from fxhhw.pricing import greeks

        par = experiment1_model()
        opt = OptionSpec("call", 100.0, 1.0)
        gs = greeks(wide_domain_field, rd=0.1, rf=0.1)
        g = wide_domain_field.grid
        iv = int(np.argmin(np.abs(g.v_nodes - 0.04)))
        pde = float(np.interp(100.0, g.s_nodes, gs.delta[iv]))
        est = pathwise_delta(par, opt, McConfig(paths=200_000, steps_per_year=200, seed=6))
        assert abs(pde - est.price) <= 3.0 * est.stderr

    def test_deep_itm_delta_near_discounted_forward(self, wide_domain_field):
        from fxhhw.pricing import greeks

        par = ModelParams(**{**experiment1_model().__dict__, "s0": 1000.0})
        opt = OptionSpec("call", 100.0, 1.0)
        gs = greeks(wide_domain_field, rd=0.1, rf=0.1)
        g = wide_domain_field.grid
        iv = int(np.argmin(np.abs(g.v_nodes - 0.04)))
        pde = float(np.interp(1000.0, g.s_nodes, gs.delta[iv]))
        est = pathwise_delta(par, opt, McConfig(paths=200_000, steps_per_year=200, seed=5))
        assert est.price - 3.0 * est.stderr > 0.9
        assert pde > 0.9
        # PDE slope at 10E carries a few percent of discretization error on
        # this grid; the agreement scale is the measured one
        assert abs(pde - est.price) < 0.05
