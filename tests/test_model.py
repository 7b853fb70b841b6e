import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxhhw.errors import InvalidArgumentError, ModelConfigError
from fxhhw.model import (
    ModelParams,
    OptionSpec,
    correlation_matrix,
    feller_check,
    validate_correlation,
)
from fxhhw.operators import time_dependent_operator
from conftest import experiment1_model


class TestThetaLevels:
    def test_experiment1_levels_constant(self, par1):
        for tau in (0.0, 0.5, 1.0, 7.3):
            th_d, th_f = par1.levels(tau)
            assert th_d == pytest.approx(0.05, rel=1e-15)
            assert th_f == pytest.approx(0.05, rel=1e-15)
        assert not time_dependent_operator(
            "time_dependent", par1.theta_d_params, par1.theta_f_params)

    def test_experiment3_level_at_zero(self, par3):
        th_d, th_f = par3.levels(0.0)
        assert th_d == pytest.approx(0.074 - 0.014, rel=1e-14)
        assert th_f == pytest.approx(0.5, rel=1e-14)
        assert time_dependent_operator(
            "time_dependent", par3.theta_d_params, par3.theta_f_params)

    def test_zero_amplitude_ignores_decay_rate(self):
        m = experiment1_model()
        p = ModelParams(**{**m.__dict__, "theta_d_params": (0.07, 0.0, 3.0)})
        for tau in (0.0, 2.0):
            assert p.levels(tau)[0] == pytest.approx(0.07)
        assert not time_dependent_operator(
            "time_dependent", p.theta_d_params, p.theta_f_params)

    def test_constant_approx_experiment3(self, par3):
        th_d, th_f = par3.levels(1.0)
        assert th_d == pytest.approx(0.074 - 0.014 * math.exp(-2.10), rel=1e-12)
        assert th_d == pytest.approx(0.07229, abs=5e-6)
        assert th_f == pytest.approx(1.0 - 0.5 * math.exp(-0.5), rel=1e-12)
        assert th_f == pytest.approx(0.69674, abs=1e-5)

    def test_constant_approx_zero_amplitude(self, par1):
        th_d, th_f = par1.levels(1.0)
        assert th_d == 0.05 and th_f == 0.05

    def test_monotone_when_amplitude_positive(self, par3):
        taus = np.linspace(0.0, 3.0, 50)
        vals = par3.levels(taus)[0]
        assert np.all(np.diff(vals) > 0)


class TestFeller:
    def test_experiment_parameters_satisfy(self, par1):
        rep = feller_check(par1)
        assert rep.ratio == pytest.approx(2 * 0.5 * 0.1 / 0.09, rel=1e-12)
        assert rep.ratio == pytest.approx(1.111, abs=1e-3)
        assert rep.satisfied

    def test_small_vbar_violates(self):
        m = experiment1_model()
        p = ModelParams(**{**m.__dict__, "vbar": 0.04})
        rep = feller_check(p)
        assert rep.ratio == pytest.approx(0.444, abs=1e-3)
        assert not rep.satisfied

    def test_large_gamma_violates(self):
        m = experiment1_model()
        p = ModelParams(**{**m.__dict__, "gamma": 1e4})
        assert feller_check(p).ratio < 1e-6


class TestPayoff:
    def test_call_at_the_money(self):
        opt = OptionSpec("call", 100.0, 1.0)
        assert opt.payoff(100.0) == 0.0

    def test_call_in_the_money(self):
        assert OptionSpec("call", 100.0, 1.0).payoff(150.0) == 50.0

    def test_put_in_the_money(self):
        assert OptionSpec("put", 100.0, 1.0).payoff(60.0) == 40.0

    def test_vectorized_convex_piecewise_linear(self):
        opt = OptionSpec("call", 100.0, 1.0)
        s = np.linspace(0.0, 400.0, 401)
        p = opt.payoff(s)
        assert np.all(p >= 0)
        assert np.all(p <= s)
        assert np.all(s - p <= 100.0 + 1e-12)
        second = np.diff(p, 2)
        assert np.all(second >= -1e-12)

    def test_negative_spot_rejected(self):
        with pytest.raises(InvalidArgumentError):
            OptionSpec("call", 100.0, 1.0).payoff(-1.0)

    def test_bad_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            OptionSpec("straddle", 100.0, 1.0)


class TestCorrelationValidation:
    def test_benchmark_matrix_valid(self):
        R = correlation_matrix(-0.4, -0.15, -0.15, 0.3, 0.3, 0.25)
        assert R[0, 1] == -0.4 and R[2, 3] == 0.25
        assert np.all(np.diag(R) == 1.0)

    def test_identity_valid(self):
        validate_correlation(np.eye(4))

    def test_out_of_range_entry_rejected(self):
        R = np.eye(4)
        R[0, 1] = R[1, 0] = 1.5
        with pytest.raises(ModelConfigError):
            validate_correlation(R)

    def test_non_psd_rejected_with_eigenvalue(self):
        R = correlation_matrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0).copy()
        R[0, 1] = R[1, 0] = 0.99
        R[0, 2] = R[2, 0] = 0.99
        R[1, 2] = R[2, 1] = -0.99
        with pytest.raises(ModelConfigError) as err:
            validate_correlation(R)
        assert "eigenvalue" in str(err.value)

    def test_asymmetric_rejected(self):
        R = np.eye(4)
        R[0, 1] = 0.5
        with pytest.raises(ModelConfigError):
            validate_correlation(R)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_correlation_accepts_every_gram_matrix(data):
    """Normalized Gram matrices are PSD by construction and must validate."""
    raw = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16).map(np.asarray)
    )
    X = raw.reshape(4, 4) + 1e-3 * np.eye(4)
    G = X @ X.T
    d = np.sqrt(np.diag(G))
    R = G / np.outer(d, d)
    np.fill_diagonal(R, 1.0)
    R = 0.5 * (R + R.T)
    if np.linalg.eigvalsh(R)[0] >= -1e-10:
        validate_correlation(R)


class TestModelValidation:
    def test_negative_kappa_rejected(self):
        m = experiment1_model()
        with pytest.raises(ModelConfigError):
            ModelParams(**{**m.__dict__, "kappa": -0.5})

    def test_negative_vbar_rejected(self):
        m = experiment1_model()
        with pytest.raises(ModelConfigError):
            ModelParams(**{**m.__dict__, "vbar": -0.1})

    def test_every_failing_rule_reported_in_one_raise(self):
        m = experiment1_model()
        with pytest.raises(ModelConfigError) as err:
            ModelParams(**{**m.__dict__, "kappa": -1.0, "gamma": 0.0, "v0": float("nan"),
                           "s0": 0.0, "theta_f_params": (0.05, 0.0)})
        assert err.value.violations == [
            "kappa must be positive, got -1.0", "gamma must be positive, got 0.0",
            "s0 must be positive, got 0.0", "v0 must be nonnegative, got nan",
            "theta_f_params needs 3 coefficients",
        ]

    @pytest.mark.parametrize("coeffs, message", [
        ((0.05, 0.0, -800.0), "theta_d_params must be finite with a3 >= 0, "
                              "got (0.05, 0.0, -800.0)"),
        ((float("nan"), 0.0, 0.0), "theta_d_params must be finite with a3 >= 0, "
                                   "got (nan, 0.0, 0.0)"),
    ], ids=["negative-a3", "nan-a1"])
    def test_theta_coefficients_must_give_finite_levels(self, coeffs, message):
        m = experiment1_model()
        with pytest.raises(ModelConfigError) as err:
            ModelParams(**{**m.__dict__, "theta_d_params": coeffs})
        assert err.value.violations == [message]

    def test_option_rules_reported_in_one_raise(self):
        with pytest.raises(InvalidArgumentError) as err:
            OptionSpec("swap", -1.0, 0.0)
        assert err.value.violations == [
            "kind must be 'call' or 'put', got 'swap'", "strike must be positive, got -1.0",
            "maturity must be positive, got 0.0",
        ]

    @pytest.mark.parametrize("strike, maturity, message", [
        (float("inf"), 1.0, "strike must be finite, got inf"),
        (100.0, float("inf"), "maturity must be finite, got inf"),
    ], ids=["strike", "maturity"])
    def test_option_strike_and_maturity_must_be_finite(self, strike, maturity, message):
        with pytest.raises(InvalidArgumentError) as err:
            OptionSpec("call", strike, maturity)
        assert err.value.violations == [message]

    def test_rho_accessors(self, par1):
        assert par1.rho_sv == -0.4
        assert par1.rho_sd == -0.15
        assert par1.rho_sf == -0.15
        assert par1.rho_vd == 0.3
        assert par1.rho_vf == 0.3
        assert par1.rho_df == 0.25
