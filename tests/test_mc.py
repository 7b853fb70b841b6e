import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from fxhhw import mc
from fxhhw.errors import InvalidArgumentError, ModelConfigError
from fxhhw.mc import BATCH_SIZE, McConfig, _chol, pathwise_delta, simulate_price
from fxhhw.model import ModelParams, OptionSpec, correlation_matrix
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

    def test_every_failing_rule_reported_in_one_raise(self):
        with pytest.raises(InvalidArgumentError) as err:
            McConfig(paths=-1, steps_per_year=0, seed=-1)
        assert err.value.violations == [
            "paths must be >= 1, got -1", "steps_per_year must be >= 1, got 0",
            "seed must be >= 0, got -1",
        ]

    @pytest.mark.parametrize("field, value", [
        ("paths", 10.5), ("paths", 1000.0), ("paths", True), ("paths", "1000"),
        ("steps_per_year", True), ("steps_per_year", 50.0), ("seed", 1.5), ("seed", False),
    ])
    def test_non_integer_refused(self, field, value):
        # another field out of range: both rules are reported in one raise
        other = {"seed": -1} if field == "paths" else {"paths": 0}
        with pytest.raises(InvalidArgumentError) as err:
            McConfig(**{field: value, **other})
        assert f"{field} must be an integer, got {value!r}" in err.value.violations
        assert len(err.value.violations) == 2

    def test_numpy_integers_accepted(self):
        cfg = McConfig(paths=np.int64(10), steps_per_year=np.int32(5), seed=np.uint64(3))
        assert (cfg.paths, cfg.steps_per_year, cfg.seed) == (10, 5, 3)


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


class TestDeterministicLimit:
    def test_price_matches_closed_form(self, thread_starts):
        r_d, r_f, s0 = 0.1, 0.05, 200.0
        model = deterministic_model(r_d, r_f, s0)
        opt = OptionSpec("call", 100.0, 1.0)
        est = simulate_price(model, opt, McConfig(paths=64, steps_per_year=64, seed=1))
        want = math.exp(-r_d) * (s0 * math.exp(r_d - r_f) - 100.0)
        assert est.price == pytest.approx(want, rel=1e-9)
        assert est.stderr < 1e-5
        assert thread_starts == []  # drawn in the caller's thread

    def test_pathwise_delta_deterministic(self, thread_starts):
        r_d, r_f, s0 = 0.1, 0.05, 200.0
        model = deterministic_model(r_d, r_f, s0)
        opt = OptionSpec("call", 100.0, 1.0)
        est = pathwise_delta(model, opt, McConfig(paths=64, steps_per_year=64, seed=1))
        want = math.exp(-r_d) * math.exp(r_d - r_f)  # indicator * s_T/s0 * discount
        assert est.price == pytest.approx(want, rel=1e-9)
        assert thread_starts == []


class TestReproducibility:
    def test_same_seed_bitwise_identical(self, par1):
        opt = OptionSpec("call", 100.0, 1.0)
        cfg = McConfig(paths=20_000, steps_per_year=50, seed=123)
        a = simulate_price(par1, opt, cfg)
        b = simulate_price(par1, opt, cfg)
        assert a.price == b.price and a.stderr == b.stderr

    def test_two_batch_run_pinned_bitwise(self, par1):
        # 60,000 paths span two batches (BATCH_SIZE = 50,000); the literals
        # fix the draws, their order and the batch reduction.
        assert BATCH_SIZE < 60_000
        est = simulate_price(par1, OptionSpec("call", 100.0, 1.0),
                             McConfig(paths=60_000, steps_per_year=50, seed=123))
        assert (est.price, est.stderr) == (7.883383502454358, 0.050359478871287874)

    def test_different_seed_differs(self, par1):
        opt = OptionSpec("call", 100.0, 1.0)
        a = simulate_price(par1, opt, McConfig(paths=10_000, steps_per_year=50, seed=1))
        b = simulate_price(par1, opt, McConfig(paths=10_000, steps_per_year=50, seed=2))
        assert a.price != b.price


class PayoffFailsAfterFirstBatch:
    """A call whose payoff raises from the second batch on."""

    kind, strike, maturity = "call", 100.0, 1.0

    def __init__(self):
        self.batches = 0

    def payoff(self, s):
        self.batches += 1
        if self.batches > 1:
            raise ArithmeticError("payoff failed in batch 2")
        return np.maximum(s - self.strike, 0.0)


class DrawFailed(Exception):
    pass


def returns_within(seconds, fn, *args):
    """``fn(*args)`` on a daemon thread, so that a hang fails the test instead."""
    out = {}

    def target():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # raised again below, in the test's thread
            out["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), f"no return within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestCallerThread:
    """A call runs in its caller's thread: errors reach it, concurrent calls keep their bits."""

    def test_payoff_error_reaches_the_caller(self, par1):
        # Three batches of 20 steps: batch 2's payoff raises, and batch 3 is
        # never drawn.
        before = threading.active_count()
        opt = PayoffFailsAfterFirstBatch()
        with pytest.raises(ArithmeticError, match="payoff failed in batch 2"):
            returns_within(10, simulate_price, par1, opt,
                           McConfig(paths=2 * BATCH_SIZE + 1, steps_per_year=20))
        assert opt.batches == 2
        assert threading.active_count() == before

    def test_draw_error_reaches_the_caller(self, par1, monkeypatch):
        real_generator = np.random.Generator

        class FailsOnThirdDraw:
            def __init__(self, bit_generator):
                self.rng = real_generator(bit_generator)
                self.draws = 0

            def standard_normal(self, *args, **kwargs):
                self.draws += 1
                if self.draws == 3:
                    raise DrawFailed("draw 3")
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(mc.np.random, "Generator", FailsOnThirdDraw)
        before = threading.active_count()
        with pytest.raises(DrawFailed, match="draw 3"):
            returns_within(10, pathwise_delta, par1, OptionSpec("call", 100.0, 1.0),
                           McConfig(paths=1_000, steps_per_year=20))
        assert threading.active_count() == before

    def test_concurrent_calls_under_fast_thread_switching_bitwise(self, par1):
        # Four callers, each drawing in its own thread, switching every
        # microsecond: a generator or buffer shared between calls would change
        # the bits.
        opt = OptionSpec("call", 100.0, 1.0)
        cfg = McConfig(paths=BATCH_SIZE + 700, steps_per_year=10, seed=9)
        want = simulate_price(par1, opt, cfg)
        got = [None] * 4

        def call(i):
            got[i] = simulate_price(par1, opt, cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [want] * 4


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

    def test_deep_otm_delta_vanishes(self, par1):
        model = ModelParams(**{**par1.__dict__, "s0": 10.0})
        opt = OptionSpec("call", 100.0, 1.0)
        est = pathwise_delta(model, opt, McConfig(paths=50_000, steps_per_year=100, seed=7))
        assert abs(est.price) <= max(3.0 * est.stderr, 1e-6)

    def test_call_minus_put_delta_is_the_forward_delta(self, par1):
        # Per path, 1{s_T > K} s_T + 1{s_T < K} s_T = s_T: a call struck at
        # ~0, divided by s0.  All three estimates average the same paths.
        cfg = McConfig(paths=20_000, steps_per_year=50, seed=3)
        call = pathwise_delta(par1, OptionSpec("call", 100.0, 1.0), cfg)
        put = pathwise_delta(par1, OptionSpec("put", 100.0, 1.0), cfg)
        forward = simulate_price(par1, OptionSpec("call", 1e-9, 1.0), cfg).price / par1.s0
        assert put.price < 0 < call.price
        assert call.price - put.price == pytest.approx(forward, rel=1e-10)


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

    def test_singular_matrix_takes_the_shifted_cholesky(self, par1):
        # rho_df = 1: a valid correlation matrix with smallest eigenvalue ~1e-16.
        R = correlation_matrix(-0.4, -0.15, -0.15, 0.3, 0.3, 1.0)
        model = dataclasses.replace(par1, correlation=R)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(R)
        L = _chol(R)
        np.testing.assert_allclose(L @ L.T, R, atol=1e-12)
        est = simulate_price(model, OptionSpec("call", 100.0, 1.0),
                             McConfig(paths=2_000, steps_per_year=50, seed=3))
        assert math.isfinite(est.price) and est.price > 0


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
