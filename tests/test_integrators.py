import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fxhhw import integrators
from fxhhw.config import bundled_config_path, from_yaml
from fxhhw.errors import (ChebyshevError, InstabilityError, InvalidArgumentError,
                          KrylovConvergenceError)
from fxhhw.integrators import (
    DENSE_EIG_CUTOFF,
    KrylovConfig,
    MidpointConfig,
    chebyshev_expm_action,
    estimate_lambda_max,
    krylov_expm_action,
    modified_midpoint_solve,
)
from fxhhw.model import OptionSpec
from fxhhw.operators import assemble_operator, impose_boundaries
from fxhhw.pricing import payoff_vector
from conftest import experiment1_model, experiment_grid


def random_stable_sparse(rng, n=50, density=0.15, shift=3.0):
    A = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(1 << 31)))
    A = (A - A.T) * 0.5 + sp.diags(-shift - rng.random(n))
    return A.tocsr()


def split_into(monkeypatch, A, tau, substeps):
    """Set ``SUBSTEP_NORM`` so that tau * ||A||_1 splits into ``substeps``."""
    norm = float(spla.norm(A, 1))
    monkeypatch.setattr(integrators, "SUBSTEP_NORM", tau * norm / (substeps - 0.5))


class TestKrylovConfig:
    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-9])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(InvalidArgumentError, match="tol must be positive"):
            KrylovConfig(tol=tol, dim=20)

    @pytest.mark.parametrize("check_every", [0, -3])
    def test_check_every_at_least_one(self, check_every):
        with pytest.raises(InvalidArgumentError, match="check_every must be >= 1"):
            KrylovConfig(check_every=check_every)

    def test_every_violation_reported(self):
        with pytest.raises(InvalidArgumentError) as err:
            KrylovConfig(dim=0, tol=np.nan, check_every=0)
        assert len(err.value.violations) == 3


class TestKrylovExpmAction:
    def test_zero_matrix_returns_input(self, rng):
        v = rng.standard_normal(40)
        A = sp.csr_matrix((40, 40))
        out = krylov_expm_action(A, v)
        np.testing.assert_allclose(out, v, rtol=1e-14)

    def test_diagonal_full_space(self, rng):
        d = rng.uniform(-3.0, 0.5, 30)
        v = rng.standard_normal(30)
        out = krylov_expm_action(sp.diags(d).tocsr(), v, KrylovConfig(dim=30, tol=1e-12))
        np.testing.assert_allclose(out, np.exp(d) * v, rtol=1e-10)

    def test_matches_dense_oracle_on_random_stable_matrices(self, rng):
        for _ in range(5):
            A = random_stable_sparse(rng)
            v = rng.standard_normal(50)
            got = krylov_expm_action(A, v, KrylovConfig(dim=30, tol=1e-12))
            want = scipy.linalg.expm(A.toarray()) @ v
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8

    def test_tau_scaling(self, rng):
        A = random_stable_sparse(rng)
        v = rng.standard_normal(50)
        got = krylov_expm_action(A, v, KrylovConfig(dim=40, tol=1e-12), tau=0.37)
        want = scipy.linalg.expm(0.37 * A.toarray()) @ v
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-9

    @pytest.mark.parametrize("tau, substeps", [(2.0, 1), (0.25, 1), (1.0, 2), (2.0, 4)])
    def test_horizon_equals_prescaled_matrix_bitwise(self, rng, monkeypatch, tau, substeps):
        # The horizon scales H, the breakdown threshold and the residual; for
        # a power-of-two tau / substeps that is exactly the Arnoldi run on the
        # prescaled matrix, substep by substep.
        op = impose_boundaries(
            assemble_operator(experiment_grid((8, 6, 4, 4)), experiment1_model()),
            "dirichlet", OptionSpec("call", 100.0, 1.0),
        )
        for A in (op.matrix(0.0), random_stable_sparse(rng)):
            split_into(monkeypatch, A, tau, substeps)
            v = rng.standard_normal(A.shape[0])
            cfg = KrylovConfig(dim=min(300, A.shape[0]), tol=1e-10)
            got = krylov_expm_action(A, v, cfg, tau=tau)
            want = v
            scaled = (A * (tau / substeps)).tocsr()
            for _ in range(substeps):
                want = krylov_expm_action(scaled, want, cfg)
            np.testing.assert_array_equal(got, want)

    def test_horizon_makes_no_copy_of_the_matrix(self, rng, monkeypatch):
        operands = []

        class Recording(sp.csr_matrix):
            def __matmul__(self, other):
                operands.append(self)
                return super().__matmul__(other)

        A = Recording(random_stable_sparse(rng))
        for tau, substeps in ((0.37, 1), (2.0, 3)):
            split_into(monkeypatch, A, tau, substeps)
            cfg = KrylovConfig(dim=40, tol=1e-12)
            krylov_expm_action(A, rng.standard_normal(50), cfg, tau=tau)
        assert operands and all(M is A for M in operands)

    @pytest.mark.parametrize("tau", [0.37, 1.0, 2.0])
    def test_substeps_follow_the_norm(self, rng, monkeypatch, tau):
        calls = []
        arnoldi = integrators._arnoldi_expm

        def counting(*args):
            calls.append(args[3])
            return arnoldi(*args)

        monkeypatch.setattr(integrators, "_arnoldi_expm", counting)
        d = -np.linspace(1.0, 2500.0, 200)  # ||A||_1 = 2500
        v = rng.standard_normal(200)
        got = krylov_expm_action(sp.diags(d).tocsr(), v, KrylovConfig(tol=1e-12), tau=tau)
        assert len(calls) == math.ceil(tau * 2500.0 / integrators.SUBSTEP_NORM)
        assert calls == [tau / len(calls)] * len(calls)
        np.testing.assert_allclose(got, np.exp(tau * d) * v, rtol=1e-10, atol=1e-12)
        calls.clear()
        krylov_expm_action(sp.csr_matrix((200, 200)), v, tau=tau)
        assert len(calls) == 1

    def test_underflow_to_zero_stays_zero(self):
        # Ten short solves of exp(-1000) each: the first underflows v to exactly 0.
        A = sp.diags(np.full(10, -1e4)).tocsr()
        out = krylov_expm_action(A, np.ones(10), tau=1.0)
        np.testing.assert_array_equal(out, np.zeros(10))

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_horizon_must_be_positive_and_finite(self, tau):
        with pytest.raises(InvalidArgumentError, match="horizon"):
            krylov_expm_action(sp.identity(5).tocsr(), np.ones(5), tau=tau)

    def test_over_budget_dim_refused_before_allocating(self):
        n = 10**6
        A = sp.identity(n, format="csr")
        v = np.ones(n)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgumentError, match="budget"):
                krylov_expm_action(A, v, KrylovConfig(dim=200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < v.nbytes

    def test_default_dim_is_the_budget_cap(self, rng, monkeypatch):
        # (dim + 1) * N * 8 <= budget: 130 is the largest dim for N = 1000.
        monkeypatch.setattr(integrators, "BASIS_BUDGET_BYTES", 2**20)
        w = np.full(999, 100.0)  # skew: exp(A) v needs about 300 steps
        A = sp.diags([w, -w], [1, -1]).tocsr()
        v = rng.standard_normal(1000)
        with pytest.raises(InvalidArgumentError, match="budget"):
            krylov_expm_action(A, v, KrylovConfig(dim=131))
        with pytest.raises(KrylovConvergenceError) as err:
            krylov_expm_action(A, v, KrylovConfig(tol=1e-13))
        assert err.value.dim == 130

    def test_nilpotent_breakdown_exact(self):
        # Krylov space closes after k steps; the truncated basis gives the
        # exact polynomial exponential.
        n = 40
        N = sp.diags(np.ones(n - 1), 1).tocsr()  # strictly upper shift
        v = np.zeros(n)
        v[0] = 1.0
        out = krylov_expm_action(N.T.tocsr(), v, KrylovConfig(dim=n))
        want = scipy.linalg.expm(N.T.toarray()) @ v
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_low_rank_breakdown_exact(self, rng):
        u = rng.standard_normal(60)
        w = rng.standard_normal(60)
        A = sp.csr_matrix(np.outer(u, w) * 0.1)
        v = rng.standard_normal(60)
        out = krylov_expm_action(A, v, KrylovConfig(dim=60, tol=1e-13))
        want = scipy.linalg.expm(A.toarray()) @ v
        assert np.linalg.norm(out - want) / np.linalg.norm(want) < 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidArgumentError):
            krylov_expm_action(sp.identity(5).tocsr(), np.zeros(5))

    def test_dim_clamped_with_warning(self, rng):
        A = sp.diags(-np.ones(8)).tocsr()
        with pytest.warns(UserWarning, match="clamped"):
            krylov_expm_action(A, rng.standard_normal(8), KrylovConfig(dim=20))

    def test_insufficient_dim_raises(self, rng):
        # moderately stiff matrix, tiny subspace, tight tolerance
        A = sp.diags(-np.linspace(1.0, 30.0, 100)).tocsr()
        v = rng.standard_normal(100)
        with pytest.raises(KrylovConvergenceError) as err:
            krylov_expm_action(A, v, KrylovConfig(dim=5, tol=1e-13))
        assert err.value.dim == 5
        assert err.value.residual > 0

    def test_convergence_monotone_in_dim(self, rng):
        A = random_stable_sparse(rng)
        v = rng.standard_normal(50)
        want = scipy.linalg.expm(A.toarray()) @ v
        errs = []
        for dim in (5, 10, 15, 20, 25):
            got = krylov_expm_action(
                A, v, KrylovConfig(dim=dim, tol=np.inf, check_every=10**9)
            )
            errs.append(np.linalg.norm(got - want))
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.1 * a

    def test_arnoldi_basis_orthonormal(self, rng):
        A = random_stable_sparse(rng)
        v0 = rng.standard_normal(50)
        beta = np.linalg.norm(v0)
        V = [v0 / beta]
        for j in range(49):
            w = A @ V[j]
            for q in V:
                w -= np.dot(q, w) * q
            for q in V:
                w -= np.dot(q, w) * q
            nrm = np.linalg.norm(w)
            if nrm < 1e-14:
                break
            V.append(w / nrm)
        Q = np.array(V)
        G = Q @ Q.T
        assert np.max(np.abs(G - np.eye(len(V)))) < 1e-10


class TestChebyshevExpmAction:
    def test_zero_matrix_returns_input(self, rng):
        v = rng.standard_normal(40)
        out = chebyshev_expm_action(sp.csr_matrix((40, 40)), v, 3.0)
        np.testing.assert_allclose(out, v, rtol=1e-14)

    def test_diagonal_with_growing_modes(self, rng):
        # Twenty distinct eigenvalues: the Ritz run breaks down at step 20
        # with hi = max(d) exactly, and the result holds the growing modes.
        d = np.repeat(rng.uniform(-30.0, 2.0, 20), 3)
        v = rng.standard_normal(60)
        for tau in (0.1, 1.0, 4.0):
            want = np.exp(tau * d) * v
            out = chebyshev_expm_action(sp.diags(d).tocsr(), v, tau)
            assert np.linalg.norm(out - want) / np.linalg.norm(want) < 1e-11
        hi = integrators._ritz_hi(sp.diags(d).tocsr(), v, 30, 0.0)
        assert hi == pytest.approx(d.max(), rel=1e-12)

    def test_tau_scaling(self, rng):
        A = random_stable_sparse(rng)
        v = rng.standard_normal(50)
        got = chebyshev_expm_action(A, v, 0.37)
        want = scipy.linalg.expm(0.37 * A.toarray()) @ v
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12

    def test_interval_far_right_of_the_spectrum_raises(self):
        # A small abc put operator (rightmost eigenvalue +3.5) at experiment
        # 2's horizon: an interval reaching 60 past the spectrum makes the
        # terms cancel far below their size, which the rounding indicator
        # refuses.  Criterion 6's Chebyshev twin checks the interval the
        # action picks itself on the same operator.
        opt = OptionSpec("put", 100.0, 2.0)
        g = experiment_grid((6, 5, 4, 4))
        A = impose_boundaries(assemble_operator(g, experiment1_model()), "abc", opt).matrix()
        v = payoff_vector(g, opt)
        rightmost = float(np.linalg.eigvals(A.toarray()).real.max())
        lo = integrators._gershgorin_lo_and_norm(A)[0]
        with pytest.raises(ChebyshevError, match="rounding indicator") as err:
            integrators._chebyshev_series(A, v, 2.0, lo, rightmost + 60.0)
        assert err.value.indicator > integrators.CHEB_TOL

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_term_raises(self):
        # An interval far left of the eigenvalue 1e6: T_k v overflows.
        A = sp.diags(np.full(5, 1e6)).tocsr()
        with pytest.raises(ChebyshevError, match="not finite"):
            integrators._chebyshev_series(A, np.ones(5), 1.0, -1.0, 0.0)

    def test_degree_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(integrators, "CHEB_MAX_DEGREE", 10)
        A = random_stable_sparse(rng, shift=300.0)
        with pytest.raises(ChebyshevError, match="10 terms") as err:
            chebyshev_expm_action(A, rng.standard_normal(50), 1.0)
        assert err.value.degree == 10

    def test_degree_cap_refused_up_front(self, monkeypatch):
        # tau * d = 5000: the sum cannot stop before k = 71, past a cap of 10.
        monkeypatch.setattr(integrators, "CHEB_MAX_DEGREE", 10)
        calls = []
        monkeypatch.setattr(integrators, "_scaled_bessel_i", calls.append)
        A = sp.diags(np.linspace(-1e4, 0.0, 50)).tocsr()
        with pytest.raises(ChebyshevError, match="sqrt"):
            chebyshev_expm_action(A, np.ones(50), 1.0)
        assert calls == []

    @pytest.mark.parametrize("bad", ["v", "A"])
    def test_non_finite_input_refused(self, bad):
        A = sp.identity(5, format="csr")
        v = np.ones(5)
        if bad == "v":
            v[2] = np.nan
        else:
            A = A * np.inf
        with pytest.raises(InvalidArgumentError, match="finite"):
            chebyshev_expm_action(A, v)

    def test_zero_vector_returns_zero(self):
        out = chebyshev_expm_action(sp.identity(5, format="csr"), np.zeros(5), 2.0)
        np.testing.assert_array_equal(out, np.zeros(5))

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_horizon_must_be_positive_and_finite(self, tau):
        with pytest.raises(InvalidArgumentError, match="horizon"):
            chebyshev_expm_action(sp.identity(5).tocsr(), np.ones(5), tau)

    def test_dimension_mismatch_refused(self):
        with pytest.raises(InvalidArgumentError, match="dimension"):
            chebyshev_expm_action(sp.identity(5).tocsr(), np.ones(4))

    @pytest.mark.parametrize("z", [1e-12, 0.5, 10.0, 415.0, 1660.0, 6159.0, 1e5])
    def test_scaled_bessel_matches_scipy(self, z):
        from scipy.special import ive

        got = integrators._scaled_bessel_i(z)
        want = ive(np.arange(got.size + 50), z)
        assert want[got.size:].max() < 1e-300 * want[0]  # nothing cut off
        big = want[: got.size] > 1e-30 * want[0]
        np.testing.assert_allclose(got[big], want[: got.size][big], rtol=2e-12)

    def test_solve_does_not_load_scipy_special(self):
        # scipy.special costs 3 MB of resident memory and 70 ms to import.
        code = ("import sys, numpy as np, scipy.sparse as sp; "
                "from fxhhw import chebyshev_expm_action; "
                "chebyshev_expm_action(sp.diags(-np.arange(1.0, 9.0)).tocsr(), np.ones(8)); "
                "print('scipy.special' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(integrators.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.stdout.strip() == "False", done.stderr


class TestMidpointConfig:
    def test_horizon_consistency(self):
        cfg = MidpointConfig.from_horizon(0.25, 0.000625)
        assert cfg.steps == 400
        assert cfg.horizon == pytest.approx(0.25, rel=1e-14)

    def test_inconsistent_step_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MidpointConfig.from_horizon(1.0, 0.2999)

    @pytest.mark.parametrize("delta_tau", [0.2999, 2.0, 0.0, -0.25, None])
    def test_from_horizon_raises_the_step_rule(self, delta_tau):
        with pytest.raises(InvalidArgumentError) as err:
            MidpointConfig.from_horizon(1.0, delta_tau)
        assert err.value.violations == integrators.midpoint_step_violations(delta_tau, 1.0)
        # Without a horizon only the sign is checked.
        positive = delta_tau is not None and delta_tau > 0
        assert (integrators.midpoint_step_violations(delta_tau) == []) == positive


class TestModifiedMidpoint:
    def test_single_step_zero_matrix(self, rng):
        v = rng.standard_normal(12)
        out = modified_midpoint_solve(sp.csr_matrix((12, 12)), v, MidpointConfig(1.0, 1))
        np.testing.assert_allclose(out, v, rtol=1e-15)

    @staticmethod
    def _order(errs):
        return np.mean([np.log2(a / b) for a, b in zip(errs, errs[1:])])

    def test_scalar_constant_second_order(self):
        lam, T = -1.7, 1.0
        exact = np.exp(lam * T)
        errs = []
        for steps in (8, 16, 32, 64):
            cfg = MidpointConfig(T / steps, steps)
            out = modified_midpoint_solve(sp.csr_matrix([[lam]]), np.array([1.0]), cfg)
            errs.append(abs(out[0] - exact))
        assert self._order(errs) >= 1.8

    def test_scalar_time_dependent_second_order(self):
        a, b, T = -0.8, 1.3, 1.0
        exact = np.exp(a * T + 0.5 * b * T * T)

        def A(tau):
            return sp.csr_matrix([[a + b * tau]])

        errs = []
        for steps in (8, 16, 32, 64):
            out = modified_midpoint_solve(A, np.array([1.0]), MidpointConfig(T / steps, steps))
            errs.append(abs(out[0] - exact))
        assert self._order(errs) >= 1.8

    def test_small_system_second_order(self, rng):
        M = rng.standard_normal((10, 10))
        A = sp.csr_matrix(-(M @ M.T) / 10.0 - np.eye(10))
        v = rng.standard_normal(10)
        exact = scipy.linalg.expm(A.toarray()) @ v
        errs = []
        for steps in (8, 16, 32, 64):
            out = modified_midpoint_solve(A, v, MidpointConfig(1.0 / steps, steps))
            errs.append(np.linalg.norm(out - exact))
        assert self._order(errs) >= 1.8

    def test_divergence_aborts_with_diagnostic(self):
        A = sp.csr_matrix([[-100.0]])
        with pytest.raises(InstabilityError) as err:
            modified_midpoint_solve(A, np.array([1.0]), MidpointConfig(1.0, 60))
        assert err.value.growth > 1e6


class TestEstimateLambdaMax:
    def test_symmetric_diagonal_example(self):
        A = sp.diags([-1.0, -2.0, -3.0]).tocsr()
        rep = estimate_lambda_max(A)
        assert rep.converged
        assert rep.sym_lambda_max == pytest.approx(-1.0, rel=1e-12)
        assert rep.rightmost_re == pytest.approx(-1.0, rel=1e-12)
        assert rep.re_lambda_max == pytest.approx(-3.0, rel=1e-12)

    def test_sparse_path_repeatable(self):
        # ARPACK starts from a fixed vector, so repeated calls in one
        # process agree exactly (experiment-2 grid, N above the dense cutoff)
        cfg = from_yaml(bundled_config_path("experiment2"))
        op = impose_boundaries(
            assemble_operator(cfg.grid(), cfg.model), cfg.boundary, cfg.option
        )
        assert op.n > DENSE_EIG_CUTOFF
        first = estimate_lambda_max(op)
        assert first.converged
        assert estimate_lambda_max(op) == first

    def test_large_sparse_path(self, rng):
        d = -np.linspace(1.0, 500.0, 2000)
        A = sp.diags(d).tocsr()
        rep = estimate_lambda_max(A)
        assert rep.converged
        assert rep.re_lambda_max == pytest.approx(-500.0, rel=1e-5)
        assert rep.sym_lambda_max == pytest.approx(-1.0, abs=1e-3)
