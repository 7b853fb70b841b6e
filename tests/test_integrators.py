import dataclasses
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fxhhw import integrators, runner
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
from fxhhw.operators import AssembledOperator, assemble_operator, impose_boundaries
from fxhhw.pricing import payoff_vector, price
from conftest import experiment1_model, experiment3_model, experiment_grid


def random_stable_sparse(rng, n=50, density=0.15, shift=3.0):
    A = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(1 << 31)))
    A = (A - A.T) * 0.5 + sp.diags(-shift - rng.random(n))
    return A.tocsr()


def split_into(monkeypatch, A, tau, substeps):
    """Set ``SUBSTEP_NORM`` so that tau * ||A||_1 splits into ``substeps``."""
    norm = float(spla.norm(A, 1))
    monkeypatch.setattr(integrators, "SUBSTEP_NORM", tau * norm / (substeps - 0.5))


class TestKrylovConfig:
    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-9, np.inf])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(InvalidArgumentError, match="tol must be positive"):
            KrylovConfig(tol=tol, dim=20)

    def test_two_settings(self):
        # The residual-check cadence is the module constant CHECK_EVERY.
        assert [f.name for f in dataclasses.fields(KrylovConfig)] == ["dim", "tol"]

    def test_every_violation_reported(self):
        with pytest.raises(InvalidArgumentError) as err:
            KrylovConfig(dim=0, tol=np.nan)
        assert len(err.value.violations) == 2

    @pytest.mark.parametrize("dim", [2.5, True])
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(InvalidArgumentError) as err:
            KrylovConfig(dim=dim)
        assert err.value.violations == [
            f"Krylov subspace dimension must be an integer, got {dim!r}"]


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
        # Every product runs on a view of A's own values and column indices.
        operands = []
        matmul = integrators._HeldRows.__matmul__

        def recording(self, z):
            operands.append(self.rows)
            return matmul(self, z)

        monkeypatch.setattr(integrators._HeldRows, "__matmul__", recording)
        A = random_stable_sparse(rng)
        for tau, substeps in ((0.37, 1), (2.0, 3)):
            split_into(monkeypatch, A, tau, substeps)
            cfg = KrylovConfig(dim=40, tol=1e-12)
            krylov_expm_action(A, rng.standard_normal(50), cfg, tau=tau)
        assert operands and all(np.shares_memory(M.data, A.data)
                                and np.shares_memory(M.indices, A.indices) for M in operands)

    @pytest.mark.parametrize("tau", [0.37, 1.0, 2.0])
    def test_substeps_follow_the_norm(self, rng, monkeypatch, tau):
        # Each step takes at most 110 Arnoldi steps: below this cap, every
        # short solve covers its whole tau / k.
        monkeypatch.setattr(integrators, "STEP_CAP", 200)
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

    @pytest.mark.parametrize("tau", [0.25, 0.5])
    def test_short_solves_stop_at_the_step_cap(self, rng, monkeypatch, tau):
        # Uncapped, the first short solve takes 110 steps.  Capped, every
        # basis stops at STEP_CAP and the short solves advance by dyadic
        # parts of tau / k (a power of two here, so every horizon is exact)
        # that sum to tau.
        steps, horizons = [], []
        arnoldi, arnoldi_expm = integrators._arnoldi, integrators._arnoldi_expm

        def counting(*args):
            for out in arnoldi(*args):
                steps[-1] += 1
                yield out

        def recording(*args):
            steps.append(0)
            out = arnoldi_expm(*args)
            horizons.append((args[3], out[1]))
            return out

        monkeypatch.setattr(integrators, "_arnoldi", counting)
        monkeypatch.setattr(integrators, "_arnoldi_expm", recording)
        d = -np.linspace(1.0, 2500.0, 200)
        v = rng.standard_normal(200)
        got = krylov_expm_action(sp.diags(d).tocsr(), v, KrylovConfig(tol=1e-12), tau=tau)
        np.testing.assert_allclose(got, np.exp(tau * d) * v, rtol=1e-10, atol=1e-12)
        assert max(steps) == integrators.STEP_CAP
        step = tau / math.ceil(tau * 2500.0 / integrators.SUBSTEP_NORM)
        assert horizons[0][0] == step and horizons[0][1] < 1
        parts = [Fraction(h) / Fraction(step) for h, _ in horizons]
        assert all(p.denominator & (p.denominator - 1) == 0 for p in parts)
        assert sum(Fraction(h) * Fraction(f) for h, f in horizons) == Fraction(tau)

    def test_solves_below_the_step_cap_keep_their_bits(self, rng, monkeypatch):
        # Three short solves of fewer than STEP_CAP steps each: the same
        # schedule and the same bits as with no step cap.
        op = impose_boundaries(
            assemble_operator(experiment_grid((8, 6, 4, 4)), experiment1_model()),
            "dirichlet", OptionSpec("call", 100.0, 1.0),
        )
        steps = []
        arnoldi = integrators._arnoldi

        def counting(*args):
            steps.append(0)
            for out in arnoldi(*args):
                steps[-1] += 1
                yield out

        monkeypatch.setattr(integrators, "_arnoldi", counting)
        A = op.matrix(0.0)
        split_into(monkeypatch, A, 1.0, 3)
        v = rng.standard_normal(A.shape[0])
        capped = krylov_expm_action(A, v, KrylovConfig(tol=1e-10))
        assert len(steps) == 3 and max(steps) < integrators.STEP_CAP
        monkeypatch.setattr(integrators, "STEP_CAP", 10**6)
        np.testing.assert_array_equal(capped, krylov_expm_action(A, v, KrylovConfig(tol=1e-10)))

    def test_no_fraction_resolved_at_the_step_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(integrators, "STEP_CAP", 5)
        monkeypatch.setattr(integrators, "HALVINGS", 2)
        A = sp.diags(-np.linspace(1.0, 2500.0, 200)).tocsr()
        message = "dimension 5 .* on 0.25 of its horizon at the step cap"
        with pytest.raises(KrylovConvergenceError, match=message) as err:
            krylov_expm_action(A, rng.standard_normal(200), KrylovConfig(tol=1e-12), tau=0.25)
        assert err.value.dim == 5 and err.value.residual > 0

    def test_experiment1_basis_stops_at_the_step_cap(self, monkeypatch):
        # Uncapped, this grid's one short solve takes 70 steps on a basis
        # reserved at krylov_dim + 1 = 601 rows.
        shapes = []
        arnoldi = integrators._arnoldi

        def recording(*args):
            for V, HT, j, hnext in arnoldi(*args):
                shapes.append((j + 2, V.shape))
                yield V, HT, j, hnext

        monkeypatch.setattr(integrators, "_arnoldi", recording)
        cfg = from_yaml(bundled_config_path("experiment1")).with_m((12, 8, 8, 8))
        op = runner.solve_field(cfg).operator
        rows = (integrators.STEP_CAP + 1, op.n - int(op.pinned.sum()) + 1)
        assert max(written for written, _ in shapes) == rows[0]
        assert {shape for _, shape in shapes} == {rows}

    def test_each_short_solve_logs_one_line(self, rng, caplog):
        caplog.set_level(logging.DEBUG, logger="fxhhw.integrators")
        A = sp.diags(-np.linspace(1.0, 2500.0, 200)).tocsr()
        v = rng.standard_normal(200)
        krylov_expm_action(A, v, KrylovConfig(tol=1e-12), tau=0.25)
        chebyshev_expm_action(A, v, 0.25)
        *arnoldi, chebyshev = [r.getMessage() for r in caplog.records]
        assert arnoldi[0].startswith("arnoldi: 50 steps, advanced 0.125 of tau/k, "
                                     "residual estimate ")
        parts = [re.fullmatch(r"arnoldi: \d+ steps, advanced (\S+) of tau/k, residual "
                              r"estimate \S+", line)[1] for line in arnoldi]
        assert sum(Fraction(p) for p in parts) == 1
        assert re.fullmatch(r"chebyshev: interval \[-2500, \S+\], tau 0.25, \d+ terms, "
                            r"rounding indicator \S+", chebyshev)

    @pytest.mark.parametrize("tau, substeps", [(1.0, 1), (0.37, 1), (1.0, 3)])
    def test_held_rows_return_their_input(self, monkeypatch, tau, substeps):
        # Experiment 1's Dirichlet rows are structurally empty: Arnoldi runs
        # on the free rows, and the pinned rows come back exactly as given.
        opt = OptionSpec("call", 100.0, 1.0)
        g = experiment_grid((6, 5, 4, 4))
        A = impose_boundaries(assemble_operator(g, experiment1_model()), "dirichlet",
                              opt).matrix(0.0)
        held = np.diff(A.indptr) == 0
        assert 0 < held.sum() < A.shape[0]
        if substeps > 1:
            split_into(monkeypatch, A, tau, substeps)
        calls = []
        arnoldi = integrators._arnoldi_expm
        monkeypatch.setattr(integrators, "_arnoldi_expm",
                            lambda *args: calls.append(args[0]) or arnoldi(*args))
        v = payoff_vector(g, opt)
        got = krylov_expm_action(A, v, KrylovConfig(dim=200, tol=1e-12), tau=tau)
        want = scipy.linalg.expm(tau * A.toarray()) @ v
        assert len(calls) == substeps
        assert all(M.shape[0] == A.shape[0] - held.sum() + 1 for M in calls)
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()
        np.testing.assert_array_equal(got[held], v[held])

    def test_basis_spans_only_the_free_rows(self, rng):
        # Half the rows empty: the basis reserved holds N/2 + 1 entries per
        # vector, not N.
        n, dim = 50_000, 20
        A = sp.diags([1e-4 * rng.random(n) for _ in range(5)], range(-2, 3),
                     shape=(n, n)).tocsr()
        A = (sp.diags((np.arange(n) % 2 == 0).astype(float)) @ A).tocsr()
        v = rng.standard_normal(n)
        tracemalloc.start()
        try:
            krylov_expm_action(A, v, KrylovConfig(dim=dim, tol=1e-6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (dim + 1) * (n // 2 + 1) * 8 < peak < (dim + 1) * n * 8

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

    def test_setup_makes_no_copy_of_the_matrix_values(self, rng):
        # ||A||_1 is summed over slices of A, so a small-dim solve holds
        # less than half of A's bytes beyond A itself.
        n = 50_000
        A = sp.diags([1e-4 * rng.random(n) for _ in range(21)], range(-10, 11),
                     shape=(n, n)).tocsr()
        v = rng.standard_normal(n)
        a_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        tracemalloc.start()
        try:
            krylov_expm_action(A, v, KrylovConfig(dim=2, tol=1e-6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.nnz > 1_000_000
        assert peak < 0.5 * a_bytes

    def test_norm_equals_scipy_bitwise(self, rng):
        # The sliced column sums add in A's storage order, as spla.norm does.
        for n, density in ((1, 1.0), (300, 0.05), (3000, 0.02)):
            A = sp.random(n, n, density=density, format="csr",
                          random_state=np.random.RandomState(rng.integers(1 << 31)))
            A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.uniform(-5, 5, A.nnz)
            assert integrators._norm_1(A) == float(spla.norm(A, 1))
        assert integrators._norm_1(sp.csr_matrix((4, 4))) == 0.0

    def test_default_dim_is_the_budget_cap(self, rng, monkeypatch):
        # (dim + 1) * N * 8 <= budget: 130 is the largest dim for N = 1000.
        # With the step cap above it, reaching dim raises.
        monkeypatch.setattr(integrators, "BASIS_BUDGET_BYTES", 2**20)
        monkeypatch.setattr(integrators, "STEP_CAP", 400)
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

    def test_field_and_prices_follow_the_tolerance(self):
        # README's bound for changes to the Arnoldi arithmetic: at tol, the
        # field lies within 10 * tol of a tol = 1e-12 solve (max norm,
        # relative to the field's largest entry) and each price within
        # 10 * tol relative.  This grid's field gap is about 0.1 * tol.
        cfg = from_yaml(bundled_config_path("experiment1")).with_m((14, 10, 8, 8))
        tol = KrylovConfig().tol
        fields = [price(cfg.model, cfg.option, cfg.grid(), solver="krylov",
                        boundary=cfg.boundary, krylov=KrylovConfig(tol=t))
                  for t in (tol, 1e-12)]
        got, ref = (f.values for f in fields)
        assert np.abs(got - ref).max() <= 10 * tol * np.abs(ref).max()
        for q in cfg.queries:
            v, want = (f.interpolate(q.point, method=cfg.interpolation) for f in fields)
            assert v == pytest.approx(want, rel=10 * tol, abs=0)

    def test_arnoldi_basis_orthonormal(self, rng):
        # The package's own loop: the basis rows it writes are orthonormal,
        # and A V_k = V_{k+1} H_k (V_k the k basis vectors as columns).
        A = random_stable_sparse(rng)
        v0 = rng.standard_normal(50)
        for V, HT, j, hnext in integrators._arnoldi(A, v0, 49, 1e-14):
            pass
        k = j + 1
        assert hnext > 1e-14  # no breakdown: k + 1 rows written
        Q = V[: k + 1]
        assert np.max(np.abs(Q @ Q.T - np.eye(k + 1))) < 1e-10
        np.testing.assert_allclose(A @ Q[:k].T, Q.T @ HT[:k].T, rtol=0, atol=1e-12)


class TestChebyshevExpmAction:
    def test_zero_matrix_returns_input(self, rng):
        v = rng.standard_normal(40)
        out = chebyshev_expm_action(sp.csr_matrix((40, 40)), v, 3.0)
        np.testing.assert_allclose(out, v, rtol=1e-14)

    @pytest.mark.parametrize("tau", [1.0, 0.37])
    def test_held_rows_return_their_input(self, tau):
        # The series carries a Dirichlet row only to rounding; the action
        # returns it from v bit for bit.
        opt = OptionSpec("call", 100.0, 1.0)
        g = experiment_grid((6, 5, 4, 4))
        A = impose_boundaries(assemble_operator(g, experiment1_model()), "dirichlet",
                              opt).matrix(0.0)
        held = np.diff(A.indptr) == 0
        assert 0 < held.sum() < A.shape[0]
        v = payoff_vector(g, opt)
        got = chebyshev_expm_action(A, v, tau)
        want = scipy.linalg.expm(tau * A.toarray()) @ v
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()
        np.testing.assert_array_equal(got[held], v[held])

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


# scipy.special, scipy.linalg and scipy.sparse.linalg cost about 3, 7.5 and
# 2 MB of resident memory and 20-100 ms each to import.
LAZY_SCIPY = ("scipy.special", "scipy.linalg", "scipy.sparse.linalg")
LINALG = ["scipy.linalg", "scipy.sparse.linalg"]


@pytest.mark.parametrize("call, loaded", [
    ("price(experiment1_model(), opt, grid, solver='auto')", []),
    ("price(experiment3_model(), opt, grid, solver='auto', delta_tau=0.005)", []),
    ("simulate_price(experiment1_model(), opt, McConfig(paths=1000))", []),
    ("price(experiment1_model(), opt, grid, solver='krylov')", ["scipy.linalg"]),
    ("estimate_lambda_max(sp.diags(-np.linspace(1.0, 500.0, 2000)).tocsr())", LINALG),
], ids=["auto-constant", "auto-time-dependent", "mc", "krylov", "lambda-max"])
def test_scipy_loaded_only_where_called(call, loaded):
    # In a fresh process: `import fxhhw` loads none of LAZY_SCIPY, and each
    # call runs and loads only the modules it needs.
    code = "\n".join([
        "import sys",
        "import numpy as np, scipy.sparse as sp",
        "from fxhhw import McConfig, OptionSpec, estimate_lambda_max, price, simulate_price",
        "from conftest import experiment1_model, experiment3_model, experiment_grid",
        "opt, grid = OptionSpec('call', 100.0, 0.25), experiment_grid((6, 5, 4, 4))",
        f"lazy = {LAZY_SCIPY!r}",
        "print([m for m in lazy if m in sys.modules])",
        call,
        "print([m for m in lazy if m in sys.modules])",
    ])
    paths = [str(Path(integrators.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", repr(loaded)]


@pytest.mark.parametrize("action", [krylov_expm_action, chebyshev_expm_action],
                         ids=["krylov", "chebyshev"])
@pytest.mark.parametrize("case", ["nan-in-v", "inf-in-A", "zero-v", "not-a-matrix"])
def test_expm_action_operand_rules(rng, action, case):
    # One operand check for both exp-actions: an A that is not a matrix and a
    # non-finite A or v are refused before any work, and a zero v maps to zeros.
    A = random_stable_sparse(rng, n=200, density=0.05)
    v = rng.standard_normal(200)
    if case == "zero-v":
        np.testing.assert_array_equal(action(A, np.zeros(200), tau=2.0), np.zeros(200))
        return
    if case == "not-a-matrix":
        with pytest.raises(InvalidArgumentError, match="A must be a matrix"):
            action(lambda tau: A, v, tau=2.0)
        with pytest.raises(InvalidArgumentError, match="A must be square"):
            action(A[:, :199], v, tau=2.0)
        return
    if case == "nan-in-v":
        v[17] = np.nan
    else:
        A.data[5] = np.inf
    with pytest.raises(InvalidArgumentError, match="A and v must be finite"):
        action(A, v, tau=2.0)


# Prints one digest per line: the V and HT of 40 Arnoldi steps on a sparse
# N = 20,000 matrix, then the Chebyshev action on the bundled experiment
# 3-const operator and payoff, then that operator's sym_lambda_max.
BLAS_THREADS_PROBE = """
import hashlib
import numpy as np, scipy.sparse as sp
from fxhhw import integrators
from fxhhw.config import bundled_config_path, from_yaml
from fxhhw.operators import assemble_operator, impose_boundaries
from fxhhw.pricing import payoff_vector

def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

n = 20_000
rng = np.random.default_rng(0)
A = sp.csr_matrix((rng.standard_normal(8 * n),
                   (np.repeat(np.arange(n), 8), rng.integers(0, n, 8 * n))), shape=(n, n))
for V, HT, j, _ in integrators._arnoldi(A, rng.standard_normal(n), 40, 0.0):
    pass
assert j == 39
print(digest(V, HT))
cfg = from_yaml(bundled_config_path("experiment3_const"))
grid = cfg.grid()
op = impose_boundaries(assemble_operator(grid, cfg.model, theta_mode=cfg.theta_mode),
                       cfg.boundary, cfg.option)
print(digest(integrators.chebyshev_expm_action(
    op.matrix(0.0), payoff_vector(grid, cfg.option), cfg.option.maturity)))
print(repr(integrators.estimate_lambda_max(op).sym_lambda_max))
"""


@pytest.fixture(scope="module")
def blas_thread_digests():
    """The probe's digests under OPENBLAS_NUM_THREADS = 1 and 2, each in a
    fresh process (the thread count is read once, when numpy loads)."""
    src = str(Path(integrators.__file__).parents[1])
    procs = [subprocess.Popen([sys.executable, "-c", BLAS_THREADS_PROBE],
                              env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for n in ("1", "2")]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outs.append(out.split())
    return outs


@pytest.mark.parametrize("line", [0, 1, 2], ids=["arnoldi", "chebyshev", "sym-lambda-max"])
def test_bits_do_not_depend_on_blas_threads(blas_thread_digests, line):
    # The Arnoldi loop's products and norms, the Chebyshev norms and the
    # Lanczos run's products and norms run on numpy's own loops, so the BLAS
    # thread count cannot move a bit.  (ARPACK's re_lambda_max can move.)
    one, two = blas_thread_digests
    assert one[line] == two[line]


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

    @pytest.mark.parametrize("horizon, delta_tau", [(1e308, 1e-3), (0.25, 1e-320),
                                                    (np.inf, 0.1)])
    def test_step_count_that_overflows_is_a_violation(self, horizon, delta_tau):
        message = (f"delta_tau {delta_tau} gives no finite step count over the "
                   f"horizon {horizon}")
        assert integrators.midpoint_step_violations(delta_tau, horizon) == [message]
        with pytest.raises(InvalidArgumentError) as err:
            MidpointConfig.from_horizon(horizon, delta_tau)
        assert err.value.violations == [message]

    def test_step_count_above_the_work_limit_is_a_violation(self):
        # 1.6e303 steps of a finite horizon are refused before any work.
        assert integrators.midpoint_step_violations(0.5, 0.5 * integrators.MIDPOINT_MAX_STEPS) == []
        message = ("delta_tau 0.000625 takes 1.6e+303 steps over the horizon 1e+300, "
                   "above the limit of 1,000,000")
        assert integrators.midpoint_step_violations(0.000625, 1e300) == [message]
        with pytest.raises(InvalidArgumentError) as err:
            MidpointConfig.from_horizon(1e300, 0.000625)
        assert err.value.violations == [message]

    @pytest.mark.parametrize("steps", [True, 2.5])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(InvalidArgumentError) as err:
            MidpointConfig(0.1, steps)
        assert err.value.violations == [f"steps must be an integer, got {steps!r}"]


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
        # A(tau) = a + theta_d(tau), theta_d(tau) = a1 - a2 exp(-a3 tau): a 1 x 1
        # operator whose theta_d part carries the time dependence.
        a, (a1, a2, a3), T = -0.8, (0.5, 1.3, 2.0), 1.0
        exact = np.exp(a * T + a1 * T - a2 * (1.0 - np.exp(-a3 * T)) / a3)
        A = AssembledOperator(
            base=sp.csr_matrix([[a]]),
            theta_parts=(sp.csr_matrix([[1.0]]), sp.csr_matrix([[0.0]])),
            grid=None, d1={},
            params=dataclasses.replace(experiment3_model(), theta_d_params=(a1, a2, a3)))
        assert A.is_time_dependent
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

    def test_dense_matrix_same_as_sparse(self, rng):
        M = rng.standard_normal((10, 10))
        A = -(M @ M.T) / 10.0 - np.eye(10)
        v = rng.standard_normal(10)
        cfg = MidpointConfig(0.125, 8)
        np.testing.assert_array_equal(modified_midpoint_solve(A, v, cfg),
                                      modified_midpoint_solve(sp.csr_matrix(A), v, cfg))

    @staticmethod
    def _operands():
        """Each matrix form of A, 3 x 3."""
        M = sp.diags([-1.0, -2.0, -3.0]).tocsr()
        return {"csr": M, "dense": M.toarray()}

    @pytest.mark.parametrize("form", ["csr", "dense"])
    @pytest.mark.parametrize("case, message", [
        ("nan-in-v", "must be finite"), ("short-v", "dimension mismatch"),
        ("callable-A", "A must be a matrix")])
    def test_operands_refused_before_the_first_step(self, form, case, message):
        M = self._operands()[form]
        # A(tau) given as a function is not a matrix.
        A = (lambda tau: M) if case == "callable-A" else M
        v = {"nan-in-v": np.array([1.0, np.nan, 1.0]), "short-v": np.ones(2)}.get(case, np.ones(3))
        with pytest.raises(InvalidArgumentError, match=message):
            modified_midpoint_solve(A, v, MidpointConfig(0.1, 10))

    def test_assembled_operator_operand_refused(self, rng):
        op = assemble_operator(experiment_grid((6, 5, 4, 4)), experiment1_model())
        with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
            modified_midpoint_solve(op, np.ones(op.n - 1), MidpointConfig(0.1, 10))
        v = rng.standard_normal(op.n)
        v[7] = np.inf
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            modified_midpoint_solve(op, v, MidpointConfig(0.1, 10))


class TestEstimateLambdaMax:
    def test_symmetric_diagonal_example(self):
        A = sp.diags([-1.0, -2.0, -3.0]).tocsr()
        rep = estimate_lambda_max(A)
        assert rep.converged
        assert rep.sym_lambda_max == pytest.approx(-1.0, rel=1e-12)
        assert rep.rightmost_re == pytest.approx(-1.0, rel=1e-12)
        assert rep.re_lambda_max == pytest.approx(-3.0, rel=1e-12)

    def test_sparse_path_repeatable(self):
        # ARPACK and Lanczos start from a fixed vector, so repeated calls in
        # one process agree exactly (experiment-2 grid, N above the dense cutoff)
        cfg = from_yaml(bundled_config_path("experiment2"))
        op = impose_boundaries(
            assemble_operator(cfg.grid(), cfg.model), cfg.boundary, cfg.option
        )
        assert op.n > DENSE_EIG_CUTOFF
        first = estimate_lambda_max(op)
        assert first.converged
        assert estimate_lambda_max(op) == first

    @pytest.mark.parametrize("m", [(6, 5, 4, 4), (12, 8, 6, 6)])
    def test_plain_matrix_gets_the_free_block(self, m):
        # The empty (pinned) rows and their columns leave the report whether
        # the operator or its matrix is given: dense and sparse paths.
        op = impose_boundaries(assemble_operator(experiment_grid(m), experiment1_model()),
                               "dirichlet", OptionSpec("call", 100.0, 1.0))
        M = op.matrix(0.0)
        free = np.flatnonzero(~op.pinned)
        assert 0 < op.pinned.sum() and (free.size <= DENSE_EIG_CUTOFF) == (m[0] == 6)
        rep = estimate_lambda_max(M)
        assert rep == estimate_lambda_max(op)
        assert rep == estimate_lambda_max(M[free][:, free])

    def test_large_sparse_path(self, rng):
        d = -np.linspace(1.0, 500.0, 2000)
        A = sp.diags(d).tocsr()
        rep = estimate_lambda_max(A)
        assert rep.converged
        assert rep.re_lambda_max == pytest.approx(-500.0, rel=1e-5)
        assert rep.sym_lambda_max == pytest.approx(-1.0, abs=1e-3)

    def test_unconverged_lanczos_reports_the_shifted_partial_value(self, monkeypatch):
        # Capped at 3 steps, the Lanczos run stops short of its residual rule
        # and reports its last top Ritz value: finite, and at or below the
        # top eigenvalue of the symmetric part, -1 here.
        monkeypatch.setattr(integrators, "EIG_MAXITER", 3)
        S = sp.diags(-np.linspace(1.0, 500.0, 2000)).tocsr()
        rep = estimate_lambda_max(S)
        assert not rep.converged
        assert math.isfinite(rep.sym_lambda_max) and rep.sym_lambda_max <= -1.0
        start = np.random.default_rng(0).standard_normal(2000)
        top, converged = integrators._lanczos_top(S, start, -500.0, 500.0)
        assert not converged and top == rep.sym_lambda_max

    @pytest.mark.parametrize("case", [(12, 8, 6, 6), (14, 10, 8, 8), "experiment2"],
                             ids=["exp1-12x8x6x6", "exp1-14x10x8x8", "experiment2"])
    def test_sparse_sym_lambda_max_meets_its_stated_accuracy(self, case):
        # The sparse path's top value of the free block's symmetric part lies
        # within 1e-7 * (lambda_max - lo) of dense eigvalsh, lo the Gershgorin
        # bound of the symmetric part.
        if case == "experiment2":
            cfg = from_yaml(bundled_config_path("experiment2"))
            op = impose_boundaries(assemble_operator(cfg.grid(), cfg.model), cfg.boundary,
                                   cfg.option)
        else:
            op = impose_boundaries(assemble_operator(experiment_grid(case), experiment1_model()),
                                   "dirichlet", OptionSpec("call", 100.0, 1.0))
        M = op.matrix(0.0)
        free = np.flatnonzero(np.diff(M.indptr) > 0)
        assert free.size > DENSE_EIG_CUTOFF
        F = M[free][:, free]
        S = (0.5 * (F + F.T)).tocsr()
        top = np.linalg.eigvalsh(S.toarray())[-1]
        lo = integrators._gershgorin_lo_and_norm(S)[0]
        rep = estimate_lambda_max(op)
        assert rep.converged
        assert abs(rep.sym_lambda_max - top) <= 1e-7 * (top - lo)
