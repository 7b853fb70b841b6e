import dataclasses
import functools
import operator
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fxhhw import operators
from fxhhw.errors import AssemblyError, ConfigError, InvalidArgumentError
from fxhhw.grids import AXES, Grid4D, uniform_grid
from fxhhw.integrators import estimate_lambda_max
from fxhhw.model import ModelParams, OptionSpec
from fxhhw.operators import (
    assemble_operator,
    face_masks,
    first_derivative_matrix,
    impose_boundaries,
    second_derivative_matrix,
    time_dependent_operator,
)
from fxhhw.config import bundled_config_path, from_yaml
from fxhhw.stencils import (
    boundary_first_row,
    boundary_second_row,
    first_weight_rows,
    near_boundary_second_row,
    second_weight_rows,
    shape_parameters,
)
from conftest import experiment1_model, experiment3_model, experiment_grid


def small_grid(m=(6, 5, 4, 4)):
    return experiment_grid(m)


AXES_RF_FIRST = ("rf", "rd", "v", "s")


def _field_shape(g):
    return g.shape[::-1]


def _outer4(vecs):
    """x_rf (x) x_rd (x) x_v (x) x_s as an (m4, m3, m2, m1) array."""
    return np.einsum("a,b,c,d->abcd", *vecs)


def _oracle_axis_matrices(g):
    """Per axis: identity, first- and second-derivative matrix (order 0, 1, 2)."""
    shapes = shape_parameters(g)
    out = {}
    for ax in AXES_RF_FIRST:
        nodes, c = g.axis_nodes(ax), shapes[ax]
        out[ax] = (
            sp.identity(nodes.size, format="csr"),
            first_derivative_matrix(nodes, c),
            second_derivative_matrix(nodes, c),
        )
    return out


def _pde_terms(g, p, tau):
    """(coefficient field, derivative orders in (s, v, rd, rf)) of the PDE at tau."""
    s = g.s_nodes[None, None, None, :]
    v = g.v_nodes[None, None, :, None]
    rd = g.rd_nodes[None, :, None, None]
    rf = g.rf_nodes[:, None, None, None]
    sqv = np.sqrt(v)
    th_d, th_f = (a1 - a2 * np.exp(-a3 * tau)
                  for a1, a2, a3 in (p.theta_d_params, p.theta_f_params))
    return [
        (0.5 * s**2 * v, (2, 0, 0, 0)),
        (0.5 * p.gamma**2 * v, (0, 2, 0, 0)),
        (0.5 * p.eta_d**2, (0, 0, 2, 0)),
        (0.5 * p.eta_f**2, (0, 0, 0, 2)),
        (p.rho_sv * p.gamma * s * v, (1, 1, 0, 0)),
        (p.rho_sd * p.eta_d * s * sqv, (1, 0, 1, 0)),
        (p.rho_sf * p.eta_f * s * sqv, (1, 0, 0, 1)),
        (p.rho_vd * p.gamma * p.eta_d * sqv, (0, 1, 1, 0)),
        (p.rho_vf * p.gamma * p.eta_f * sqv, (0, 1, 0, 1)),
        (p.rho_df * p.eta_d * p.eta_f, (0, 0, 1, 1)),
        ((rd - rf) * s, (1, 0, 0, 0)),
        (p.kappa * (p.vbar - v), (0, 1, 0, 0)),
        (p.lambda_d * (th_d - rd), (0, 0, 1, 0)),
        (p.lambda_f * (th_f - rf) - p.rho_sf * p.eta_f * sqv, (0, 0, 0, 1)),
        (-rd, (0, 0, 0, 0)),
    ]


class TestFirstDerivativeMatrix:
    def test_uniform_fd_limit_is_central(self):
        nodes = np.linspace(0.0, 1.0, 6)
        h = 0.2
        A = first_derivative_matrix(nodes, None).toarray()
        for i in range(1, 5):
            np.testing.assert_allclose(
                A[i, i - 1 : i + 2], [-1 / (2 * h), 0.0, 1 / (2 * h)], atol=1e-12
            )
        np.testing.assert_allclose(A[0, :2], [-1 / h, 1 / h], atol=1e-12)
        np.testing.assert_allclose(A[-1, -2:], [-1 / h, 1 / h], atol=1e-12)

    def test_row_pattern(self):
        nodes = np.sort(np.r_[0.0, np.cumsum([0.5, 0.3, 0.8, 0.4])])
        A = first_derivative_matrix(nodes, 10.0).tocsr()
        counts = np.diff(A.indptr)
        assert counts[0] == 2 and counts[-1] == 2
        assert np.all(counts[1:-1] == 3)

    def test_recovers_linear_function(self):
        # 5-node non-uniform axis: derivative of f = x recovered with the
        # documented h^2/c^2 defect on interior rows.
        nodes = np.array([0.0, 0.4, 0.7, 1.3, 1.6])
        c = 50.0
        A = first_derivative_matrix(nodes, c)
        d = A @ nodes
        np.testing.assert_allclose(d[1:-1], 1.0, rtol=1e-3)

    def test_interior_refinement_sweep(self):
        errs = []
        for m in (17, 33, 65):
            x = np.linspace(0.0, 1.0, m) ** 1.5  # non-uniform
            A = first_derivative_matrix(x, 10.0 * (m - 1))
            err = np.max(np.abs((A @ np.sin(x))[1:-1] - np.cos(x)[1:-1]))
            errs.append(err)
        rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert np.mean(rates) >= 1.8

    def test_needs_three_nodes(self):
        with pytest.raises(InvalidArgumentError):
            first_derivative_matrix(np.array([0.0, 1.0]), 5.0)


class TestSecondDerivativeMatrix:
    def test_uniform_fd_limit_rows(self):
        nodes = np.linspace(0.0, 1.0, 6)
        h = 0.2
        A = second_derivative_matrix(nodes, None).toarray()
        # interior four-node rows degenerate to the central three-point one
        for i in range(2, 5):
            np.testing.assert_allclose(
                A[i, i - 2 : i + 2], [0.0, 1 / h**2, -2 / h**2, 1 / h**2], atol=1e-9
            )
        np.testing.assert_allclose(A[1, :3], [1 / h**2, -2 / h**2, 1 / h**2], atol=1e-9)
        assert np.all(A[0] == 0.0) and np.all(A[-1] == 0.0)

    def test_interior_rows_match_classical_in_wide_limit(self):
        nodes = np.array([0.0, 0.35, 0.6, 1.1, 1.45, 1.8])
        A = second_derivative_matrix(nodes, 1e7).tocsr()
        d = np.diff(nodes)
        for i in range(2, 5):
            h = d[i - 1]
            w = second_weight_rows(h, (nodes[i] - nodes[i - 2]) / h, d[i] / h)
            np.testing.assert_allclose(
                A[i].toarray().ravel()[i - 2 : i + 2], w, rtol=1e-5,
                atol=1e-10 * np.abs(w).max(),
            )

    def test_nonzero_counts(self):
        nodes = np.sort(np.r_[0.0, np.cumsum([0.5, 0.3, 0.8, 0.4, 0.6])])
        A = second_derivative_matrix(nodes, 12.0).tocsr()
        counts = np.diff(A.indptr)
        assert counts[0] == 2 and counts[-1] == 2
        assert counts[1] == 3
        assert np.all(counts[2:-1] == 4)

    def test_end_row_weight_pair(self):
        nodes = np.linspace(0.0, 2.0, 7)
        c = 3.0
        A = second_derivative_matrix(nodes, c).toarray()
        np.testing.assert_allclose(A[0, :2], [-4 / c**2, 2 / c**2], rtol=1e-14)
        np.testing.assert_allclose(A[-1, -2:], [-4 / c**2, 2 / c**2], rtol=1e-14)

    def test_quadratic_refinement_sweep(self):
        errs = []
        for m in (17, 33, 65):
            x = np.linspace(0.0, 1.0, m) ** 1.3
            A = second_derivative_matrix(x, 10.0 * (m - 1))
            err = np.max(np.abs((A @ (x * x))[2:-1] - 2.0))
            errs.append(err)
        rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert np.mean(rates) >= 1.8

    def test_needs_four_nodes(self):
        with pytest.raises(InvalidArgumentError):
            second_derivative_matrix(np.array([0.0, 1.0, 2.0]), 5.0)


class TestVectorizedRows:
    @pytest.mark.parametrize("axis", ["s", "v", "rd", "rf"])
    @pytest.mark.parametrize("fd", [False, True])
    def test_interior_rows_equal_weight_sets_bitwise(self, axis, fd):
        # The matrix builders evaluate the closed forms on arrays; every
        # interior row must equal the row function at that one geometry.
        g = experiment_grid((28, 20, 14, 14))
        x = g.axis_nodes(axis)
        c = None if fd else shape_parameters(g)[axis]
        A1 = first_derivative_matrix(x, c).toarray()
        A2 = second_derivative_matrix(x, c).toarray()
        d = np.diff(x)
        for i in range(1, x.size - 1):
            h, w = d[i - 1], d[i] / d[i - 1]
            assert np.array_equal(A1[i, i - 1 : i + 2], first_weight_rows(h, w, c))
        for i in range(2, x.size - 1):
            h = d[i - 1]
            wm, wp = (x[i] - x[i - 2]) / h, d[i] / h
            assert np.array_equal(A2[i, i - 2 : i + 2], second_weight_rows(h, wm, wp, c))

    @pytest.mark.parametrize("fd", [False, True])
    def test_end_rows_and_row_two_equal_row_functions_bitwise(self, fd):
        x = experiment_grid((28, 20, 14, 14)).s_nodes
        c = None if fd else 2.0 * float(np.max(np.diff(x)))
        A1 = first_derivative_matrix(x, c).toarray()
        A2 = second_derivative_matrix(x, c).toarray()
        d = np.diff(x)
        assert np.array_equal(A1[0, :2], boundary_first_row(d[0], c))
        assert np.array_equal(A1[-1, -2:], boundary_first_row(d[-1], c))
        assert np.array_equal(A2[1, :3], near_boundary_second_row(d[0], d[1], c))
        ends = np.zeros(2) if fd else boundary_second_row(c)
        assert np.array_equal(A2[0, :2], ends)
        assert np.array_equal(A2[-1, -2:], ends)

    @pytest.mark.parametrize("c", [10.0, None])
    @pytest.mark.parametrize("builder", [first_derivative_matrix, second_derivative_matrix])
    def test_degenerate_step_ratio_rejected(self, builder, c):
        # increments pass the degeneracy check, but one step ratio is 1e-9
        nodes = np.array([0.0, 1.0, 2.0, 2.0 + 1e-9, 3.0, 4.0])
        with pytest.raises(InvalidArgumentError):
            builder(nodes, c)

    @pytest.mark.parametrize("builder", [first_derivative_matrix, second_derivative_matrix])
    def test_shape_below_step_rejected(self, builder):
        with pytest.raises(InvalidArgumentError):
            builder(np.linspace(0.0, 1.0, 6), 0.1)

    def test_shape_below_an_end_step_accepted(self):
        # c is held to the interior stencils' steps only: the last gap of
        # the first-derivative axis and the first gap of the second-derivative
        # axis may exceed it.
        A1 = first_derivative_matrix(np.array([0.0, 1.0, 2.0, 10.0]), 5.0).toarray()
        np.testing.assert_allclose(A1[-1, -2:], [8.0 / 25.0 - 1.0 / 8.0, 1.0 / 8.0])
        A2 = second_derivative_matrix(np.array([0.0, 8.0, 9.0, 10.0, 11.0]), 5.0)
        assert np.all(np.isfinite(A2.data))

    def test_row_two_ratio_floor_binds_the_closed_form_only(self):
        # On four nodes only row 2 sees the gap ratio d[1]/d[0]; its closed
        # form is written in that ratio, its FD limit in the two gaps.
        nodes = np.array([0.0, 1.0, 1.0 + 1e-9, 2.0])
        with pytest.raises(InvalidArgumentError):
            second_derivative_matrix(nodes, 10.0)
        A = second_derivative_matrix(nodes, None).toarray()
        assert np.all(np.isfinite(A))


class TestKroneckerComposition:
    def test_mixed_derivative_on_separable_function(self):
        g = small_grid()
        par = experiment1_model()
        op = assemble_operator(g, par)
        # rebuild the s-v mixed factor directly and compare actions
        m1, m2, m3, m4 = g.shape
        shapes = shape_parameters(g)
        M1s = first_derivative_matrix(g.s_nodes, shapes["s"])
        M1v = first_derivative_matrix(g.v_nodes, shapes["v"])
        D_sv = sp.kron(
            sp.kron(sp.identity(m4), sp.identity(m3)), sp.kron(M1v, M1s)
        ).tocsr()
        fs = np.sin(g.s_nodes / 500.0)
        gv = np.cos(g.v_nodes)
        F = np.tile(np.outer(gv, fs).ravel(), m3 * m4)
        expect = np.tile(np.outer(M1v @ gv, M1s @ fs).ravel(), m3 * m4)
        got = D_sv @ F
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)

    def test_heston_block_matches_independent_2d_assembly(self):
        # zero correlations, negligible rate vol/mean reversion: each
        # (rd, rf) slice must equal a directly assembled 2D Heston operator.
        g = small_grid()
        m1, m2, m3, m4 = g.shape
        base = experiment1_model()
        par = ModelParams(
            **{
                **base.__dict__,
                "eta_d": 1e-30,
                "eta_f": 1e-30,
                "lambda_d": 0.0,
                "lambda_f": 0.0,
                "correlation": np.eye(4),
            }
        )
        op = assemble_operator(g, par)
        A = op.matrix(0.0).toarray()

        shapes = shape_parameters(g)
        M1s = first_derivative_matrix(g.s_nodes, shapes["s"]).toarray()
        M2s = second_derivative_matrix(g.s_nodes, shapes["s"]).toarray()
        M1v = first_derivative_matrix(g.v_nodes, shapes["v"]).toarray()
        M2v = second_derivative_matrix(g.v_nodes, shapes["v"]).toarray()

        k_rd, k_rf = 1, 2
        rd = g.rd_nodes[k_rd]
        rf = g.rf_nodes[k_rf]
        n2 = m1 * m2
        H = np.zeros((n2, n2))
        for iv in range(m2):
            for i_s in range(m1):
                row = i_s + m1 * iv
                s = g.s_nodes[i_s]
                v = g.v_nodes[iv]
                for js in range(m1):
                    H[row, js + m1 * iv] += 0.5 * s * s * v * M2s[i_s, js]
                    H[row, js + m1 * iv] += (rd - rf) * s * M1s[i_s, js]
                for jv in range(m2):
                    H[row, i_s + m1 * jv] += 0.5 * par.gamma**2 * v * M2v[iv, jv]
                    H[row, i_s + m1 * jv] += par.kappa * (par.vbar - v) * M1v[iv, jv]
                H[row, row] += -rd
        offset = m1 * m2 * (k_rd + m3 * k_rf)
        idx = offset + np.arange(n2)
        block = A[np.ix_(idx, idx)]
        np.testing.assert_allclose(block, H, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("model", [experiment1_model, experiment3_model])
    def test_full_operator_matches_dense_oracle(self, model):
        # All six correlations nonzero; the oracle sums diag(coefficient
        # field) @ kron(1D matrices) densely, term by term in PDE form.
        g = small_grid()
        par = model()
        op = assemble_operator(g, par)
        d = _oracle_axis_matrices(g)
        for tau in (0.0, 0.3):
            A = op.matrix(tau)
            B = np.zeros(A.shape)
            for coef, orders in _pde_terms(g, par, tau):
                f = [d[ax][k].toarray() for ax, k in zip(AXES_RF_FIRST, orders[::-1])]
                K = np.kron(np.kron(np.kron(f[0], f[1]), f[2]), f[3])
                B += np.broadcast_to(coef, _field_shape(g)).reshape(-1)[:, None] * K
            scale = np.abs(B).sum(axis=1, keepdims=True)
            assert np.all(np.abs(A.toarray() - B) <= 1e-12 * scale)
            assert A.nnz == np.count_nonzero(B)

    @pytest.mark.parametrize("name", ["experiment1", "experiment2", "experiment3"])
    def test_separable_action_matches_oracle(self, name, rng):
        # A (x_rf (x) x_rd (x) x_v (x) x_s) is a sum of outer products of 1D
        # mat-vecs, each scaled by its coefficient field; row-scaled bound.
        cfg = from_yaml(bundled_config_path(name))
        g = cfg.grid()
        op = assemble_operator(g, cfg.model, theta_mode=cfg.theta_mode)
        d = _oracle_axis_matrices(g)
        for tau in (0.0, 0.2, 0.45):
            A = op.matrix(tau)
            absA = abs(A)
            for _ in range(3):
                xs = {ax: rng.standard_normal(len(g.axis_nodes(ax))) for ax in AXES_RF_FIRST}
                x = _outer4([xs[ax] for ax in AXES_RF_FIRST])
                y = np.zeros(_field_shape(g))
                for coef, orders in _pde_terms(g, cfg.model, tau):
                    y += coef * _outer4(
                        [d[ax][k] @ xs[ax] for ax, k in zip(AXES_RF_FIRST, orders[::-1])]
                    )
                got = A @ x.reshape(-1)
                bound = 1e-12 * (absA @ np.abs(x.reshape(-1)))
                assert np.all(np.abs(got - y.reshape(-1)) <= bound)

    def test_near_zero_coefficients_give_near_zero_operator(self):
        # All diffusions/drifts vanish and the rate axes collapse to ~0, so
        # every coefficient field tends to zero.
        g = Grid4D(
            s_nodes=np.linspace(0.0, 2.0, 5),
            v_nodes=np.linspace(0.0, 1e-9, 5),
            rd_nodes=np.linspace(-1e-9, 1e-9, 4),
            rf_nodes=np.linspace(-1e-9, 1e-9, 4),
        )
        base = experiment1_model()
        par = ModelParams(
            **{
                **base.__dict__,
                "kappa": 1e-160,
                "gamma": 1e-160,
                "eta_d": 1e-160,
                "eta_f": 1e-160,
                "vbar": 0.0,
                "lambda_d": 0.0,
                "lambda_f": 0.0,
                "theta_d_params": (0.0, 0.0, 0.0),
                "theta_f_params": (0.0, 0.0, 0.0),
                "correlation": np.eye(4),
            }
        )
        op = assemble_operator(g, par)
        A = op.matrix(0.0)
        if A.nnz:
            assert np.max(np.abs(A.data)) < 1e-5


class TestAssembledOperator:
    def test_sparsity_linear_in_n(self):
        # Structural bound: 13 axis-aligned positions + 4 new corners per
        # mixed term = 37 distinct columns per interior row.
        for m in [(6, 5, 4, 4), (8, 6, 6, 6)]:
            g = experiment_grid(m)
            op = assemble_operator(g, experiment1_model())
            assert op.nnz <= 37 * g.n

    def test_time_independent_thetas_fold(self, par1):
        g = small_grid()
        op = assemble_operator(g, par1, theta_mode="time_dependent")
        assert not op.is_time_dependent
        A1 = op.matrix(0.3)
        A2 = op.matrix(0.9)
        assert (A1 != A2).nnz == 0

    def test_constant_levels_fold_alike_in_both_modes(self, par1):
        # Constant levels take their tau = 1 value at every tau, so both
        # theta modes fold them into the same base, bit for bit.
        g = small_grid()
        td, ca = (assemble_operator(g, par1, theta_mode=mode).base
                  for mode in ("time_dependent", "constant_approx"))
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(td, part), getattr(ca, part))

    def test_time_dependent_thetas_vary(self, par3):
        g = small_grid()
        op = assemble_operator(g, par3, theta_mode="time_dependent")
        assert op.is_time_dependent
        assert (op.matrix(0.0) != op.matrix(0.25)).nnz > 0

    def test_constant_approx_folds(self, par3, rng):
        # the constant levels are the tau=1 evaluation, so the folded matrix
        # is the time-dependent operator's A(1)
        g = small_grid()
        op = assemble_operator(g, par3, theta_mode="constant_approx")
        assert not op.is_time_dependent
        A1 = assemble_operator(g, par3, theta_mode="time_dependent").matrix(1.0)
        A = op.matrix(0.0)
        for _ in range(3):
            x = rng.standard_normal(g.n)
            bound = 1e-12 * (abs(A1) @ np.abs(x))
            assert np.all(np.abs(A @ x - A1 @ x) <= bound)

    def test_matvec_agrees_with_matrix(self, par3):
        g = small_grid()
        op = assemble_operator(g, par3)
        x = np.sin(np.arange(g.n))
        for tau in (0.0, 0.17):
            np.testing.assert_allclose(
                op.matvec(x, tau), op.matrix(tau) @ x, rtol=1e-10, atol=1e-14
            )

    def test_operator_near_annihilates_constants_with_abc(self, par1):
        # With ABC rows and the source removed, A applied to a constant field
        # leaves only the small one-sided boundary-row residuals.
        g = experiment_grid((8, 6, 6, 6))
        base = experiment1_model()
        par = ModelParams(**{**base.__dict__})
        op = assemble_operator(g, par)
        opb = impose_boundaries(op, "abc", OptionSpec("call", 100.0, 1.0))
        ones = np.ones(g.n)
        # add back the source to cancel it: A*1 + r_d must be boundary-sized
        rd_field = np.tile(np.repeat(g.rd_nodes, g.shape[0] * g.shape[1]), g.shape[3])
        resid = opb.matvec(ones, 0.0) + rd_field
        masks = face_masks(g)
        interior = ~(
            masks["s_lo"] | masks["s_hi"] | masks["v_lo"] | masks["v_hi"]
            | masks["rd_lo"] | masks["rd_hi"] | masks["rf_lo"] | masks["rf_hi"]
        )
        assert np.max(np.abs(resid[interior])) < 1e-8
        # boundary rows contribute O(h/c^2)-scale residuals from the
        # one-sided pairs, amplified by the local convection coefficients
        assert np.max(np.abs(resid)) < 10.0


def _kron_reference(g, par, theta_mode, fd_limit):
    """(A0, (Bd, Bf) or None) as the Kronecker assembly formed them: each row
    of ``_term_table`` is scale * (F_rf kron F_rd kron F_v kron F_s), the rows
    add in order, and a folded operator is A0 + theta_d(1)*Bd + theta_f(1)*Bf."""
    c = dict.fromkeys(AXES) if fd_limit else shape_parameters(g)
    D1 = {ax: first_derivative_matrix(g.axis_nodes(ax), c[ax]) for ax in AXES}
    D2 = {ax: second_derivative_matrix(g.axis_nodes(ax), c[ax]) for ax in AXES}

    def term(scale, factors):
        out = None
        for ax in AXES[::-1]:
            f = factors.get(ax, sp.identity(g.axis_nodes(ax).size, format="csr"))
            out = f if out is None else sp.kron(out, f, format="csr")
        return scale * out

    base, Bd, Bf = (functools.reduce(operator.add, (term(*row) for row in rows))
                    for rows in operators._term_table(g, par, D1, D2).values())
    if time_dependent_operator(theta_mode, par.theta_d_params, par.theta_f_params):
        return base, (Bd, Bf)
    th_d, th_f = par.levels(1.0)
    return base + float(th_d) * Bd + float(th_f) * Bf, None


def _band_cases(test):
    """The 36 assembly cases: grid x (model, theta_mode) x fd_limit x mode."""
    for mark in reversed([
        pytest.mark.parametrize("grid", [
            lambda: experiment_grid((6, 5, 4, 4)),
            lambda: experiment_grid((9, 7, 5, 6)),
            lambda: uniform_grid((8, 6, 5, 5), 1400.0),
        ], ids=["stretched-6544", "stretched-9756", "uniform-8655"]),
        pytest.mark.parametrize("model, theta_mode", [
            (experiment1_model, "time_dependent"),
            (experiment3_model, "time_dependent"),
            (experiment3_model, "constant_approx"),
        ], ids=["constant-levels", "time-dependent", "constant-approx"]),
        pytest.mark.parametrize("fd_limit", [False, True], ids=["rbf", "fd"]),
        pytest.mark.parametrize("mode", ["dirichlet", "abc"]),
    ]):
        test = mark(test)
    return test


def _operator_bytes(op):
    return sum(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
               for M in (op.base, *(op.theta_parts or ())))


class TestBandAssembly:
    @_band_cases
    def test_bands_equal_the_kronecker_sum_bitwise(self, grid, model, theta_mode,
                                                     fd_limit, mode):
        g, par = grid(), model()
        op = assemble_operator(g, par, theta_mode=theta_mode, fd_limit=fd_limit)
        base, parts = _kron_reference(g, par, theta_mode, fd_limit)
        ref = dataclasses.replace(op, base=base, theta_parts=parts)
        opt = OptionSpec("call", 100.0, 1.0)
        # As assembled, and after the boundary rows.
        for got, want in [(op, ref), [impose_boundaries(o, mode, opt) for o in (op, ref)]]:
            assert got.is_time_dependent == want.is_time_dependent
            for A, B in zip((got.base, *(got.theta_parts or ())),
                            (want.base, *(want.theta_parts or ()))):
                assert A.indices.dtype == np.int32 and A.has_sorted_indices
                A, B = A.copy(), B.copy()
                A.eliminate_zeros()
                B.eliminate_zeros()
                for part in ("data", "indices", "indptr"):
                    np.testing.assert_array_equal(getattr(A, part), getattr(B, part))

    @_band_cases
    def test_rows_pinned_while_written_equal_rows_emptied_after(
            self, grid, model, theta_mode, fd_limit, mode):
        g, par = grid(), model()
        opt = OptionSpec("call", 100.0, 1.0)
        got, want = (impose_boundaries(
            assemble_operator(g, par, theta_mode=theta_mode, fd_limit=fd_limit,
                              boundary=boundary), mode, opt)
            for boundary in (mode, None))
        np.testing.assert_array_equal(got.pinned, want.pinned)
        for A, B in zip((got.base, *(got.theta_parts or ())),
                        (want.base, *(want.theta_parts or ()))):
            for part in ("data", "indices", "indptr"):
                a, b = getattr(A, part), getattr(B, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_assembly_peak_stays_near_its_output(self):
        # The Kronecker sums held 3.5 times the returned matrix at their peak,
        # one accumulator over all N rows 1.9 times.
        cfg = from_yaml(bundled_config_path("experiment1"))
        g = cfg.grid()
        tracemalloc.start()
        try:
            op = assemble_operator(g, cfg.model, theta_mode=cfg.theta_mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * _operator_bytes(op)

    @pytest.mark.parametrize("name", ["experiment1", "experiment3"])
    def test_pricing_path_peak_stays_near_its_output(self, name):
        # Assembly and boundary rows as price runs them.  Writing every row
        # and then copying the operator without its pinned rows peaked at
        # 2.7 (experiment 1) and 3.2 (experiment 3) times the result.
        cfg = from_yaml(bundled_config_path(name))
        g = cfg.grid()
        tracemalloc.start()
        try:
            op = impose_boundaries(
                assemble_operator(g, cfg.model, theta_mode=cfg.theta_mode,
                                  boundary=cfg.boundary), cfg.boundary, cfg.option)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.pinned.any()
        assert peak <= 1.5 * _operator_bytes(op)


class TestImposeBoundaries:
    def test_dirichlet_pins_faces_except_v0(self, par1, call_1y):
        g = small_grid()
        op = impose_boundaries(assemble_operator(g, par1), "dirichlet", call_1y)
        masks = face_masks(g)
        expected = (
            masks["s_lo"] | masks["s_hi"] | masks["v_hi"]
            | masks["rd_lo"] | masks["rd_hi"] | masks["rf_lo"] | masks["rf_hi"]
        )
        np.testing.assert_array_equal(op.pinned, expected)
        A = op.matrix(0.0)
        rows = np.flatnonzero(expected)
        assert np.all(np.diff(A.tocsr()[rows].indptr) == 0)
        # v=0 rows keep the degenerate PDE
        v0_rows = np.flatnonzero(masks["v_lo"] & ~expected)
        assert np.all(np.diff(A.tocsr()[v0_rows].indptr) > 0)

    def test_pinned_matrix_is_singular(self, par1, call_1y):
        g = small_grid()
        op = impose_boundaries(assemble_operator(g, par1), "dirichlet", call_1y)
        A = op.matrix(0.0).toarray()
        assert np.linalg.matrix_rank(A) < g.n

    def test_abc_keeps_all_rows(self, par1, put_2y):
        g = small_grid()
        op0 = assemble_operator(g, par1)
        op = impose_boundaries(op0, "abc", put_2y)
        assert not op.pinned.any()
        assert (op.matrix(0.0) != op0.matrix(0.0)).nnz == 0

    @pytest.mark.parametrize("mode", ["dirichlet", "abc"])
    def test_theta_parts_follow_the_boundary_rows(self, par3, mode):
        # Every outer face but v=0 is pinned (dirichlet): A(tau) there is the
        # zero row at every tau.  abc keeps the PDE rows, theta entries included.
        g = small_grid()
        op0 = assemble_operator(g, par3)
        op = impose_boundaries(op0, mode, OptionSpec("call", 100.0, 0.25))
        assert op.is_time_dependent
        rows = np.logical_or.reduce([m for f, m in face_masks(g).items() if f != "v_lo"])
        for tau in (0.0, 0.1, 0.25):
            theta_rows = (op.matrix(tau) - op.base).tocsr()[rows]
            if mode == "abc":
                want = (op0.matrix(tau) - op0.base).tocsr()[rows]
                assert want.count_nonzero() > 0
                assert (theta_rows != want).nnz == 0
            else:
                assert theta_rows.count_nonzero() == 0

    def test_rows_empty_as_assembled_come_back_uncopied(self, par3, call_1y):
        g = small_grid()
        op0 = assemble_operator(g, par3, boundary="dirichlet")
        op = impose_boundaries(op0, "dirichlet", call_1y)
        assert op.pinned.any() and op.is_time_dependent
        for A, B in zip((op.base, *op.theta_parts), (op0.base, *op0.theta_parts)):
            assert np.shares_memory(A.data, B.data)
            assert np.shares_memory(A.indices, B.indices)

    def test_rows_holding_entries_are_emptied_in_order(self, par3, call_1y):
        g = small_grid()
        op0 = assemble_operator(g, par3)
        op = impose_boundaries(op0, "dirichlet", call_1y)
        for A, B in zip((op.base, *op.theta_parts), (op0.base, *op0.theta_parts)):
            counts = np.diff(A.indptr)
            assert np.diff(B.indptr)[op.pinned].any()
            assert not counts[op.pinned].any()
            assert A.has_sorted_indices
            same_row = np.repeat(np.arange(g.n), counts)
            assert np.all(np.diff(A.indices)[np.diff(same_row) == 0] > 0)
            free = sp.csr_matrix(B.multiply((~op.pinned)[:, None]))
            assert (A != free).nnz == 0

    def test_non_finite_entry_in_a_pinned_row_still_raises(self, par1, monkeypatch):
        # An infinite coefficient on the s = 0 face reaches only rows that
        # dirichlet pins; the assembly check still sees it.
        g = small_grid()
        table = operators._term_table

        def with_infinite_face(grid, *args):
            out = table(grid, *args)
            coef = np.zeros(grid.shape[0])
            coef[0] = np.inf
            out["base"].append((1.0, {"s": sp.diags(coef)}))
            return out

        monkeypatch.setattr(operators, "_term_table", with_infinite_face)
        for boundary in ("dirichlet", None):
            with pytest.raises(AssemblyError, match="non-finite entries"):
                assemble_operator(g, par1, boundary=boundary)

    def test_unknown_mode_rejected_at_assembly(self, par1):
        with pytest.raises(InvalidArgumentError, match="boundary must be one of"):
            assemble_operator(small_grid(), par1, boundary="robin")

    def test_put_with_pinning_mode_rejected(self, par1, put_2y):
        g = small_grid()
        op = assemble_operator(g, par1)
        with pytest.raises(ConfigError, match="pins s=0"):
            impose_boundaries(op, "dirichlet", put_2y)

    def test_unknown_mode_rejected(self, par1, call_1y):
        op = assemble_operator(small_grid(), par1)
        for mode in ("robin", "neumann_flux"):
            with pytest.raises(ConfigError, match="boundary must be one of"):
                impose_boundaries(op, mode, call_1y)


class TestSpectralDiagnosticsOnBenchmarkGrid:
    def test_dominant_eigenvalue_matches_benchmark_scale(self, par1, call_1y):
        g = experiment_grid((10, 8, 6, 6))
        op = impose_boundaries(assemble_operator(g, par1), "dirichlet", call_1y)
        rep = estimate_lambda_max(op)
        assert rep.converged
        assert -296.29 * 2 < rep.re_lambda_max < -296.29 / 2
        # the actual evolution is stable even though sym(A) is indefinite
        assert rep.rightmost_re is not None and rep.rightmost_re < 0
