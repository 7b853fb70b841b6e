import numpy as np
import pytest
import scipy.sparse as sp

from fxhhw.errors import InvalidArgumentError
from fxhhw.grids import uniform_grid
from fxhhw.operators import (
    assemble_operator,
    first_derivative_matrix,
    second_derivative_matrix,
)
from conftest import experiment1_model


class TestFdkmConfig:
    def test_rejects_small_axes(self):
        with pytest.raises(InvalidArgumentError):
            uniform_grid((3, 6, 6, 6), 1400.0)

    @pytest.mark.parametrize("m, message", [
        ((5.9, 4, 4, 4), "s axis size must be an integer, got 5.9"),
        ((5, 4, True, 4), "rd axis size must be an integer, got True"),
        (5, "need four axis sizes, got 5"),
    ])
    def test_rejects_non_integer_sizes(self, m, message):
        with pytest.raises(InvalidArgumentError) as err:
            uniform_grid(m, 100.0)
        assert err.value.violations == [message]

    def test_uniform_axes(self):
        g = uniform_grid((8, 6, 6, 6), 1400.0)
        for d in (g.steps("s"), g.steps("v"), g.steps("rd"), g.steps("rf")):
            np.testing.assert_allclose(d, d[0], rtol=1e-12)


class TestCentralStencils:
    def test_first_derivative_row(self):
        nodes = np.linspace(0.0, 1.0, 11)
        h = 0.1
        A = first_derivative_matrix(nodes, None).toarray()
        np.testing.assert_allclose(A[5, 4:7], [-1 / (2 * h), 0.0, 1 / (2 * h)], atol=1e-13)

    def test_smooth_function_second_order(self):
        errs = []
        for m in (21, 41, 81):
            x = np.linspace(0.0, 1.0, m)
            A1 = first_derivative_matrix(x, None)
            A2 = second_derivative_matrix(x, None)
            e1 = np.max(np.abs((A1 @ np.sin(x))[1:-1] - np.cos(x)[1:-1]))
            e2 = np.max(np.abs((A2 @ np.sin(x))[2:-1] + np.sin(x)[2:-1]))
            errs.append(max(e1, e2))
        rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert np.mean(rates) >= 1.9


class TestMixedDerivativeCross:
    def test_exact_on_bilinear_function(self):
        # nine-point cross: exact for f(s, v) = s*v at interior nodes
        g = uniform_grid((8, 7, 4, 4), 1400.0)
        m1, m2 = g.shape[0], g.shape[1]
        M1s = first_derivative_matrix(g.s_nodes, None)
        M1v = first_derivative_matrix(g.v_nodes, None)
        D_sv = sp.kron(M1v, M1s).tocsr()
        F = np.outer(g.v_nodes, g.s_nodes).ravel()
        got = (D_sv @ F).reshape(m2, m1)
        np.testing.assert_allclose(got[1:-1, 1:-1], 1.0, rtol=1e-10)


class TestFdkmOperator:
    def test_assembles_with_fd_rows(self):
        op = assemble_operator(uniform_grid((8, 6, 6, 6), 1400.0), experiment1_model(),
                               fd_limit=True)
        g = op.grid
        for ax in ("s", "v", "rd", "rf"):
            want = first_derivative_matrix(g.axis_nodes(ax), None)
            assert (op.d1[ax] != want).nnz == 0
        A = op.matrix(0.0)
        assert np.all(np.isfinite(A.data))
        assert op.nnz <= 37 * op.n
