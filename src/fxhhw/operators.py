"""Sparse spatial operator for the 4D pricing PDE.

1D differentiation matrices are filled, all rows at once, with the
closed-form RBF-FD weights (or their classical FD limits).  Every PDE
coefficient factorizes over the four axes (s^2 v, s sqrt(v), r_d s - r_f s,
...), so the operator is a table of separable terms: each row is a scalar
times one Kronecker product of four small per-axis factors, diag(coef) @ D,
diag(coef), D or the identity.  Natural ordering: the spot index varies
fastest, then variance, then the domestic and foreign rates.

The operator splits as A(tau) = A0 + theta_d(tau)*Bd + theta_f(tau)*Bf so
time stepping does not reassemble anything; when both mean-reversion levels
are constant the theta parts are folded into the base matrix.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import stencils
from .errors import (
    AssemblyError,
    ConfigError,
    GridDegeneracyError,
    InvalidArgumentError,
)
from .grids import Grid4D
from .model import ModelParams, OptionSpec
from .stencils import ShapeParams, ShapeParameterWarning

AXES = ("s", "v", "rd", "rf")
BOUNDARY_MODES = ("dirichlet", "neumann_flux", "abc")
THETA_MODES = ("time_dependent", "constant_approx")


def _check_increments(nodes):
    d = np.diff(nodes)
    if np.any(d <= 0) or np.min(d) < 1e-13 * (nodes[-1] - nodes[0]):
        raise GridDegeneracyError("axis increments are degenerate")
    return d


def _stencil_matrix(m, blocks):
    """m x m CSR matrix from (row indices, column offsets, weights) blocks.

    ``weights`` has one row per column offset and one column per row index.
    """
    rows, cols, vals = [], [], []
    for idx, offsets, weights in blocks:
        idx = np.atleast_1d(idx)
        weights = np.asarray(weights, dtype=float).reshape(len(offsets), idx.size)
        for off, w in zip(offsets, weights):
            rows.append(idx)
            cols.append(idx + off)
            vals.append(w)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    ).tocsr()


def first_derivative_matrix(nodes, c):
    """m x m first-derivative matrix: 3-node interior rows, 2-node end rows.

    ``c=None`` selects the classical FD limit of every row.
    """
    nodes = np.asarray(nodes, dtype=float)
    m = nodes.size
    if m < 3:
        raise InvalidArgumentError("first-derivative matrix needs >= 3 nodes")
    d = _check_increments(nodes)
    h, omega = d[:-1], d[1:] / d[:-1]
    stencils.check_geometry(h, c, omega_plus=omega)
    # One-sided two-node end rows; same weight pair at both ends.
    if c is None:
        w0, wm = (-1.0 / d[0], 1.0 / d[0]), (-1.0 / d[-1], 1.0 / d[-1])
    else:
        w0 = stencils.boundary_first_weights(d[0], c).weights
        wm = stencils.boundary_first_weights(d[-1], c).weights
    A = _stencil_matrix(m, [
        (0, (0, 1), w0),
        (np.arange(1, m - 1), (-1, 0, 1), stencils.first_weight_rows(h, omega, c)),
        (m - 1, (-1, 0), wm),
    ])
    _warn_shape_regime(nodes, c, order=1)
    return A


def second_derivative_matrix(nodes, c):
    """m x m second-derivative matrix.

    Rows 3..m-1 carry the four-node weights, row 2 the three-node
    near-boundary weights, rows 1 and m the two-node one-sided pair
    (which vanishes in the FD limit ``c=None``).
    """
    nodes = np.asarray(nodes, dtype=float)
    m = nodes.size
    if m < 4:
        raise InvalidArgumentError("second-derivative matrix needs >= 4 nodes")
    d = _check_increments(nodes)
    i = np.arange(2, m - 1)
    h = d[i - 1]
    wm, wp = (nodes[i] - nodes[i - 2]) / h, d[i] / h
    stencils.check_geometry(h, c, w_plus1=wp, w_minus2_minus_1=wm - 1.0)
    # Row 2: three nodes, left gap d[0], right gap d[1].
    if c is None:
        hl, hr = d[0], d[1]
        w2 = (2.0 / (hl * (hl + hr)), -2.0 / (hl * hr), 2.0 / (hr * (hl + hr)))
    else:
        w2 = stencils.near_boundary_second_weights(d[0], d[1] / d[0], c).weights
    blocks = [
        (1, (-1, 0, 1), w2),
        (i, (-2, -1, 0, 1), stencils.second_weight_rows(h, wm, wp, c)),
    ]
    # End rows: the (-4/c^2, 2/c^2) pair; zero in the FD limit.
    if c is not None:
        pair = (-4.0 / (c * c), 2.0 / (c * c))
        blocks += [(0, (0, 1), pair), (m - 1, (-1, 0), pair)]
    A = _stencil_matrix(m, blocks)
    _warn_shape_regime(nodes, c, order=2)
    return A


def _warn_shape_regime(nodes, c, order):
    # The per-axis shape rule pins c/h at 2-3 on the coarsest cell by
    # construction; the regime diagnostic compares against the finest cell,
    # where healthy grids sit at c/h of a few tens to hundreds.
    if c is None:
        return
    ratio = c / float(np.min(np.diff(nodes)))
    if ratio < stencils.SHAPE_WARN_RATIO:
        warnings.warn(
            f"order-{order} differentiation matrix: c/h = {ratio:.3g} < "
            f"{stencils.SHAPE_WARN_RATIO} even at the finest cell",
            ShapeParameterWarning,
            stacklevel=3,
        )


def _diag(coef):
    coef = np.asarray(coef, dtype=float)
    if not np.all(np.isfinite(coef)):
        raise AssemblyError("non-finite coefficient field encountered")
    return sp.diags(coef)


def _kron_term(scale, factors, grid):
    """scale * (F_rf kron F_rd kron F_v kron F_s); absent axes are identities."""
    if not np.isfinite(scale):
        raise AssemblyError("non-finite coefficient field encountered")
    out = None
    for ax in AXES[::-1]:
        f = factors.get(ax)
        if f is None:
            f = sp.identity(grid.axis_nodes(ax).size, format="csr")
        out = f if out is None else sp.kron(out, f, format="csr")
    out.data *= scale
    return out


def _term_table(grid, p, D1, D2):
    """The operator as rows (scalar, {axis: factor}), one table per part.

    Every PDE coefficient factorizes over the axes, so each factor is
    diag(coef_axis) @ D_axis, diag(coef_axis) or D_axis, and each row is one
    Kronecker product of four small matrices.  The sums (r_d - r_f) s and
    -lambda_f r_f - rho_sf eta_f sqrt(v) take two rows each.
    """
    s, v, rd, rf = (_diag(grid.axis_nodes(ax)) for ax in AXES)
    sqv = _diag(np.sqrt(grid.v_nodes))
    sD1 = s @ D1["s"]
    return {
        "base": [
            (0.5, {"s": s @ s @ D2["s"], "v": v}),
            (0.5 * p.gamma**2, {"v": v @ D2["v"]}),
            (0.5 * p.eta_d**2, {"rd": D2["rd"]}),
            (0.5 * p.eta_f**2, {"rf": D2["rf"]}),
            (p.rho_sv * p.gamma, {"s": sD1, "v": v @ D1["v"]}),
            (p.rho_sd * p.eta_d, {"s": sD1, "v": sqv, "rd": D1["rd"]}),
            (p.rho_sf * p.eta_f, {"s": sD1, "v": sqv, "rf": D1["rf"]}),
            (p.rho_vd * p.gamma * p.eta_d, {"v": sqv @ D1["v"], "rd": D1["rd"]}),
            (p.rho_vf * p.gamma * p.eta_f, {"v": sqv @ D1["v"], "rf": D1["rf"]}),
            (p.rho_df * p.eta_d * p.eta_f, {"rd": D1["rd"], "rf": D1["rf"]}),
            (1.0, {"s": sD1, "rd": rd}),
            (-1.0, {"s": sD1, "rf": rf}),
            (p.kappa, {"v": _diag(p.vbar - grid.v_nodes) @ D1["v"]}),
            (-p.lambda_d, {"rd": rd @ D1["rd"]}),
            (-p.lambda_f, {"rf": rf @ D1["rf"]}),
            (-p.rho_sf * p.eta_f, {"v": sqv, "rf": D1["rf"]}),
            (-1.0, {"rd": rd}),
        ],
        "theta_d": [(p.lambda_d, {"rd": D1["rd"]})],
        "theta_f": [(p.lambda_f, {"rf": D1["rf"]})],
    }


def face_masks(grid: Grid4D):
    """Boolean masks (length N) for every boundary face, natural ordering."""
    m1, m2, m3, m4 = grid.shape
    i_s = np.tile(np.arange(m1), m2 * m3 * m4)
    i_v = np.tile(np.repeat(np.arange(m2), m1), m3 * m4)
    i_rd = np.tile(np.repeat(np.arange(m3), m1 * m2), m4)
    i_rf = np.repeat(np.arange(m4), m1 * m2 * m3)
    return {
        "s_lo": i_s == 0,
        "s_hi": i_s == m1 - 1,
        "v_lo": i_v == 0,
        "v_hi": i_v == m2 - 1,
        "rd_lo": i_rd == 0,
        "rd_hi": i_rd == m3 - 1,
        "rf_lo": i_rf == 0,
        "rf_hi": i_rf == m4 - 1,
    }


@dataclass
class AssembledOperator:
    """The N x N spatial operator, split into theta-independent and theta parts."""

    base: sp.csr_matrix
    theta_d_part: sp.csr_matrix | None
    theta_f_part: sp.csr_matrix | None
    grid: Grid4D
    params: ModelParams
    shapes: ShapeParams | None
    boundary_mode: str | None = None
    pinned: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.base.shape[0]

    @property
    def is_time_dependent(self):
        return self.theta_d_part is not None or self.theta_f_part is not None

    def matrix(self, tau=0.0):
        """A(tau) as a CSR matrix."""
        A = self.base
        if self.theta_d_part is not None:
            A = A + float(self.params.theta_d(tau)) * self.theta_d_part
        if self.theta_f_part is not None:
            A = A + float(self.params.theta_f(tau)) * self.theta_f_part
        return A.tocsr() if not sp.isspmatrix_csr(A) else A

    def matvec(self, x, tau=0.0):
        y = self.base @ x
        if self.theta_d_part is not None:
            y = y + float(self.params.theta_d(tau)) * (self.theta_d_part @ x)
        if self.theta_f_part is not None:
            y = y + float(self.params.theta_f(tau)) * (self.theta_f_part @ x)
        return y

    def free_matrix(self, tau=0.0):
        """Restriction of A(tau) to non-pinned rows/columns (dynamics block)."""
        A = self.matrix(tau)
        if self.pinned is None or not self.pinned.any():
            return A
        free = np.flatnonzero(~self.pinned)
        return A[free][:, free]

    @property
    def nnz(self):
        n = self.base.nnz
        for part in (self.theta_d_part, self.theta_f_part):
            if part is not None:
                n += part.nnz
        return n


def assemble_operator(
    grid: Grid4D,
    params: ModelParams,
    theta_mode="time_dependent",
    shapes=None,
    fd_limit=False,
) -> AssembledOperator:
    """Assemble the spatial operator on ``grid`` (no boundary rows yet).

    ``shapes`` defaults to the per-axis rule tied to the largest increment;
    ``fd_limit=True`` uses classical FD weights everywhere (uniform-grid
    baseline scheme).  ``theta_mode`` is ``"time_dependent"`` or
    ``"constant_approx"`` (constant levels from the tau=1 evaluation).
    """
    if theta_mode not in THETA_MODES:
        raise InvalidArgumentError(f"unknown theta_mode {theta_mode!r}")
    if grid.v_nodes[0] < 0:
        raise InvalidArgumentError("variance axis contains negative nodes")
    if fd_limit:
        shapes = None
        c_of = dict.fromkeys(AXES)
    else:
        if shapes is None:
            shapes = stencils.shape_parameters(grid)
        c_of = {ax: shapes.for_axis(ax) for ax in AXES}

    D1 = {ax: first_derivative_matrix(grid.axis_nodes(ax), c_of[ax]) for ax in AXES}
    D2 = {ax: second_derivative_matrix(grid.axis_nodes(ax), c_of[ax]) for ax in AXES}
    base, theta_d_part, theta_f_part = (
        functools.reduce(operator.add, (_kron_term(a, f, grid) for a, f in rows))
        for rows in _term_table(grid, params, D1, D2).values()
    )

    meta = {
        "ordering": "s fastest, then v, then r_d, then r_f",
        "theta_mode": theta_mode,
        "fd_limit": fd_limit,
        # kept for the neumann_flux boundary rows
        "d2": D2,
    }
    if theta_mode == "constant_approx" or not params.theta_time_dependent:
        if theta_mode == "constant_approx":
            th_d, th_f = params.theta_constant_approx()
        else:
            th_d, th_f = float(params.theta_d(0.0)), float(params.theta_f(0.0))
        base = base + th_d * theta_d_part + th_f * theta_f_part
        theta_d_part = theta_f_part = None
        meta["theta_values"] = (th_d, th_f)

    if not np.all(np.isfinite(base.data)):
        raise AssemblyError("assembled operator contains non-finite entries")

    op = AssembledOperator(
        base=base,
        theta_d_part=theta_d_part,
        theta_f_part=theta_f_part,
        grid=grid,
        params=params,
        shapes=shapes,
        meta=meta,
    )
    op.meta["nnz"] = op.nnz
    return op


def _zero_rows(A, mask):
    keep = sp.diags((~mask).astype(float))
    return (keep @ A).tocsr()


def _replace_rows(A, mask, B):
    keep = sp.diags((~mask).astype(float))
    put = sp.diags(mask.astype(float))
    return (keep @ A + put @ B).tocsr()


def impose_boundaries(
    op: AssembledOperator, mode, option: OptionSpec
) -> AssembledOperator:
    """Impose boundary rows on an assembled operator; returns a new operator.

    ``dirichlet``
        every outer face except v=0 is pinned at its initial (payoff) value:
        the row is zeroed and the state carries the value.  v=0 keeps the
        degenerate PDE row (no condition needed under the Feller regime).
    ``neumann_flux``
        s=0 pinned; s_max / v_max / rate faces replaced by the one-sided
        second-derivative rows (V_ss = 0, V_vv = 0, V_rr = 0 style); v=0
        keeps the degenerate PDE row.
    ``abc``
        no replacement: the PDE itself, discretized with the one-sided
        boundary rows of the differentiation matrices, holds on every face.

    Calls are singular by construction in the pinned modes (zero rows).
    Overlapping faces at corners resolve with precedence s > v > rd > rf.
    """
    if mode not in BOUNDARY_MODES:
        raise ConfigError([f"unknown boundary mode {mode!r}"])
    if mode in ("dirichlet", "neumann_flux") and option.kind == "put":
        raise ConfigError(
            [
                f"boundary mode {mode!r} pins s=0 at the payoff, which is wrong "
                "for a put whose s=0 value decays with the domestic discount; "
                "use mode 'abc'"
            ]
        )

    masks = face_masks(op.grid)
    base, bd, bf = op.base, op.theta_d_part, op.theta_f_part
    pinned = np.zeros(op.n, dtype=bool)
    if mode == "dirichlet":
        pinned = np.logical_or.reduce(
            [masks[f] for f in ("s_lo", "s_hi", "v_hi", "rd_lo", "rd_hi", "rf_lo", "rf_hi")]
        )
        base = _zero_rows(base, pinned)
        taken = pinned
    elif mode == "neumann_flux":
        pinned = masks["s_lo"]
        base = _zero_rows(base, pinned)
        taken = pinned.copy()
        d2 = {ax: _kron_term(1.0, {ax: op.meta["d2"][ax]}, op.grid) for ax in AXES}
        for face in ("s_hi", "v_hi", "rd_lo", "rd_hi", "rf_lo", "rf_hi"):
            rows = masks[face] & ~taken
            base = _replace_rows(base, rows, d2[face.split("_")[0]])
            taken |= rows
    if mode != "abc":
        bd, bf = (None if A is None else _zero_rows(A, taken) for A in (bd, bf))

    out = dataclasses.replace(
        op,
        base=base,
        theta_d_part=bd,
        theta_f_part=bf,
        boundary_mode=mode,
        pinned=pinned,
        meta=dict(op.meta, boundary_mode=mode),
    )
    out.meta["nnz"] = out.nnz
    return out
