"""Sparse spatial operator for the 4D pricing PDE.

1D differentiation matrices are filled, all rows at once, with the
closed-form RBF-FD weights (or their classical FD limits).  Every PDE
coefficient factorizes over the four axes (s^2 v, s sqrt(v), r_d s - r_f s,
...), so the operator is a table of separable terms: each row is a scalar
times one Kronecker product of four small per-axis factors, diag(coef) @ D,
diag(coef), D or the identity, in the natural ordering of ``grids``.  The
factors are banded, and the table is built from their bands, not from
Kronecker products: each band combination of a row falls on one flat stencil
offset (37 on the bundled grids).  The CSR matrix is written in one pass, one
block of whole r_f planes at a time: every term adds its slice of the block
into one array per offset, and the block's nonzero entries go straight to the
CSR arrays, skipping the rows the boundary mode pins.

The operator splits as A(tau) = A0 + theta_d(tau)*Bd + theta_f(tau)*Bf so
time stepping does not reassemble anything; unless it is time dependent, the
levels at tau = 1 are folded into the base matrix.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import stencils
from .errors import AssemblyError, ConfigError, InvalidArgumentError
from .grids import AXES, Grid4D, checked_steps
from .model import ModelParams, OptionSpec
from .stencils import ShapeParameterWarning

# mode -> faces pinned at the payoff.
BOUNDARY_MODES = {
    "dirichlet": ("s_lo", "s_hi", "v_hi", "rd_lo", "rd_hi", "rf_lo", "rf_hi"),
    "abc": (),
}
THETA_MODES = ("time_dependent", "constant_approx")
# Operator rows accumulated and written to CSR at a time, in whole r_f planes
# (one plane when a plane is larger): bounds the (offsets, rows) accumulator
# and the write's temporaries to a few MB, so the assembly holds little more
# than the matrix it returns.
ROW_BLOCK = 2**12


def theta_mode_violations(mode):
    """[] when ``mode`` is one of ``THETA_MODES``, else its one violation."""
    return [] if mode in THETA_MODES else [
        f"theta_mode must be one of {THETA_MODES}, got {mode!r}"]


def time_dependent_operator(theta_mode, theta_d_params, theta_f_params):
    """True when A(tau) keeps its theta parts: the mode is ``time_dependent``
    and a level a1 - a2*exp(-a3*tau) varies (a2 and a3 nonzero)."""
    return theta_mode == "time_dependent" and any(
        a2 != 0.0 and a3 != 0.0 for _, a2, a3 in (theta_d_params, theta_f_params)
    )


def boundary_violations(mode, kind):
    """Every violation of the boundary rules for an option of ``kind``.

    The mode must be one of ``BOUNDARY_MODES``, and a put may not take a mode
    that pins s=0 at the payoff (``kind=None`` checks the name only).
    Returns [] when the pair is valid.
    """
    names = tuple(BOUNDARY_MODES)
    if mode not in names:
        return [f"boundary must be one of {names}, got {mode!r}"]
    if "s_lo" in BOUNDARY_MODES[mode] and kind == "put":
        return [f"boundary mode {mode!r} pins s=0 at the payoff, which is wrong for a "
                "put whose s=0 value decays with the domestic discount; use mode 'abc'"]
    return []


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
    d = checked_steps(nodes)
    interior = stencils.first_weight_rows(d[:-1], d[1:] / d[:-1], c)
    # One-sided two-node end rows; same weight pair at both ends.
    A = _stencil_matrix(m, [
        (0, (0, 1), stencils.boundary_first_row(d[0], c)),
        (np.arange(1, m - 1), (-1, 0, 1), interior),
        (m - 1, (-1, 0), stencils.boundary_first_row(d[-1], c)),
    ])
    _warn_narrow_shape(nodes, c, order=1)
    return A


def second_derivative_matrix(nodes, c):
    """m x m second-derivative matrix.

    Rows 3..m-1 carry the four-node weights, row 2 the three-node
    near-boundary weights, rows 1 and m the two-node one-sided pair
    (which vanishes in the FD limit ``c=None``: the end rows stay empty).
    """
    nodes = np.asarray(nodes, dtype=float)
    m = nodes.size
    if m < 4:
        raise InvalidArgumentError("second-derivative matrix needs >= 4 nodes")
    d = checked_steps(nodes)
    i = np.arange(2, m - 1)
    h = d[i - 1]
    interior = stencils.second_weight_rows(h, (nodes[i] - nodes[i - 2]) / h, d[i] / h, c)
    blocks = [
        (1, (-1, 0, 1), stencils.near_boundary_second_row(d[0], d[1], c)),
        (i, (-2, -1, 0, 1), interior),
    ]
    if c is not None:
        pair = stencils.boundary_second_row(c)
        blocks += [(0, (0, 1), pair), (m - 1, (-1, 0), pair)]
    A = _stencil_matrix(m, blocks)
    _warn_narrow_shape(nodes, c, order=2)
    return A


def _warn_narrow_shape(nodes, c, order):
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


def _bands(F):
    """{k: b} for every diagonal k of the square sparse matrix F, where
    b[i] = F[i, i + k] and zero where i + k falls outside."""
    m = F.shape[0]
    out = {}
    for k in F.todia().offsets.tolist():
        out[k] = np.zeros(m)
        out[k][max(0, -k): m - max(0, k)] = F.diagonal(k)
    return out


def _term_products(grid, scale, factors):
    """(flat offset, entries) of every band combination of one table row.

    The entries of scale * (F_rf kron F_rd kron F_v kron F_s) on the flat
    stencil offset sum_ax k_ax * stride_ax, as an array that broadcasts to
    the field shape (m_rf, m_rd, m_v, m_s) of the natural ordering: the
    product (((f_rf * f_rd) * f_v) * f_s) * scale, the one the Kronecker
    product forms, with absent axes (identities) left out.
    """
    if not np.isfinite(scale):
        raise AssemblyError("non-finite coefficient field encountered")
    combos = [(0, 1.0)]  # 1.0 * f is f, bit for bit
    for k in reversed(range(len(AXES))):
        F = factors.get(AXES[k])
        if F is None:
            continue
        stride, view = math.prod(grid.shape[:k]), [1] * len(AXES)
        view[len(AXES) - 1 - k] = -1
        combos = [(off + band * stride, t * b.reshape(view))
                  for off, t in combos for band, b in _bands(F).items()]
    return [(off, t * scale) for off, t in combos]


def _band_matrix(grid, parts, pinned):
    """CSR matrix of the sum over ``parts`` (level, rows) of level times each
    row's separable term, with sorted int32 column indices and the rows of
    the boolean mask ``pinned`` left empty.

    Each entry is the float expression of the Kronecker assembly: the terms
    summed in row order, part after part (a level of 1.0 is exact, and a
    theta part has one row, so level * term is level * part).  The rows are
    written one block of whole r_f planes at a time: every term adds its
    slice into one (offsets, block) accumulator, and the block's nonzero
    entries outside ``pinned`` go straight to the CSR arrays, which are
    reserved at (kept rows x offsets) and cut to the entries written.
    """
    n, shape = grid.n, grid.shape[::-1]
    terms = [(off, np.broadcast_to(level * t, shape)) for level, rows in parts
             for scale, factors in rows for off, t in _term_products(grid, scale, factors)]
    offsets = sorted({off for off, _ in terms})
    slot = {off: i for i, off in enumerate(offsets)}
    plane = n // shape[0]
    planes = max(1, ROW_BLOCK // plane)
    reserve = (n - np.count_nonzero(pinned)) * len(offsets)
    idx = np.int32 if max(n, reserve) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    data, indices = np.empty(reserve), np.empty(reserve, dtype=idx)
    offsets = np.array(offsets, dtype=idx)
    buf = np.empty(len(offsets) * min(planes, shape[0]) * plane)
    nnz = 0
    for f0 in range(0, shape[0], planes):
        f1 = min(f0 + planes, shape[0])
        r0, r1 = f0 * plane, f1 * plane
        acc4 = buf[:len(offsets) * (r1 - r0)].reshape(len(offsets), f1 - f0, *shape[1:])
        acc4.fill(0.0)
        for off, t in terms:
            acc4[slot[off]] += t[f0:f1]
        block = acc4.reshape(len(offsets), r1 - r0).T
        if not np.isfinite(block).all():
            raise AssemblyError("assembled operator contains non-finite entries")
        keep = block != 0
        keep[pinned[r0:r1]] = False
        indptr[r0 + 1:r1 + 1] = nnz + np.cumsum(np.count_nonzero(keep, axis=1))
        lo, nnz = nnz, indptr[r1]
        data[lo:nnz] = block[keep]
        indices[lo:nnz] = (np.arange(r0, r1, dtype=idx)[:, None] + offsets)[keep]
    # Hands the unused tail back in place: nothing else refers to the arrays.
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


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
    masks = {}
    for ax, m in zip(AXES, grid.shape):
        i = grid.index(ax)
        masks[f"{ax}_lo"], masks[f"{ax}_hi"] = i == 0, i == m - 1
    return masks


def pinned_rows(grid: Grid4D, mode):
    """Boolean mask (length N) of the rows the faces of ``BOUNDARY_MODES[mode]``
    pin, natural ordering."""
    masks = face_masks(grid)
    pinned = np.zeros(grid.n, dtype=bool)
    for face in BOUNDARY_MODES[mode]:
        pinned |= masks[face]
    return pinned


@dataclass
class AssembledOperator:
    """The N x N spatial operator, split into theta-independent and theta parts.

    ``theta_parts`` is (Bd, Bf), or None once the levels are folded into
    ``base``.  ``d1`` holds the per-axis 1D first-derivative matrices the
    operator was assembled from (no boundary rows).  ``pinned`` marks the rows
    of the boundary mode :func:`impose_boundaries` applied, which hold no
    entries; the solvers find them from the matrix.
    """

    base: sp.csr_matrix
    theta_parts: tuple[sp.csr_matrix, sp.csr_matrix] | None
    grid: Grid4D
    params: ModelParams
    d1: dict[str, sp.csr_matrix]
    pinned: np.ndarray | None = None

    @property
    def n(self):
        return self.base.shape[0]

    @property
    def is_time_dependent(self):
        return self.theta_parts is not None

    def matrix(self, tau=0.0):
        """A(tau) as a CSR matrix."""
        A = self.base
        if self.theta_parts is not None:
            (th_d, th_f), (Bd, Bf) = self.params.levels(tau), self.theta_parts
            A = A + float(th_d) * Bd + float(th_f) * Bf
        return A.tocsr()

    def matvec(self, x, tau=0.0):
        y = self.base @ x
        if self.theta_parts is not None:
            (th_d, th_f), (Bd, Bf) = self.params.levels(tau), self.theta_parts
            y = y + float(th_d) * (Bd @ x) + float(th_f) * (Bf @ x)
        return y

    @property
    def nnz(self):
        return self.base.nnz + sum(B.nnz for B in self.theta_parts or ())


def assemble_operator(
    grid: Grid4D,
    params: ModelParams,
    theta_mode="time_dependent",
    fd_limit=False,
    boundary=None,
) -> AssembledOperator:
    """Assemble the spatial operator on ``grid``.

    ``boundary`` names a mode of ``BOUNDARY_MODES`` whose pinned rows are
    left empty as they are written, so that :func:`impose_boundaries` with
    that mode has nothing to copy; None writes every row.  The put rule
    needs the option and is checked there.

    Shape parameters follow the per-axis rule tied to the largest increment;
    ``fd_limit=True`` uses classical FD weights everywhere (uniform-grid
    baseline scheme).  ``theta_mode`` is ``"time_dependent"`` or
    ``"constant_approx"``; unless :func:`time_dependent_operator` holds, the
    levels at tau = 1 (constant levels take that value at every tau) are
    folded into the base.
    """
    violations = theta_mode_violations(theta_mode)
    if boundary is not None:
        violations += boundary_violations(boundary, None)
    if violations:
        raise InvalidArgumentError(violations)
    if grid.v_nodes[0] < 0:
        raise InvalidArgumentError("variance axis contains negative nodes")
    c_of = dict.fromkeys(AXES) if fd_limit else stencils.shape_parameters(grid)

    D1 = {ax: first_derivative_matrix(grid.axis_nodes(ax), c_of[ax]) for ax in AXES}
    D2 = {ax: second_derivative_matrix(grid.axis_nodes(ax), c_of[ax]) for ax in AXES}
    table = _term_table(grid, params, D1, D2)
    pinned = np.zeros(grid.n, bool) if boundary is None else pinned_rows(grid, boundary)
    if time_dependent_operator(theta_mode, params.theta_d_params, params.theta_f_params):
        base, Bd, Bf = (_band_matrix(grid, [(1.0, rows)], pinned) for rows in table.values())
        theta_parts = (Bd, Bf)
    else:
        # A(1) = A0 + theta_d(1)*Bd + theta_f(1)*Bf, folded entry by entry.
        th_d, th_f = params.levels(1.0)
        base = _band_matrix(grid, [(1.0, table["base"]), (float(th_d), table["theta_d"]),
                                   (float(th_f), table["theta_f"])], pinned)
        theta_parts = None
    return AssembledOperator(base=base, theta_parts=theta_parts, grid=grid,
                             params=params, d1=D1)


def _empty_rows(A, rows):
    """CSR ``A`` with the rows of the mask ``rows`` emptied and its column
    indices sorted; ``A`` itself when those rows hold no entries."""
    counts = np.diff(A.indptr)
    if counts[rows].any():
        keep = np.repeat(~rows, counts)
        counts[rows] = 0
        indptr = np.zeros_like(A.indptr)
        np.cumsum(counts, out=indptr[1:])
        A = sp.csr_matrix((A.data[keep], A.indices[keep], indptr), shape=A.shape)
    A.sort_indices()
    return A


def impose_boundaries(
    op: AssembledOperator, mode, option: OptionSpec
) -> AssembledOperator:
    """Pin the faces of ``BOUNDARY_MODES[mode]``; returns a new operator
    recording them in ``pinned``.

    ``dirichlet``
        every outer face except v=0 is pinned at its initial (payoff) value:
        the row is zeroed and the state carries the value.  v=0 keeps the
        degenerate PDE row (no condition needed under the Feller regime).
    ``abc``
        nothing pinned: the PDE itself, discretized with the one-sided
        boundary rows of the differentiation matrices, holds on every face.

    The operator is singular by construction under ``dirichlet`` (zero rows).
    Its matrices have sorted column indices, so every solver sums a row in
    one order and none has to sort its operand.  An operator assembled with
    the same mode already has its pinned rows empty, and its matrices come
    back uncopied; otherwise a pinned row's entries are dropped by an entry
    mask, which keeps the other rows' entries in their order.
    """
    violations = boundary_violations(mode, option.kind)
    if violations:
        raise ConfigError(violations)
    pinned = pinned_rows(op.grid, mode)
    base = _empty_rows(op.base, pinned)
    parts = None if op.theta_parts is None else tuple(
        _empty_rows(B, pinned) for B in op.theta_parts)
    return dataclasses.replace(op, base=base, theta_parts=parts, pinned=pinned)
