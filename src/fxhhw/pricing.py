"""Pricing pipeline: payoff, solve, interpolate, Greeks, convergence metrics."""

from __future__ import annotations

import ctypes
import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from . import operators
from .errors import ConfigError, InvalidArgumentError, RangeError
from .grids import Grid4D
from .integrators import (
    KrylovConfig,
    MidpointConfig,
    krylov_expm_action,
    modified_midpoint_solve,
)
from .model import ModelParams, OptionSpec, feller_check

SOLVERS = ("auto", "krylov", "midpoint")

try:
    # glibc's malloc_trim; other C libraries do not have it.
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
    _MALLOC_TRIM.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def _release_freed_heap():
    """Return the free pages of the C heap to the OS, where glibc allows it.

    Assembly and boundary rows free tens of MB of sparse temporaries.  glibc
    hands them back only when enough free space gathers at the top of the
    heap, which depends on where the live matrices landed, and that varies
    from run to run with address-space randomization; without a trim, the
    memory a solve holds differs between identical runs by that much.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def payoff_vector(grid: Grid4D, option: OptionSpec):
    """Initial condition: payoff evaluated on the full grid, natural ordering."""
    m1, m2, m3, m4 = grid.shape
    per_s = option.payoff(grid.s_nodes)
    return np.tile(per_s, m2 * m3 * m4)


@dataclass
class SolutionField:
    """Option values on the 4D grid at backward time tau."""

    values: np.ndarray
    grid: Grid4D
    tau: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.size != self.grid.n:
            raise InvalidArgumentError("field size does not match the grid")

    def reshape4(self):
        """View as [i_rf, i_rd, i_v, i_s] (s fastest in memory)."""
        m1, m2, m3, m4 = self.grid.shape
        return self.values.reshape(m4, m3, m2, m1)

    def interpolate(self, point, method="linear"):
        return interpolate(self, point, method=method)

    def save(self, path):
        np.savez(
            path,
            values=self.values,
            tau=self.tau,
            s_nodes=self.grid.s_nodes,
            v_nodes=self.grid.v_nodes,
            rd_nodes=self.grid.rd_nodes,
            rf_nodes=self.grid.rf_nodes,
        )

    @classmethod
    def load(cls, path):
        data = np.load(path)
        grid = Grid4D(
            s_nodes=data["s_nodes"],
            v_nodes=data["v_nodes"],
            rd_nodes=data["rd_nodes"],
            rf_nodes=data["rf_nodes"],
        )
        return cls(values=data["values"], grid=grid, tau=float(data["tau"]))


def _axis_weights_linear(nodes, x):
    """Cell index and nodal weights for 1D linear interpolation."""
    i = int(np.searchsorted(nodes, x, side="right") - 1)
    i = min(max(i, 0), nodes.size - 2)
    t = (x - nodes[i]) / (nodes[i + 1] - nodes[i])
    return np.array([i, i + 1]), np.array([1.0 - t, t])

def _axis_weights_cubic(nodes, x):
    """Indices and Lagrange weights on the four nodes around x (clamped)."""
    if nodes.size < 4:
        return _axis_weights_linear(nodes, x)
    i = int(np.searchsorted(nodes, x, side="right") - 1)
    i = min(max(i, 0), nodes.size - 2)
    lo = min(max(i - 1, 0), nodes.size - 4)
    idx = np.arange(lo, lo + 4)
    xs = nodes[idx]
    w = np.ones(4)
    for a in range(4):
        for b in range(4):
            if a != b:
                w[a] *= (x - xs[b]) / (xs[a] - xs[b])
    return idx, w


def interpolate(field: SolutionField, point, method="linear"):
    """Value at (s, v, r_d, r_f) by tensor-product interpolation.

    ``linear`` is multilinear on the 16 cell corners (monotone, exact at
    nodes); ``cubic`` is local tensor Lagrange on 4 nodes per axis, which the
    experiment pipeline uses because the coarse rate axes otherwise leak far
    boundary values into near-bound queries.
    """
    s, v, rd, rf = (float(x) for x in point)
    g = field.grid
    for x, nodes, name in (
        (s, g.s_nodes, "s"),
        (v, g.v_nodes, "v"),
        (rd, g.rd_nodes, "rd"),
        (rf, g.rf_nodes, "rf"),
    ):
        if x < nodes[0] or x > nodes[-1]:
            raise RangeError(
                f"query {name}={x} outside [{nodes[0]}, {nodes[-1]}]"
            )
    if method == "linear":
        axw = _axis_weights_linear
    elif method == "cubic":
        axw = _axis_weights_cubic
    else:
        raise InvalidArgumentError(f"unknown interpolation method {method!r}")

    si, sw = axw(g.s_nodes, s)
    vi, vw = axw(g.v_nodes, v)
    di, dw = axw(g.rd_nodes, rd)
    fi, fw = axw(g.rf_nodes, rf)
    # Exactly-on-node queries must return the stored value bit-for-bit.
    if sw.max() == 1.0 and vw.max() == 1.0 and dw.max() == 1.0 and fw.max() == 1.0:
        return float(
            field.reshape4()[
                fi[fw.argmax()], di[dw.argmax()], vi[vw.argmax()], si[sw.argmax()]
            ]
        )
    block = field.reshape4()[np.ix_(fi, di, vi, si)]
    return float(np.einsum("f,d,v,s,fdvs->", fw, dw, vw, sw, block))


def price(
    model: ModelParams,
    option: OptionSpec,
    grid: Grid4D,
    solver="auto",
    boundary="dirichlet",
    theta_mode="time_dependent",
    delta_tau=None,
    krylov: KrylovConfig | None = None,
    fd_limit=False,
) -> SolutionField:
    """Solve the backward PDE from the payoff to tau = maturity.

    ``solver='auto'`` picks the Krylov exponential when the assembled
    operator is time-independent and the midpoint stepper otherwise.  The
    initial condition is the raw (unsmoothed) payoff.
    """
    if solver not in SOLVERS:
        raise ConfigError([f"unknown solver {solver!r}"])
    fl = feller_check(model)
    if not fl.satisfied:
        warnings.warn(
            f"Feller condition violated (ratio {fl.ratio:.3f} <= 1); the v=0 "
            "degenerate-row treatment assumes an inaccessible boundary",
            stacklevel=2,
        )
    op = operators.assemble_operator(
        grid, model, theta_mode=theta_mode, fd_limit=fd_limit
    )
    op = operators.impose_boundaries(op, boundary, option)
    # The operator without boundary rows is garbage from here on.
    _release_freed_heap()

    if solver == "auto":
        solver = "midpoint" if op.is_time_dependent else "krylov"
    if solver == "krylov" and op.is_time_dependent:
        raise ConfigError(
            [
                "krylov solver requires a time-independent operator; use "
                "theta_mode='constant_approx' or the midpoint solver"
            ]
        )

    v0 = payoff_vector(grid, option)
    T = option.maturity
    if solver == "krylov":
        cfg = krylov or KrylovConfig()
        v = krylov_expm_action(
            op.matrix(0.0), v0, dataclasses.replace(cfg, tau=T * cfg.tau)
        )
    else:
        if delta_tau is None:
            raise ConfigError(["midpoint solver requires delta_tau"])
        v = modified_midpoint_solve(op, v0, MidpointConfig.from_horizon(T, delta_tau))
    return SolutionField(values=v, grid=grid, tau=T)


@dataclass
class GreeksSlice:
    """Delta, vega (dV/dv) and vanna over the (s, v) plane at fixed rates."""

    s_nodes: np.ndarray
    v_nodes: np.ndarray
    value: np.ndarray  # (m2, m1): option values on the slice
    delta: np.ndarray
    vega: np.ndarray
    vanna: np.ndarray
    rd: float
    rf: float


def greeks(field: SolutionField, rd=None, rf=None, shapes=None) -> GreeksSlice:
    """Greeks on the (s, v) slice at fixed (r_d, r_f).

    The slice is obtained by linear interpolation across the rate axes, then
    differentiated with the same RBF-FD matrices used by the solver.
    """
    from . import stencils

    g = field.grid
    rd = float(g.rd_nodes[0] if rd is None else rd)
    rf = float(g.rf_nodes[0] if rf is None else rf)
    if not (g.rd_nodes[0] <= rd <= g.rd_nodes[-1]):
        raise RangeError(f"rd={rd} outside the rate axis")
    if not (g.rf_nodes[0] <= rf <= g.rf_nodes[-1]):
        raise RangeError(f"rf={rf} outside the rate axis")

    di, dw = _axis_weights_linear(g.rd_nodes, rd)
    fi, fw = _axis_weights_linear(g.rf_nodes, rf)
    cube = field.reshape4()[np.ix_(fi, di)]  # (2, 2, m2, m1)
    slice_vals = np.einsum("f,d,fdvs->vs", fw, dw, cube)

    shapes = shapes or stencils.shape_parameters(g)
    ms = operators.first_derivative_matrix(g.s_nodes, shapes.c_s)
    mv = operators.first_derivative_matrix(g.v_nodes, shapes.c_v)
    delta = slice_vals @ ms.T.toarray()
    vega = mv.toarray() @ slice_vals
    vanna = mv.toarray() @ delta
    return GreeksSlice(
        s_nodes=g.s_nodes,
        v_nodes=g.v_nodes,
        value=slice_vals,
        delta=delta,
        vega=vega,
        vanna=vanna,
        rd=rd,
        rf=rf,
    )


def roc(v_m, v_2m, v_4m):
    """Rate of convergence |log2((V4m - V2m)/(V2m - Vm))|; None if undefined."""
    denom = v_2m - v_m
    numer = v_4m - v_2m
    if denom == 0.0 or numer == 0.0:
        return None
    return abs(float(np.log2(abs(numer / denom))))


def relative_error(v, v_ref):
    """|v - v_ref| / |v_ref|."""
    if v_ref == 0.0:
        raise InvalidArgumentError("reference value must be nonzero")
    return abs(v - v_ref) / abs(v_ref)
