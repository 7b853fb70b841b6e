"""Pricing pipeline: payoff, solve, interpolate, Greeks, convergence metrics."""

from __future__ import annotations

import ctypes
import dataclasses
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from . import operators
from .errors import ConfigError, InvalidArgumentError, RangeError
from .grids import AXES, Grid4D, outside
from .integrators import (
    KrylovConfig,
    MidpointConfig,
    chebyshev_expm_action,
    krylov_dim_violations,
    krylov_expm_action,
    midpoint_step_violations,
    modified_midpoint_solve,
)
from .model import ModelParams, OptionSpec, feller_check


# Each solver's integrator, called as (operator, payoff, horizon, Krylov
# settings, delta_tau).  Each looks its kernel up in this module when it
# runs, so a replaced module attribute is the one called.
def _krylov(op, v0, horizon, krylov, delta_tau):
    return krylov_expm_action(op.matrix(0.0), v0, krylov, tau=horizon)


def _chebyshev(op, v0, horizon, krylov, delta_tau):
    return chebyshev_expm_action(op.matrix(0.0), v0, horizon)


def _midpoint(op, v0, horizon, krylov, delta_tau):
    return modified_midpoint_solve(op, v0, MidpointConfig.from_horizon(horizon, delta_tau))


SOLVERS = {"krylov": _krylov, "chebyshev": _chebyshev, "midpoint": _midpoint}


def _resolve_solver(solver, time_dependent):
    """The solver ``auto`` stands for: midpoint when the operator is
    time-dependent, chebyshev otherwise."""
    if solver == "auto":
        return "midpoint" if time_dependent else "chebyshev"
    return solver


def solver_violations(solver, time_dependent, delta_tau, maturity, krylov_dim=None, n=None):
    """Every violation of the solver rules; [] when the request is valid.

    The name must be ``auto`` or one of ``SOLVERS``; krylov and chebyshev
    need a time-independent operator; midpoint, named or resolved from
    ``auto``, must keep the step rule
    :func:`~fxhhw.integrators.midpoint_step_violations` with the maturity as
    horizon (``maturity=None``, an invalid maturity already reported, skips
    the divides check).  ``krylov_dim`` keeps the subspace rule
    :func:`~fxhhw.integrators.krylov_dim_violations`, whose basis budget on
    ``n`` rows applies only when the solver is krylov (``n=None`` skips it).
    """
    resolved = _resolve_solver(solver, time_dependent)
    if solver != "auto" and solver not in SOLVERS:
        out = [f"solver must be one of {('auto', *SOLVERS)}, got {solver!r}"]
    elif resolved == "midpoint":
        out = [f"solver.{v}" for v in midpoint_step_violations(delta_tau, maturity)]
    elif time_dependent:  # every other solver exponentiates A(0)
        out = [f"solver {resolved!r} requires a time-independent operator; "
               "use theta_mode 'constant_approx' or solver 'midpoint'"]
    else:
        out = []
    return out + [f"solver.krylov_dim: {v}" for v in
                  krylov_dim_violations(krylov_dim, n if resolved == "krylov" else None)]


try:
    # glibc's malloc_trim; other C libraries do not have it.
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
    _MALLOC_TRIM.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def _release_freed_heap():
    """Return the free pages of the C heap to the OS, where glibc allows it.

    Assembly frees several MB of temporaries: its accumulator blocks, term
    arrays and the unused tail of the reserved CSR arrays.  glibc
    hands them back only when enough free space gathers at the top of the
    heap, which depends on where the live matrices landed, and that varies
    from run to run with address-space randomization; without a trim, the
    memory a solve holds differs between identical runs by that much.  The
    trim matters most from the second solve in one process (a benchmark's
    repeated passes, a sweep's rungs), where the last solve's operator and
    assembly temporaries lie freed in the heap: without it, repeated
    experiment-1 solves peaked at 211-225 MB against 166-169 MB with it
    (2 BLAS threads), while a lone solve moved by 0.5 MB.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def payoff_vector(grid: Grid4D, option: OptionSpec):
    """Initial condition: payoff evaluated on the full grid, natural ordering."""
    return option.payoff(grid.s_nodes)[grid.index("s")]


@dataclass
class SolutionField:
    """Option values on the 4D grid at backward time tau.

    ``operator`` is the boundary-imposed operator the solve integrated;
    a field read back with :meth:`load` has none.
    """

    values: np.ndarray
    grid: Grid4D
    tau: float
    operator: operators.AssembledOperator | None = dataclasses.field(
        default=None, repr=False
    )

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.size != self.grid.n:
            raise InvalidArgumentError("field size does not match the grid")

    def reshape4(self):
        """View as [i_rf, i_rd, i_v, i_s] (s fastest in memory)."""
        return self.grid.view4(self.values)

    def interpolate(self, point, method="linear"):
        return interpolate(self, point, method=method)

    def save(self, path):
        nodes = {f"{ax}_nodes": self.grid.axis_nodes(ax) for ax in AXES}
        np.savez(path, values=self.values, tau=self.tau, **nodes)

    @classmethod
    def load(cls, path):
        """Read a field written by :meth:`save`; a missing or unreadable file,
        or an archive without the saved arrays, is a ConfigError."""
        try:
            with np.load(path) as data:
                grid = Grid4D(**{f"{ax}_nodes": data[f"{ax}_nodes"] for ax in AXES})
                return cls(values=data["values"], grid=grid, tau=float(data["tau"]))
        except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as err:
            raise ConfigError([f"cannot read a saved field from {path}: {err}"]) from None


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


# Each interpolation method's per-axis (indices, weights) rule.
INTERPOLATIONS = {"linear": _axis_weights_linear, "cubic": _axis_weights_cubic}


def interpolation_violations(method):
    """[] when ``method`` is one of ``INTERPOLATIONS``, else its one violation."""
    names = tuple(INTERPOLATIONS)
    return [] if method in names else [f"interpolation must be one of {names}, got {method!r}"]


def interpolate(field: SolutionField, point, method="linear"):
    """Value at (s, v, r_d, r_f) by tensor-product interpolation.

    ``linear`` is multilinear on the 16 cell corners (monotone, exact at
    nodes); ``cubic`` is local tensor Lagrange on 4 nodes per axis, which the
    experiment pipeline uses because the coarse rate axes otherwise leak far
    boundary values into near-bound queries.
    """
    g = field.grid
    try:
        coords = dict(zip(AXES, map(float, point), strict=True))
    except (TypeError, ValueError):
        raise InvalidArgumentError(
            f"a query point is four numbers (s, v, r_d, r_f), got {point!r}") from None
    bad = outside(coords, g.box)
    if bad:
        raise RangeError("query " + "; ".join(bad))
    violations = interpolation_violations(method)
    if violations:
        raise InvalidArgumentError(violations)
    axw = INTERPOLATIONS[method]

    # Indices and weights per axis, rf first like the axes of reshape4.
    idx, w = zip(*(axw(g.axis_nodes(ax), coords[ax]) for ax in AXES[::-1]))
    # Exactly-on-node queries must return the stored value bit-for-bit.
    if all(wk.max() == 1.0 for wk in w):
        return float(field.reshape4()[tuple(ik[wk.argmax()] for ik, wk in zip(idx, w))])
    block = field.reshape4()[np.ix_(*idx)]
    return float(np.einsum("f,d,v,s,fdvs->", *w, block))


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

    ``solver`` names an entry of ``SOLVERS``: ``chebyshev`` (the Chebyshev
    exp-action, matvecs only), ``krylov`` (the Arnoldi exp-action under the
    ``krylov`` settings) or ``midpoint`` (the explicit stepper, step
    ``delta_tau``).  ``auto`` picks chebyshev when the operator is
    time-independent and midpoint otherwise.  The solver rules, with the
    subspace rule on N for krylov (:func:`solver_violations`), the boundary
    rules (:func:`operators.boundary_violations`) and the ``theta_mode``
    name (:func:`operators.theta_mode_violations`) are checked before
    anything is assembled.  The initial condition is the raw
    (unsmoothed) payoff.  The returned field carries the operator it solved.
    ``fd_limit=True`` assembles with classical FD weights: on a
    :func:`~fxhhw.grids.uniform_grid`, the FD baseline scheme.
    """
    time_dependent = operators.time_dependent_operator(
        theta_mode, model.theta_d_params, model.theta_f_params
    )
    krylov = krylov or KrylovConfig()
    violations = (
        solver_violations(solver, time_dependent, delta_tau, option.maturity,
                          krylov.dim, grid.n)
        + operators.boundary_violations(boundary, option.kind)
        + operators.theta_mode_violations(theta_mode)
    )
    if violations:
        raise ConfigError(violations)
    T = option.maturity
    fl = feller_check(model)
    if not fl.satisfied:
        warnings.warn(
            f"Feller condition violated (ratio {fl.ratio:.3f} <= 1); the v=0 "
            "degenerate-row treatment assumes an inaccessible boundary",
            stacklevel=2,
        )
    op = operators.assemble_operator(
        grid, model, theta_mode=theta_mode, fd_limit=fd_limit, boundary=boundary
    )
    op = operators.impose_boundaries(op, boundary, option)
    # The assembly's blocks and term arrays are garbage from here on.
    _release_freed_heap()

    solver = _resolve_solver(solver, time_dependent)
    v = SOLVERS[solver](op, payoff_vector(grid, option), T, krylov, delta_tau)
    return SolutionField(values=v, grid=grid, tau=T, operator=op)


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


def greeks(field: SolutionField, rd=None, rf=None) -> GreeksSlice:
    """Greeks on the (s, v) slice at fixed (r_d, r_f).

    The slice is obtained by linear interpolation across the rate axes, then
    differentiated with the 1D first-derivative matrices of the operator
    the field was solved with, so a loaded field (no operator) is refused.
    """
    if field.operator is None:
        raise InvalidArgumentError(
            "greeks need the operator of a solved field; a loaded field has none"
        )
    g = field.grid
    rd = float(g.rd_nodes[0] if rd is None else rd)
    rf = float(g.rf_nodes[0] if rf is None else rf)
    bad = outside({"rd": rd, "rf": rf}, g.box)
    if bad:
        raise RangeError("greeks slice " + "; ".join(bad))

    di, dw = _axis_weights_linear(g.rd_nodes, rd)
    fi, fw = _axis_weights_linear(g.rf_nodes, rf)
    cube = field.reshape4()[np.ix_(fi, di)]  # (2, 2, m2, m1)
    slice_vals = np.einsum("f,d,fdvs->vs", fw, dw, cube)

    ms, mv = field.operator.d1["s"], field.operator.d1["v"]
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
