"""Closed-form Gaussian RBF-FD weights on non-uniform 1D stencils.

First derivatives use a three-node stencil ``{x-h, x, x+omega*h}``, second
derivatives a four-node stencil ``{x-wm*h, x-h, x, x+wp*h}``.  The closed
forms are the printed two-term forms: the leading 1/h finite-difference part
plus one h/c^2 term.  As ``c -> inf`` they reduce to the classical non-uniform
FD weights (available directly via the ``fd_limit_*`` helpers, which the
uniform-grid baseline scheme reuses).

A brute-force dense collocation solver is provided as an independent oracle:
it computes weights that reproduce the exact derivative of every Gaussian
basis function centered at the stencil nodes.  The printed h/c^2 term equals
the collocation weights' own first-order term only on the uniform three-node
stencil (at omega = 1.6 it is (-0.369, -0.400, +0.769) h/c^2 against the
collocation's (-0.862, +0.400, +0.462) h/c^2).  So the closed forms agree with
the oracle to O((h/c)^2) relative everywhere (gap/(h/c)^2 tends to 2.0 on
three nodes and about 5.7 on four as h/c -> 0), and exactly only in the
wide-shape limit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InvalidArgumentError

# Below this c/h ratio the weights leave the wide-shape regime the closed
# forms were derived in; still usable, but flagged.
SHAPE_WARN_RATIO = 5.0

# Step ratios closer to degeneracy than this are rejected outright.
RATIO_FLOOR = 1e-8

# Collocation solves with a larger condition estimate are refused.
ORACLE_COND_LIMIT = 1e14


class ShapeParameterWarning(UserWarning):
    """Shape parameter is not well separated from the local step size."""


def check_geometry(h, c, **ratios):
    """Reject non-positive steps, step ratios below ``RATIO_FLOOR`` and c < h.

    Elementwise over arrays of steps and ratios, so one call checks every row
    of a differentiation matrix; ``c=None`` (the FD limit) skips the shape
    checks.
    """
    h = np.asarray(h, dtype=float)
    if not np.all((h > 0) & np.isfinite(h)):
        raise InvalidArgumentError(f"h must be positive, got {np.min(h)}")
    for name, r in ratios.items():
        if not np.all(np.asarray(r) >= RATIO_FLOOR):
            raise InvalidArgumentError(
                f"{name} must be >= {RATIO_FLOOR}, got {np.min(r)}"
            )
    if c is None:
        return
    if not (c > 0 and np.isfinite(c)):
        raise InvalidArgumentError(f"c must be positive, got {c}")
    if np.any(c < h):
        raise InvalidArgumentError(
            f"shape parameter c={c} below the step h={np.max(h)}"
        )


def _warn_shape_regime(h, c, where):
    if c < SHAPE_WARN_RATIO * h:
        warnings.warn(
            f"{where}: c/h = {c / h:.3g} < {SHAPE_WARN_RATIO}; weights are "
            "outside their asymptotic validity regime",
            ShapeParameterWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class StencilGeometry1:
    """Three-node stencil geometry: left step h, right step omega_plus*h."""

    h: float
    omega_plus: float
    c: float

    def __post_init__(self):
        check_geometry(self.h, self.c, omega_plus=self.omega_plus)
        _warn_shape_regime(self.h, self.c, "StencilGeometry1")

    @property
    def offsets(self):
        return np.array([-self.h, 0.0, self.omega_plus * self.h])


@dataclass(frozen=True)
class StencilGeometry2:
    """Four-node stencil geometry: nodes at {-w_minus2*h, -h, 0, +w_plus1*h}."""

    h: float
    w_minus2: float
    w_plus1: float
    c: float

    def __post_init__(self):
        # w_minus2 = 1 collapses nodes i-2 and i-1; < 1 breaks the ordering.
        check_geometry(
            self.h, self.c, w_plus1=self.w_plus1, w_minus2_minus_1=self.w_minus2 - 1.0
        )
        _warn_shape_regime(self.h, self.c, "StencilGeometry2")

    @property
    def offsets(self):
        return np.array([-self.w_minus2 * self.h, -self.h, 0.0, self.w_plus1 * self.h])


@dataclass(frozen=True)
class WeightSet:
    """Stencil weights paired with the node offsets they multiply."""

    weights: np.ndarray
    node_offsets: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        d = np.atleast_1d(np.asarray(self.node_offsets, dtype=float))
        if w.shape != d.shape:
            raise InvalidArgumentError("weights and node_offsets lengths differ")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "node_offsets", d)

    def apply(self, f, x0=0.0):
        """Apply the weights to callable ``f`` around center ``x0``."""
        vals = np.asarray(f(x0 + self.node_offsets), dtype=float)
        if vals.ndim == 0:
            vals = np.full(self.weights.shape, float(vals))
        return float(np.dot(self.weights, vals))


@dataclass(frozen=True)
class ShapeParams:
    """Per-axis Gaussian shape parameters tied to the largest axis increment."""

    c_s: float
    c_v: float
    c_rd: float
    c_rf: float

    def for_axis(self, axis):
        return {"s": self.c_s, "v": self.c_v, "rd": self.c_rd, "rf": self.c_rf}[axis]


def gaussian_rbf(r, c):
    """Gaussian kernel exp(-(r/c)^2) for distance r >= 0 and shape c > 0."""
    if not c > 0:
        raise InvalidArgumentError(f"shape parameter must be positive, got {c}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidArgumentError("distances must be nonnegative")
    out = np.exp(-((r / c) ** 2))
    return float(out) if out.ndim == 0 else out


def first_weight_rows(h, w, c=None):
    """Three-node first-derivative weights (alpha_{i-1}, alpha_i, alpha_{i+1}).

    Elementwise over arrays of steps ``h`` and ratios ``w``: returns a
    (3, ...) array.  ``c=None`` gives the classical FD limit.  No validation;
    see :func:`check_geometry`.
    """
    if c is None:
        am = -w / (h * (w + 1.0))
        a0 = (w - 1.0) / (h * w)
        ap = 1.0 / (h * w * (w + 1.0))
        return np.array([am, a0, ap])
    c2 = c * c
    h2 = h * h
    am = w * (h2 * (2.0 * w - 5.0) - 3.0 * c2) / (3.0 * c2 * h * (w + 1.0))
    a0 = (w - 1.0) / (h * w) - 2.0 * h * (w - 1.0) / (3.0 * c2)
    ap = (h2 * (5.0 * w - 2.0) / c2 + 3.0 / w) / (3.0 * h * (w + 1.0))
    return np.array([am, a0, ap])


def second_weight_rows(h, wm, wp, c=None):
    """Four-node second-derivative weights (beta_{i-2}, ..., beta_{i+1}).

    Elementwise over arrays of ``h``, ``wm``, ``wp``: returns a (4, ...)
    array.  ``c=None`` gives the classical FD limit.  No validation.
    """
    if c is None:
        h2 = h * h
        bm2 = 2.0 * (wp - 1.0) / (h2 * (wm - 1.0) * wm * (wm + wp))
        bm1 = 2.0 * (wm - wp) / (h2 * (wm - 1.0) * (wp + 1.0))
        b0 = -2.0 * (wm - wp + 1.0) / (h2 * wm * wp)
        bp1 = 2.0 * (wm + 1.0) / (h2 * (wm + wp) * (wp * wp + wp))
        return np.array([bm2, bm1, b0, bp1])
    c2 = c * c
    h2 = h * h
    mu1 = (
        -wp * (2.0 * c2 + h2 * wm * (wm + 3.0) + 3.0 * h2)
        + wm * (2.0 * c2 + h2 * wm + 3.0 * h2)
        + h2 * (wm + 1.0) * wp * wp
    )
    mu2 = (
        -wm * (2.0 * c2 + h2 * (wp - 1.0) * wp + h2)
        + (wp - 1.0) * (2.0 * c2 - h2 * wp)
        + h2 * (wp - 1.0) * wm * wm
    )
    bm2 = (
        (wp - 1.0) * (2.0 * c2 - h2 * wp)
        + 3.0 * h2 * wm * wm * (wp - 1.0)
        - h2 * wm * ((wp - 3.0) * wp + 1.0)
    ) / (c2 * h2 * (wm - 1.0) * wm * (wm + wp))
    bm1 = mu1 / (c2 * h2 * (wm - 1.0) * (wp + 1.0))
    b0 = mu2 / (c2 * h2 * wm * wp)
    bp1 = (
        (wm + 1.0) * (2.0 * c2 + h2 * wm)
        + 3.0 * h2 * (wm + 1.0) * wp * wp
        - h2 * (wm * (wm + 3.0) + 1.0) * wp
    ) / (c2 * h2 * wp * (wp + 1.0) * (wm + wp))
    return np.array([bm2, bm1, b0, bp1])


def first_derivative_weights(g: StencilGeometry1) -> WeightSet:
    """Three-node first-derivative weights (alpha_{i-1}, alpha_i, alpha_{i+1})."""
    return WeightSet(first_weight_rows(g.h, g.omega_plus, g.c), g.offsets)


def second_derivative_weights(g: StencilGeometry2) -> WeightSet:
    """Four-node second-derivative weights (beta_{i-2}, ..., beta_{i+1})."""
    return WeightSet(second_weight_rows(g.h, g.w_minus2, g.w_plus1, g.c), g.offsets)


def boundary_first_weights(h, c) -> WeightSet:
    """Two-node one-sided first-derivative weights for the first grid row.

    Returns (h/c^2 - 1/h, 1/h) on offsets (0, h).  The last row uses the same
    pair on offsets (-h, 0).
    """
    if not h > 0:
        raise InvalidArgumentError(f"step must be positive, got {h}")
    if not c > 0:
        raise InvalidArgumentError(f"shape parameter must be positive, got {c}")
    return WeightSet(np.array([h / (c * c) - 1.0 / h, 1.0 / h]), np.array([0.0, h]))


def boundary_second_weights(c, h=1.0) -> WeightSet:
    """Two-node one-sided second-derivative weights (-4/c^2, 2/c^2).

    The weights are independent of the step; ``h`` only fixes the reported
    node offsets (0, h).
    """
    if not c > 0:
        raise InvalidArgumentError(f"shape parameter must be positive, got {c}")
    if not h > 0:
        raise InvalidArgumentError(f"step must be positive, got {h}")
    c2 = c * c
    return WeightSet(np.array([-4.0 / c2, 2.0 / c2]), np.array([0.0, h]))


def near_boundary_second_weights(h, omega1, c) -> WeightSet:
    """Three-node second-derivative weights for the second grid row.

    Stencil {x2 - h, x2, x2 + omega1*h}: left gap h, right gap omega1*h (the
    same step-ratio convention as the three-node first-derivative stencil).
    In the wide-shape limit this reduces exactly to the classical non-uniform
    central second difference.  First-order only; used where the four-node
    stencil would need a ghost node.
    """
    if not h > 0:
        raise InvalidArgumentError(f"step must be positive, got {h}")
    if not omega1 >= RATIO_FLOOR:
        raise InvalidArgumentError(f"omega1 must be >= {RATIO_FLOOR}, got {omega1}")
    if not c > 0:
        raise InvalidArgumentError(f"shape parameter must be positive, got {c}")
    c2 = c * c
    h2 = h * h
    b1 = 2.0 * ((2.0 * (omega1 - 2.0) * omega1 + 5.0) / c2 + 3.0 / h2) / (
        3.0 * (omega1 + 1.0)
    )
    b2 = 2.0 * ((-2.0 * omega1 * omega1 + omega1 - 2.0) / c2 - 3.0 / h2) / (
        3.0 * omega1
    )
    b3 = (6.0 * c2 + 2.0 * h2 * (omega1 * (5.0 * omega1 - 4.0) + 2.0)) / (
        3.0 * c2 * h2 * omega1 * (omega1 + 1.0)
    )
    return WeightSet(np.array([b1, b2, b3]), np.array([-h, 0.0, omega1 * h]))


def fd_limit_first_weights(h, omega) -> WeightSet:
    """Classical non-uniform 3-node first-derivative weights (c -> inf limit)."""
    check_geometry(h, None, omega=omega)
    return WeightSet(first_weight_rows(h, omega), np.array([-h, 0.0, omega * h]))


def fd_limit_second_weights(h, wm, wp) -> WeightSet:
    """Classical non-uniform 4-node second-derivative weights (c -> inf limit)."""
    check_geometry(h, None, wp=wp, wm_minus_1=wm - 1.0)
    return WeightSet(
        second_weight_rows(h, wm, wp), np.array([-wm * h, -h, 0.0, wp * h])
    )


def shape_parameters(grid) -> ShapeParams:
    """Per-axis shape parameters: c_s = 2 max(ds), c_v/c_rd/c_rf = 3 max(d.)."""
    for name in ("s_nodes", "v_nodes", "rd_nodes", "rf_nodes"):
        if len(getattr(grid, name)) < 2:
            raise InvalidArgumentError(f"axis {name} needs at least 2 nodes")
    return ShapeParams(
        c_s=2.0 * float(np.max(grid.ds)),
        c_v=3.0 * float(np.max(grid.dv)),
        c_rd=3.0 * float(np.max(grid.drd)),
        c_rf=3.0 * float(np.max(grid.drf)),
    )


def collocation_weights_oracle(node_offsets, c, order) -> WeightSet:
    """Brute-force RBF-FD weights from the dense Gaussian collocation system.

    Solves the n x n system whose solution reproduces the ``order``-th
    derivative, at offset 0, of every Gaussian basis function centered at the
    stencil nodes.  Partial-pivoting LU via LAPACK; refuses systems with a
    condition estimate above ``ORACLE_COND_LIMIT``.

    The float64 solve loses accuracy as c/h grows (the flat limit of Gaussian
    collocation), long before that guard trips, so passing it does not mean
    the weights are good to 1e-6.  Worst relative error against a 50-digit
    solve of the same system, over 1,000 random geometries per entry: four
    nodes 1e-9, 7e-8, 1e-5 and 1e-3 at h/c = 0.1, 0.05, 0.02 and 0.01 (medians
    2e-11, 1e-9, 3e-7, 2e-5); three nodes 3e-8 and 5e-7 at h/c = 0.01 and
    0.005.
    """
    d = np.asarray(node_offsets, dtype=float)
    if d.ndim != 1 or not 2 <= d.size <= 6:
        raise InvalidArgumentError("expected 2..6 node offsets")
    if order not in (1, 2):
        raise InvalidArgumentError(f"order must be 1 or 2, got {order}")
    if not c > 0:
        raise InvalidArgumentError(f"shape parameter must be positive, got {c}")
    span = d.max() - d.min()
    if span <= 0 or np.min(np.diff(np.sort(d))) < RATIO_FLOOR * span:
        raise InvalidArgumentError("node offsets must be distinct")

    A = gaussian_rbf(np.abs(d[:, None] - d[None, :]), c)
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > ORACLE_COND_LIMIT:
        raise ConditioningError("collocation system too ill-conditioned", cond)
    g = np.exp(-((d / c) ** 2))
    if order == 1:
        rhs = g * (2.0 * d / c**2)
    else:
        rhs = g * (4.0 * d**2 / c**4 - 2.0 / c**2)
    return WeightSet(np.linalg.solve(A, rhs), d)
