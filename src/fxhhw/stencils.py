"""Closed-form Gaussian RBF-FD weights on non-uniform 1D stencils.

One function per kind of differentiation-matrix row, each returning plain
weight arrays and validating its own geometry through :func:`check_geometry`:

- :func:`first_weight_rows`: three nodes ``{x-h, x, x+w*h}``, first derivative;
- :func:`second_weight_rows`: four nodes ``{x-wm*h, x-h, x, x+wp*h}``, second
  derivative;
- :func:`near_boundary_second_row`: three nodes ``{x-hl, x, x+hr}``, second
  derivative on the second grid row;
- :func:`boundary_first_row` and :func:`boundary_second_row`: the two-node
  one-sided pairs of the end rows.

The first two evaluate elementwise over arrays of steps and ratios, so a
matrix builder fills every interior row in one call.  Each row is its
classical non-uniform FD weights plus the printed 1/c^2 correction (h/c^2
on first-derivative rows); ``c=None`` drops the correction, leaving the FD
weights, the c -> inf limit the uniform-grid baseline scheme uses.

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

import numpy as np

from .errors import ConditioningError, InvalidArgumentError
from .grids import AXES

# Below this c/h ratio the weights leave the wide-shape regime the closed
# forms were derived in; still usable, but flagged.
SHAPE_WARN_RATIO = 5.0

# Step ratios closer to degeneracy than this are rejected outright.
RATIO_FLOOR = 1e-8

# Collocation solves with a larger condition estimate are refused.
ORACLE_COND_LIMIT = 1e14


class ShapeParameterWarning(UserWarning):
    """Shape parameter is not well separated from the local step size."""


def check_geometry(h, c=None, below_step_ok=False, **ratios):
    """Reject non-positive steps, step ratios below ``RATIO_FLOOR`` and bad c.

    Elementwise over arrays of steps and ratios, so one call checks every row
    of a differentiation matrix.  ``h=None`` skips the step checks and
    ``c=None`` (the FD limit) the shape checks.  A shape parameter must be
    positive and finite, and at least the step unless ``below_step_ok``: the
    interior stencils hold to that rule, the end rows and row 2 do not.
    """
    if h is not None:
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
    if not below_step_ok and h is not None and np.any(c < h):
        raise InvalidArgumentError(
            f"shape parameter c={c} below the step h={np.max(h)}"
        )


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

    Stencil {x-h, x, x+w*h}, elementwise over arrays of steps ``h`` and
    ratios ``w``: returns a (3, ...) array, the FD weights plus
    h/(3c^2) [w(2w-5)/(w+1), 2(1-w), (5w-2)/(w+1)].
    """
    h, w = np.broadcast_arrays(h, w)
    check_geometry(h, c, omega_plus=w)
    fd = np.array([-w / (h * (w + 1.0)), (w - 1.0) / (h * w), 1.0 / (h * w * (w + 1.0))])
    if c is None:
        return fd
    return fd + h / (3.0 * c * c) * np.array(
        [w * (2.0 * w - 5.0) / (w + 1.0), 2.0 * (1.0 - w), (5.0 * w - 2.0) / (w + 1.0)]
    )


def second_weight_rows(h, wm, wp, c=None):
    """Four-node second-derivative weights (beta_{i-2}, ..., beta_{i+1}).

    Stencil {x-wm*h, x-h, x, x+wp*h}, elementwise over arrays of ``h``,
    ``wm``, ``wp``: returns a (4, ...) array, the FD weights plus a 1/c^2
    correction that depends on the ratios only.
    """
    h, wm, wp = np.broadcast_arrays(h, wm, wp)
    # wm = 1 collapses nodes i-2 and i-1; wm < 1 breaks the ordering.
    check_geometry(h, c, w_plus1=wp, w_minus2_minus_1=wm - 1.0)
    h2 = h * h
    fd = np.array([
        2.0 * (wp - 1.0) / (h2 * (wm - 1.0) * wm * (wm + wp)),
        2.0 * (wm - wp) / (h2 * (wm - 1.0) * (wp + 1.0)),
        -2.0 * (wm - wp + 1.0) / (h2 * wm * wp),
        2.0 * (wm + 1.0) / (h2 * (wm + wp) * (wp * wp + wp)),
    ])
    if c is None:
        return fd
    return fd + np.array([
        (3.0 * wm * wm * (wp - 1.0) - wp * (wp - 1.0) - wm * ((wp - 3.0) * wp + 1.0))
        / ((wm - 1.0) * wm * (wm + wp)),
        ((wm + 1.0) * wp * wp - wp * (wm * (wm + 3.0) + 3.0) + wm * (wm + 3.0))
        / ((wm - 1.0) * (wp + 1.0)),
        ((wp - 1.0) * wm * wm - wm * ((wp - 1.0) * wp + 1.0) - (wp - 1.0) * wp) / (wm * wp),
        (3.0 * (wm + 1.0) * wp * wp - (wm * (wm + 3.0) + 1.0) * wp + (wm + 1.0) * wm)
        / (wp * (wp + 1.0) * (wm + wp)),
    ]) / (c * c)


def near_boundary_second_row(hl, hr, c=None):
    """Three-node second-derivative weights for the second grid row.

    Stencil {x-hl, x, x+hr}: the classical non-uniform central second
    difference plus a 1/c^2 correction written in the step ratio
    omega = hr/hl, the convention of the three-node first-derivative
    stencil.  First-order only; used where the four-node stencil would need
    a ghost node.
    """
    check_geometry(np.array([hl, hr]))
    fd = np.array([2.0 / (hl * (hl + hr)), -2.0 / (hl * hr), 2.0 / (hr * (hl + hr))])
    if c is None:
        return fd
    # The ratio floor binds the correction only: the FD weights take the gaps.
    w = hr / hl
    check_geometry(None, c, below_step_ok=True, omega1=w)
    return fd + 2.0 / (3.0 * c * c) * np.array(
        [(2.0 * (w - 2.0) * w + 5.0) / (w + 1.0), (w - 2.0 * w * w - 2.0) / w,
         (w * (5.0 * w - 4.0) + 2.0) / (w * (w + 1.0))]
    )


def boundary_first_row(h, c=None):
    """Two-node one-sided first-derivative weights for the end rows.

    The FD pair (-1/h, 1/h) plus (h/c^2, 0) on the first row's offsets
    (0, h); the last row uses the same pair on (-h, 0).
    """
    check_geometry(h, c, below_step_ok=True)
    fd = np.array([-1.0 / h, 1.0 / h])
    return fd if c is None else fd + np.array([h / (c * c), 0.0])


def boundary_second_row(c):
    """Two-node one-sided second-derivative weights (-4/c^2, 2/c^2).

    The pair is independent of the step, and vanishes in the FD limit, where
    the end rows of a second-derivative matrix are empty.
    """
    check_geometry(None, c)
    c2 = c * c
    return np.array([-4.0 / c2, 2.0 / c2])


def shape_parameters(grid):
    """Per-axis shape parameters {axis: c}: c = 2 max(ds) on the spot axis
    and 3 max(d) on the variance and rate axes."""
    return {axis: (2.0 if axis == "s" else 3.0) * float(np.max(grid.steps(axis)))
            for axis in AXES}


def collocation_weights_oracle(node_offsets, c, order):
    """Brute-force RBF-FD weights from the dense Gaussian collocation system.

    Solves the n x n system whose solution reproduces the ``order``-th
    derivative, at offset 0, of every Gaussian basis function centered at the
    stencil nodes, and returns the n weights in the order of
    ``node_offsets``.  Partial-pivoting LU via LAPACK; refuses systems with a
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
    return np.linalg.solve(A, rhs)
