"""Truncated 4D computational domain with sinh-stretched non-uniform axes.

This module is the one home of the domain: the axis table ``AXES`` with the
natural ordering of a field vector (the spot index varies fastest, then
variance, then the domestic and foreign rates), the one sinh stretch map
every axis is built with, the box the axes span and the in-domain rule.

Nodes concentrate near the strike on the spot axis, near the initial variance
on the variance axis, and near the initial short rates on the two rate axes.
Endpoints are snapped to the truncation bounds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridDegeneracyError, InvalidArgumentError, integer_violations

# Axis names in natural order: position k is dimension k of Grid4D.shape.
AXES = ("s", "v", "rd", "rf")

# Below this stretch the sinh map is numerically indistinguishable from
# linear; switch to uniform spacing to avoid catastrophic cancellation.
UNIFORM_XI_CUTOFF = 1e-10

# Increments smaller than this fraction of the axis length are degenerate.
DEGENERACY_TOL = 1e-13


@dataclass(frozen=True)
class AxisSpec:
    """One axis of the computational box.

    ``focus`` is the concentration point (strike, v0, or r0); ``xi`` controls
    how strongly nodes cluster around it (larger = tighter).
    """

    m: int
    lower: float
    upper: float
    focus: float
    xi: float

    def __post_init__(self):
        violations = integer_violations("m", self.m, 4,
                                        below="axis needs m >= {low} nodes, got {value}")
        if not self.lower < self.upper:
            violations.append(f"axis bounds must increase, got [{self.lower}, {self.upper}]")
        if not self.xi > 0:
            violations.append(f"stretch parameter must be positive, got {self.xi}")
        if violations:
            raise InvalidArgumentError(violations)


def checked_steps(nodes):
    """The increments of an axis; GridDegeneracyError unless every one
    exceeds ``DEGENERACY_TOL`` times the axis length."""
    d = np.diff(nodes)
    if np.any(d <= DEGENERACY_TOL * (nodes[-1] - nodes[0])):
        raise GridDegeneracyError(f"axis on [{nodes[0]}, {nodes[-1]}] has degenerate steps")
    return d


def build_focused_axis(spec: AxisSpec) -> np.ndarray:
    """The sinh-stretched axis clustering at ``focus``; every axis is one.

    node(x) = focus + sinh(x*asinh(xi*(upper-focus)) - (1-x)*asinh(xi*(focus-lower)))/xi
    with x uniform on [0, 1]; x=0 and x=1 land on the bounds.
    """
    if not spec.lower <= spec.focus < spec.upper:
        raise InvalidArgumentError(
            f"focus {spec.focus} outside [{spec.lower}, {spec.upper})"
        )
    if spec.xi < UNIFORM_XI_CUTOFF:
        nodes = np.linspace(spec.lower, spec.upper, spec.m)
    else:
        x = np.linspace(0.0, 1.0, spec.m)
        hi = np.arcsinh(spec.xi * (spec.upper - spec.focus))
        lo = np.arcsinh(spec.xi * (spec.focus - spec.lower))
        nodes = spec.focus + np.sinh(x * hi - (1.0 - x) * lo) / spec.xi
    nodes[0], nodes[-1] = spec.lower, spec.upper
    checked_steps(nodes)
    return nodes


def build_s_axis(spec: AxisSpec) -> np.ndarray:
    """Spot axis on [0, s_max] concentrated at the strike."""
    if not (spec.lower == 0.0 and 0.0 < spec.focus < spec.upper):
        raise InvalidArgumentError(
            f"spot axis needs 0 = lower < strike < s_max, got "
            f"[{spec.lower}, {spec.upper}] with focus {spec.focus}"
        )
    return build_focused_axis(spec)


def build_v_axis(spec: AxisSpec) -> np.ndarray:
    """Variance axis on [0, v_max] concentrated at v0."""
    if not (spec.lower == 0.0 and 0.0 <= spec.focus < spec.upper):
        raise InvalidArgumentError(
            f"variance axis needs 0 <= v0 < v_max, got focus {spec.focus}, "
            f"bounds [{spec.lower}, {spec.upper}]"
        )
    return build_focused_axis(spec)


def build_rate_axis(spec: AxisSpec) -> np.ndarray:
    """Short-rate axis on [r_min, r_max] concentrated at r0.

    The focused axis with stretch xi/r_max: the rate axis measures its
    stretch against the upper bound, so scaling the bounds and r0 together
    scales the nodes and keeps their layout.
    """
    if not spec.lower < spec.focus < spec.upper:
        raise InvalidArgumentError(
            f"rate axis needs r_min < r0 < r_max, got focus {spec.focus}"
        )
    if not spec.upper > 0:
        raise InvalidArgumentError("rate axis requires upper bound > 0 for the sinh scale")
    return build_focused_axis(dataclasses.replace(spec, xi=spec.xi / spec.upper))


def domain_box(s_max, v_max, r_min, r_max):
    """The truncated domain [0, s_max] x [0, v_max] x [r_min, r_max]^2 as
    {axis: (lower, upper)}."""
    return dict(zip(AXES, ((0.0, s_max), (0.0, v_max), (r_min, r_max), (r_min, r_max))))


def outside(coords, box):
    """Each coordinate of ``coords`` ({axis: value}) outside ``box``
    ({axis: (lower, upper)}), as a message; [] when all lie inside.  A NaN
    coordinate is outside."""
    return [f"{ax}={x} outside [{box[ax][0]}, {box[ax][1]}]"
            for ax, x in coords.items() if not box[ax][0] <= x <= box[ax][1]]


@dataclass(frozen=True)
class Grid4D:
    """Tensor grid over (s, v, r_d, r_f) with strictly increasing axes.

    A field on the grid is a vector of length ``n`` in natural ordering;
    :meth:`view4` and :meth:`index` are the one statement of that layout.
    """

    s_nodes: np.ndarray
    v_nodes: np.ndarray
    rd_nodes: np.ndarray
    rf_nodes: np.ndarray

    def __post_init__(self):
        for ax in AXES:
            name = f"{ax}_nodes"
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.size < 2:
                raise InvalidArgumentError(f"{name} must be a 1D axis with >= 2 nodes")
            checked_steps(arr)

    @property
    def shape(self):
        """Axis sizes (m1, m2, m3, m4) in ``AXES`` order."""
        return tuple(self.axis_nodes(ax).size for ax in AXES)

    @property
    def n(self):
        return math.prod(self.shape)

    @property
    def box(self):
        """{axis: (first node, last node)}: the box the axes span."""
        return {ax: (self.axis_nodes(ax)[0], self.axis_nodes(ax)[-1]) for ax in AXES}

    def axis_nodes(self, axis):
        return getattr(self, f"{axis}_nodes")

    def steps(self, axis):
        """The increments along ``axis``."""
        return np.diff(self.axis_nodes(axis))

    def view4(self, values):
        """A field vector as a 4D array indexed [i_rf, i_rd, i_v, i_s]."""
        return np.asarray(values).reshape(self.shape[::-1])

    def index(self, axis):
        """Each node's index along ``axis``, as a field vector."""
        k = AXES.index(axis)
        along = np.arange(self.shape[k]).reshape((-1,) + (1,) * k)
        return np.broadcast_to(along, self.shape[::-1]).ravel()


# The builder of each axis, in AXES order.
AXIS_BUILDERS = (build_s_axis, build_v_axis, build_rate_axis, build_rate_axis)


def build_grid(s_spec, v_spec, rd_spec, rf_spec) -> Grid4D:
    """Assemble the four axes into a Grid4D."""
    specs = (s_spec, v_spec, rd_spec, rf_spec)
    return Grid4D(*(build(spec) for build, spec in zip(AXIS_BUILDERS, specs)))


def uniform_grid(m, s_max, v_max=10.0, r_min=-1.0, r_max=1.0) -> Grid4D:
    """Uniform axes of sizes ``m`` over the same box: the FD baseline's grid."""
    if not hasattr(m, "__len__") or len(m) != 4:
        raise InvalidArgumentError(f"need four axis sizes, got {m!r}")
    violations = [v for ax, mi in zip(AXES, m)
                  for v in integer_violations(f"{ax} axis size", mi, 4)]
    if violations:
        raise InvalidArgumentError(violations)
    box = domain_box(s_max, v_max, r_min, r_max)
    return Grid4D(*(np.linspace(*box[ax], mi) for ax, mi in zip(AXES, m)))
