"""Truncated 4D computational domain with sinh-stretched non-uniform axes.

Nodes concentrate near the strike on the spot axis, near the initial variance
on the variance axis, and near the initial short rates on the two rate axes.
Endpoints hit the truncation bounds analytically (sinh/arcsinh identities).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridDegeneracyError, InvalidArgumentError

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
        if self.m < 4:
            raise InvalidArgumentError(f"axis needs m >= 4 nodes, got {self.m}")
        if not self.lower < self.upper:
            raise InvalidArgumentError(
                f"axis bounds must increase, got [{self.lower}, {self.upper}]"
            )
        if not self.xi > 0:
            raise InvalidArgumentError(f"stretch parameter must be positive, got {self.xi}")


def _finalize(nodes, spec, snap_ends=True):
    if snap_ends:
        nodes[0] = spec.lower
        nodes[-1] = spec.upper
    d = np.diff(nodes)
    if np.any(d <= DEGENERACY_TOL * (spec.upper - spec.lower)):
        raise GridDegeneracyError(
            f"axis with m={spec.m}, xi={spec.xi} produced degenerate increments"
        )
    return nodes


def build_focused_axis(spec: AxisSpec) -> np.ndarray:
    """Sinh-stretched axis clustering at ``focus`` (spot and variance axes).

    node(x) = focus + sinh(x*asinh(xi*(upper-focus)) - (1-x)*asinh(xi*(focus-lower)))/xi
    with x uniform on [0, 1]; x=0 and x=1 land exactly on the bounds.
    """
    if not spec.lower <= spec.focus < spec.upper:
        raise InvalidArgumentError(
            f"focus {spec.focus} outside [{spec.lower}, {spec.upper})"
        )
    if spec.xi < UNIFORM_XI_CUTOFF:
        return _finalize(np.linspace(spec.lower, spec.upper, spec.m), spec)
    x = np.linspace(0.0, 1.0, spec.m)
    hi = np.arcsinh(spec.xi * (spec.upper - spec.focus))
    lo = np.arcsinh(spec.xi * (spec.focus - spec.lower))
    nodes = spec.focus + np.sinh(x * hi - (1.0 - x) * lo) / spec.xi
    return _finalize(nodes, spec)


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
    nodes = build_focused_axis(spec)
    if np.any(nodes < -DEGENERACY_TOL) or np.any(nodes > spec.upper * (1 + 1e-12)):
        raise GridDegeneracyError("variance nodes escaped [0, v_max]")
    return nodes


def build_rate_axis(spec: AxisSpec) -> np.ndarray:
    """Short-rate axis on [r_min, r_max] concentrated at r0.

    Uses the sinh recursion with uniform steps in the arcsinh variable and
    scale d = r_max/xi, which closes the formula so the first/last nodes are
    exactly the bounds.
    """
    if spec.m < 2:
        raise InvalidArgumentError(f"rate axis needs m >= 2 nodes, got {spec.m}")
    if not spec.lower < spec.focus < spec.upper:
        raise InvalidArgumentError(
            f"rate axis needs r_min < r0 < r_max, got focus {spec.focus}"
        )
    if spec.xi < UNIFORM_XI_CUTOFF:
        return _finalize(np.linspace(spec.lower, spec.upper, spec.m), spec)
    d = spec.upper / spec.xi
    if d <= 0:
        raise InvalidArgumentError("rate axis requires upper bound > 0 for the sinh scale")
    zlo = np.arcsinh((spec.lower - spec.focus) / d)
    zhi = np.arcsinh((spec.upper - spec.focus) / d)
    z = zlo + (zhi - zlo) * np.arange(spec.m) / (spec.m - 1)
    nodes = spec.focus + d * np.sinh(z)
    return _finalize(nodes, spec)


@dataclass(frozen=True)
class Grid4D:
    """Tensor grid over (s, v, r_d, r_f) with strictly increasing axes."""

    s_nodes: np.ndarray
    v_nodes: np.ndarray
    rd_nodes: np.ndarray
    rf_nodes: np.ndarray
    ds: np.ndarray = field(init=False, repr=False)
    dv: np.ndarray = field(init=False, repr=False)
    drd: np.ndarray = field(init=False, repr=False)
    drf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("s_nodes", "v_nodes", "rd_nodes", "rf_nodes"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.size < 2:
                raise InvalidArgumentError(f"{name} must be a 1D axis with >= 2 nodes")
            if np.any(np.diff(arr) <= 0.0):
                raise GridDegeneracyError(f"{name} is not strictly increasing")
        object.__setattr__(self, "ds", np.diff(self.s_nodes))
        object.__setattr__(self, "dv", np.diff(self.v_nodes))
        object.__setattr__(self, "drd", np.diff(self.rd_nodes))
        object.__setattr__(self, "drf", np.diff(self.rf_nodes))

    @property
    def shape(self):
        return (
            self.s_nodes.size,
            self.v_nodes.size,
            self.rd_nodes.size,
            self.rf_nodes.size,
        )

    @property
    def n(self):
        m1, m2, m3, m4 = self.shape
        return m1 * m2 * m3 * m4

    def axis_nodes(self, axis):
        return {
            "s": self.s_nodes,
            "v": self.v_nodes,
            "rd": self.rd_nodes,
            "rf": self.rf_nodes,
        }[axis]


def build_grid(s_spec, v_spec, rd_spec, rf_spec) -> Grid4D:
    """Assemble the four axes into a Grid4D (natural ordering: s fastest)."""
    return Grid4D(
        s_nodes=build_s_axis(s_spec),
        v_nodes=build_v_axis(v_spec),
        rd_nodes=build_rate_axis(rd_spec),
        rf_nodes=build_rate_axis(rf_spec),
    )


def uniform_grid(m, s_max, v_max=10.0, r_min=-1.0, r_max=1.0) -> Grid4D:
    """Uniform axes of sizes ``m`` over the same box: the FD baseline's grid."""
    if len(m) != 4 or any(int(mi) < 4 for mi in m):
        raise InvalidArgumentError(f"need four axis sizes, each >= 4, got {m}")
    m1, m2, m3, m4 = (int(mi) for mi in m)
    return Grid4D(
        s_nodes=np.linspace(0.0, s_max, m1),
        v_nodes=np.linspace(0.0, v_max, m2),
        rd_nodes=np.linspace(r_min, r_max, m3),
        rf_nodes=np.linspace(r_min, r_max, m4),
    )
