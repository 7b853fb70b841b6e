"""Uniform-grid central finite-difference baseline (comparison scheme).

Shares the assembly, boundary machinery and solvers of the main pipeline but
uses classical central weights (the wide-shape limit of the RBF-FD weights)
on uniform axes; mixed derivatives become the usual nine-point cross.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pricing
from .errors import InvalidArgumentError
from .grids import Grid4D
from .model import ModelParams, OptionSpec


@dataclass(frozen=True)
class FdkmConfig:
    """Uniform grid sizes and the (shared) domain bounds."""

    m: tuple
    s_max: float
    v_max: float = 10.0
    r_min: float = -1.0
    r_max: float = 1.0

    def __post_init__(self):
        if len(self.m) != 4 or any(int(mi) < 4 for mi in self.m):
            raise InvalidArgumentError("need four axis sizes, each >= 4")
        object.__setattr__(self, "m", tuple(int(mi) for mi in self.m))


def uniform_grid(cfg: FdkmConfig) -> Grid4D:
    m1, m2, m3, m4 = cfg.m
    return Grid4D(
        s_nodes=np.linspace(0.0, cfg.s_max, m1),
        v_nodes=np.linspace(0.0, cfg.v_max, m2),
        rd_nodes=np.linspace(cfg.r_min, cfg.r_max, m3),
        rf_nodes=np.linspace(cfg.r_min, cfg.r_max, m4),
    )


def fdkm_price(
    model: ModelParams,
    option: OptionSpec,
    cfg: FdkmConfig,
    solver="auto",
    boundary="dirichlet",
    theta_mode="time_dependent",
    delta_tau=None,
    krylov=None,
) -> pricing.SolutionField:
    """Price with the uniform-grid FD baseline; same pipeline otherwise."""
    grid = uniform_grid(cfg)
    return pricing.price(
        model,
        option,
        grid,
        solver=solver,
        boundary=boundary,
        theta_mode=theta_mode,
        delta_tau=delta_tau,
        krylov=krylov,
        fd_limit=True,
    )
