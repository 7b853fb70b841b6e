"""Experiment configuration: YAML ingestion, validation, grid construction."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import yaml

from .errors import ConfigError
from .fdkm import FdkmConfig, uniform_grid
from .grids import AxisSpec, Grid4D, build_grid
from .mc import McConfig
from .model import ModelParams, OptionSpec, correlation_matrix, levels_time_dependent
from .operators import BOUNDARY_MODES, THETA_MODES
from .pricing import SOLVERS

METHODS = ("pm", "fdkm")
INTERPOLATIONS = ("linear", "cubic")


@dataclass
class QueryPoint:
    """Interpolation query (s, v, r_d, r_f) with an optional reference price."""

    point: tuple
    reference: float | None = None
    label: str = ""


@dataclass
class ExperimentConfig:
    name: str
    model: ModelParams
    option: OptionSpec
    m: tuple
    s_max: float
    v_max: float = 10.0
    r_min: float = -1.0
    r_max: float = 1.0
    xi_s: float = 0.1
    xi_v: float = 50.0
    xi_rd: float = 500.0
    xi_rf: float = 500.0
    method: str = "pm"
    solver: str = "auto"
    boundary: str = "dirichlet"
    theta_mode: str = "time_dependent"
    delta_tau: float | None = None
    krylov_dim: int | None = None
    krylov_tol: float = 1e-9
    interpolation: str = "cubic"
    queries: list = field(default_factory=list)
    mc: McConfig | None = None
    seed: int = 0
    compute_lambda_max: bool = False

    def grid(self) -> Grid4D:
        m1, m2, m3, m4 = self.m
        if self.method == "fdkm":
            return uniform_grid(
                FdkmConfig(m=self.m, s_max=self.s_max, v_max=self.v_max,
                           r_min=self.r_min, r_max=self.r_max)
            )
        return build_grid(
            AxisSpec(m1, 0.0, self.s_max, self.option.strike, self.xi_s),
            AxisSpec(m2, 0.0, self.v_max, self.model.v0, self.xi_v),
            AxisSpec(m3, self.r_min, self.r_max, self.model.rd0, self.xi_rd),
            AxisSpec(m4, self.r_min, self.r_max, self.model.rf0, self.xi_rf),
        )

    def with_m(self, m):
        out = ExperimentConfig(**{**self.__dict__, "m": tuple(int(x) for x in m)})
        return out

    def canonical_dict(self):
        d = dict(self.__dict__)
        d["model"] = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in self.model.__dict__.items()
        }
        d["option"] = dict(self.option.__dict__)
        d["queries"] = [
            {"point": list(q.point), "reference": q.reference, "label": q.label}
            for q in self.queries
        ]
        d["mc"] = dict(self.mc.__dict__) if self.mc else None
        return d

    def config_hash(self):
        blob = yaml.safe_dump(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _require(cond, msg, violations):
    if not cond:
        violations.append(msg)


def from_dict(raw: dict, name="experiment") -> ExperimentConfig:
    """Build and validate a config from a plain dict; collects all violations."""
    violations = []
    md = raw.get("model", {})
    od = raw.get("option", {})
    gd = raw.get("grid", {})
    sd = raw.get("solver", {})

    for key, positive in (
        ("kappa", True), ("gamma", True), ("eta_d", True), ("eta_f", True),
        ("vbar", False), ("v0", False), ("s0", True),
    ):
        val = md.get(key)
        _require(val is not None, f"model.{key} missing", violations)
        if val is not None:
            if positive:
                _require(val > 0, f"model.{key} must be positive, got {val}", violations)
            else:
                _require(val >= 0, f"model.{key} must be nonnegative, got {val}", violations)
    kind = od.get("kind")
    _require(kind in ("call", "put"), f"option.kind must be call|put, got {kind!r}", violations)
    _require(od.get("strike", 0) > 0, "option.strike must be positive", violations)
    _require(od.get("maturity", 0) > 0, "option.maturity must be positive", violations)

    m = tuple(gd.get("m", ()))
    _require(len(m) == 4 and all(int(x) >= 4 for x in m),
             f"grid.m must be four sizes >= 4, got {m}", violations)

    solver = sd.get("solver", "auto")
    boundary = sd.get("boundary", "dirichlet")
    theta_mode = sd.get("theta_mode", "time_dependent")
    method = sd.get("method", "pm")
    interpolation = sd.get("interpolation", "cubic")
    _require(solver in SOLVERS, f"solver must be one of {SOLVERS}, got {solver!r}", violations)
    _require(boundary in BOUNDARY_MODES, f"boundary must be one of {BOUNDARY_MODES}, got {boundary!r}", violations)
    _require(theta_mode in THETA_MODES, f"theta_mode must be one of {THETA_MODES}", violations)
    _require(method in METHODS, f"method must be one of {METHODS}, got {method!r}", violations)
    _require(interpolation in INTERPOLATIONS,
             f"interpolation must be one of {INTERPOLATIONS}", violations)
    delta_tau = sd.get("delta_tau")
    if solver == "midpoint":
        _require(delta_tau is not None and delta_tau > 0,
                 "solver.delta_tau must be positive for the midpoint solver", violations)

    theta_d = tuple(md.get("theta_d", (0.0, 0.0, 0.0)))
    theta_f = tuple(md.get("theta_f", (0.0, 0.0, 0.0)))
    if (
        solver == "krylov"
        and theta_mode == "time_dependent"
        and len(theta_d) == len(theta_f) == 3  # else ModelParams reports the length
        and levels_time_dependent(theta_d, theta_f)
    ):
        violations.append(
            "solver 'krylov' requires a time-independent operator; "
            "use theta_mode 'constant_approx' or solver 'midpoint'"
        )
    if boundary in ("dirichlet", "neumann_flux") and kind == "put":
        violations.append(
            f"boundary {boundary!r} pins s=0 at the payoff, inconsistent with a put; use 'abc'"
        )

    corr = md.get("correlation", {})
    model = option = None
    if not violations:
        try:
            model = ModelParams(
                s0=float(md["s0"]), v0=float(md["v0"]),
                rd0=float(md.get("rd0", 0.0)), rf0=float(md.get("rf0", 0.0)),
                kappa=float(md["kappa"]), vbar=float(md["vbar"]), gamma=float(md["gamma"]),
                lambda_d=float(md.get("lambda_d", 0.0)), lambda_f=float(md.get("lambda_f", 0.0)),
                eta_d=float(md["eta_d"]), eta_f=float(md["eta_f"]),
                theta_d_params=theta_d, theta_f_params=theta_f,
                correlation=correlation_matrix(
                    corr.get("sv", 0.0), corr.get("sd", 0.0), corr.get("sf", 0.0),
                    corr.get("vd", 0.0), corr.get("vf", 0.0), corr.get("df", 0.0),
                ),
            )
            option = OptionSpec(kind=kind, strike=float(od["strike"]),
                                maturity=float(od["maturity"]))
        except Exception as err:  # surfaced with the rest, field-specific
            violations.append(str(err))
    if violations:
        raise ConfigError(violations)

    queries = []
    for q in raw.get("queries", []):
        queries.append(
            QueryPoint(point=tuple(float(x) for x in q["point"]),
                       reference=q.get("reference"), label=q.get("label", ""))
        )
    mc_cfg = None
    if "mc" in raw and raw["mc"]:
        mc_cfg = McConfig(
            paths=int(raw["mc"].get("paths", 200_000)),
            steps_per_year=int(raw["mc"].get("steps_per_year", 200)),
            seed=int(raw["mc"].get("seed", raw.get("seed", 0))),
            antithetic=bool(raw["mc"].get("antithetic", False)),
        )
    return ExperimentConfig(
        name=raw.get("name", name),
        model=model,
        option=option,
        m=tuple(int(x) for x in m),
        s_max=float(gd.get("s_max", 14.0 * option.strike)),
        v_max=float(gd.get("v_max", 10.0)),
        r_min=float(gd.get("r_min", -1.0)),
        r_max=float(gd.get("r_max", 1.0)),
        xi_s=float(gd.get("xi_s", 0.1)),
        xi_v=float(gd.get("xi_v", 50.0)),
        xi_rd=float(gd.get("xi_rd", 500.0)),
        xi_rf=float(gd.get("xi_rf", 500.0)),
        method=method,
        solver=solver,
        boundary=boundary,
        theta_mode=theta_mode,
        delta_tau=None if delta_tau is None else float(delta_tau),
        krylov_dim=None if sd.get("krylov_dim") is None else int(sd["krylov_dim"]),
        krylov_tol=float(sd.get("krylov_tol", 1e-9)),
        interpolation=interpolation,
        queries=queries,
        mc=mc_cfg,
        seed=int(raw.get("seed", 0)),
        compute_lambda_max=bool(raw.get("compute_lambda_max", False)),
    )


def from_yaml(path) -> ExperimentConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError([f"config file {path} did not parse to a mapping"])
    return from_dict(raw, name=str(path))


def bundled_config_path(name):
    """Path to one of the packaged experiment configs (e.g. 'experiment1')."""
    ref = resources.files("fxhhw").joinpath("configs", f"{name}.yaml")
    if not ref.is_file():
        raise ConfigError([f"no bundled config named {name!r}"])
    return str(ref)
