"""Experiment configuration: YAML ingestion, validation, grid construction."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from importlib import resources

import numpy as np
import yaml

from .errors import ConfigError
from .grids import AxisSpec, Grid4D, build_grid, uniform_grid
from .mc import McConfig
from .model import ModelParams, OptionSpec, correlation_matrix
from .operators import (
    BOUNDARY_MODES,
    THETA_MODES,
    put_pinning_violation,
    time_dependent_operator,
)
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
    krylov_dim: int | None = None  # None: the largest basis the budget allows
    interpolation: str = "cubic"
    queries: list = field(default_factory=list)
    mc: McConfig | None = None
    seed: int = 0
    compute_lambda_max: bool = False

    def grid(self) -> Grid4D:
        m1, m2, m3, m4 = self.m
        if self.method == "fdkm":
            return uniform_grid(self.m, self.s_max, self.v_max, self.r_min, self.r_max)
        return build_grid(
            AxisSpec(m1, 0.0, self.s_max, self.option.strike, self.xi_s),
            AxisSpec(m2, 0.0, self.v_max, self.model.v0, self.xi_v),
            AxisSpec(m3, self.r_min, self.r_max, self.model.rd0, self.xi_rd),
            AxisSpec(m4, self.r_min, self.r_max, self.model.rf0, self.xi_rf),
        )

    def with_m(self, m):
        return replace(self, m=tuple(int(x) for x in m))

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


# correlation_matrix's arguments, in order.
CORRELATION_KEYS = ("sv", "sd", "sf", "vd", "vf", "df")
GRID_KEYS = ("m", "s_max", "v_max", "r_min", "r_max", "xi_s", "xi_v", "xi_rd", "xi_rf")
SOLVER_KEYS = ("solver", "boundary", "theta_mode", "method", "interpolation",
               "delta_tau", "krylov_dim")
# The keys from_dict reads, per entry; any other key is a violation.
KNOWN_KEYS = {
    "": ("name", "model", "option", "grid", "solver", "queries", "mc", "seed",
         "compute_lambda_max"),
    "model": ("s0", "v0", "rd0", "rf0", "kappa", "vbar", "gamma", "lambda_d",
              "lambda_f", "eta_d", "eta_f", "theta_d", "theta_f", "correlation"),
    "model.correlation": CORRELATION_KEYS,
    "option": tuple(f.name for f in fields(OptionSpec)),
    "grid": GRID_KEYS,
    "solver": SOLVER_KEYS,
    "mc": ("paths", "steps_per_year", "seed", "antithetic"),  # McConfig fields
    "queries": tuple(f.name for f in fields(QueryPoint)),
}


def _require(cond, msg, violations):
    if not cond:
        violations.append(msg)


def _mapping(value, where, violations):
    """``value`` as a mapping, None as empty; a non-mapping and each key not
    in ``KNOWN_KEYS`` are violations."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        violations.append(f"{where or 'config'} must be a mapping, got {value!r}")
        return {}
    for key in value:
        if key not in KNOWN_KEYS[where.split("[")[0]]:
            violations.append(f"unknown key {where + '.' if where else ''}{key}")
    return value


def from_dict(raw: dict, name="experiment") -> ExperimentConfig:
    """Build and validate a config from a plain dict; collects all violations."""
    violations = []
    raw = _mapping(raw, "", violations)
    md = _mapping(raw.get("model"), "model", violations)
    corr = _mapping(md.get("correlation"), "model.correlation", violations)
    od = _mapping(raw.get("option"), "option", violations)
    gd = _mapping(raw.get("grid"), "grid", violations)
    sd = _mapping(raw.get("solver"), "solver", violations)
    mcd = _mapping(raw.get("mc"), "mc", violations)
    qs = raw.get("queries") or []
    if not isinstance(qs, list):
        violations.append(f"queries must be a list, got {qs!r}")
        qs = []
    qs = [_mapping(q, f"queries[{i}]", violations) for i, q in enumerate(qs)]

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

    # Unset solver keys take the ExperimentConfig defaults.
    sol = {key: sd.get(key, getattr(ExperimentConfig, key)) for key in SOLVER_KEYS}
    _require(sol["solver"] in SOLVERS,
             f"solver must be one of {SOLVERS}, got {sol['solver']!r}", violations)
    _require(sol["boundary"] in BOUNDARY_MODES,
             f"boundary must be one of {BOUNDARY_MODES}, got {sol['boundary']!r}", violations)
    _require(sol["theta_mode"] in THETA_MODES,
             f"theta_mode must be one of {THETA_MODES}", violations)
    _require(sol["method"] in METHODS,
             f"method must be one of {METHODS}, got {sol['method']!r}", violations)
    _require(sol["interpolation"] in INTERPOLATIONS,
             f"interpolation must be one of {INTERPOLATIONS}", violations)
    if sol["solver"] == "midpoint":
        _require(sol["delta_tau"] is not None and sol["delta_tau"] > 0,
                 "solver.delta_tau must be positive for the midpoint solver", violations)

    theta_d = tuple(md.get("theta_d", (0.0, 0.0, 0.0)))
    theta_f = tuple(md.get("theta_f", (0.0, 0.0, 0.0)))
    if (
        sol["solver"] == "krylov"
        and len(theta_d) == len(theta_f) == 3  # else ModelParams reports the length
        and time_dependent_operator(sol["theta_mode"], theta_d, theta_f)
    ):
        violations.append(
            "solver 'krylov' requires a time-independent operator; "
            "use theta_mode 'constant_approx' or solver 'midpoint'"
        )
    pinning = put_pinning_violation(sol["boundary"], kind)
    if pinning:
        violations.append(pinning)

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
                correlation=correlation_matrix(*(corr.get(k, 0.0) for k in CORRELATION_KEYS)),
            )
            option = OptionSpec(kind=kind, strike=float(od["strike"]),
                                maturity=float(od["maturity"]))
        except Exception as err:  # surfaced with the rest, field-specific
            violations.append(str(err))
    if violations:
        raise ConfigError(violations)

    queries = [
        QueryPoint(point=tuple(float(x) for x in q["point"]),
                   reference=q.get("reference"), label=q.get("label", ""))
        for q in qs
    ]
    mc_cfg = None
    if mcd:
        # Each value takes the type of its McConfig default.
        mc_cfg = McConfig(**{key: type(getattr(McConfig, key))(val)
                             for key, val in {"seed": raw.get("seed", 0), **mcd}.items()})
    if sol["delta_tau"] is not None:
        sol["delta_tau"] = float(sol["delta_tau"])
    if sol["krylov_dim"] is not None:
        sol["krylov_dim"] = int(sol["krylov_dim"])
    # Unset grid keys take the ExperimentConfig defaults.
    grid = {"s_max": 14.0 * option.strike,
            **{key: float(gd[key]) for key in GRID_KEYS[1:] if key in gd}}
    return ExperimentConfig(
        name=raw.get("name", name),
        model=model,
        option=option,
        m=tuple(int(x) for x in m),
        **grid,
        **sol,
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
