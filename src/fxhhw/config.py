"""Experiment configuration: YAML ingestion, validation, grid construction."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from importlib import resources

import numpy as np
import yaml

from .errors import ConfigError, InvalidArgumentError, ModelConfigError
from .grids import AXES, AxisSpec, Grid4D, build_grid, domain_box, outside, uniform_grid
from .integrators import krylov_dim_violations
from .mc import McConfig
from .model import ModelParams, OptionSpec, correlation_matrix
from .operators import THETA_MODES, boundary_violations, time_dependent_operator
from .pricing import solver_violations

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
        box = (self.s_max, self.v_max, self.r_min, self.r_max)
        if self.method == "fdkm":
            return uniform_grid(self.m, *box)
        focus = (self.option.strike, self.model.v0, self.model.rd0, self.model.rf0)
        xi = (self.xi_s, self.xi_v, self.xi_rd, self.xi_rf)
        return build_grid(*(
            AxisSpec(m, *bounds, f, x)
            for m, bounds, f, x in zip(self.m, domain_box(*box).values(), focus, xi)
        ))

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
# domain_box's arguments, in order.
BOX_KEYS = ("s_max", "v_max", "r_min", "r_max")
GRID_KEYS = ("m", *BOX_KEYS, "xi_s", "xi_v", "xi_rd", "xi_rf")
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


def _items(kind, n):
    """Converter of a sequence of exactly ``n`` items, each by ``kind``."""
    def convert(value):
        out = tuple(kind(x) for x in value)
        if len(out) != n:
            raise ValueError(value)
        return out
    return convert


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
    """Build and validate a config from a plain dict; collects all violations.

    Every value is converted to the type it configures; a value that does not
    convert is a violation like one out of range, so a bad config raises
    :class:`ConfigError` and nothing else.
    """
    violations = []

    def convert(value, where, kind=float, what="a number", valid=lambda x: True):
        """``kind(value)`` when it converts and is ``valid``; otherwise None,
        with the violation "``where`` must be ``what``" recorded."""
        try:
            out = kind(value)
            if valid(out):
                return out
        except (TypeError, ValueError):
            pass
        violations.append(f"{where} must be {what}, got {value!r}")
        return None

    def optional(value, where, kind=float, what="a number"):
        return None if value is None else convert(value, where, kind, what)

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

    positive = ("a positive number", lambda x: x > 0)
    nonnegative = ("a nonnegative number", lambda x: x >= 0)
    model_values = {}
    for key, (what, valid) in (
        ("kappa", positive), ("gamma", positive), ("eta_d", positive),
        ("eta_f", positive), ("vbar", nonnegative), ("v0", nonnegative), ("s0", positive),
    ):
        if md.get(key) is None:
            violations.append(f"model.{key} missing")
        else:
            model_values[key] = convert(md[key], f"model.{key}", what=what, valid=valid)
    for key in ("rd0", "rf0", "lambda_d", "lambda_f"):
        model_values[key] = convert(md.get(key, 0.0), f"model.{key}")
    theta_d, theta_f = (
        convert(md.get(key, (0.0, 0.0, 0.0)), f"model.{key}", _items(float, 3),
                "3 coefficients (a1, a2, a3)")
        for key in ("theta_d", "theta_f")
    )
    rho = [convert(corr.get(k, 0.0), f"model.correlation.{k}") for k in CORRELATION_KEYS]
    kind = od.get("kind")
    _require(kind in ("call", "put"), f"option.kind must be call|put, got {kind!r}", violations)
    strike, maturity = (convert(od.get(key, 0), f"option.{key}", float, *positive)
                        for key in ("strike", "maturity"))

    m = convert(gd.get("m", ()), "grid.m", _items(int, 4), "four sizes >= 4",
                valid=lambda m: min(m) >= 4)
    # Unset grid keys take the ExperimentConfig defaults; s_max's is 14 strikes.
    grid = {key: convert(gd[key], f"grid.{key}") for key in GRID_KEYS[1:] if key in gd}
    grid.setdefault("s_max", None if strike is None else 14.0 * strike)
    bounds = [grid.get(key, getattr(ExperimentConfig, key, None)) for key in BOX_KEYS]

    # Unset solver keys take the ExperimentConfig defaults.
    sol = {key: sd.get(key, getattr(ExperimentConfig, key)) for key in SOLVER_KEYS}
    sol["delta_tau"] = optional(sol["delta_tau"], "solver.delta_tau")
    sol["krylov_dim"] = optional(sol["krylov_dim"], "solver.krylov_dim", int, "an integer")
    if m is not None:
        violations += [f"solver.krylov_dim: {v}"
                       for v in krylov_dim_violations(sol["krylov_dim"], math.prod(m))]
    _require(sol["theta_mode"] in THETA_MODES,
             f"theta_mode must be one of {THETA_MODES}", violations)
    _require(sol["method"] in METHODS,
             f"method must be one of {METHODS}, got {sol['method']!r}", violations)
    _require(sol["interpolation"] in INTERPOLATIONS,
             f"interpolation must be one of {INTERPOLATIONS}", violations)
    time_dependent = None not in (theta_d, theta_f) and time_dependent_operator(
        sol["theta_mode"], theta_d, theta_f
    )
    # An unconvertible delta_tau is reported already; the rules would only
    # repeat it as missing.
    if sd.get("delta_tau") is None or sol["delta_tau"] is not None:
        violations += solver_violations(sol["solver"], time_dependent, sol["delta_tau"],
                                        maturity)
    violations += boundary_violations(sol["boundary"], kind)

    seed = convert(raw.get("seed", 0), "seed", int, "an integer")
    # McConfig values take the type of their McConfig default.
    mc_values = {
        key: convert(val, f"mc.{key}", type(getattr(McConfig, key)), "an integer")
        for key, val in mcd.items() if key in KNOWN_KEYS["mc"]
    }
    queries = [
        (convert(q.get("point"), f"queries[{i}].point", _items(float, 4),
                 "four numbers (s, v, rd, rf)"),
         optional(q.get("reference"), f"queries[{i}].reference"))
        for i, q in enumerate(qs)
    ]
    if None not in bounds:
        box = domain_box(*bounds)
        violations += [f"queries[{i}].point has {v}"
                       for i, (point, _) in enumerate(queries) if point is not None
                       for v in outside(dict(zip(AXES, point)), box)]

    model = option = mc_cfg = None
    if not violations:
        try:
            model = ModelParams(
                **model_values, theta_d_params=theta_d, theta_f_params=theta_f,
                correlation=correlation_matrix(*rho),
            )
            option = OptionSpec(kind=kind, strike=strike, maturity=maturity)
            if mcd:
                mc_cfg = McConfig(**{"seed": seed, **mc_values})
        except (ModelConfigError, InvalidArgumentError) as err:  # field-specific
            violations.append(str(err))
    if violations:
        raise ConfigError(violations)

    return ExperimentConfig(
        name=raw.get("name", name),
        model=model,
        option=option,
        m=m,
        **grid,
        **sol,
        queries=[QueryPoint(point=point, reference=ref, label=q.get("label", ""))
                 for (point, ref), q in zip(queries, qs)],
        mc=mc_cfg,
        seed=seed,
        compute_lambda_max=bool(raw.get("compute_lambda_max", False)),
    )


def from_yaml(path) -> ExperimentConfig:
    """Load and validate a YAML config; a file that cannot be read or parsed
    is a ConfigError like an invalid value."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as err:
        reason = " ".join(str(err).split())  # YAML parse errors span several lines
        raise ConfigError([f"cannot read config {path}: {reason}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError([f"config file {path} did not parse to a mapping"])
    return from_dict(raw, name=str(path))


def bundled_config_path(name):
    """Path to one of the packaged experiment configs (e.g. 'experiment1')."""
    ref = resources.files("fxhhw").joinpath("configs", f"{name}.yaml")
    if not ref.is_file():
        raise ConfigError([f"no bundled config named {name!r}"])
    return str(ref)
