"""Experiment configuration: YAML ingestion, strict conversion, grid construction."""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources

import yaml

from .errors import ConfigError, GridDegeneracyError, InvalidArgumentError, ModelConfigError
from .grids import AXES, AXIS_BUILDERS, AxisSpec, Grid4D, build_grid, domain_box, outside
from .mc import McConfig
from .model import CORRELATION_KEYS, ModelParams, OptionSpec, correlation_matrix
from .operators import boundary_violations, theta_mode_violations, time_dependent_operator
from .pricing import interpolation_violations, solver_violations


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
    solver: str = "auto"
    boundary: str = "dirichlet"
    theta_mode: str = "time_dependent"
    delta_tau: float | None = None
    krylov_dim: int | None = None  # None: the largest basis the budget allows
    interpolation: str = "cubic"
    queries: list = field(default_factory=list)
    mc: McConfig | None = None
    compute_lambda_max: bool = False

    def grid_settings(self):
        """(m, box, focus, xi), the arguments of :func:`size_violations`."""
        return (self.m, [getattr(self, key) for key in BOX_KEYS],
                (self.option.strike, self.model.v0, self.model.rd0, self.model.rf0),
                [getattr(self, f"xi_{ax}") for ax in AXES])

    def grid(self) -> Grid4D:
        return build_grid(*(AxisSpec(*args) for args in _axis_args(*self.grid_settings())))

    def with_m(self, m):
        return replace(self, m=tuple(int(x) for x in m))

    def canonical_dict(self):
        d = asdict(self)
        d["model"]["correlation"] = self.model.correlation.tolist()
        return d

    def config_hash(self):
        blob = yaml.safe_dump(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _axis_args(m, box, focus, xi):
    """The AxisSpec arguments (m, lower, upper, focus, xi) of each axis."""
    return [(mk, *bounds, f, x)
            for mk, bounds, f, x in zip(m, domain_box(*box).values(), focus, xi)]


def size_violations(m, box, focus, xi):
    """Every violation, named by its key, of the rules of the axis builders
    ``ExperimentConfig.grid`` calls on the axis sizes ``m`` (box bounds in
    ``BOX_KEYS`` order, the focus and stretch of each axis in ``AXES``
    order), each axis apart."""
    out = []
    for k, (ax, build, args) in enumerate(zip(AXES, AXIS_BUILDERS,
                                              _axis_args(m, box, focus, xi))):
        try:
            build(AxisSpec(*args))
        except (InvalidArgumentError, GridDegeneracyError) as err:
            out += [f"grid, {ax} axis (grid.m[{k}] = {args[0]}): {v}" for v in err.violations]
    return out


# domain_box's arguments, in order.
BOX_KEYS = ("s_max", "v_max", "r_min", "r_max")
GRID_KEYS = ("m", *BOX_KEYS, "xi_s", "xi_v", "xi_rd", "xi_rf")
SOLVER_KEYS = ("solver", "boundary", "theta_mode", "interpolation", "delta_tau",
               "krylov_dim")
# The model keys set ModelParams' float fields; those in MODEL_DEFAULTS may be unset.
MODEL_SCALARS = tuple(f.name for f in fields(ModelParams) if f.type == "float")
MODEL_DEFAULTS = {"rd0": 0.0, "rf0": 0.0, "lambda_d": 0.0, "lambda_f": 0.0}
# The keys from_dict reads, per entry; any other key is a violation.
KNOWN_KEYS = {
    "": ("name", "model", "option", "grid", "solver", "queries", "mc", "compute_lambda_max"),
    "model": (*MODEL_SCALARS, "theta_d", "theta_f", "correlation"),
    "model.correlation": CORRELATION_KEYS,
    "option": tuple(f.name for f in fields(OptionSpec)),
    "grid": GRID_KEYS,
    "solver": SOLVER_KEYS,
    "mc": tuple(f.name for f in fields(McConfig)),
    "queries": tuple(f.name for f in fields(QueryPoint)),
}


def _strict(kind):
    """Converter to ``kind`` (float, int or bool) that takes only a value of
    that kind: a number but no boolean for float, a whole number for int (40
    and 40.0, not 40.5 or true), a boolean for bool."""
    def convert(value):
        if isinstance(value, bool) != (kind is bool):
            raise TypeError(value)
        if kind is int and not float(value).is_integer():
            raise ValueError(value)
        return kind(float(value)) if kind is int else kind(value)
    return convert


def _items(kind, n):
    """Converter of a sequence of exactly ``n`` items, each by ``kind``."""
    def convert(value):
        out = tuple(kind(x) for x in value)
        if len(out) != n:
            raise ValueError(value)
        return out
    return convert


# The converter of each declared field type, and what a valid value is.  A
# name (str) is taken as it is: the rule that owns the names refuses others.
CONVERTERS = {"float": (_strict(float), "a number"), "int": (_strict(int), "an integer"),
              "bool": (_strict(bool), "a boolean (true or false)")}
# The declared type of each field, per type that config keys set fields of.
FIELD_TYPES = {cls: {f.name: f.type for f in fields(cls)}
               for cls in (ExperimentConfig, ModelParams, OptionSpec, McConfig, QueryPoint)}
REQUIRED = object()  # the default of a key that must be set


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

    Every value converts strictly to the type it configures, or is a
    violation.  The rules come from their owners, each called once; a bad
    config raises :class:`ConfigError` and nothing else.
    """
    violations = []

    def convert(value, where, kind, what):
        """``kind(value)``, or None with "``where`` must be ``what``" recorded."""
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            violations.append(f"{where} must be {what}, got {value!r}")
            return None

    def typed(entry, where, owner, key, default=None):
        """``entry[key]`` converted to the type ``owner`` declares ("X | None" takes
        None too), or ``default`` when unset (a violation if ``REQUIRED``)."""
        where = f"{where}.{key}".lstrip(".")
        if entry.get(key) is None and default is REQUIRED:
            violations.append(f"{where} missing")
            return None
        if key not in entry:
            return default
        value, declared = entry[key], FIELD_TYPES[owner][key]
        kind = declared.removesuffix(" | None")
        if kind == "str" or (value is None and kind != declared):
            return value
        return convert(value, where, *CONVERTERS[kind])

    def build(section, owner, **values):
        """``owner(**values)`` if all converted; its violations go under ``section``."""
        if any(value is None for value in values.values()):
            return None
        try:
            return owner(**values)
        except (ModelConfigError, InvalidArgumentError) as err:
            violations.extend(f"{section}.{v}" for v in err.violations)
            return None

    raw = _mapping(raw, "", violations)
    md = _mapping(raw.get("model"), "model", violations)
    corr = _mapping(md.get("correlation"), "model.correlation", violations)
    od, gd, sd, mcd = (_mapping(raw.get(key), key, violations)
                       for key in ("option", "grid", "solver", "mc"))
    qs = raw.get("queries") or []
    if not isinstance(qs, list):
        violations.append(f"queries must be a list, got {qs!r}")
        qs = []
    qs = [_mapping(q, f"queries[{i}]", violations) for i, q in enumerate(qs)]

    params = {key: typed(md, "model", ModelParams, key, MODEL_DEFAULTS.get(key, REQUIRED))
              for key in MODEL_SCALARS}
    theta_d, theta_f = (convert(md.get(key, (0.0, 0.0, 0.0)), f"model.{key}",
                                _items(_strict(float), 3), "3 coefficients (a1, a2, a3)")
                        for key in ("theta_d", "theta_f"))
    rho = [convert(corr.get(k, 0.0), f"model.correlation.{k}", *CONVERTERS["float"])
           for k in CORRELATION_KEYS]
    model = build("model", ModelParams, **params, theta_d_params=theta_d, theta_f_params=theta_f,
                  correlation=None if None in rho else correlation_matrix(*rho))
    opt = {key: typed(od, "option", OptionSpec, key, REQUIRED) for key in KNOWN_KEYS["option"]}
    option = build("option", OptionSpec, **opt)

    # grid.m converts to four integers; the ">= 4" is the axis builders' rule.
    m = convert(gd.get("m", ()), "grid.m", _items(_strict(int), 4), "four sizes >= 4")
    # Unset grid and solver keys take the ExperimentConfig defaults; s_max's
    # is 14 strikes.
    s_max = None if opt["strike"] is None else 14.0 * opt["strike"]
    grid = {key: typed(gd, "grid", ExperimentConfig, key, getattr(ExperimentConfig, key, s_max))
            for key in GRID_KEYS[1:]}
    sol = {key: typed(sd, "solver", ExperimentConfig, key, getattr(ExperimentConfig, key))
           for key in SOLVER_KEYS}
    violations += theta_mode_violations(sol["theta_mode"])
    violations += interpolation_violations(sol["interpolation"])
    time_dependent = None not in (theta_d, theta_f) and time_dependent_operator(
        sol["theta_mode"], theta_d, theta_f)
    # An unconvertible delta_tau is reported already; the step rule would
    # only repeat it as missing.  An invalid option skips the maturity check,
    # an invalid grid.m the Krylov basis budget.
    dt_reported = sd.get("delta_tau") is not None and sol["delta_tau"] is None
    violations += [v for v in solver_violations(
                       sol["solver"], time_dependent, sol["delta_tau"],
                       option and option.maturity, sol["krylov_dim"], m and math.prod(m))
                   if not (dt_reported and v.startswith("solver.delta_tau"))]
    violations += boundary_violations(sol["boundary"], opt["kind"])

    compute_lambda_max = typed(raw, "", ExperimentConfig, "compute_lambda_max",
                               ExperimentConfig.compute_lambda_max)
    mc = {key: typed(mcd, "mc", McConfig, key) for key in mcd if key in KNOWN_KEYS["mc"]}
    mc_cfg = build("mc", McConfig, **mc) if mcd else None

    queries = [QueryPoint(point=convert(q.get("point"), f"queries[{i}].point",
                                        _items(_strict(float), 4), "four numbers (s, v, rd, rf)"),
                          reference=typed(q, f"queries[{i}]", QueryPoint, "reference"),
                          label=q.get("label", "")) for i, q in enumerate(qs)]
    box = [grid[key] for key in BOX_KEYS]
    if None not in box:
        violations += [f"queries[{i}].point has {v}"
                       for i, q in enumerate(queries) if q.point is not None
                       for v in outside(dict(zip(AXES, q.point)), domain_box(*box))]
    focus = (opt["strike"], params["v0"], params["rd0"], params["rf0"])
    xi = [grid[f"xi_{ax}"] for ax in AXES]
    if None not in (m, *box, *focus, *xi):
        violations += size_violations(m, box, focus, xi)

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(
        name=raw.get("name", name), model=model, option=option, m=m, **grid, **sol,
        queries=queries, mc=mc_cfg, compute_lambda_max=compute_lambda_max,
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
