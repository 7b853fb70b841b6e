"""Experiment orchestration: single runs, refinement sweeps, surface export."""

from __future__ import annotations

import csv
import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import pricing
from .config import ExperimentConfig, size_violations
from .errors import ConfigError, RangeError
from .grids import AXES, outside
from .integrators import KrylovConfig, estimate_lambda_max
from .mc import simulate_price
from .operators import time_dependent_operator
from .pricing import SolutionField


@dataclass
class ConvergenceRow:
    """One grid's prices, relative errors and diagnostics (table-row layout)."""

    m: tuple
    values: list
    rel_errors: list
    elapsed: float
    re_lambda_max: float | None = None
    sym_lambda_max: float | None = None
    roc: list = field(default_factory=list)


@dataclass
class ExperimentReport:
    name: str
    config_hash: str
    rows: list
    query_labels: list
    mc_estimates: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def write_csv(self, path):
        """Deterministic CSV: prices/errors/diagnostics, no wall-clock column."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["m1", "m2", "m3", "m4"]
            for lab in self.query_labels:
                header += [lab, f"eps_{lab}"]
            header += ["re_lambda_max", "sym_lambda_max"]
            header += [f"roc_{lab}" for lab in self.query_labels]
            writer.writerow(header)
            for row in self.rows:
                out = list(row.m)
                for v, e in zip(row.values, row.rel_errors):
                    out += [repr(v), "" if e is None else repr(e)]
                out += [
                    "" if row.re_lambda_max is None else repr(row.re_lambda_max),
                    "" if row.sym_lambda_max is None else repr(row.sym_lambda_max),
                ]
                rocs = row.roc or [None] * len(self.query_labels)
                out += ["" if r is None else repr(r) for r in rocs]
                writer.writerow(out)

    def to_text(self):
        lines = [f"experiment: {self.name}  (config {self.config_hash})"]
        head = "  ".join(
            ["m".ljust(18)]
            + [f"{lab:>12} {('eps_' + lab):>12}" for lab in self.query_labels]
            + ["elapsed[s]".rjust(10)]
        )
        lines.append(head)
        for row in self.rows:
            cells = [f"{'x'.join(str(x) for x in row.m)}".ljust(18)]
            for v, e in zip(row.values, row.rel_errors):
                es = "-" if e is None else f"{e:.3e}"
                cells.append(f"{v:12.5f} {es:>12}")
            cells.append(f"{row.elapsed:10.2f}")
            lines.append("  ".join(cells))
            if row.sym_lambda_max is not None:
                lines.append(f"    sym lambda_max = {row.sym_lambda_max:.2f}"
                             + ("" if row.re_lambda_max is None
                                else f", dominant Re = {row.re_lambda_max:.4f}"))
        for label, est in self.mc_estimates:
            lines.append(
                f"  MC {label}: {est.price:.5f} +/- {est.stderr:.5f} ({est.paths} paths)"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def solve_field(cfg: ExperimentConfig) -> SolutionField:
    """Grid -> assembly -> boundary rows -> time integration, per the config."""
    return pricing.price(
        cfg.model,
        cfg.option,
        cfg.grid(),
        solver=cfg.solver,
        boundary=cfg.boundary,
        theta_mode=cfg.theta_mode,
        delta_tau=cfg.delta_tau,
        krylov=KrylovConfig(dim=cfg.krylov_dim),
    )


def _solve_row(cfg: ExperimentConfig):
    """Solve the config and price its queries: (field, ConvergenceRow)."""
    t0 = time.perf_counter()
    fld = solve_field(cfg)
    elapsed = time.perf_counter() - t0
    values = [fld.interpolate(q.point, method=cfg.interpolation) for q in cfg.queries]
    errors = [
        None if q.reference is None else pricing.relative_error(v, q.reference)
        for q, v in zip(cfg.queries, values)
    ]
    return fld, ConvergenceRow(m=cfg.m, values=values, rel_errors=errors, elapsed=elapsed)


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate_points(model, option, mc_cfg, points):
    """One ``simulate_price`` estimate per (s, v, r_d, r_f) point, in order.

    The points run side by side, at most one per usable CPU: the calling
    thread takes the first, a thread pool the rest, and the pool is joined
    before this returns, also on an error.  Each call draws in the thread that
    runs it, so these are the only threads the package starts.  Each estimate
    depends only on its point and ``mc_cfg`` (counter-based Philox draws), not
    on the thread.
    """
    models = [replace(model, s0=s, v0=v, rd0=rd, rf0=rf) for s, v, rd, rf in points]
    extra = min(len(models), _usable_cpus()) - 1
    if extra < 1:
        return [simulate_price(m, option, mc_cfg) for m in models]
    pool = ThreadPoolExecutor(max_workers=extra, thread_name_prefix="fxhhw-mc")
    try:
        rest = [pool.submit(simulate_price, m, option, mc_cfg) for m in models[1:]]
        first = simulate_price(models[0], option, mc_cfg)
        return [first, *(f.result() for f in rest)]
    finally:
        pool.shutdown(cancel_futures=True)


def run(cfg: ExperimentConfig, out_dir=None, save_field=False) -> ExperimentReport:
    """Execute one experiment and emit CSV + human-readable table."""
    fld, row = _solve_row(cfg)
    if cfg.compute_lambda_max:
        rep = estimate_lambda_max(fld.operator)
        row.re_lambda_max = rep.re_lambda_max
        row.sym_lambda_max = rep.sym_lambda_max

    report = ExperimentReport(
        name=cfg.name,
        config_hash=cfg.config_hash(),
        rows=[row],
        query_labels=[q.label or f"q{i}" for i, q in enumerate(cfg.queries)],
    )
    if cfg.mc is not None:
        estimates = simulate_points(cfg.model, cfg.option, cfg.mc,
                                    [q.point for q in cfg.queries])
        report.mc_estimates = list(zip(report.query_labels, estimates))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        report.write_csv(os.path.join(out_dir, f"{cfg.name}_results.csv"))
        with open(os.path.join(out_dir, f"{cfg.name}_report.txt"), "w") as fh:
            fh.write(report.to_text())
        if save_field:
            fld.save(os.path.join(out_dir, f"{cfg.name}_field.npz"))
    return report


def parse_ladder(ladder):
    """Sizes of a refinement ladder given as ``'8,16,32'`` or a sequence.

    Raises ConfigError unless there are at least 3 integer sizes, the first
    at least 4, each double the one before.
    """
    items = ladder.split(",") if isinstance(ladder, str) else ladder
    try:
        sizes = [int(x) for x in items]
    except (TypeError, ValueError):
        raise ConfigError([f"sweep ladder must be integer sizes, got {ladder!r}"]) from None
    if len(sizes) < 3:
        raise ConfigError([f"sweep ladder needs at least 3 sizes, got {sizes}"])
    if sizes[0] < 4 or any(b != 2 * a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError([f"sweep ladder must start at >= 4 and double at each rung, "
                           f"got {sizes}"])
    return sizes


def fill_roc(rows):
    """Set each row's ROC from its values and those of the two rows before it."""
    nq = len(rows[0].values)
    for i, row in enumerate(rows):
        row.roc = [None] * nq if i < 2 else [
            pricing.roc(rows[i - 2].values[k], rows[i - 1].values[k], row.values[k])
            for k in range(nq)
        ]


def sweep(cfg: ExperimentConfig, axis="s", ladder=(8, 16, 32), out_dir=None) -> ExperimentReport:
    """Refine one axis over a doubling ladder and report prices + ROC.  Every
    rung is checked against the grid and solver rules on its sizes before
    any is solved."""
    ladder = parse_ladder(ladder)
    if axis not in AXES:
        raise ConfigError([f"unknown sweep axis {axis!r}"])
    pos = AXES.index(axis)
    rungs = [cfg.with_m((*cfg.m[:pos], size, *cfg.m[pos + 1:])) for size in ladder]
    time_dependent = time_dependent_operator(
        cfg.theta_mode, cfg.model.theta_d_params, cfg.model.theta_f_params)
    violations = [f"sweep rung m={rung.m}: {v}" for rung in rungs
                  for v in size_violations(*rung.grid_settings()) + pricing.solver_violations(
                      rung.solver, time_dependent, rung.delta_tau, rung.option.maturity,
                      rung.krylov_dim, math.prod(rung.m))]
    if violations:
        raise ConfigError(violations)

    rows = [_solve_row(rung)[1] for rung in rungs]
    fill_roc(rows)
    report = ExperimentReport(
        name=f"{cfg.name}-sweep-{axis}",
        config_hash=cfg.config_hash(),
        rows=rows,
        query_labels=[q.label or f"q{i}" for i, q in enumerate(cfg.queries)],
    )
    defined = [r for row in rows for r in row.roc if r is not None]
    if defined:
        report.notes.append(
            f"mean ROC over {len(defined)} defined entries: {np.mean(defined):.3f}"
        )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        report.write_csv(os.path.join(out_dir, f"{report.name}_results.csv"))
    return report


def surface_export(field: SolutionField, slice_spec, path, fixed=None):
    """Write (x, y, V) triples for a 2D slice, e.g. slice_spec='sv'.

    ``fixed`` holds the values of the two remaining coordinates (defaults to
    the first node of each); a slice spec that does not name two distinct
    axes, and a value for a slice axis or an unknown axis, are ConfigErrors.
    Queries interpolate multilinearly, so a slice along grid axes at nodal
    fixed values reproduces stored values exactly.
    """
    axis = "|".join(AXES)
    match = re.fullmatch(f"({axis})({axis})", slice_spec)
    if not match or match[1] == match[2]:
        raise ConfigError([f"slice spec must name two distinct axes of {AXES}, "
                           f"got {slice_spec!r}"])
    ax_x, ax_y = parts = match.groups()
    g = field.grid
    fixed = dict(fixed or {})
    refused = [f"fixed value given for {a}, an axis of the {slice_spec!r} slice"
               for a in fixed if a in parts]
    refused += [f"fixed value given for unknown axis {a!r}" for a in fixed if a not in AXES]
    if refused:
        raise ConfigError(refused)
    point_template = {a: float(fixed.get(a, g.axis_nodes(a)[0]))
                      for a in AXES if a not in parts}
    bad = outside(point_template, g.box)
    if bad:
        raise RangeError("fixed " + "; ".join(bad))

    xs = g.axis_nodes(ax_x)
    ys = g.axis_nodes(ax_y)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([ax_x, ax_y, "value"])
        for y in ys:
            for x in xs:
                pt = {**point_template, ax_x: float(x), ax_y: float(y)}
                val = field.interpolate([pt[a] for a in AXES], "linear")
                writer.writerow([repr(float(x)), repr(float(y)), repr(val)])
    return len(xs) * len(ys)
