"""Experiment orchestration: single runs, refinement sweeps, surface export."""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import pricing
from .config import ExperimentConfig
from .errors import ConfigError, RangeError
from .integrators import KrylovConfig, estimate_lambda_max
from .mc import simulate_price
from .pricing import SolutionField

WORKERS_ENV = "FXHHW_WORKERS"
# Axis name -> position in the grid shape (m1, m2, m3, m4).
SLICE_AXES = {"s": 0, "v": 1, "rd": 2, "rf": 3}


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
    config_echo: dict = field(default_factory=dict)
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
                                else f", rightmost Re = {row.re_lambda_max:.4f}"))
        for label, est in self.mc_estimates:
            lines.append(
                f"  MC {label}: {est.price:.5f} +/- {est.stderr:.5f} ({est.paths} paths)"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def solve_field(cfg: ExperimentConfig) -> SolutionField:
    """Grid -> assembly -> boundary rows -> time integration, per the config."""
    grid = cfg.grid()
    krylov = KrylovConfig(dim=cfg.krylov_dim, tol=cfg.krylov_tol)
    return pricing.price(
        cfg.model,
        cfg.option,
        grid,
        solver=cfg.solver,
        boundary=cfg.boundary,
        theta_mode=cfg.theta_mode,
        delta_tau=cfg.delta_tau,
        krylov=krylov,
        fd_limit=(cfg.method == "fdkm"),
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
        config_echo=cfg.canonical_dict(),
    )
    if cfg.mc is not None:
        for qp, label in zip(cfg.queries, report.query_labels):
            s, v0q, rd, rf = qp.point
            mc_model = replace(cfg.model, s0=s, v0=v0q, rd0=rd, rf0=rf)
            report.mc_estimates.append((label, simulate_price(mc_model, cfg.option, cfg.mc)))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        report.write_csv(os.path.join(out_dir, f"{cfg.name}_results.csv"))
        with open(os.path.join(out_dir, f"{cfg.name}_report.txt"), "w") as fh:
            fh.write(report.to_text())
        if save_field:
            fld.save(os.path.join(out_dir, f"{cfg.name}_field.npz"))
    return report


def _sweep_entry(args):
    cfg, m = args
    return _solve_row(cfg.with_m(m))[1]


def sweep(cfg: ExperimentConfig, axis="s", ladder=(8, 16, 32), workers=None,
          solver_fn=None) -> ExperimentReport:
    """Refine one axis over a doubling ladder and report prices + ROC.

    ``solver_fn`` (m-tuple -> list of query values) replaces the PDE solve
    when given; the sweep harness itself is solver-agnostic.
    """
    ladder = [int(x) for x in ladder]
    if len(ladder) < 3:
        raise ConfigError(["sweep ladder needs at least 3 sizes"])
    for a, b in zip(ladder, ladder[1:]):
        if b != 2 * a:
            raise ConfigError([f"sweep ladder must double at each rung, got {ladder}"])
    if axis not in SLICE_AXES:
        raise ConfigError([f"unknown sweep axis {axis!r}"])
    pos = SLICE_AXES[axis]
    ms = []
    for size in ladder:
        m = list(cfg.m)
        m[pos] = size
        ms.append(tuple(m))

    if solver_fn is not None:
        rows = []
        for m in ms:
            t0 = time.perf_counter()
            values = list(solver_fn(m))
            rows.append(
                ConvergenceRow(
                    m=m,
                    values=values,
                    rel_errors=[None] * len(values),
                    elapsed=time.perf_counter() - t0,
                )
            )
    else:
        if workers is None:
            workers = int(os.environ.get(WORKERS_ENV, "1"))
        entries = [(cfg, m) for m in ms]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_entry, entries))
        else:
            rows = [_sweep_entry(e) for e in entries]

    nq = len(rows[0].values)
    for i in range(len(rows)):
        if i >= 2:
            rows[i].roc = [
                pricing.roc(rows[i - 2].values[k], rows[i - 1].values[k], rows[i].values[k])
                for k in range(nq)
            ]
        else:
            rows[i].roc = [None] * nq
    labels = [q.label or f"q{i}" for i, q in enumerate(cfg.queries)] or [
        f"q{i}" for i in range(nq)
    ]
    report = ExperimentReport(
        name=f"{cfg.name}-sweep-{axis}",
        config_hash=cfg.config_hash(),
        rows=rows,
        query_labels=labels,
        config_echo=cfg.canonical_dict(),
    )
    defined = [r for row in rows for r in row.roc if r is not None]
    if defined:
        report.notes.append(
            f"mean ROC over {len(defined)} defined entries: {np.mean(defined):.3f}"
        )
    return report


def surface_export(field: SolutionField, slice_spec, path, fixed=None):
    """Write (x, y, V) triples for a 2D slice, e.g. slice_spec='sv'.

    ``fixed`` holds the values of the two remaining coordinates (defaults to
    the first node of each). Queries interpolate multilinearly, so a slice
    along grid axes at nodal fixed values reproduces stored values exactly.
    """
    parts = []
    rest = slice_spec
    while rest:
        for cand in ("rd", "rf", "s", "v"):
            if rest.startswith(cand):
                parts.append(cand)
                rest = rest[len(cand):]
                break
        else:
            raise RangeError(f"cannot parse slice spec {slice_spec!r}")
    if len(parts) != 2 or parts[0] == parts[1]:
        raise RangeError(f"slice spec must name two distinct axes, got {slice_spec!r}")
    ax_x, ax_y = parts
    g = field.grid
    fixed = dict(fixed or {})
    others = [a for a in SLICE_AXES if a not in parts]
    point_template = {}
    for a in others:
        point_template[a] = float(fixed.get(a, g.axis_nodes(a)[0]))
        lo, hi = g.axis_nodes(a)[0], g.axis_nodes(a)[-1]
        if not lo <= point_template[a] <= hi:
            raise RangeError(f"fixed {a}={point_template[a]} outside [{lo}, {hi}]")

    xs = g.axis_nodes(ax_x)
    ys = g.axis_nodes(ax_y)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([ax_x, ax_y, "value"])
        for y in ys:
            for x in xs:
                pt = dict(point_template)
                pt[ax_x] = float(x)
                pt[ax_y] = float(y)
                val = field.interpolate((pt["s"], pt["v"], pt["rd"], pt["rf"]), "linear")
                writer.writerow([repr(float(x)), repr(float(y)), repr(val)])
    return len(xs) * len(ys)
