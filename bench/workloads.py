"""The benchmark's workloads: inputs drawn from a seed, solves, correctness gates.

A workload is a :class:`Plan`: a list of solves, each one priced configuration
timed on its own, plus a gate over the outcomes of one pass through the list.
Every solve goes through the package's public entry points
(``runner.solve_field``, ``runner.run``, ``SolutionField.interpolate``,
``pricing.greeks``), so the traced replay sees the same calls.

Import this module only after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fxhhw import config, pricing, runner
from fxhhw.config import QueryPoint

# Relative error the acceptance suite allows against the paper's prices.
REFERENCE_TOL = 0.01
# Monte Carlo estimates must sit within this many standard errors of the
# paper's price; the Euler bias at 200 steps/year is well under one.
MC_SIGMAS = 4.0
# Slack for the shape and bound checks, relative to the strike.  Strip
# strikes are at least 3 apart, where price differences are far above the
# discretization error, so only round-off needs room.
ROUNDOFF_TOL = 1e-9

# Reduced grids for the smoke test; each still meets REFERENCE_TOL.
SMOKE_M = {
    "experiment1": (14, 8, 12, 12),
    "experiment3": (16, 10, 8, 8),
    "experiment3_const": (16, 10, 8, 8),
}
SMOKE_MC_PATHS = 20_000

# Strike-strip slots around the reference strike 100; each strike is drawn
# uniformly within +-STRIP_JITTER of its slot.
STRIP_SLOTS = (85.0, 95.0, 110.0)
STRIP_JITTER = 2.0
SEED_QUERIES = 8

# Files the workloads write (the run's CSV and report), inside the checkout.
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


@dataclass
class Outcome:
    """What one solve produced and which of its gates failed."""

    prices: dict  # label -> price; the traced replay must reproduce these
    rel_errors: list = field(default_factory=list)  # against paper prices
    problems: list = field(default_factory=list)


@dataclass
class Plan:
    """One pass of a workload: labelled zero-argument solves and a pass gate."""

    solves: list  # [(label, callable -> Outcome)]
    check_pass: object = None  # callable(list[Outcome]) -> list[str]


def load(name, smoke=False):
    cfg = config.from_yaml(config.bundled_config_path(name))
    if smoke and name in SMOKE_M:
        cfg = cfg.with_m(SMOKE_M[name])
    if smoke and cfg.mc is not None:
        cfg.mc = replace(cfg.mc, paths=SMOKE_MC_PATHS)
    return cfg


def seed_points(rng, n=SEED_QUERIES):
    """Query points near the money, inside every bundled grid's query region."""
    return [
        (float(rng.uniform(90.0, 110.0)), float(rng.uniform(0.03, 0.05)),
         float(rng.uniform(0.024, 0.1)), float(rng.uniform(0.024, 0.1)))
        for _ in range(n)
    ]


def check_reference(label, value, reference, outcome):
    err = pricing.relative_error(value, reference)
    outcome.rel_errors.append(err)
    if not err <= REFERENCE_TOL:
        outcome.problems.append(
            f"{label}: {value:.6f} is {err:.2e} from the paper's {reference}"
        )


def check_bounds(label, value, point, option, outcome):
    """No-arbitrage bounds at non-negative rates: 0 <= call <= s, 0 <= put <= K."""
    upper = point[0] if option.kind == "call" else option.strike
    slack = ROUNDOFF_TOL * option.strike
    if not (math.isfinite(value) and -slack <= value <= upper + slack):
        outcome.problems.append(f"{label}: {value!r} outside [0, {upper}]")


def price_queries(fld, cfg, points, prefix=""):
    """Interpolate the config's reference queries and the seed-drawn points."""
    out = Outcome(prices={})
    for q in cfg.queries:
        label = prefix + q.label
        out.prices[label] = v = fld.interpolate(q.point, method=cfg.interpolation)
        if q.reference is not None:
            check_reference(label, v, q.reference, out)
    for i, p in enumerate(points):
        label = f"{prefix}p{i}"
        out.prices[label] = v = fld.interpolate(p, method=cfg.interpolation)
        check_bounds(label, v, p, cfg.option, out)
    return out


def single_field(name, seed, smoke):
    """One bundled config solved repeatedly; the seed draws extra queries."""
    cfg = load(name, smoke)
    points = seed_points(np.random.default_rng(seed))

    def solve():
        return price_queries(runner.solve_field(cfg), cfg, points)

    return Plan(solves=[(cfg.name, solve)])


def exp1_krylov(seed, smoke=False):
    return single_field("experiment1", seed, smoke)


def exp3_midpoint(seed, smoke=False):
    return single_field("experiment3", seed, smoke)


def _strike_solve(cfg, label):
    def solve():
        fld = runner.solve_field(cfg)
        out = price_queries(fld, cfg, [], prefix=label + "/")
        g = pricing.greeks(fld, rd=cfg.model.rd0, rf=cfg.model.rf0)
        for name in ("delta", "vega", "vanna"):
            if not np.all(np.isfinite(getattr(g, name))):
                out.problems.append(f"{label}: non-finite {name}")
        return out

    return solve


def _reference_run(cfg, label):
    def solve():
        row = runner.run(cfg).rows[0]
        out = Outcome(prices={})
        for q, v in zip(cfg.queries, row.values):
            out.prices[f"{label}/{q.label}"] = v
            check_reference(f"{label}/{q.label}", v, q.reference, out)
        if not (math.isfinite(row.sym_lambda_max) and row.re_lambda_max is not None
                and row.re_lambda_max < 0):
            out.problems.append(
                f"{label}: spectral diagnostics {row.re_lambda_max}, {row.sym_lambda_max}"
            )
        return out

    return solve


def _shape_problems(kind, labels, strikes, prices):
    """Calls fall and puts rise in strike; both are convex in strike."""
    problems = []
    sign = -1.0 if kind == "call" else 1.0
    for q in labels:
        v = [p[q] for p in prices]
        slopes = [(b - a) / (k1 - k0)
                  for a, b, k0, k1 in zip(v, v[1:], strikes, strikes[1:])]
        slack = ROUNDOFF_TOL * strikes[-1]
        if any(sign * s < -slack for s in slopes):
            problems.append(f"{kind} {q}: not monotone in strike: {v}")
        if any(b < a - slack for a, b in zip(slopes, slopes[1:])):
            problems.append(f"{kind} {q}: not convex in strike: {v}")
    return problems


def strike_strip(seed, smoke=False):
    """Seed-drawn strikes on two small configs, plus both reference runs.

    Every strike re-focuses the spot axis, so every solve re-assembles.  The
    reference runs go through ``runner.run`` with the spectral diagnostics on
    and supply the strike-100 point of each strip.
    """
    rng = np.random.default_rng(seed)
    solves, strips = [], []
    for name in ("experiment2", "experiment3_const"):
        base = replace(load(name, smoke), mc=None)
        strikes = [k + float(rng.uniform(-STRIP_JITTER, STRIP_JITTER)) for k in STRIP_SLOTS]
        labels = [q.label for q in base.queries]
        members = []
        for k in strikes:
            cfg = replace(
                base,
                option=replace(base.option, strike=k),
                queries=[QueryPoint(q.point, None, q.label) for q in base.queries],
            )
            label = f"{name}@K={k:.4f}"
            members.append((k, len(solves), label))
            solves.append((label, _strike_solve(cfg, label)))
        members.append((base.option.strike, len(solves), name))
        ref = replace(base, compute_lambda_max=True)
        solves.append((f"{name}/reference", _reference_run(ref, name)))
        members.sort()
        strips.append((base.option.kind, labels, members))

    def check_pass(outcomes):
        problems = []
        for kind, labels, members in strips:
            strikes = [k for k, _, _ in members]
            prices = [{q: outcomes[i].prices[f"{prefix}/{q}"] for q in labels}
                      for _, i, prefix in members]
            problems += _shape_problems(kind, labels, strikes, prices)
        return problems

    return Plan(solves=solves, check_pass=check_pass)


def run_exp2_mc(seed, smoke=False):
    """``fxhhw run bundled:experiment2`` with the seed as the MC seed.

    The results CSV and report land in ``OUT_DIR/run_exp2_mc``.
    """
    cfg = load("experiment2", smoke)
    cfg.mc = replace(cfg.mc, seed=int(seed))
    out_dir = OUT_DIR / "run_exp2_mc"

    def solve():
        report = runner.run(cfg, out_dir=out_dir)
        row = report.rows[0]
        out = Outcome(prices={})
        for q, v in zip(cfg.queries, row.values):
            out.prices[q.label] = v
            check_reference(q.label, v, q.reference, out)
        for (label, est), q in zip(report.mc_estimates, cfg.queries):
            if not abs(est.price - q.reference) <= MC_SIGMAS * est.stderr:
                out.problems.append(
                    f"MC {label}: {est.price:.5f} +/- {est.stderr:.5f} vs the "
                    f"paper's {q.reference}"
                )
        with open(out_dir / f"{cfg.name}_results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != 2 or float(rows[1][4]) != row.values[0]:
            out.problems.append("results CSV does not match the report")
        return out

    return Plan(solves=[(cfg.name, solve)])


WORKLOADS = {
    "exp1_krylov": exp1_krylov,
    "exp3_midpoint": exp3_midpoint,
    "strike_strip": strike_strip,
    "run_exp2_mc": run_exp2_mc,
}
