"""Outside-in tracing: spans around the package's layer calls, from the benchmark.

:func:`instrument` swaps each traced function, as its caller looks it up, for
a wrapper that records a span; ``pricing.price`` and ``runner.run`` then run
unchanged and make the same calls in the same order, so a traced solve
computes the same numbers as an untraced one.  Spans stay in memory until the
run writes them out.  Import this module only after ``src/`` is on
``sys.path``.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import scipy.linalg

import fxhhw.config
import fxhhw.operators
import fxhhw.pricing
import fxhhw.runner

# Repetitions of the single sparse matvec whose median prices a Krylov step.
MATVEC_REPEATS = 9

# Metrics that are not timed spans: "computed" from a timing and a count or
# from array sizes, "derived" as a difference of measured times.
LABELS = {
    "integrators.matvec_s": "computed: median single matvec x krylov_steps",
    "integrators.ortho_s": "derived: krylov_s - expm_s - matvec_s",
    "integrators.basis_mb": "computed: (dim + 1) * N * 8 bytes",
}


class Tracer:
    """Span recorder: name, start, end, parent span and solve id per span."""

    def __init__(self):
        self.spans = []
        self.solve = None  # id shared by the spans of one priced configuration
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "solve": self.solve, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(rec, result, args, kwargs)`` adds attributes."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if after is not None:
                after(rec, result, args, kwargs)
            return result

        return traced


def _krylov_after(rec, result, args, kwargs):
    """Basis size, and the cost of one matvec timed outside the span."""
    A, v0, cfg = args
    n = A.shape[0]
    dim = min(cfg.dim if cfg.dim is not None else min(100, n), n)
    rec["basis_bytes"] = (dim + 1) * n * 8
    times = []
    for _ in range(MATVEC_REPEATS):
        t0 = time.perf_counter()
        A @ v0
        times.append(time.perf_counter() - t0)
    rec["matvec_s"] = statistics.median(times)


def _midpoint_after(rec, result, args, kwargs):
    rec["steps"] = args[2].steps


def _boundaries_after(rec, op, args, kwargs):
    rec.update(n=op.n, nnz=op.nnz, pinned=int(op.pinned.sum()))


def _mc_after(rec, result, args, kwargs):
    model, option, cfg = args
    steps = max(1, int(round(cfg.steps_per_year * option.maturity)))
    rec["path_steps"] = cfg.paths * steps


def _expm_after(rec, result, args, kwargs):
    rec["order"] = args[0].shape[0]


# (object, attribute, span name, attribute hook): each function as the code
# that calls it looks it up.
TARGETS = (
    (fxhhw.config, "from_yaml", "config.load", None),
    (fxhhw.config, "build_grid", "grids.build", None),
    (fxhhw.runner, "run", "runner.run", None),
    (fxhhw.pricing, "price", "pricing.price", None),
    (fxhhw.operators, "first_derivative_matrix", "operators.dmat", None),
    (fxhhw.operators, "second_derivative_matrix", "operators.dmat", None),
    (fxhhw.operators, "assemble_operator", "operators.assemble", None),
    (fxhhw.operators, "impose_boundaries", "operators.boundaries", _boundaries_after),
    (fxhhw.pricing, "payoff_vector", "pricing.payoff", None),
    (fxhhw.pricing, "krylov_expm_action", "integrators.krylov", _krylov_after),
    (scipy.linalg, "expm", "integrators.expm", _expm_after),
    (fxhhw.pricing, "modified_midpoint_solve", "integrators.midpoint", _midpoint_after),
    (fxhhw.operators.AssembledOperator, "matvec", "integrators.op_matvec", None),
    (fxhhw.runner, "estimate_lambda_max", "integrators.lambda_max", None),
    (fxhhw.pricing, "interpolate", "pricing.interpolate", None),
    (fxhhw.pricing, "greeks", "pricing.greeks", None),
    (fxhhw.runner, "simulate_price", "mc.simulate", _mc_after),
)


@contextmanager
def instrument(tracer):
    """Trace every call in TARGETS while the block runs; restore on exit."""
    saved = []
    try:
        for obj, attr, name, after in TARGETS:
            fn = getattr(obj, attr)
            saved.append((obj, attr, fn))
            setattr(obj, attr, tracer.wrap(name, fn, after))
        yield tracer
    finally:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)


def _dur(s):
    return s["end"] - s["start"]


def layer_metrics(spans, solves):
    """Per-layer metrics of one traced pass, per priced configuration.

    Times and counts are summed over the pass and divided by ``solves``;
    ``config.load_s`` is the whole process's config loading, part of set-up.
    Operator metrics cover the assembly inside ``pricing.price``; the second
    assembly ``runner.run`` makes for its spectral diagnostics counts towards
    ``integrators.lambda_max_s``.
    """
    by_id = {s["id"]: s for s in spans}

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else None

    def named(name, parent=None):
        return [s for s in spans if s["name"] == name
                and (parent is None or parent_name(s) == parent)]

    def total(items):
        return sum(_dur(s) for s in items)

    def children_time(s):
        return total(c for c in spans if c["parent"] == s["id"])

    assemble = named("operators.assemble", "pricing.price")
    assemble_ids = {s["id"] for s in assemble}
    dmat = [s for s in named("operators.dmat") if s["parent"] in assemble_ids]
    boundaries = named("operators.boundaries", "pricing.price")
    krylov = named("integrators.krylov")
    expm = named("integrators.expm", "integrators.krylov")
    midpoint = named("integrators.midpoint")
    matvecs = named("integrators.op_matvec", "integrators.midpoint")
    runs = named("runner.run")
    run_ids = {s["id"] for s in runs}
    spectral = [s for s in spans if s["parent"] in run_ids and s["name"] in (
        "integrators.lambda_max", "operators.assemble", "operators.boundaries")]
    mc = named("mc.simulate")

    # Spans are listed in start order, so the last expm(H) of a solve wins.
    last_order = {e["parent"]: e["order"] for e in expm}
    krylov_steps = sum(last_order.get(k["id"], 0) for k in krylov)
    krylov_s = total(krylov)
    expm_s = total(expm)
    matvec_s = sum(k["matvec_s"] * last_order.get(k["id"], 0) for k in krylov)
    mc_s = total(mc)
    path_steps = sum(s["path_steps"] for s in mc)
    raw = {
        "grids.build_s": total(named("grids.build")),
        "operators.dmat_s": total(dmat),
        "operators.assemble_s": total(assemble) - total(dmat),
        "operators.boundaries_s": total(boundaries),
        "operators.n": sum(s["n"] for s in boundaries),
        "operators.nnz": sum(s["nnz"] for s in boundaries),
        "integrators.krylov_s": krylov_s,
        "integrators.krylov_steps": krylov_steps,
        "integrators.expm_calls": len(expm),
        "integrators.expm_s": expm_s,
        "integrators.matvec_s": matvec_s,
        "integrators.ortho_s": krylov_s - expm_s - matvec_s,
        "integrators.basis_mb": sum(s["basis_bytes"] for s in krylov) / 1e6,
        "integrators.midpoint_s": total(midpoint),
        "integrators.midpoint_steps": sum(s["steps"] for s in midpoint),
        "integrators.op_matvecs": len(matvecs),
        "integrators.op_matvec_s": total(matvecs),
        "integrators.lambda_max_s": total(spectral),
        "pricing.payoff_s": total(named("pricing.payoff")),
        "pricing.interpolate_s": total(named("pricing.interpolate")),
        "pricing.greeks_s": total(named("pricing.greeks")),
        "mc.simulate_s": mc_s,
        "mc.path_steps": path_steps,
        "runner.overhead_s": sum(_dur(r) - children_time(r) for r in runs),
    }
    out = {k: v / solves for k, v in raw.items()}
    n_total = sum(s["n"] for s in boundaries)
    out["operators.pinned_frac"] = (
        sum(s["pinned"] for s in boundaries) / n_total if n_total else 0.0
    )
    out["mc.path_steps_per_s"] = path_steps / mc_s if mc_s else 0.0
    out["config.load_s"] = total(named("config.load"))
    return out
