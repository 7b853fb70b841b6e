"""One benchmark process: set up a workload, then solve it or trace it.

``bench/run.py`` starts this script with the BLAS thread count pinned in the
environment.  Roles:

``setup``  import the package, load the configs, draw the inputs, stop;
``solve``  then run passes over the workload for ``--seconds``: at least one,
           and another only while it is expected to end in time;
``trace``  then run one pass with every layer call traced, and write the spans.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def env_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_pass(plan, tracer, pass_index):
    """Time each solve of the plan once; typed package errors fail the solve."""
    from fxhhw.errors import FxhhwError
    from workloads import Outcome

    solves, outcomes = [], []
    t_pass = time.perf_counter()
    for label, solve in plan.solves:
        if tracer is not None:
            tracer.solve = f"{pass_index}:{label}"
        t0 = time.perf_counter()
        try:
            out = solve()
        except FxhhwError as err:
            out = Outcome(prices={}, problems=[f"{label}: {type(err).__name__}: {err}"])
        outcomes.append(out)
        solves.append({"label": label, "seconds": time.perf_counter() - t0,
                       "prices": out.prices, "rel_errors": out.rel_errors,
                       "problems": out.problems})
    seconds = time.perf_counter() - t_pass
    problems = []
    if plan.check_pass is not None and all(o.prices for o in outcomes):
        problems = plan.check_pass(outcomes)
    return {"seconds": seconds, "solves": solves, "problems": problems}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=("setup", "solve", "trace"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace-file", type=Path)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import fxhhw

    if Path(fxhhw.__file__).resolve().parent != SRC / "fxhhw":
        sys.exit(f"fxhhw imported from {fxhhw.__file__}, not from {SRC}")
    import workloads

    tracer = ctx = None
    if args.role == "trace":
        import tracing

        tracer = tracing.Tracer()
        ctx = tracing.instrument(tracer)
    with ctx or nullcontext():
        plan = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
        ready_s = time.monotonic() - args.spawned_at
        passes = []
        start = time.perf_counter()
        while args.role != "setup":
            passes.append(run_pass(plan, tracer, len(passes)))
            used = time.perf_counter() - start
            # Another pass only if, at the mean pass time, it ends in time.
            if args.role == "trace" or used * (1 + 1 / len(passes)) > args.seconds:
                break

    result = {
        "ready_s": ready_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": env_info(),
    }
    if tracer is not None:
        n_solves = len(passes[0]["solves"])
        result["layers"] = tracing.layer_metrics(tracer.spans, n_solves)
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        with open(args.trace_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": result["env"],
                       "metrics": result["layers"], "labels": tracing.LABELS,
                       "spans": tracer.spans}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
