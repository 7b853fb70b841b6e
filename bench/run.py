"""Pricing benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload exp1_krylov --seed 1 --seconds 10 --trace 0

Run from anywhere; it uses the ``src/`` of the checkout it sits in.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced replay (spans go to ``.bench_out/``).  The last
line of standard output is one JSON object.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("exp1_krylov", "exp3_midpoint", "strike_strip", "run_exp2_mc")

# BLAS threads for every solve, capped by the CPUs this process may use; the
# thread count changes both the timings and the last bits of the prices.
MAX_THREADS = 2
# Set-up-only processes started before the measured one; set-up time is the
# median over all of them.
SETUP_PROBES = 2
# A run must end within 180 s, children included.
DEADLINE_S = 175.0
# Traced and untraced solves make the same calls in the same order.
TRACE_PRICE_RTOL = 1e-12


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class Runner:
    """Starts worker processes for one workload, all under one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)

    def spawn(self, role, *extra):
        a = self.args
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(BENCH / "worker.py"), role,
               "--workload", a.workload, "--seed", str(a.seed),
               "--spawned-at", repr(spawned_at), *extra]
        if a.smoke:
            cmd.append("--smoke")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - spawned_at))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            sys.exit(f"bench: {role} process for {a.workload} passed the deadline")
        if proc.returncode != 0:
            sys.exit(f"bench: {role} process for {a.workload} exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def solve_records(result):
    """(solve record, failed?) for every solve; a failed pass gate fails its pass."""
    return [(s, bool(s["problems"] or p["problems"]))
            for p in result["passes"] for s in p["solves"]]


def problems(result):
    out = []
    for p in result["passes"]:
        out += p["problems"]
        for s in p["solves"]:
            out += s["problems"]
    return out


def end_to_end(runner):
    """Untraced: set-up probes, then one process that solves for --seconds."""
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    main = runner.spawn("solve", "--seconds", str(runner.args.seconds))
    records = solve_records(main)
    failed = sum(bad for _, bad in records)
    per_solve = [p["seconds"] / len(p["solves"]) for p in main["passes"]]
    errors = [e for s, _ in records for e in s["rel_errors"]]
    metrics = {
        "solve_s": statistics.median(per_solve),
        "setup_s": statistics.median([r["ready_s"] for r in probes + [main]]),
        "peak_rss_mb": main["peak_rss_mb"],
        # Solves that failed before pricing anything count as 100% off.
        "price_rel_err": max(errors, default=1.0),
        "solved_frac": 1.0 - failed / len(records),
    }
    info = {"passes": len(main["passes"]), "env": main["env"]}
    return metrics, len(records), failed, problems(main), info


def traced(runner):
    """One untraced pass, then the same pass traced; prices must agree."""
    a = runner.args
    plain = runner.spawn("solve", "--seconds", "0")
    trace_file = OUT / f"trace-{a.workload}-seed{a.seed}.json"
    rec = runner.spawn("trace", "--trace-file", str(trace_file))
    plain_solves = plain["passes"][0]["solves"]
    records = solve_records(rec)
    found = problems(rec) + problems(plain)
    failed = sum(bad for _, bad in solve_records(plain))
    for (s, bad), ref in zip(records, plain_solves):
        mismatch = [
            k for k, v in ref["prices"].items()
            if not abs(s["prices"].get(k, float("nan")) - v)
            <= TRACE_PRICE_RTOL * abs(v)
        ]
        if mismatch:
            found.append(f"{s['label']}: traced prices differ at {mismatch}")
        failed += bad or bool(mismatch)
    layers = dict(rec["layers"])
    layers["bench.trace_overhead_s"] = (
        rec["passes"][0]["seconds"] - plain["passes"][0]["seconds"]
    ) / len(records)
    info = {"trace_file": str(trace_file.relative_to(ROOT)), "env": rec["env"]}
    return layers, len(records) + len(plain_solves), failed, found, info


def main(argv=None):
    p = argparse.ArgumentParser(description="fxhhw pricing benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced grids and MC paths, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fxhhw" / "__init__.py").is_file():
        sys.exit(f"bench: no fxhhw sources under {ROOT / 'src'}")

    units = declared_units()
    runner = Runner(args)
    metrics, attempted, failed, found, info = (
        traced(runner) if args.trace else end_to_end(runner)
    )
    for line in found:
        print(f"FAILED {line}")
    print(f"{args.workload} seed={args.seed} " + json.dumps(info))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':32s} {failed / attempted:.6g} ratio  ({failed} of {attempted} solves)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
