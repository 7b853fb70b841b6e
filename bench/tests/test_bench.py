"""The benchmark's own tests: BENCHMARK.json schema and smoke runs at reduced grids.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}


def bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert 1 <= len(SPEC["paths"]) <= 16
    for p in SPEC["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p
        assert (ROOT / p).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    names = [w["name"] for w in SPEC["workloads"]] + list(E2E) + list(LAYERS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_workloads_match_the_code():
    spec = SPEC["workloads"]
    assert 2 <= len(spec) <= 8
    for w in spec:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in spec]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_metric_declarations():
    for m in E2E.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = E2E["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in E2E.values())
    for m in LAYERS.values():
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    emitted = set(tracing.layer_metrics([], 1)) | {"bench.trace_overhead_s"}
    assert emitted == set(LAYERS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    r = result(bench(workload, 0))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert set(r["metrics"]) == set(E2E)
    for name, m in r["metrics"].items():
        assert m["unit"] == E2E[name]["unit"]
        assert math.isfinite(m["value"]) and m["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    r = result(bench(workload, 1))
    assert r["correct"] and r["failed"] == 0
    assert set(r["metrics"]) == set(LAYERS)
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert all(v["unit"] == LAYERS[k]["unit"] for k, v in r["metrics"].items())
    assert m["operators.n"] > 0 and m["operators.nnz"] > 0
    if workload == "exp3_midpoint":
        assert m["integrators.midpoint_steps"] == 400  # 0.25 y / 0.000625
        assert m["integrators.op_matvecs"] == 3 * m["integrators.midpoint_steps"]
        assert m["integrators.krylov_s"] == 0
    if workload == "exp1_krylov":
        assert m["integrators.expm_calls"] >= 1 and m["integrators.krylov_steps"] >= 1
        assert m["integrators.basis_mb"] == pytest.approx(
            601 * m["operators.n"] * 8 / 1e6)
        assert m["integrators.midpoint_s"] == 0
    if workload == "strike_strip":
        assert m["integrators.lambda_max_s"] > 0 and m["pricing.greeks_s"] > 0
    if workload == "run_exp2_mc":
        assert m["mc.path_steps"] == 2 * workloads.SMOKE_MC_PATHS * 400
        assert m["runner.overhead_s"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("exp3_midpoint", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_strike_shape_gate():
    strikes = [90.0, 100.0, 110.0]
    call = [{"V": 12.0}, {"V": 6.0}, {"V": 2.5}]
    put = [{"V": 2.0}, {"V": 5.0}, {"V": 10.0}]
    assert workloads._shape_problems("call", ["V"], strikes, call) == []
    assert workloads._shape_problems("put", ["V"], strikes, put) == []
    assert len(workloads._shape_problems("call", ["V"], strikes, put)) == 1  # rises
    concave = [{"V": 12.0}, {"V": 9.0}, {"V": 2.5}]
    assert len(workloads._shape_problems("call", ["V"], strikes, concave)) == 1
