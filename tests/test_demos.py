"""Smoke test: the fast demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "01_rbf_weights_and_grids.py",
    "02_price_call_krylov.py",
    "03_put_abc_and_fdkm.py",
    "04_time_dependent_theta_midpoint.py",
])
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
