"""Golden-price regression for the bundled experiments 2, 3-const and 3.

``tests/data/<config>_results.csv`` holds the ``fxhhw run`` results CSV of
each config, solved without its Monte Carlo cross-check.  A change that
means to move prices regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and records the largest relative change it made.  ``experiment1_results.csv``
was written the same way; CI compares a fresh experiment-1 run with it
within README's Arnoldi bound, so it is not rewritten with the others.
"""

import csv
import shutil
import sys
from pathlib import Path

import pytest

from fxhhw import runner
from fxhhw.config import bundled_config_path, from_yaml

DATA = Path(__file__).parent / "data"
CONFIGS = ("experiment2", "experiment3_const", "experiment3")
PRICE_RTOL = 1e-12


def run_csv(name, out_dir):
    """Run bundled config ``name`` without MC; the path of its results CSV."""
    cfg = from_yaml(bundled_config_path(name))
    cfg.mc = None
    runner.run(cfg, out_dir=str(out_dir))
    return Path(out_dir) / f"{cfg.name}_results.csv"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", CONFIGS)
def test_prices_match_golden(name, tmp_path):
    golden = read_rows(DATA / f"{name}_results.csv")
    rows = read_rows(run_csv(name, tmp_path))
    assert len(rows) == len(golden)
    for row, ref in zip(rows, golden):
        assert row.keys() == ref.keys()
        assert [row[k] for k in ("m1", "m2", "m3", "m4")] == [
            ref[k] for k in ("m1", "m2", "m3", "m4")]
        labels = [k[len("eps_"):] for k in ref if k.startswith("eps_")]
        for label in labels:
            assert float(row[label]) == pytest.approx(float(ref[label]), rel=PRICE_RTOL, abs=0)


if __name__ == "__main__":
    out = DATA / "_run"
    for name in CONFIGS:
        shutil.copy(run_csv(name, out), DATA / f"{name}_results.csv")
    shutil.rmtree(out)
    sys.stdout.write(f"wrote {len(CONFIGS)} golden CSVs to {DATA}\n")
