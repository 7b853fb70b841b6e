import csv
import filecmp

import numpy as np
import pytest
import yaml

from fxhhw import cli, runner
from fxhhw.config import bundled_config_path, from_dict, from_yaml
from fxhhw.errors import ConfigError
from fxhhw.pricing import SolutionField
from fxhhw.runner import surface_export, sweep


def tiny_config_dict():
    """Fast-solving configuration for CLI round trips."""
    return {
        "name": "tiny",
        "model": {
            "s0": 100.0, "v0": 0.04, "rd0": 0.1, "rf0": 0.1,
            "kappa": 0.5, "vbar": 0.1, "gamma": 0.3,
            "lambda_d": 0.01, "lambda_f": 0.05,
            "eta_d": 0.007, "eta_f": 0.012,
            "theta_d": [0.05, 0.0, 0.0], "theta_f": [0.05, 0.0, 0.0],
            "correlation": {"sv": -0.4, "sd": -0.15, "sf": -0.15,
                            "vd": 0.3, "vf": 0.3, "df": 0.25},
        },
        "option": {"kind": "call", "strike": 100.0, "maturity": 1.0},
        "grid": {"m": [8, 6, 6, 6], "s_max": 1400.0},
        "solver": {"solver": "auto", "boundary": "dirichlet", "krylov_dim": 400},
        "queries": [
            {"point": [100.0, 0.04, 0.024, 0.024], "reference": 8.420, "label": "V1"},
            {"point": [100.0, 0.04, 0.1, 0.1], "reference": 7.888, "label": "V2"},
        ],
        "seed": 3,
    }


class TestConfigParsing:
    def test_bundled_configs_load(self):
        for name in ("experiment1", "experiment2", "experiment3", "experiment3_const"):
            cfg = from_yaml(bundled_config_path(name))
            assert cfg.model is not None
            assert len(cfg.queries) == 2

    def test_missing_bundled_config(self):
        with pytest.raises(ConfigError):
            bundled_config_path("experiment99")

    def test_all_violations_reported_at_once(self):
        raw = tiny_config_dict()
        raw["model"]["kappa"] = -0.5
        raw["option"]["kind"] = "swap"
        raw["grid"]["m"] = [2, 6, 6, 6]
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        msgs = " | ".join(err.value.violations)
        assert "kappa" in msgs
        assert "kind" in msgs
        assert "grid.m" in msgs
        assert len(err.value.violations) >= 3

    def test_krylov_with_time_dependent_theta_rejected(self):
        raw = tiny_config_dict()
        raw["model"]["theta_d"] = [0.074, 0.014, 2.10]
        raw["solver"]["solver"] = "krylov"
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert any("time-independent" in v for v in err.value.violations)

    def test_short_theta_list_reported_not_raised(self):
        raw = tiny_config_dict()
        raw["model"]["theta_d"] = [0.05, 0.1]
        raw["solver"]["solver"] = "krylov"
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert any("3 coefficients" in v for v in err.value.violations)

    def test_put_with_pinning_boundary_rejected(self):
        raw = tiny_config_dict()
        raw["option"]["kind"] = "put"
        with pytest.raises(ConfigError):
            from_dict(raw)

    def test_config_hash_stable_and_sensitive(self):
        a = from_dict(tiny_config_dict())
        b = from_dict(tiny_config_dict())
        assert a.config_hash() == b.config_hash()
        raw = tiny_config_dict()
        raw["grid"]["m"] = [10, 6, 6, 6]
        c = from_dict(raw)
        assert c.config_hash() != a.config_hash()


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = from_dict(tiny_config_dict())
    report = runner.run(cfg, out_dir=str(out), save_field=True)
    return report, out, cfg


@pytest.fixture(scope="module")
def tiny_field():
    cfg = from_dict(tiny_config_dict())
    return runner.solve_field(cfg)


class TestRunner:
    def test_report_row_contents(self, tiny_report):
        report, out, cfg = tiny_report
        row = report.rows[0]
        assert row.m == (8, 6, 6, 6)
        assert len(row.values) == 2
        assert all(np.isfinite(v) for v in row.values)
        assert all(e is not None for e in row.rel_errors)
        assert report.config_hash == cfg.config_hash()

    def test_csv_written_and_deterministic(self, tiny_report, tmp_path):
        report, out, cfg = tiny_report
        path1 = out / "tiny_results.csv"
        assert path1.exists()
        report.write_csv(tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path1.read_bytes()

    def test_field_saved(self, tiny_report):
        report, out, cfg = tiny_report
        field = SolutionField.load(out / "tiny_field.npz")
        assert field.grid.n == 8 * 6 * 6 * 6


class TestSweepHarness:
    def test_synthetic_second_order_solver(self):
        cfg = from_dict(tiny_config_dict())

        def dummy(m):
            # exact second-order model data: ROC must be exactly 2
            return [5.0 + 3.0 / m[0] ** 2, 7.0 + 5.0 / m[0] ** 2]

        report = sweep(cfg, axis="s", ladder=(8, 16, 32, 64), solver_fn=dummy)
        for row in report.rows[2:]:
            for r in row.roc:
                assert r == pytest.approx(2.0, rel=1e-9)

    def test_short_ladder_rejected(self):
        cfg = from_dict(tiny_config_dict())
        with pytest.raises(ConfigError):
            sweep(cfg, axis="s", ladder=(8, 16), solver_fn=lambda m: [1.0])

    def test_non_doubling_ladder_rejected(self):
        cfg = from_dict(tiny_config_dict())
        with pytest.raises(ConfigError):
            sweep(cfg, axis="s", ladder=(8, 12, 16), solver_fn=lambda m: [1.0])

    def test_unknown_axis_rejected(self):
        cfg = from_dict(tiny_config_dict())
        with pytest.raises(ConfigError):
            sweep(cfg, axis="q", ladder=(8, 16, 32), solver_fn=lambda m: [1.0])


class TestSurfaceExport:
    def test_sv_slice_cardinality(self, tiny_field, tmp_path):
        n = surface_export(tiny_field, "sv", tmp_path / "slice.csv",
                           fixed={"rd": 0.1, "rf": 0.1})
        m1, m2, _, _ = tiny_field.grid.shape
        assert n == m1 * m2
        with open(tmp_path / "slice.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "v", "value"]
        assert len(rows) == 1 + m1 * m2

    def test_rdrf_slice_at_strike(self, tiny_field, tmp_path):
        n = surface_export(tiny_field, "rdrf", tmp_path / "rr.csv",
                           fixed={"s": 100.0, "v": 0.04})
        m = tiny_field.grid.shape
        assert n == m[2] * m[3]

    def test_round_trip_bitwise(self, tiny_field, tmp_path):
        surface_export(tiny_field, "sv", tmp_path / "a.csv", fixed={"rd": 0.1, "rf": 0.1})
        with open(tmp_path / "a.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        g = tiny_field.grid
        # reimported values match the field's nodal values exactly
        for k, (s, v, val) in enumerate(rows[: g.shape[0]]):
            pt = (float(s), float(v), 0.1, 0.1)
            assert float(val) == tiny_field.interpolate(pt, "linear")

    def test_bad_slice_spec_rejected(self, tiny_field, tmp_path):
        from fxhhw.errors import RangeError

        with pytest.raises(RangeError):
            surface_export(tiny_field, "ss", tmp_path / "x.csv")
        with pytest.raises(RangeError):
            surface_export(tiny_field, "sq", tmp_path / "x.csv")


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(yaml.safe_dump(tiny_config_dict()))
        code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "V1" in out and "V2" in out

    def test_malformed_config_exit_nonzero(self, tmp_path, capsys):
        raw = tiny_config_dict()
        raw["model"]["kappa"] = -1.0
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        code = cli.main(["run", str(cfg_path)])
        assert code == 2
        assert "kappa" in capsys.readouterr().err

    def test_run_byte_identical_csv(self, tmp_path):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(yaml.safe_dump(tiny_config_dict()))
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "o1")]) == 0
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "o2")]) == 0
        assert filecmp.cmp(
            tmp_path / "o1" / "tiny_results.csv",
            tmp_path / "o2" / "tiny_results.csv",
            shallow=False,
        )

    def test_export_subcommand(self, tmp_path):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(yaml.safe_dump(tiny_config_dict()))
        assert cli.main(
            ["run", str(cfg_path), "--out", str(tmp_path / "out"), "--save-field"]
        ) == 0
        code = cli.main(
            [
                "export",
                str(tmp_path / "out" / "tiny_field.npz"),
                "--slice", "sv",
                "--at", "rd=0.1,rf=0.1",
                "--out", str(tmp_path / "slice.csv"),
            ]
        )
        assert code == 0
        assert (tmp_path / "slice.csv").exists()

    def test_sweep_subcommand_with_synthetic_ladder(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.yaml"
        raw = tiny_config_dict()
        raw["grid"]["m"] = [8, 5, 4, 4]
        raw["solver"]["krylov_dim"] = 300
        cfg_path.write_text(yaml.safe_dump(raw))
        code = cli.main(
            ["sweep", str(cfg_path), "--axis", "s", "--ladder", "8,16,32",
             "--out", str(tmp_path / "sw")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep" in out


class TestRunnerDiagnostics:
    def test_lambda_diagnostics_in_report(self):
        raw = tiny_config_dict()
        raw["compute_lambda_max"] = True
        raw["grid"]["m"] = [8, 5, 4, 4]
        cfg = from_dict(raw)
        report = runner.run(cfg)
        row = report.rows[0]
        assert row.sym_lambda_max is not None
        assert row.re_lambda_max is not None and row.re_lambda_max < 0

    def test_parallel_sweep_matches_sequential(self):
        raw = tiny_config_dict()
        raw["grid"]["m"] = [8, 5, 4, 4]
        raw["solver"]["krylov_dim"] = 300
        cfg = from_dict(raw)
        seq = sweep(cfg, axis="s", ladder=(8, 16, 32), workers=1)
        par = sweep(cfg, axis="s", ladder=(8, 16, 32), workers=2)
        for a, b in zip(seq.rows, par.rows):
            assert a.m == b.m
            np.testing.assert_allclose(a.values, b.values, rtol=1e-12)


class TestBundledExperiments:
    def test_experiment3_const_reproduces_benchmark_row(self):
        # fastest bundled config with reference values: constant-level
        # approximation on the 20x14x10x10 grid; benchmark row value 3.992
        cfg = from_yaml(bundled_config_path("experiment3_const"))
        report = runner.run(cfg)
        row = report.rows[0]
        v1 = row.values[report.query_labels.index("V1")]
        assert abs(v1 - 3.992) / 3.992 < 0.01
        assert row.rel_errors[report.query_labels.index("V1")] < 0.01
