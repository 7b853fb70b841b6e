import csv
import filecmp

import numpy as np
import pytest
import yaml

from fxhhw import cli, operators, pricing, runner
from fxhhw.config import bundled_config_path, from_dict, from_yaml
from fxhhw.errors import ConfigError
from fxhhw.grids import AXES
from fxhhw.mc import McConfig
from fxhhw.pricing import SolutionField
from fxhhw.runner import (
    ConvergenceRow,
    ExperimentReport,
    fill_roc,
    parse_ladder,
    surface_export,
    sweep,
)


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

    def test_unset_keys_take_defaults(self):
        raw = tiny_config_dict()
        raw["seed"] = 7
        raw["mc"] = {"paths": 100, "antithetic": True}
        raw["grid"] = {"m": [8, 6, 6, 6], "v_max": 5}
        raw["solver"] = {"krylov_dim": 40.0}
        cfg = from_dict(raw)
        assert cfg.mc == McConfig(paths=100, steps_per_year=200, seed=7, antithetic=True)
        assert (cfg.s_max, cfg.v_max, cfg.xi_s, cfg.r_min) == (1400.0, 5.0, 0.1, -1.0)
        assert (cfg.solver, cfg.boundary, cfg.delta_tau, cfg.krylov_dim) == (
            "auto", "dirichlet", None, 40)

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

    def test_chebyshev_with_time_dependent_theta_rejected(self):
        raw = tiny_config_dict()
        raw["model"]["theta_d"] = [0.074, 0.014, 2.10]
        raw["solver"]["solver"] = "chebyshev"
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert any("solver 'chebyshev' requires a time-independent" in v
                   for v in err.value.violations)

    def test_short_theta_list_reported_not_raised(self):
        raw = tiny_config_dict()
        raw["model"]["theta_d"] = [0.05, 0.1]
        raw["solver"]["solver"] = "krylov"
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert any("3 coefficients" in v for v in err.value.violations)

    def test_unknown_keys_reported(self):
        raw = tiny_config_dict()
        raw["extra"] = 1
        raw["model"]["kapa"] = 0.5
        raw["model"]["correlation"]["ds"] = 0.1
        raw["option"]["strik"] = 100.0
        raw["grid"]["xi"] = 1.0
        raw["solver"]["bondary"] = "abc"
        raw["solver"]["krylov_tol"] = 1e-9
        raw["mc"] = {"paths": 100, "sed": 1}
        raw["queries"][1]["ref"] = 7.888
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert err.value.violations == [
            "unknown key extra", "unknown key model.kapa",
            "unknown key model.correlation.ds", "unknown key option.strik",
            "unknown key grid.xi", "unknown key solver.bondary",
            "unknown key solver.krylov_tol", "unknown key mc.sed",
            "unknown key queries[1].ref",
        ]

    def test_entries_must_be_mappings(self):
        raw = tiny_config_dict()
        raw["model"]["correlation"] = None  # an empty YAML entry: no correlation
        assert np.array_equal(from_dict(raw).model.correlation, np.eye(4))
        raw["option"] = 5
        raw["solver"] = ["abc"]
        raw["queries"] = [{"point": [100.0, 0.04, 0.0, 0.0]}, 7]
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert err.value.violations[:3] == [
            "option must be a mapping, got 5", "solver must be a mapping, got ['abc']",
            "queries[1] must be a mapping, got 7",
        ]
        raw = tiny_config_dict()
        raw["queries"] = {"point": [100.0, 0.04, 0.0, 0.0]}
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert err.value.violations[0].startswith("queries must be a list")

    @pytest.mark.parametrize("solver, delta_tau", [("midpoint", 0.3), ("auto", 0.3),
                                                   ("auto", None), ("midpoint", 0.0)])
    def test_midpoint_delta_tau_must_divide_maturity(self, solver, delta_tau):
        # Experiment-3 levels: 'auto' resolves to the midpoint solver.
        raw = tiny_config_dict()
        raw["model"]["theta_d"] = [0.074, 0.014, 2.10]
        raw["solver"].update(solver=solver, delta_tau=delta_tau)
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert err.value.violations == [
            pricing.solver_violations(solver, True, delta_tau, 1.0)[0]]
        assert err.value.violations[0].startswith("solver.delta_tau ")
        raw["solver"]["delta_tau"] = 0.25
        assert from_dict(raw).delta_tau == 0.25

    def test_theta_mode_reported_by_its_owner(self):
        raw = tiny_config_dict()
        raw["solver"]["theta_mode"] = "bogus"
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert err.value.violations == operators.theta_mode_violations("bogus")

    def test_interpolation_reported_by_its_owner(self):
        raw = tiny_config_dict()
        raw["solver"]["interpolation"] = "quintic"
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert err.value.violations == pricing.interpolation_violations("quintic") == [
            "interpolation must be one of ('linear', 'cubic'), got 'quintic'"]

    @pytest.mark.parametrize("axis, value, box", [
        ("s", -1.0, "[0.0, 1400.0]"), ("s", 1500.0, "[0.0, 1400.0]"),
        ("v", -0.01, "[0.0, 10.0]"), ("v", 11.0, "[0.0, 10.0]"),
        ("rd", -1.5, "[-1.0, 1.0]"), ("rd", 1.5, "[-1.0, 1.0]"),
        ("rf", -1.5, "[-1.0, 1.0]"), ("rf", 1.5, "[-1.0, 1.0]"),
    ])
    def test_query_outside_the_grid_box_reported(self, axis, value, box):
        raw = tiny_config_dict()
        raw["queries"][1]["point"][AXES.index(axis)] = value
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert err.value.violations == [f"queries[1].point has {axis}={value} outside {box}"]

    def test_put_with_pinning_boundary_rejected(self):
        raw = tiny_config_dict()
        raw["option"]["kind"] = "put"
        with pytest.raises(ConfigError):
            from_dict(raw)

    def test_whole_numbers_load_as_integers(self):
        raw = tiny_config_dict()
        raw["grid"]["m"] = [8.0, 6, 6, 6]
        raw["solver"]["krylov_dim"] = 40.0
        raw["seed"] = 7.0
        raw["mc"] = {"paths": 100.0}
        cfg = from_dict(raw)
        assert cfg.m == (8, 6, 6, 6) and cfg.krylov_dim == 40 and cfg.seed == 7
        assert cfg.mc == McConfig(paths=100, seed=7)
        assert all(type(x) is int for x in (*cfg.m, cfg.krylov_dim, cfg.seed, cfg.mc.paths))

    def test_owner_rules_reported_under_their_section(self):
        raw = tiny_config_dict()
        raw["model"].update(kappa=-1, gamma=-1)
        raw["mc"] = {"paths": 0}
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert err.value.violations == [
            "model.kappa must be positive, got -1.0", "model.gamma must be positive, got -1.0",
            "mc.paths must be >= 1, got 0",
        ]

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
        # exact second-order model data: ROC must be exactly 2
        rows = [
            ConvergenceRow(m=(m, 6, 6, 6), values=[5.0 + 3.0 / m**2, 7.0 + 5.0 / m**2],
                           rel_errors=[None, None], elapsed=0.0)
            for m in parse_ladder((8, 16, 32, 64))
        ]
        fill_roc(rows)
        assert rows[0].roc == rows[1].roc == [None, None]
        for row in rows[2:]:
            for r in row.roc:
                assert r == pytest.approx(2.0, rel=1e-9)

    def test_short_ladder_rejected(self):
        with pytest.raises(ConfigError):
            parse_ladder((8, 16))

    def test_non_doubling_ladder_rejected(self):
        for ladder in ((8, 12, 16), "8,16,x", "8,16.5,32", (2, 4, 8)):
            with pytest.raises(ConfigError):
                parse_ladder(ladder)
        assert parse_ladder(" 8,16 ,32") == [8, 16, 32]

    def test_unknown_axis_rejected(self):
        cfg = from_dict(tiny_config_dict())
        with pytest.raises(ConfigError):
            sweep(cfg, axis="q", ladder=(8, 16, 32))


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

    def test_unknown_fixed_axis_rejected(self, tiny_field, tmp_path):
        with pytest.raises(ConfigError) as err:
            surface_export(tiny_field, "sv", tmp_path / "x.csv", fixed={"rd": 0.1, "q": 1.0})
        assert err.value.violations == ["fixed value given for unknown axis 'q'"]
        assert not (tmp_path / "x.csv").exists()

    def test_bad_slice_spec_rejected(self, tiny_field, tmp_path):
        with pytest.raises(ConfigError):
            surface_export(tiny_field, "ss", tmp_path / "x.csv")
        with pytest.raises(ConfigError):
            surface_export(tiny_field, "sq", tmp_path / "x.csv")


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(yaml.safe_dump(tiny_config_dict()))
        code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "V1" in out and "V2" in out

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        raw = tiny_config_dict()
        raw["solver"]["bondary"] = "abc"
        cfg_path = tmp_path / "typo.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "config error: unknown key solver.bondary\n"

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

    @pytest.mark.parametrize(
        "at, bad",
        [
            ("rd", ["rd"]),
            ("rd=abc", ["rd=abc"]),
            ("x=0.1", ["x=0.1"]),
            ("rd,rf=0.1,x=0.1,rf=abc", ["rd", "x=0.1", "rf=abc"]),
        ],
    )
    def test_export_at_violations_exit_two(self, tiny_field, tmp_path, capsys, at, bad):
        tiny_field.save(tmp_path / "f.npz")
        code = cli.main(["export", str(tmp_path / "f.npz"), "--slice", "sv",
                         "--at", at, "--out", str(tmp_path / "slice.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(bad)
        for line, item in zip(err, bad):
            assert line.startswith(f"config error: --at item {item!r} ")
        assert not (tmp_path / "slice.csv").exists()

    @pytest.mark.parametrize("entry, key, value, message", [
        ("option", "strike", "abc", "option.strike must be a number, got 'abc'"),
        ("model", "kappa", "abc", "model.kappa must be a number, got 'abc'"),
        ("grid", "m", 5, "grid.m must be four sizes >= 4, got 5"),
        ("grid", "m", [8, "x", 6, 6], "grid.m must be four sizes >= 4, got [8, 'x', 6, 6]"),
        ("grid", "s_max", "big", "grid.s_max must be a number, got 'big'"),
        ("solver", "krylov_dim", "x", "solver.krylov_dim must be an integer, got 'x'"),
        ("mc", "paths", "many", "mc.paths must be an integer, got 'many'"),
        ("model", "theta_d", 0.05,
         "model.theta_d must be 3 coefficients (a1, a2, a3), got 0.05"),
        ("queries", "point", None,
         "queries[0].point must be four numbers (s, v, rd, rf), got None"),
        ("queries", "point", [100.0],
         "queries[0].point must be four numbers (s, v, rd, rf), got [100.0]"),
        ("solver", "delta_tau", "x", "solver.delta_tau must be a number, got 'x'"),
        ("solver", "krylov_dim", 0,
         "solver.krylov_dim: Krylov subspace dimension must be >= 1, got 0"),
        # N = 8*6*6*6 = 1728: a 100,001-vector basis needs 1.3 GiB.
        ("solver", "krylov_dim", 100000,
         "solver.krylov_dim: a Krylov basis of dimension 100000 for N=1728 needs "
         "1318 MiB, above the 1024 MiB budget; lower dim"),
    ], ids=["strike", "kappa", "m-scalar", "m-item", "s_max", "krylov_dim", "mc-paths",
            "theta_d", "no-point", "short-point", "delta_tau", "krylov_dim-zero",
            "krylov_dim-over-budget"])
    def test_unconvertible_value_exit_two(self, tmp_path, capsys, entry, key, value,
                                          message):
        raw = tiny_config_dict()
        if entry == "queries":
            raw["queries"][0][key] = value
        elif entry == "mc":
            raw["mc"] = {key: value}
        else:
            raw[entry][key] = value
        if key == "delta_tau":
            raw["solver"]["solver"] = "midpoint"
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("entry, key, value, message", [
        ("grid", "xi_s", 0,
         "grid, s axis (grid.m[0] = 8): stretch parameter must be positive, got 0.0"),
        ("grid", "s_max", 50,
         "grid, s axis (grid.m[0] = 8): spot axis needs 0 = lower < strike < s_max, "
         "got [0.0, 50.0] with focus 100.0"),
        ("grid", "v_max", 0.01,
         "grid, v axis (grid.m[1] = 6): variance axis needs 0 <= v0 < v_max, "
         "got focus 0.04, bounds [0.0, 0.01]"),
        ("grid", "r_max", 0.05,
         "grid, rd axis (grid.m[2] = 6): rate axis needs r_min < r0 < r_max, got focus 0.1\n"
         "config error: grid, rf axis (grid.m[3] = 6): rate axis needs r_min < r0 < r_max, "
         "got focus 0.1"),
        ("grid", "m", [8.9, 6, 6, 6], "grid.m must be four sizes >= 4, got [8.9, 6, 6, 6]"),
        ("", "seed", 3.5, "seed must be an integer, got 3.5"),
        ("mc", "paths", 100.7, "mc.paths must be an integer, got 100.7"),
        ("mc", "steps_per_year", True, "mc.steps_per_year must be an integer, got True"),
        ("mc", "antithetic", "false",
         "mc.antithetic must be a boolean (true or false), got 'false'"),
        ("", "compute_lambda_max", "no",
         "compute_lambda_max must be a boolean (true or false), got 'no'"),
        ("model", "theta_d", [0.05, 0.0, -800.0],
         "model.theta_d_params must be finite with a3 >= 0, got (0.05, 0.0, -800.0)"),
        ("model", "theta_f", [float("nan"), 0.0, 0.0],
         "model.theta_f_params must be finite with a3 >= 0, got (nan, 0.0, 0.0)"),
    ], ids=["xi_s", "s_max", "v_max", "r_max", "m-fraction", "seed", "mc-paths",
            "mc-steps-bool", "mc-antithetic-str", "lambda-max-str", "theta-a3-negative",
            "theta-nan"])
    def test_load_time_rule_exit_two(self, tmp_path, capsys, monkeypatch, entry, key, value,
                                     message):
        def no_solve(*args, **kwargs):
            raise AssertionError("an invalid config reached the solver")

        monkeypatch.setattr(pricing, "price", no_solve)
        raw = tiny_config_dict()
        if entry == "":
            raw[key] = value
        elif entry == "mc":
            raw["mc"] = {key: value}
        else:
            raw[entry][key] = value
        if key in ("s_max", "v_max", "r_max"):
            raw["queries"] = []  # they would lie outside the box as well
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_export_bad_slice_spec_exit_two(self, tiny_field, tmp_path, capsys):
        tiny_field.save(tmp_path / "f.npz")
        code = cli.main(["export", str(tmp_path / "f.npz"), "--slice", "sq",
                         "--out", str(tmp_path / "slice.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: slice spec must name two distinct axes of "
            "('s', 'v', 'rd', 'rf'), got 'sq'\n")
        assert not (tmp_path / "slice.csv").exists()

    def test_sweep_checks_every_rung_before_solving(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a rung was solved before every rung was checked")

        monkeypatch.setattr(pricing, "price", no_solve)
        raw = tiny_config_dict()
        raw["solver"]["krylov_dim"] = 40000
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        code = cli.main(["sweep", str(cfg_path), "--ladder", "8,16,32"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        # N = 16*6*6*6 = 3456 and 32*6*6*6 = 6912; the m1 = 8 rung fits.
        assert err == [
            "config error: sweep rung m=(16, 6, 6, 6): solver.krylov_dim: a Krylov basis "
            "of dimension 40000 for N=3456 needs 1055 MiB, above the 1024 MiB budget; "
            "lower dim",
            "config error: sweep rung m=(32, 6, 6, 6): solver.krylov_dim: a Krylov basis "
            "of dimension 40000 for N=6912 needs 2109 MiB, above the 1024 MiB budget; "
            "lower dim",
        ]

    @pytest.mark.parametrize("ladder", ["8,x", "8,16", "8,12,16"])
    def test_sweep_bad_ladder_exit_two(self, tmp_path, capsys, ladder):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(yaml.safe_dump(tiny_config_dict()))
        code = cli.main(["sweep", str(cfg_path), "--ladder", ladder])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: sweep ladder ")

    def test_export_fixed_slice_axis_exit_two(self, tiny_field, tmp_path, capsys):
        tiny_field.save(tmp_path / "f.npz")
        code = cli.main(["export", str(tmp_path / "f.npz"), "--slice", "sv",
                         "--at", "s=50,rd=0.1", "--out", str(tmp_path / "slice.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: fixed value given for s, an axis of the 'sv' slice"]
        assert not (tmp_path / "slice.csv").exists()

    @pytest.mark.parametrize("content", [None, "option: [call, 100\n"],
                             ids=["missing", "malformed-yaml"])
    def test_unreadable_config_exit_two(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.yaml"
        if content is not None:
            cfg_path.write_text(content)
        assert cli.main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: cannot read config {cfg_path}: ")

    @pytest.mark.parametrize("content", [None, "not an archive\n", "no-s-nodes"],
                             ids=["missing", "not-npz", "no-s-nodes"])
    def test_unreadable_field_exit_two(self, tmp_path, capsys, content):
        path = tmp_path / "f.npz"
        if content == "no-s-nodes":
            np.savez(path, values=np.zeros(4), tau=1.0)
        elif content is not None:
            path.write_text(content)
        code = cli.main(["export", str(path), "--out", str(tmp_path / "slice.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: cannot read a saved field from {path}: ")
        assert not (tmp_path / "slice.csv").exists()

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
        written = tmp_path / "sw" / "tiny-sweep-s_results.csv"
        report = sweep(from_yaml(cfg_path), axis="s", ladder=(8, 16, 32))
        report.write_csv(tmp_path / "again.csv")
        assert written.read_bytes() == (tmp_path / "again.csv").read_bytes()


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

    def test_text_report_labels_the_dominant_eigenvalue(self):
        row = ConvergenceRow(m=(8, 6, 6, 6), values=[1.0], rel_errors=[None], elapsed=0.0,
                             re_lambda_max=-2.5, sym_lambda_max=0.25)
        report = ExperimentReport(name="x", config_hash="0", rows=[row], query_labels=["V1"])
        assert "sym lambda_max = 0.25, dominant Re = -2.5000" in report.to_text()

    def test_diagnostics_reuse_the_solved_operator(self, monkeypatch):
        calls = []
        assemble = operators.assemble_operator

        def counting(*args, **kwargs):
            calls.append(args)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(operators, "assemble_operator", counting)
        raw = tiny_config_dict()
        raw["compute_lambda_max"] = True
        raw["grid"]["m"] = [8, 5, 4, 4]
        report = runner.run(from_dict(raw))
        assert report.rows[0].sym_lambda_max is not None
        assert len(calls) == 1

    def test_sparse_diagnostics_csv_byte_identical(self, tmp_path):
        # experiment-2 grid: N = 2880 takes the ARPACK path
        cfg = from_yaml(bundled_config_path("experiment2"))
        cfg.mc = None
        cfg.compute_lambda_max = True
        for out in ("a", "b"):
            runner.run(cfg, out_dir=str(tmp_path / out))
        name = f"{cfg.name}_results.csv"
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes()
        assert list(csv.reader(first.decode().splitlines()))[1][8] != ""


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
