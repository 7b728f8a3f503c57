import csv
import json
import math
import subprocess
import sys
import textwrap
import time
from dataclasses import asdict

import pytest

from hardybounds.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ConfigError,
    RunConfig,
    main,
    parse_potential_literal,
)
from test_potentials import Formless


def run_cli(*argv, deadline=120.0):
    """Run the CLI in a subprocess; a run past ``deadline`` seconds fails the
    test with TimeoutExpired."""
    proc = subprocess.run(
        [sys.executable, "-m", "hardybounds", *argv],
        capture_output=True,
        text=True,
        timeout=deadline,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(theorem="t41", d=1, n=0, variant="one",
                        potential={"family": "square_well", "c": 1.0, "a": 1.0, "b": 2.0})
        again = RunConfig.from_dict(asdict(cfg))
        assert again == cfg
        assert asdict(again) == asdict(cfg)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"theorem": "t41", "frobnicate": 1})

    def test_potential_literal(self):
        spec = parse_potential_literal("square_well:c=1,a=1,b=2")
        assert spec == {"family": "square_well", "c": 1.0, "a": 1.0, "b": 2.0}
        assert parse_potential_literal("zero") == {"family": "zero"}
        with pytest.raises(ConfigError):
            parse_potential_literal("square_well:c")
        with pytest.raises(ConfigError):
            parse_potential_literal("square_well:c=deep")


class TestBoundCommand:
    def test_line_bound_well(self, capsys):
        code = main([
            "bound", "--theorem", "t41", "--d", "1", "--n", "0",
            "--variant", "one", "--potential", "square_well:c=1,a=1,b=2",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "0.63629436" in out
        assert "bound cap  : 0" in out

    def test_central_zero_gives_zero(self, capsys):
        code = main([
            "bound", "--theorem", "t43", "--d", "3", "--n", "0",
            "--variant", "zero", "--potential", "zero",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "bound raw  : 0" in out

    def test_clr_zero_gives_zero(self, capsys):
        code = main([
            "bound", "--theorem", "t42", "--d", "3", "--n", "0",
            "--variant", "zero", "--potential", "zero",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "bound raw  : 0" in out

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "bound.json"
        code = main([
            "bound", "--theorem", "t41", "--d", "1", "--n", "0",
            "--variant", "one", "--potential", "square_well:c=1,a=1,b=2",
            "--json", str(out_path),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text())
        assert payload["bound_raw"] == pytest.approx(2 * math.log(2) - 0.75, rel=1e-9)
        assert payload["bound_cap"] == 0

    def test_raw_that_12_digits_would_round_past_its_cap_prints_in_full(self, capsys):
        # the exact bound is 10, and the quadrature reads 9.999999999999998
        # at 1e-10: 12 digits would print 10 next to cap 9
        code = main([
            "bound", "--theorem", "t41", "--d", "1", "--n", "0", "--variant", "one",
            "--potential", "power_log_well:c=5,p=-3,q=1,a=1,b=inf", "--tol", "1e-10",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "bound raw  : 9.999999999999998\nbound cap  : 9\n" in out

    @pytest.mark.parametrize("d, potential, raw", [
        # r* = exp^(3)(sqrt 8) passes the double range
        pytest.param(5, "zero", "bound raw  : 5.99905753148\n", id="d5-zero"),
        # the x-side weight (r ln r ...)^3 passed it; the well lies below the threshold
        pytest.param(4, "square_well:c=1,a=20,b=40", "bound raw  : 0.13459440149\n",
                     id="d4-square-well"),
    ])
    def test_clr_bound_past_the_x_side_range(self, d, potential, raw, capsys):
        code = main([
            "bound", "--theorem", "t42", "--d", str(d), "--n", "1",
            "--variant", "one", "--potential", potential,
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert raw in out
        assert "exceeds the double range" not in out

    @pytest.mark.parametrize("constants, noted", [
        (None, True),  # the default table: C_5 is a placeholder
        ({"3": 0.1156, "5": 0.2}, False),
    ])
    def test_clr_placeholder_constant_note(self, constants, noted, tmp_path, capsys):
        cfg = {"theorem": "t42", "d": 5, "n": 0, "variant": "one",
               "potential": {"family": "square_well", "c": 1.0, "a": 20.0, "b": 30.0}}
        if constants is not None:
            cfg["constants"] = constants
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "bound.json"
        code = main(["bound", "--config", str(cfg_path), "--json", str(out_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        notes = json.loads(out_path.read_text())["notes"]
        assert any("C_5 = " in n and "placeholder" in n for n in notes) == noted
        assert ("note       : C_5 = " in out) == noted

    def test_bad_theorem_dimension_is_config_error(self, capsys):
        code = main([
            "bound", "--theorem", "t41", "--d", "3", "--n", "0",
            "--variant", "one", "--potential", "zero",
        ])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    def test_missing_potential_is_config_error(self, capsys):
        code = main(["bound", "--theorem", "t41", "--d", "1"])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("potential, tol", [
        ("square_well:c=5,a=3,b=7", "1e-14"),
        ("power_log_well:c=5,p=-3,q=0,a=3,b=inf", "1e-16"),
    ])
    def test_tolerance_below_the_rounding_floor_fails_at_once(self, potential, tol, capsys):
        # the summed error estimate cannot fall below 50 eps int |f|, so the
        # run ends at its first pass there, not at the evaluation budget
        start = time.perf_counter()
        code = main(["bound", "--theorem", "t41", "--d", "1", "--n", "0", "--variant", "one",
                     "--potential", potential, "--tol", tol])
        err = capsys.readouterr().err
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_NUMERICAL
        assert err.startswith("numerical failure: ") and "rounding floor" in err

    def test_tolerance_above_the_rounding_floor_still_converges(self, capsys):
        code = main(["bound", "--theorem", "t41", "--d", "1", "--n", "0", "--variant", "one",
                     "--potential", "square_well:c=5,a=3,b=7", "--tol", "1e-13"])
        assert code == EXIT_OK
        assert "bound raw  : 163.655216764\n" in capsys.readouterr().out


class TestCountCommand:
    def test_zero_count(self, capsys):
        code = main([
            "count", "--d", "1", "--n", "0", "--variant", "one",
            "--potential", "zero", "--m", "500", "--doublings", "0",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "count      : 0" in out

    def test_well_count_with_trail(self, capsys):
        code = main([
            "count", "--d", "1", "--n", "0", "--variant", "zero",
            "--potential", "square_well:c=1,a=1,b=2", "--m", "2000",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "count      : 1" in out
        assert "refinement" in out

    def test_central_channel_table(self, capsys):
        code = main([
            "count", "--d", "3", "--n", "0", "--variant", "one",
            "--potential", "square_well:c=50,a=0.5,b=2", "--m", "1000",
            "--doublings", "0",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "total count" in out
        assert "channel l=0" in out


    def test_power_log_tail_at_p_minus_two_counts_as_the_inverse_square_tail(self, capsys):
        # the same V = -5/r^2 on (1, inf) twice: sup r^2 |V_-| is 5, not +inf
        outs = []
        for pot in ("power_log_well:c=5,p=-2,q=0,a=1,b=inf", "inverse_square:c=5,a=1"):
            code = main([
                "count", "--theorem", "t43", "--d", "3", "--n", "0", "--variant", "zero",
                "--potential", pot, "--m", "400", "--L", "8",
            ])
            outs.append(capsys.readouterr().out)
            assert code == EXIT_OK
        assert outs[0] == outs[1]
        assert "total count: 38" in outs[0]

    @pytest.mark.parametrize("variant", ["zero", "one"])
    def test_power_log_tail_counts_at_depth_one(self, variant, tmp_path, capsys):
        # W = -30 e^{2s} e^{-e^s} e^s underflows to 0 where exp(exp(s)) overflows
        pot = "power_log_well:c=30,p=-3,q=1,a=3,b=inf"
        argv = ["--theorem", "t41", "--n", "1", "--variant", variant, "--potential", pot]
        assert main(["count", *argv, "--json", str(tmp_path / "count.json")]) == EXIT_OK
        assert main(["bound", *argv, "--json", str(tmp_path / "bound.json")]) == EXIT_OK
        capsys.readouterr()
        trail = json.loads((tmp_path / "count.json").read_text())["trail"]
        cap = json.loads((tmp_path / "bound.json").read_text())["bound_cap"]
        assert all(step["count"] <= cap for step in trail)

    def test_power_log_tail_counts_in_channels_at_depth_one(self, capsys):
        code = main(["count", "--theorem", "t43", "--d", "3", "--n", "1", "--L", "8", "--m", "400",
                     "--potential", "power_log_well:c=30,p=-3,q=1,a=3,b=inf"])
        assert code == EXIT_OK
        assert "total count" in capsys.readouterr().out

    def test_power_log_tail_at_p_minus_two_counts_as_the_inverse_square_tail_at_depth_one(
            self, tmp_path, capsys):
        trails = []
        for pot in ("power_log_well:c=30,p=-2,q=0,a=3,b=inf", "inverse_square:c=30,a=3"):
            path = tmp_path / "count.json"
            assert main(["count", "--theorem", "t41", "--n", "1", "--potential", pot,
                         "--json", str(path)]) == EXIT_OK
            trails.append(json.loads(path.read_text())["trail"])
        capsys.readouterr()
        assert trails[0] == trails[1]

    @pytest.mark.parametrize("L", ["1e-150", "1e-300"])
    def test_window_too_small_for_the_grid_is_a_numerical_failure(self, L, capsys):
        code = main(["count", "--d", "1", "--L", L, "--potential", "zero"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.err.startswith("numerical failure: grid step h = ")
        assert "count" not in captured.out

    @pytest.mark.parametrize("L", ["1e160", "1e308"])
    def test_window_too_large_for_the_grid_is_a_numerical_failure(self, L, capsys):
        # 1/h^2 underflowed and decoupled the rows: this printed count 8000
        code = main(["count", "--d", "1", "--n", "0", "--variant", "one", "--L", L,
                     "--potential", "square_well:c=4,a=1,b=2"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert "is too large" in captured.err
        assert "count" not in captured.out

    def test_central_count_of_a_potential_without_a_closed_form_sup_is_refused(
            self, capsys, monkeypatch):
        import hardybounds.cli as climod

        monkeypatch.setattr(climod, "_potential_from_config", lambda cfg: Formless())
        code = main(["count", "--d", "3", "--potential", "zero", "--m", "200"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.err.startswith("numerical failure: sup r^2 |V_-| of formless over (1, inf)")
        assert "must provide sup_r2_negative_part" in captured.err
        assert "total count" not in captured.out


class TestVerifyCommand:
    def test_hardy_suite(self, capsys):
        code = main(["verify", "hardy"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out

    def test_transform_suite(self, capsys):
        code = main(["verify", "transform", "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out

    def test_report_carries_its_suite_tag(self, tmp_path, capsys):
        path = tmp_path / "hardy.json"
        code = main(["verify", "hardy", "--json", str(path)])
        capsys.readouterr()
        assert code == EXIT_OK
        (d,) = json.loads(path.read_text())["reports"]
        assert d["suite"] == "hardy" and d["passed"] is True

    @pytest.mark.parametrize("argv, expected", [
        ([], 1e-6),
        (["--tol", "1e-8"], 1e-8),
        (["--tol", "1e-6"], 1e-6),
        (["--tol", "3e-7"], 3e-7),
    ])
    def test_transform_tolerance_reaches_the_suite(self, argv, expected, capsys, monkeypatch):
        import hardybounds.cli as climod
        from hardybounds.harness import IdentityReport

        received = []

        def fake_identity(tol):
            received.append(tol)
            return IdentityReport(cases=(), max_discrepancy=0.0, tolerance=tol, passed=True)

        monkeypatch.setattr(climod, "run_transform_identity", fake_identity)
        code = main(["verify", "transform", *argv])
        capsys.readouterr()
        assert code == EXIT_OK
        assert received == [expected]


    @pytest.mark.parametrize("suite", ["hardy", "bounds", "existence", "convergence"])
    def test_tolerance_of_a_suite_without_one_is_a_config_error(self, suite, capsys):
        code = main(["verify", suite, "--tol", "1e-3"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith("configuration error") and "verify transform" in captured.err
        assert captured.out == ""

    def test_verify_all_tolerance_reaches_the_transform_suite(self, capsys, monkeypatch):
        import hardybounds.cli as climod
        from hardybounds.harness import IdentityReport

        received = []

        def fake_identity(tol):
            received.append(tol)
            return IdentityReport(cases=(), max_discrepancy=0.0, tolerance=tol, passed=True)

        monkeypatch.setattr(climod, "run_transform_identity", fake_identity)
        code = main(["verify", "all", "--tol", "3e-7"])
        capsys.readouterr()
        assert code == EXIT_OK
        assert received == [3e-7]

    def test_clr_constant_reaches_the_bound_sweeps(self, tmp_path, capsys):
        rows = {}
        for name, argv in (("default", []), ("doubled", ["--C3", "0.2312"])):
            path = tmp_path / f"{name}.json"
            assert main(["verify", "bounds", *argv, "--json", str(path)]) == EXIT_OK
            reports = json.loads(path.read_text())["reports"]
            rows[name] = {r["suite"]: r["rows"] for r in reports if "rows" in r}
        capsys.readouterr()
        default, doubled = rows["default"], rows["doubled"]
        assert default.keys() == doubled.keys() == {"bounds-t41", "bounds-t42", "bounds-t43"}
        # C_3 = 2 x 0.1156 doubles the t42 bounds exactly, and nothing else
        assert [r["bound_raw"] * 2.0 for r in default["bounds-t42"]] == [
            r["bound_raw"] for r in doubled["bounds-t42"]]
        assert [r["count"] for r in default["bounds-t42"]] == [
            r["count"] for r in doubled["bounds-t42"]]
        assert default["bounds-t41"] == doubled["bounds-t41"]
        assert default["bounds-t43"] == doubled["bounds-t43"]

    @pytest.mark.parametrize("argv, config", [
        (["verify", "existence", "--m", "100"], None),
        (["verify", "convergence", "--L", "5"], None),
        (["verify", "hardy", "--C3", "0.5"], None),
        (["verify", "transform"], {"doublings": 2}),
    ], ids=["existence-m", "convergence-L", "hardy-C3", "transform-file-doublings"])
    def test_setting_of_the_bounds_suite_elsewhere_is_a_config_error(
        self, argv, config, tmp_path, capsys
    ):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith("configuration error") and "verify bounds" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, setting", [
        (["verify", "all", "--m", "100"], ("m", 100)),
        (["verify", "bounds", "--L", "10"], ("L", 10.0)),
    ])
    def test_bounds_settings_reach_the_bounds_suite(self, argv, setting, capsys, monkeypatch):
        import hardybounds.cli as climod

        received = []

        def spy(sweep, theorem, spec, L, m, doublings, **kwargs):
            received.append({"L": L, "m": m, "doublings": doublings})
            return []

        monkeypatch.setattr(climod, "run_bound_sweep", spy)
        code = main(argv)
        capsys.readouterr()
        assert code == EXIT_OK
        key, value = setting
        assert len(received) == 3 and all(r[key] == value for r in received)


class TestSweepCommand:
    def test_sweep_from_config(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        cfg = {
            "sweep": {
                "theorem": "t41",
                "family": "square_well",
                "base_params": {"a": 1.0, "b": 2.0},
                "vary": "c",
                "values": [1, 2, 4],
                "d": 1,
                "n": 0,
                "variant": "one",
                "m": 2000,
                "doublings": 0,
            },
            "csv_out": str(csv_path),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(cfg_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert rows[0]["satisfied"] == "true"
        assert rows[0]["theorem"] == "t41"

    def test_csv_flag_writes_the_rows(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"sweep": {
            "theorem": "t41", "family": "square_well", "base_params": {"a": 1.0, "b": 2.0},
            "vary": "c", "values": [1, 2], "d": 1, "n": 0, "variant": "one",
            "m": 2000, "doublings": 0,
        }}))
        csv_path = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(cfg_path), "--csv", str(csv_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["params"] for row in rows] == [
            json.dumps({"a": 1.0, "b": 2.0, "c": c}) for c in (1, 2)]

    def test_csv_rows_carry_the_notes(self, tmp_path, capsys):
        # a d = 5 t42 bound uses the placeholder C_5, and its row says so
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"sweep": {
            "theorem": "t42", "family": "square_well", "base_params": {"a": 20.0, "b": 30.0},
            "vary": "c", "values": [1], "d": 5, "n": 0, "variant": "one",
            "m": 500, "doublings": 0,
        }}))
        csv_path = tmp_path / "rows.csv"
        code = main(["sweep", "--config", str(cfg_path), "--csv", str(csv_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        with open(csv_path, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert "C_5 = 0.1156 is a placeholder" in row["notes"]

    @pytest.mark.parametrize("argv", [
        ["bound", "--theorem", "t41", "--potential", "square_well:c=1,a=1,b=2"],
        ["count", "--theorem", "t41", "--potential", "square_well:c=1,a=1,b=2"],
        ["verify", "transform"],
    ], ids=["bound", "count", "verify"])
    def test_csv_is_a_usage_error_outside_sweep(self, argv, tmp_path, capsys):
        # only a sweep writes rows, so no other command takes the flag
        csv_path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--csv", str(csv_path)])
        assert exc.value.code == 2
        assert "--csv" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_empty_ladder_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "sweep": {
                "theorem": "t41", "family": "square_well",
                "base_params": {"a": 1.0, "b": 2.0}, "vary": "c", "values": [],
            }
        }))
        code = main(["sweep", "--config", str(cfg_path)])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    def test_missing_sweep_object_is_config_error(self, capsys):
        code = main(["sweep"])
        capsys.readouterr()
        assert code == EXIT_CONFIG

    def test_t43_sweep_with_json_sidecar(self, tmp_path, capsys):
        json_path = tmp_path / "rows.json"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "sweep": {
                "theorem": "t43",
                "family": "square_well",
                "base_params": {"a": 1.0, "b": 2.0},
                "vary": "c",
                "values": [1, 2],
                "d": 3,
                "n": 0,
                "variant": "one",
                "m": 1000,
                "doublings": 0,
            },
            "json_out": str(json_path),
        }))
        code = main(["sweep", "--config", str(cfg_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(json_path.read_text())
        assert len(payload["rows"]) == 2
        # channel breakdown rides along in the JSON sidecar
        assert payload["rows"][0]["count_trail"][0]["l"] == 0

    def test_flags_set_the_operator_and_grid_of_the_sweep(self, tmp_path, capsys):
        json_path = tmp_path / "rows.json"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"L": 10.0, "sweep": {
            "theorem": "t41", "family": "square_well", "base_params": {"a": 1.0, "b": 2.0},
            "vary": "c", "values": [1, 4], "variant": "one", "m": 2000, "L": 20.0,
        }}))
        code = main(["sweep", "--config", str(cfg_path), "--m", "500", "--variant", "zero",
                     "--doublings", "0", "--json", str(json_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(json_path.read_text())
        config = payload["config"]
        assert {k: config[k] for k in ("theorem", "d", "n", "variant", "L", "m", "doublings")} \
            == {"theorem": "t41", "d": 1, "n": 0, "variant": "zero", "L": 20.0, "m": 500,
                "doublings": 0}
        assert config["sweep"] == {"family": "square_well", "base_params": {"a": 1.0, "b": 2.0},
                                   "vary": "c", "values": [1, 4]}
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            assert {k: row[k] for k in ("theorem", "d", "n", "variant", "L", "m")} \
                == {k: config[k] for k in ("theorem", "d", "n", "variant", "L", "m")}
            (step,) = row["count_trail"]
            assert (step["L"], step["m"]) == (20.0, 500)

    @pytest.mark.parametrize("setting", [
        {"theorem": "t9"}, {"theorem": 5},
        {"theorem": "t43", "d": 1}, {"theorem": "t43", "d": 3.0},
        {"n": -1}, {"variant": "two"},
        {"m": 1}, {"m": 2.5},
        {"L": -1}, {"L": "x"},
        {"family": "nope"}, {"vary": "zz"}, {"values": [-1]},
    ], ids=["theorem-unknown", "theorem-number", "t43-d1", "d-float", "n-negative",
            "variant-unknown", "m-one", "m-float", "L-negative", "L-string",
            "family-unknown", "vary-unknown", "value-negative"])
    def test_bad_sweep_setting_is_a_config_error(self, setting, tmp_path, capsys):
        sweep = {"theorem": "t41", "family": "square_well", "base_params": {"a": 1.0, "b": 2.0},
                 "vary": "c", "values": [1], "m": 200, "doublings": 0, **setting}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"sweep": sweep}))
        code = main(["sweep", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err.startswith("configuration error")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, file_tol, expected", [
        ([], None, 1e-10),
        (["--tol", "1e-6"], None, 1e-6),
        ([], 1e-7, 1e-7),
        (["--tol", "1e-6"], 1e-7, 1e-6),
    ])
    def test_tolerance_reaches_the_sweep(self, argv, file_tol, expected, tmp_path, capsys,
                                         monkeypatch):
        import hardybounds.cli as climod

        received = []

        def fake_sweep(sweep, theorem, spec, L, m, doublings, constants=None, tol=1e-10):
            received.append(tol)
            return []

        monkeypatch.setattr(climod, "run_bound_sweep", fake_sweep)
        cfg = {"sweep": {"theorem": "t41", "family": "square_well",
                         "base_params": {"a": 1.0, "b": 2.0}, "vary": "c", "values": [1]}}
        if file_tol is not None:
            cfg["tol"] = file_tol
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(cfg_path), *argv])
        capsys.readouterr()
        assert code == EXIT_OK
        assert received == [expected]

    def test_unsatisfied_row_exits_one(self, tmp_path, capsys, monkeypatch):
        # exit-code plumbing only: fabricate a violated row
        import hardybounds.cli as climod
        from hardybounds.harness import ExperimentRow

        def fake_sweep(sweep, theorem, spec, L, m, doublings, constants=None, tol=1e-10):
            return [ExperimentRow(
                experiment_id="fake", theorem=theorem, d=1, n=0, variant="one",
                family="square_well", params={"c": 1.0}, count=5, count_trail=(),
                bound_raw=1.0, bound_cap=1, satisfied=False, L=20.0, m=100,
                quad_err=0.0,
            )]

        monkeypatch.setattr(climod, "run_bound_sweep", fake_sweep)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "sweep": {"theorem": "t41", "family": "square_well",
                      "base_params": {"a": 1.0, "b": 2.0}, "vary": "c",
                      "values": [1]},
        }))
        code = main(["sweep", "--config", str(cfg_path)])
        capsys.readouterr()
        assert code == EXIT_VERIFY_FAILED


class TestReportEcho:
    """``main`` writes the report after the command returns, so the echoed
    config holds the defaults that the command filled in."""

    SWEEP = {"sweep": {"theorem": "t41", "family": "square_well",
                       "base_params": {"a": 1.0, "b": 2.0}, "vary": "c", "values": [1]}}

    def report(self, argv, config, tmp_path):
        if config is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg_path)]
        path = tmp_path / "report.json"
        code = main([*argv, "--json", str(path)])
        return code, json.loads(path.read_text())

    @pytest.mark.parametrize("argv, key, echoed", [
        (["count", "--potential", "zero"], "theorem", "t41"),
        (["count", "--d", "3", "--potential", "zero"], "theorem", "t43"),
        (["bound", "--theorem", "t41", "--potential", "zero"], "tol", 1e-8),
        (["verify", "hardy"], "tol", None),
        (["verify", "transform"], "tol", 1e-6),
        (["sweep"], "tol", 1e-10),
    ], ids=["count-d1", "count-d3", "bound", "verify-hardy", "verify-transform", "sweep"])
    def test_filled_default_is_echoed(self, argv, key, echoed, tmp_path, capsys, monkeypatch):
        import hardybounds.cli as climod

        monkeypatch.setattr(climod, "run_bound_sweep", lambda *args, **kwargs: [])
        code, report = self.report(argv, self.SWEEP if argv == ["sweep"] else None, tmp_path)
        capsys.readouterr()
        assert code == EXIT_OK
        assert report["config"][key] == echoed

    def test_failed_verify_writes_its_report(self, tmp_path, capsys, monkeypatch):
        import hardybounds.cli as climod
        from hardybounds.harness import PositivityReport

        monkeypatch.setattr(climod, "run_hardy_positivity",
                            lambda: PositivityReport((), -1.0, False, 0.0))
        code, report = self.report(["verify", "hardy"], None, tmp_path)
        assert "FAIL" in capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED
        (rep,) = report["reports"]
        assert rep["suite"] == "hardy" and rep["passed"] is False
        assert report["config"]["suite"] == "hardy"

    def test_failed_sweep_writes_its_report(self, tmp_path, capsys, monkeypatch):
        import hardybounds.cli as climod
        from hardybounds.harness import ExperimentRow

        def fake_sweep(sweep, theorem, spec, L, m, doublings, constants=None, tol=1e-10):
            return [ExperimentRow(
                experiment_id="fake", theorem=theorem, d=1, n=0, variant="one",
                family="square_well", params={"c": 1.0}, count=5, count_trail=(),
                bound_raw=1.0, bound_cap=1, satisfied=False, L=20.0, m=100,
                quad_err=0.0,
            )]

        monkeypatch.setattr(climod, "run_bound_sweep", fake_sweep)
        code, report = self.report(["sweep"], self.SWEEP, tmp_path)
        assert "VIOLATED" in capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED
        (row,) = report["rows"]
        assert row["experiment_id"] == "fake" and row["satisfied"] is False
        assert report["config"]["tol"] == 1e-10


class TestEnvironmentAndProcess:
    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "theorem": "t41", "d": 1, "n": 0, "variant": "one",
            "potential": {"family": "square_well", "c": 1.0, "a": 1.0, "b": 2.0},
        }))
        monkeypatch.setenv("HARDYBOUNDS_CONFIG", str(cfg_path))
        code = main(["bound"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "0.63629436" in out

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "theorem": "t41", "d": 1, "n": 0, "variant": "zero",
            "potential": {"family": "square_well", "c": 1.0, "a": 1.0, "b": 2.0},
        }))
        code = main(["bound", "--config", str(cfg_path), "--variant", "one"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "bound cap  : 0" in out  # variant one drops the +1

    def test_show_defaults_rows_are_the_values_used(self, tmp_path, capsys, monkeypatch):
        import hardybounds.bounds as boundsmod
        import hardybounds.cli as climod
        import hardybounds.harness as harnessmod
        from hardybounds.harness import IdentityReport

        assert main(["--show-defaults"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[1:]
        rows = dict(line.split(None, 1) for line in lines)
        used = {}

        def spy(name, fn, module=climod):
            def record(*args, **kwargs):
                used[name] = (args, kwargs)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, record)

        spy("count_negative", climod.count_negative)
        assert main(["count", "--potential", "zero"]) == EXIT_OK
        (spec, _), kw = used["count_negative"]
        assert (spec.d, spec.n, spec.variant) == (int(rows["d"]), int(rows["n"]), rows["variant"])
        assert (kw["L"], kw["m"], kw["doublings"]) == (
            float(rows["L"]), int(rows["m"]), int(rows["doublings"]))

        spy("bound_1d", boundsmod.bound_1d, boundsmod)
        spy("clr_bound", boundsmod.clr_bound, boundsmod)
        assert main(["bound", "--theorem", "t41", "--potential", "zero"]) == EXIT_OK
        assert used["bound_1d"][1]["tol"] == float(rows["bound_tol"])
        assert main(["bound", "--theorem", "t42", "--d", "3", "--potential", "zero"]) == EXIT_OK
        assert used["clr_bound"][1]["constants"].get(3) == float(rows["C_3"])

        spy("run_bound_sweep",
            lambda sweep, theorem, spec, L, m, doublings, constants=None, tol=None: [])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"sweep": {
            "theorem": "t41", "family": "square_well",
            "base_params": {"a": 1.0, "b": 2.0}, "vary": "c", "values": [1]}}))
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
        assert used["run_bound_sweep"][1]["tol"] == float(rows["sweep_tol"])
        assert used["run_bound_sweep"][0][3:] == (
            float(rows["L"]), int(rows["m"]), int(rows["doublings"]))

        spy("run_transform_identity", lambda tol: IdentityReport((), 0.0, True, tol))
        assert main(["verify", "transform"]) == EXIT_OK
        assert used["run_transform_identity"][1]["tol"] == float(rows["verify_transform_tol"])

        # with no bound state anywhere the window doubles up to the ceiling
        class NoCount:
            negative_count = 0
        monkeypatch.setattr(harnessmod, "count_negative", lambda *a, **k: NoCount)
        path = tmp_path / "existence.json"
        assert main(["verify", "existence", "--json", str(path)]) == EXIT_OK
        ceiling = float(rows["existence_max_window"])
        for case in json.loads(path.read_text())["reports"][0]["cases"]:
            assert case["window"] <= ceiling < 2 * case["window"]

        cap = int(rows["transform_depth_cap"])
        capsys.readouterr()
        assert main(["count", "--n", str(cap - 1), "--potential", "zero", "--m", "50"]) == EXIT_OK
        assert main(["count", "--n", str(cap), "--potential", "zero", "--m", "50"]) \
            == EXIT_NUMERICAL
        assert f"cap {cap}" in capsys.readouterr().err
        assert set(rows) == {"d", "n", "variant", "L", "m", "doublings", "C_3", "bound_tol",
                             "sweep_tol", "verify_transform_tol", "existence_max_window",
                             "transform_depth_cap"}

    def test_subprocess_exit_codes(self):
        code, out, _ = run_cli("--show-defaults")
        assert code == EXIT_OK and "C_3" in out
        code, _, err = run_cli("bound", "--theorem", "t41", "--d", "1",
                               "--potential", "nonsense_family:x=1")
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    def test_infinite_channel_supremum_terminates(self):
        # sup r^2 |V_-| is infinite for this tail: every channel binds
        pot = "power_log_well:c=1,p=-1,q=0,a=2,b=inf"
        code, out, _ = run_cli("bound", "--theorem", "t43", "--d", "3",
                               "--potential", pot, deadline=30.0)
        assert code == EXIT_OK
        assert "bound raw  : inf" in out
        assert "note       : power-law tail" in out
        code, _, err = run_cli("count", "--theorem", "t43", "--d", "3",
                               "--potential", pot, deadline=30.0)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err and "infinite" in err

    def test_slow_tail_bound_is_computed(self):
        # -2 r^-2.5 ln r: in s = ln r the integrand 2 s^2 e^(-s/2) decays
        # exponentially, and the bound is 2 Gamma(3, 0.5 ln 1.5) / 0.5^3
        code, out, err = run_cli("bound", "--theorem", "t41", "--d", "1", "--n", "0",
                                 "--variant", "one", "--potential",
                                 "power_log_well:c=2,p=-2.5,q=1,a=1.5,b=inf",
                                 deadline=60.0)
        assert code == EXIT_OK, err
        assert "bound raw  : 31.961799114\n" in out
        assert "bound cap  : 31\n" in out

    def test_every_family_theorem_variant_and_depth_exits_cleanly(self, tmp_path):
        # bound and count of each family under t41/t42/t43, both variants,
        # n = 0 and 1, through main in one child process under one deadline:
        # each exits 0, or 3 with one line and no traceback; a tabulated
        # count, whose window passes the last sample, exits 0
        tabulated = tmp_path / "tabulated.json"
        tabulated.write_text(json.dumps({"potential": {
            "family": "tabulated", "r": [0.5, 1.2, 6.0], "v": [0.0, -20.0, -1.0]}}))
        families = {
            "zero": ["--potential", "zero"],
            "square_well": ["--potential", "square_well:c=40,a=3,b=6"],
            "inverse_square": ["--potential", "inverse_square:c=0.5,a=3"],
            "power_log_well": ["--potential", "power_log_well:c=5,p=-3,q=1,a=3,b=inf"],
            "tabulated": ["--config", str(tabulated)],
        }
        cases = [[command, "--theorem", theorem, "--d", "1" if theorem == "t41" else "3",
                  "--n", n, "--variant", variant, *potential,
                  *(["--L", "8", "--m", "400"] if command == "count" else [])]
                 for command in ("bound", "count") for theorem in ("t41", "t42", "t43")
                 for potential in families.values() for variant in ("zero", "one")
                 for n in ("0", "1")]
        driver = textwrap.dedent("""\
            import contextlib, io, json, sys, traceback
            from hardybounds.cli import main
            results = []
            for argv in json.load(sys.stdin):
                err = io.StringIO()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        with contextlib.redirect_stderr(err):
                            code = main(argv)
                except BaseException:
                    code, err = None, io.StringIO(traceback.format_exc())
                results.append([code, err.getvalue()])
            print(json.dumps(results))
            """)
        proc = subprocess.run([sys.executable, "-c", driver], input=json.dumps(cases),
                              capture_output=True, text=True, timeout=300.0)
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert len(results) == len(cases) == 120
        for argv, (code, err) in zip(cases, results):
            assert code in (EXIT_OK, EXIT_NUMERICAL), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            if code == EXIT_NUMERICAL:
                assert err.startswith("numerical failure") and err.count("\n") == 1, (argv, err)
            if argv[0] == "count" and "--config" in argv:
                assert code == EXIT_OK, (argv, err)

    @pytest.mark.parametrize("argv, config", [
        (["count", "--d", "1", "--potential", "zero", "--doublings", "-1"], None),
        (["sweep"], {"sweep": {"theorem": "t41", "family": "square_well",
                               "base_params": {"a": 1.0, "b": 2.0}, "vary": "c",
                               "values": [1], "doublings": -1}}),
        (["bound", "--theorem", "t41", "--potential", "zero"], {"m": "big"}),
        (["bound", "--theorem", "t42", "--d", "3", "--potential", "zero"],
         {"constants": [1, 2]}),
        (["sweep"], {"sweep": {"theorem": "t41", "family": "square_well",
                               "base_params": {"a": 1.0, "b": 2.0}, "vary": "c",
                               "values": ["x"]}}),
        (["bound", "--theorem", "t43", "--potential", "zero"], {"d": 3.0}),
        # the key was never read, and is no longer accepted
        (["bound", "--theorem", "t41", "--potential", "zero"], {"samples": 2000}),
        (["bound", "--theorem", "t41"], {"potential": [1]}),
        (["sweep"], {"sweep": [1]}),
        (["sweep"], {"sweep": {"theorem": "t41", "family": "square_well",
                               "base_params": [1], "vary": "c", "values": [1]}}),
        (["sweep"], {"sweep": {"theorem": "t41", "family": "square_well",
                               "base_params": {"a": 1.0, "b": 2.0}, "vary": "c",
                               "values": [1], "doublings": 1.5}}),
        (["bound", "--theorem", "t41", "--potential", "square_well:c=nan,a=1,b=2"], None),
        (["bound", "--theorem", "t41", "--potential", "square_well:c=inf,a=1,b=2"], None),
        (["bound", "--theorem", "t41", "--potential", "inverse_square:c=1,a=nan"], None),
        (["bound", "--theorem", "t41"],
         {"potential": {"family": "tabulated", "r": [1, 2], "v": [-1, math.inf]}}),
        (["count", "--d", "3", "--l", "-1", "--potential", "zero"], None),
        (["count", "--potential", "zero"], {"d": 3, "l": -1}),
        # a line has no angular channels
        (["count", "--d", "1", "--l", "2", "--potential", "zero"], None),
        (["bound", "--theorem", "t41"],
         {"potential": {"family": "square_well", "c": "x", "a": 1, "b": 2}}),
        (["bound", "--theorem", "t41"],
         {"potential": {"family": "tabulated", "r": [1, 2], "v": ["a", 1]}}),
        # only sweep writes a CSV
        (["bound", "--theorem", "t41", "--potential", "square_well:c=1,a=1,b=2"],
         {"csv_out": "x.csv"}),
        (["count", "--potential", "square_well:c=1,a=1,b=2"], {"csv_out": "x.csv"}),
        (["verify", "hardy"], {"csv_out": "x.csv"}),
        # a CLR constant that is not finite or lies below the classical one
        *[(["bound", "--theorem", "t42", "--d", "3", "--n", "0", "--variant", "zero",
            "--potential", "square_well:c=400,a=3,b=6", "--C3", c], None)
          for c in ("nan", "inf", "0", "-1", "1e-9")],
        (["bound", "--theorem", "t42", "--d", "3", "--potential", "square_well:c=400,a=3,b=6"],
         {"constants": {"3": 0.1156, "5": 1e-5}}),
        (["bound", "--theorem", "t42", "--d", "3", "--potential", "zero"],
         {"constants": {"-2": 0.5}}),
        # no C_8 is configured
        (["bound", "--theorem", "t42", "--d", "8", "--potential", "zero"], None),
        (["sweep", "--theorem", "t42", "--d", "8"],
         {"sweep": {"family": "square_well", "base_params": {"a": 3.0, "b": 6.0},
                    "vary": "c", "values": [1]}}),
    ], ids=["count-doublings", "sweep-doublings", "m-string", "constants-list",
            "sweep-value-string", "d-float", "samples-key", "potential-list",
            "sweep-list", "base-params-list", "sweep-doublings-float", "potential-param-nan",
            "potential-param-inf", "inverse-square-onset-nan", "tabulated-sample-inf",
            "l-negative-flag", "l-negative-config", "l-at-d1",
            "potential-param-string", "tabulated-sample-string",
            "bound-csv-out", "count-csv-out", "verify-csv-out",
            "C3-nan", "C3-inf", "C3-zero", "C3-negative", "C3-below-classical",
            "C5-below-classical-in-file", "C-of-no-dimension", "C8-unset-bound",
            "C8-unset-sweep"])
    def test_bad_configuration_value_is_a_config_error(self, argv, config, tmp_path):
        if config is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg_path)]
        code, _, err = run_cli(*argv, deadline=60.0)
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error")
        assert "Traceback" not in err

    def test_a_t42_bound_names_the_constant_it_lacks(self, tmp_path):
        code, _, err = run_cli("bound", "--theorem", "t42", "--d", "8", "--potential", "zero",
                               deadline=60.0)
        assert code == EXIT_CONFIG
        assert 'constants["8"]' in err
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"constants": {"8": 0.2}}))
        code, out, err = run_cli("bound", "--theorem", "t42", "--d", "8", "--variant", "one",
                                 "--potential", "zero", "--config", str(cfg_path), deadline=60.0)
        assert code == EXIT_OK, err
        assert "bound raw  : 30146.2557755\n" in out

    def test_bad_config_json_subprocess(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run_cli("verify", "hardy", "--config", str(bad))
        assert code == EXIT_CONFIG


class TestParserOnce:
    """``main`` builds its parser tree on its first call and reuses it."""

    def test_two_calls_build_one_parser_tree(self, capsys, monkeypatch):
        import argparse

        from hardybounds import cli

        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert main(["--show-defaults"]) == EXIT_OK
        tree = len(built)
        assert tree == 1 + len(("bound", "count", "verify", "sweep"))
        assert main(["count", "--potential", "zero", "--m", "50"]) == EXIT_OK
        assert len(built) == tree

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import hardybounds.cli\n"
            "print(len(built), hardybounds.cli.build_parser.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60.0)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_parsed_state_does_not_leak_between_calls(self, tmp_path, capsys):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        argv = ["count", "--d", "3", "--potential", "zero", "--m", "50"]
        assert main([*argv[:3], "--l", "1", *argv[3:], "--json", str(first)]) == EXIT_OK
        assert main([*argv, "--json", str(second)]) == EXIT_OK
        assert json.loads(first.read_text())["config"]["l"] == 1
        assert json.loads(second.read_text())["config"]["l"] is None
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            main(["count", "--no-such-flag"])
        assert exc.value.code == 2


@pytest.mark.parametrize("d, floor", [(3, 0.016887), (4, 0.0031663), (5, 5.375e-4)])
def test_classical_constant(d, floor):
    from hardybounds.cli import _classical_constant
    from hardybounds.iterfun import sphere_area

    assert _classical_constant(d) == pytest.approx(floor, rel=1e-4)
    # omega_d / (2 pi)^d, with omega_d = |S^(d-1)| / d
    assert _classical_constant(d) == pytest.approx(
        sphere_area(d) / d / (2 * math.pi) ** d, rel=1e-14)
