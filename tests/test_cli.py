import csv
import json
import math
import subprocess
import sys

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
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

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

        def fake_sweep(sweep, theorem, constants=None, tol=1e-10):
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

        def fake_sweep(sweep, theorem, constants=None, tol=1e-10):
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

    def test_slow_tail_quadrature_is_a_numerical_failure(self):
        # bisection toward x = infinity puts a node on t = 1 of x = a + t/(1-t)
        code, _, err = run_cli("bound", "--theorem", "t41", "--d", "1", "--n", "0",
                               "--variant", "one", "--potential",
                               "power_log_well:c=2,p=-2.5,q=1,a=1.5,b=inf",
                               deadline=60.0)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err and "t = 1" in err
        assert "Traceback" not in err

    def test_bad_config_json_subprocess(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run_cli("verify", "hardy", "--config", str(bad))
        assert code == EXIT_CONFIG
