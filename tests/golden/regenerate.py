"""Golden outputs of the command line: the cases, how one is run, and how the
golden files are rewritten.

Each case runs ``hardybounds.cli.main`` in this process on a fixed argument
list (and, where the potential is tabulated or the run is a sweep, a fixed
configuration file).  Its record holds the exit code, the first line of
standard error, and the report the run wrote: the ``--json`` payload, or the
``--csv`` rows as lists of strings.  The output paths inside the echoed
configuration are masked.

``tests/test_golden.py`` compares fresh runs against the files in this
directory, through ``comparator.reconcile_record``.  After a deliberate
change of the numbers, rewrite them with

    PYTHONPATH=src python3 tests/golden/regenerate.py

It writes a fresh value only at a path that the comparator flags, and keeps
every other value as recorded, so a last-digit move inside the tolerances
rewrites nothing.  It prints the flagged paths; explain them, and the diff of
the golden files, in the change's description.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from comparator import reconcile_record
from hardybounds.cli import main

HERE = Path(__file__).resolve().parent
MASK = "<masked>"

# a tabulated well, -30 r^-2.5 on [1.2, 6] with ramps to 0 on either side:
# sup r^2 |V_-| = 27.4 gives l_max = 4 in d = 3, so the central bound splits
# its channels at the crossings of l(l+1)/r^2 + V
_TAB_R = [0.5, *np.linspace(1.2, 6.0, 9).tolist(), 6.5]
_TAB_V = [0.0, *(-30.0 * np.linspace(1.2, 6.0, 9) ** -2.5).tolist(), 0.0]
TABULATED = {"family": "tabulated", "r": _TAB_R, "v": _TAB_V}

# (theorem, operator flags) and the potential of each family for it
OPERATORS = {
    "t41": ["--d", "1", "--n", "0", "--variant", "one"],
    "t42": ["--d", "3", "--n", "0", "--variant", "zero"],
    "t43": ["--d", "3", "--n", "0", "--variant", "one"],
}
FAMILIES = {
    "t41": {
        "zero": "zero",
        "square": "square_well:c=4,a=1,b=2",
        "inverse-square": "inverse_square:c=0.5,a=2",
        "power-log": "power_log_well:c=5,p=-3,q=1,a=1,b=inf",
        "tabulated": TABULATED,
    },
    "t42": {
        "zero": "zero",
        "square": "square_well:c=4,a=3,b=6",
        "inverse-square": "inverse_square:c=0.5,a=3",
        "power-log": "power_log_well:c=5,p=-3,q=0,a=3,b=inf",
        "tabulated": TABULATED,
    },
    "t43": {
        "zero": "zero",
        "square": "square_well:c=8,a=1,b=2",
        "inverse-square": "inverse_square:c=0.5,a=2",
        # sup r^2 |V_-| = 30/e: l_max = 2, with a crossing on each side of the
        # peak of r^2 |V_-| in channels 1 and 2
        "power-log": "power_log_well:c=30,p=-3,q=1,a=1,b=inf",
        "tabulated": TABULATED,
    },
}
COUNT_GRID = ["--L", "8", "--m", "400"]

# the three sweeps of ``verify bounds``
SWEEPS = {
    "t41": {"family": "square_well", "base_params": {"a": 1.0, "b": 2.0}, "vary": "c",
            "values": [1, 2, 4, 8, 16, 32, 64], "d": 1, "n": 0, "variant": "one"},
    "t43": {"family": "square_well", "base_params": {"a": 1.0, "b": 2.0}, "vary": "c",
            "values": [1, 2, 4, 8], "d": 3, "n": 0, "variant": "one"},
    "t42": {"family": "square_well", "base_params": {"a": 3.0, "b": 6.0}, "vary": "c",
            "values": [1, 2, 4, 8, 16], "d": 3, "n": 0, "variant": "zero"},
}


def _cases() -> dict:
    """name -> (argv, config file contents or None, report format)."""
    cases = {"verify-all": (["verify", "all"], None, "json")}
    for theorem, sweep in SWEEPS.items():
        cases[f"sweep-{theorem}"] = (["sweep"], {"theorem": theorem, "sweep": sweep}, "csv")
    for theorem, flags in OPERATORS.items():
        for family, pot in FAMILIES[theorem].items():
            config = None
            argv = ["--theorem", theorem, *flags]
            if isinstance(pot, dict):
                config = {"potential": pot}
            else:
                argv += ["--potential", pot]
            cases[f"bound-{theorem}-{family}"] = (["bound", *argv], config, "json")
            cases[f"count-{theorem}-{family}"] = (["count", *argv, *COUNT_GRID], config, "json")
    # a configuration error, which exits 2, and a count window that passes the
    # last sample of a tabulated well (r = e^s passes 6 inside the first
    # window), where V is 0
    cases["bound-t42-d2"] = (["bound", "--theorem", "t42", "--d", "2", "--potential", "zero"],
                             None, "json")
    narrow = {"family": "tabulated", "r": [0.5, 1.2, 6.0], "v": [0.0, -20.0, -1.0]}
    cases["count-t41-tabulated-outside"] = (
        ["count", "--theorem", "t41", *OPERATORS["t41"], *COUNT_GRID], {"potential": narrow}, "json")
    # log depth n >= 1 and CLR dimensions past 3: the iterated-log weights,
    # the transform's Jacobian and tower at k = 2 and 3, and the telescoped
    # centrifugal term at k = 2
    for name, argv in DEPTH_CASES.items():
        cases[name] = (argv, None, "json")
    return cases


DEPTH_CASES = {
    "bound-t41-n2": ["bound", "--theorem", "t41", "--d", "1", "--n", "2", "--variant", "zero",
                     "--potential", "square_well:c=4,a=16,b=40"],
    "count-t41-n2": ["count", "--theorem", "t41", "--d", "1", "--n", "2", "--variant", "zero",
                     "--potential", "square_well:c=4,a=16,b=40", *COUNT_GRID],
    "bound-t43-n1-power-log": ["bound", "--theorem", "t43", "--d", "3", "--n", "1",
                               "--variant", "zero",
                               "--potential", "power_log_well:c=30,p=-3,q=1,a=3,b=inf"],
    "count-t43-n1-square": ["count", "--theorem", "t43", "--d", "3", "--n", "1",
                            "--variant", "zero", "--potential", "square_well:c=40,a=3,b=6",
                            *COUNT_GRID],
    "bound-t42-d3-n1-zero": ["bound", "--theorem", "t42", "--d", "3", "--n", "1",
                             "--variant", "zero", "--potential", "square_well:c=40,a=16,b=30"],
    "bound-t42-d4-n0-one": ["bound", "--theorem", "t42", "--d", "4", "--n", "0",
                            "--variant", "one", "--potential", "square_well:c=40,a=16,b=30"],
    "bound-t42-d5-n0-one": ["bound", "--theorem", "t42", "--d", "5", "--n", "0",
                            "--variant", "one", "--potential", "square_well:c=4,a=16,b=30"],
}


CASES = _cases()


def _mask(payload: dict) -> dict:
    config = payload.get("config")
    if config is not None:
        for key in ("json_out", "csv_out"):
            if config.get(key) is not None:
                config[key] = MASK
    return payload


def run_case(name: str) -> dict:
    """Run one case and return its record."""
    case_argv, config, fmt = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(case_argv)
        if config is not None:
            cfg_path = Path(tmp) / "config.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        out_path = Path(tmp) / f"out.{fmt}"
        argv += [f"--{fmt}", str(out_path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        record = {"argv": list(case_argv), "config": config, "exit": code,
                  "stderr": lines[0] if lines else ""}
        if out_path.exists():
            text = out_path.read_text()
            if fmt == "json":
                record["report"] = _mask(json.loads(text))
            else:
                record["report"] = list(csv.reader(io.StringIO(text)))
        else:
            record["report"] = None
    return record


def main_regenerate() -> None:
    """Rewrite each golden file with what a fresh run moves, print the moved
    paths, write the file of a new case whole and delete that of a case that
    is gone."""
    for old in HERE.glob("*.json"):
        if old.stem not in CASES:
            old.unlink()
            print(f"{old.stem}: removed")
    for name, (_, _, fmt) in CASES.items():
        path = HERE / f"{name}.json"
        got = run_case(name)
        if path.exists():
            record, moved = reconcile_record(json.loads(path.read_text()), got, fmt)
        else:
            record, moved = got, ["added"]
        if moved:
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        for where in moved:
            print(f"{name}: {where}")


if __name__ == "__main__":
    main_regenerate()
