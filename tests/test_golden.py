"""The command line against its golden outputs in ``tests/golden/``.

Each case of ``tests/golden/regenerate.py`` (``verify all``, the three
default sweeps as CSV, a ``bound`` and a ``count`` per theorem and
potential family, and seven cases at log depth n >= 1 or CLR dimension
d >= 4) runs again and must reproduce its record: the exit code and
the first line of standard error exactly, and the report field by field.
Strings, integers and booleans must match exactly, floats to 1e-12 relative.

Two kinds of fields are rounding noise by construction and are compared with
an absolute tolerance at their rounding level instead:

* ``discrepancy`` and ``max_discrepancy`` of the transform suite, relative
  differences of two equal quadratic forms (about 2e-15): to 1e-14;
* the quadrature error estimates ``error_estimate`` and ``quad_err``, whose
  last digits follow the rounding of the integrand: to 1e-9, about 1e-12 of
  the largest bound pinned here.

Regenerate the files with ``PYTHONPATH=src python3 tests/golden/regenerate.py``
only for a deliberate change of the numbers.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_cases", GOLDEN / "regenerate.py")
golden_cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cases)

REL = 1e-12
NOISE_ABS = {
    "discrepancy": 1e-14,
    "max_discrepancy": 1e-14,
    "error_estimate": 1e-9,
    "quad_err": 1e-9,
}


def _float(x):
    """x as a float if it is a number or a numeric CSV cell, else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _close(key, want, got) -> bool:
    a, b = _float(want), _float(got)
    if a is None or b is None or isinstance(want, int) and isinstance(got, int):
        return want == got
    if math.isinf(a) or math.isinf(b):
        return a == b
    if key in NOISE_ABS:
        return abs(a - b) <= NOISE_ABS[key]
    return abs(a - b) <= REL * max(abs(a), abs(b))


def _diffs(want, got, path="", key=None):
    """Paths at which ``got`` differs from ``want`` beyond the tolerances."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in _diffs(want[k], got[k], f"{path}.{k}", k)]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in _diffs(w, g, f"{path}[{i}]", key)]
    return [] if _close(key, want, got) else [f"{path}: {want!r} != {got!r}"]


def _csv_diffs(want, got):
    """Cell by cell, each cell keyed by its column."""
    if want[0] != got[0] or len(want) != len(got):
        return [f"header or row count: {want[0]} / {len(want)} != {got[0]} / {len(got)}"]
    return [
        f"row {i} {col}: {w!r} != {g!r}"
        for i, (rw, rg) in enumerate(zip(want[1:], got[1:]), 1)
        for col, w, g in zip(want[0], rw, rg)
        if not _close(col, w, g)
    ]


@pytest.mark.parametrize("name", list(golden_cases.CASES))
def test_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = golden_cases.run_case(name)
    assert (got["argv"], got["config"]) == (want["argv"], want["config"])
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    if want["report"] is None or got["report"] is None:
        assert got["report"] == want["report"]
    elif golden_cases.CASES[name][2] == "csv":
        assert _csv_diffs(want["report"], got["report"]) == []
    else:
        assert _diffs(want["report"], got["report"]) == []


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(golden_cases.CASES)
