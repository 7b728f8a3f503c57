"""The command line against its golden outputs in ``tests/golden/``.

Each case of ``tests/golden/regenerate.py`` (``verify all``, the three
default sweeps as CSV, a ``bound`` and a ``count`` per theorem and
potential family, and seven cases at log depth n >= 1 or CLR dimension
d >= 4) runs again and must reproduce its record, as
``tests/golden/comparator.py`` compares them: the exit code and the first
line of standard error exactly, and the report field by field, floats to
1e-12 relative and rounding noise to an absolute tolerance at its level.

Regenerate the files with ``PYTHONPATH=src python3 tests/golden/regenerate.py``
only for a deliberate change of the numbers; it rewrites only the fields that
moved beyond those tolerances.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))  # the cases and the comparator live beside the files
import regenerate as golden_cases  # noqa: E402
from comparator import reconcile_record  # noqa: E402


@pytest.mark.parametrize("name", list(golden_cases.CASES))
def test_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = golden_cases.run_case(name)
    assert reconcile_record(want, got, golden_cases.CASES[name][2])[1] == []


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(golden_cases.CASES)
