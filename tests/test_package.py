"""The package surface: the top-level exports the README documents, and the
demos that use them."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import hardybounds

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_exports() -> set:
    """Backquoted names on the bullet lines of the README's Python API section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("* ")]
    return {name for line in bullets for name in re.findall(r"`(\w+)`", line)}


def test_every_export_resolves():
    for name in hardybounds.__all__:
        assert getattr(hardybounds, name) is not None, name
    assert len(set(hardybounds.__all__)) == len(hardybounds.__all__)


def test_exports_are_the_documented_names():
    assert set(hardybounds.__all__) == readme_exports()


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60.0)
    assert proc.returncode == 0, proc.stderr


FORM_FAMILIES = {"SquareWell", "InverseSquareTail", "PowerLogWell"}


def test_only_potentials_tests_for_a_form_family():
    """Outside potentials.py a family with a power-log form is read through
    ``power_log_form()``, never through an isinstance test on its class."""
    found = []
    for path in sorted((ROOT / "src" / "hardybounds").glob("*.py")):
        if path.name == "potentials.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                continue
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            names = {getattr(c, "id", None) or getattr(c, "attr", None) for c in classes}
            found += [f"{path.name}:{node.lineno} {name}" for name in names & FORM_FAMILIES]
    assert found == []
