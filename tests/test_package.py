"""The package surface: the top-level exports the README documents, and the
demos that use them."""

import ast
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

import hardybounds
from hardybounds.potentials import _FAMILIES

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


def test_readme_test_install_names_every_test_extra():
    """The README's install line for the tests names each package of
    pyproject's ``test`` extra, which the test modules import."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = {re.match(r"[\w.-]+", req).group(0).lower()
             for req in project["optional-dependencies"]["test"]}
    lines = [line for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
             if line.startswith("pip install ") and "test extras" in line]
    assert len(lines) == 1
    assert extra <= set(lines[0].split("#")[0].split()[2:])


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


FAMILIES = {"ZeroPotential", "SquareWell", "InverseSquareTail", "PowerLogWell",
            "TabulatedPotential"}
# a family's form and samples, which only potentials.py reads
FAMILY_INTERNALS = {"_form", "_rs", "_vs"}


def source_trees():
    """(file name, AST) of every module of the package."""
    for path in sorted((ROOT / "src" / "hardybounds").glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_only_potentials_tests_for_a_form_family():
    """Outside potentials.py a family is read through its methods, such as
    ``power_log_form()`` and ``sup_r2_negative_part()``: never through an
    isinstance test on its class, nor through its form or samples."""
    found = []
    for name, tree in source_trees():
        if name == "potentials.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in FAMILY_INTERNALS:
                found.append(f"{name}:{node.lineno} .{node.attr}")
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                continue
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            names = {getattr(c, "id", None) or getattr(c, "attr", None) for c in classes}
            found += [f"{name}:{node.lineno} {cls}" for cls in names & FAMILIES]
    assert found == []


def test_every_potential_class_is_a_family():
    """Each ``Potential`` subclass of the package is a family the factory
    builds: a channel is not a potential class of its own, but a
    ``TransformedPotential`` of V with the channel's coupling."""
    bases = {node.name: {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases}
             for _, tree in source_trees() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    subclasses, found = set(), {"Potential"}
    while found:  # down the class tree, one generation at a time
        found = {cls for cls, of in bases.items() if of & (found | subclasses)} - subclasses
        subclasses |= found
    assert subclasses == {cls.__name__ for cls, _ in _FAMILIES.values()}


X_SIDE_WEIGHTS = {"log_chain", "hardy_weight_stack"}


def test_no_bound_builds_an_x_side_weight():
    """Every bound is a flat integral of a transformed potential in s, so
    ``bounds.py`` imports none of the iterated-log weights of the x side."""
    tree = dict(source_trees())["bounds.py"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported & X_SIDE_WEIGHTS == set()


# maps of V's breakpoints and crossings into s, which TransformedPotential makes
S_SPACE_MAPS = {"transformed_breakpoints", "_centrifugal_crossings"}
# the points bounds.py and spectra.py still map into s themselves: the CLR
# horizon and the domain threshold
OWN_LOG_MAPS = {("bounds.py", "clr_bound"), ("spectra.py", "transformed_window_start")}


def test_only_the_transformed_potential_maps_geometry_into_s():
    """The bounds and the counts read V's negative interval, kinks and
    exterior in s off ``TransformedPotential``: they import no map of
    breakpoints or crossings, and call ``safe_iterated_log`` only for the CLR
    horizon and the domain threshold."""
    trees = dict(source_trees())
    found = []
    for name in ("bounds.py", "spectra.py"):
        tree = trees[name]
        found += [f"{name} imports {alias.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for alias in node.names if alias.name in S_SPACE_MAPS]
        for top in tree.body:
            owner = getattr(top, "name", None)
            found += [f"{name}:{node.lineno} in {owner}" for node in ast.walk(top)
                      if isinstance(node, ast.Call) and (name, owner) not in OWN_LOG_MAPS
                      and "safe_iterated_log" in {getattr(node.func, "id", None),
                                                  getattr(node.func, "attr", None)}]
    assert found == []


QUADRATURES = {"integrate", "integrate_semiinfinite"}


def test_one_driver_integrates_every_bound():
    """In ``bounds.py`` one function, ``_flat_integral``, runs the
    quadrature: the bounds give it only their integrands and spans."""
    found = set()
    for top in dict(source_trees())["bounds.py"].body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in QUADRATURES:
                found.add(top.name)
    assert found == {"_flat_integral"}


def test_quadrature_keeps_no_priority_queue():
    """``integrate`` refines by one pass rule, every panel above its share of
    the target, so it needs no worst-first heap."""
    tree = dict(source_trees())["quadrature.py"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "heapq" not in imported | modules


INF_SPELLINGS = {"math.inf", "np.inf", "inf", "float('inf')"}


def test_only_vacuous_builds_an_infinite_bound():
    """The +inf bound is built in one place, ``BoundValue.vacuous``."""
    found = []
    for name, tree in source_trees():
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "vacuous"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "build"
                    and id(node) not in inside):
                continue
            raw = node.args[:1] + [k.value for k in node.keywords if k.arg == "raw"]
            if any(ast.unparse(arg) in INF_SPELLINGS for arg in raw):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def is_pivot_update(node) -> bool:
    """The shape of the Sturm pivot update ``(a - shift) - e2 / d``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div))


def test_one_function_steps_the_sturm_pivots():
    """The pivot update ``(a - shift) - e2 / d`` appears in one function of
    the package, so every count runs the one Sturm pass."""

    def functions(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if is_pivot_update(child):
                yield owner
            yield from functions(child, inner)

    found = {f"{name}:{fn}" for name, tree in source_trees() for fn in functions(tree, None)}
    assert found == {"spectra.py:_sturm_count"}


def test_bench_tracer_names_resolve():
    """``bench/tracing.py`` wraps each layer function by module and name; a
    name missing from the package would fail every traced bench run."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, _ in tracing.LAYERS
               if not callable(getattr(importlib.import_module(f"hardybounds.{module}"),
                                       name, None))]
    assert tracing.LAYERS
    assert missing == []


def test_main_writes_every_json_report():
    """``cli.main`` writes the JSON report of every command, with the echoed
    config, at the one call of ``write_json_report`` in ``cli.py``."""
    tree = dict(source_trees())["cli.py"]
    owners = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "write_json_report"]
    assert owners == ["main"]


def test_verify_suites_are_named_once():
    """The ``verify`` positional and every reader of a setting name the
    suites of ``cli.SUITES``."""
    from hardybounds import cli

    assert set(cli.VERIFY_READERS.values()) <= set(cli.SUITES)
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    (suite,) = [a for a in sub.choices["verify"]._actions if a.dest == "suite"]
    assert tuple(suite.choices) == (*cli.SUITES, "all")
