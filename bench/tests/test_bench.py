"""Tests of the benchmark itself: every check rejects a wrong output, the
printed metrics are the ones BENCHMARK.json declares, and an operation's
best time is folded span by span.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _op(wl, seed, prefix):
    return next(op for op in wl.generate(seed) if op["id"].startswith(prefix))


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    declared = _declared()
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer_names = set(tracing.layer_metrics(tracing.Tracer(), 0.0)) | {"trace.overhead_ms"}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(per_layer) == layer_names
    assert all(run.per_layer_unit(name) == unit for name, unit in per_layer.items())
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    declared = _declared()
    kind = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "line-spectrum",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(workloads.LineSpectrum().generate(3)) * (2 if trace else 1)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared[kind]}


def test_run_refuses_without_the_library(tmp_path):
    """A directory without src/ gets a nonzero exit and no result line."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "specs.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bound-quad", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# line-spectrum checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def line_case():
    wl = workloads.LineSpectrum()
    op = _op(wl, 1, "line7-")  # m = 2000 with two eigenvalues
    return op, wl.run(op)


def test_line_count_passes(line_case):
    op, res = line_case
    assert checks.check_line_count(op, res) == []


@pytest.mark.parametrize("delta", [-1, 1])
def test_line_count_off_by_one_rejected(line_case, delta):
    op, res = line_case
    trail = tuple({**step, "count": step["count"] + delta} for step in res.trail)
    bad = dataclasses.replace(res, negative_count=res.negative_count + delta, trail=trail)
    assert checks.check_line_count(op, bad)


def test_line_eigenvalue_perturbed_rejected(line_case):
    op, res = line_case
    lows = (res.lowest_eigenvalues[0] * (1 + 1e-7) + 1e-7, *res.lowest_eigenvalues[1:])
    assert checks.check_line_count(op, dataclasses.replace(res, lowest_eigenvalues=lows))


# ---------------------------------------------------------------------------
# bound-quad checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quad_ops():
    wl = workloads.BoundQuad()
    ops = wl.generate(1)
    first = {}
    for op in ops:  # the first of each kind: a square well, the central one at l_max 12
        first.setdefault(op["kind"], op)
    return {kind: (op, wl.run(op)) for kind, op in first.items()}


def _perturb(bv, rel=1e-6):
    return dataclasses.replace(bv, raw=bv.raw * (1 + rel))


def test_line_bound_checks(quad_ops):
    op, bv = quad_ops["line"]
    from hardybounds import bounds

    doubled = workloads._potential(workloads._scale_depth(op["potential"], 2.0))
    scaled = bounds.bound_1d(doubled, op["_spec"])
    assert checks.check_line_bound(op, bv, scaled) == []
    assert checks.check_line_bound(op, _perturb(bv), scaled)
    assert checks.check_line_bound(op, bv, _perturb(scaled))


def test_central_bound_checks(quad_ops):
    op, bv = quad_ops["central"]
    assert len(bv.channels) > 2
    assert checks.check_central_bound(op, bv) == []
    assert checks.check_central_bound(op, _perturb(bv))
    ch = bv.channels
    wrong_channel = (dataclasses.replace(ch[0], integral=ch[0].integral * (1 + 1e-6)), *ch[1:])
    assert checks.check_central_bound(op, dataclasses.replace(bv, channels=wrong_channel))
    assert checks.check_central_bound(op, dataclasses.replace(bv, channels=ch[:-1]))  # l_max - 1
    extra = dataclasses.replace(ch[-1], l=ch[-1].l + 1)
    assert checks.check_central_bound(op, dataclasses.replace(bv, channels=(*ch, extra)))


def test_clr_bound_checks(quad_ops):
    op, bv = quad_ops["clr"]
    assert bv.raw > 0.0
    assert checks.check_clr_bound(op, bv) == []
    assert checks.check_clr_bound(op, _perturb(bv))


# ---------------------------------------------------------------------------
# verify-all checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def verify_all_output():
    wl = workloads.VerifyAll()
    (op,) = wl.generate(0)
    return wl.collect(op, wl.run(op))


def _mutated(out, fn):
    bad = json.loads(json.dumps(out))
    fn(bad)
    return bad


def _rows(out, theorem):
    return next(r for r in out["report"]["reports"] if r["suite"] == f"bounds-{theorem}")["rows"]


def test_verify_all_passes(verify_all_output):
    assert checks.check_verify_all(verify_all_output) == []


def test_verify_all_exit_code_rejected(verify_all_output):
    assert checks.check_verify_all({**verify_all_output, "rc": 1})


def test_verify_all_failed_suite_rejected(verify_all_output):
    text = verify_all_output["stdout"].replace("bounds t43  : 4 rows PASS", "bounds t43  : 4 rows FAIL")
    assert checks.check_verify_all({**verify_all_output, "stdout": text})


def test_verify_all_channel_count_off_by_one_rejected(verify_all_output):
    def bump(out):
        row = _rows(out, "t42")[-1]
        row["count_trail"][0]["trail"][-1]["count"] += 1
    assert checks.check_verify_all(_mutated(verify_all_output, bump))


def test_verify_all_line_count_off_by_one_rejected(verify_all_output):
    def bump(out):
        row = _rows(out, "t41")[3]
        row["count_trail"][0]["count"] -= 1
    assert checks.check_verify_all(_mutated(verify_all_output, bump))


def test_verify_all_t41_bound_perturbed_rejected(verify_all_output):
    def bump(out):
        _rows(out, "t41")[2]["bound_raw"] *= 1 + 1e-6
    assert checks.check_verify_all(_mutated(verify_all_output, bump))


def test_verify_all_count_above_cap_rejected(verify_all_output):
    def bump(out):
        row = _rows(out, "t43")[-1]
        row["bound_cap"] = row["count"] - 1
    assert checks.check_verify_all(_mutated(verify_all_output, bump))


# ---------------------------------------------------------------------------
# best-of timing
# ---------------------------------------------------------------------------

def test_best_time_takes_each_span_at_its_fastest():
    best = None
    for spans in ([("op", 1.0), ("spectra.assemble", 5.0)],
                  [("op", 2.0), ("spectra.assemble", 3.0)]):
        best = run.fold_best(best, spans)
    assert run.best_time(best) == 4.0


def test_best_time_falls_back_to_fastest_round_when_spans_change():
    best = None
    for spans in ([("op", 1.0), ("spectra.assemble", 5.0)],
                  [("op", 2.0), ("spectra.assemble", 3.0), ("spectra.assemble", 0.5)],
                  [("op", 0.5), ("spectra.sturm", 6.0)]):
        best = run.fold_best(best, spans)
    assert run.best_time(best) == 5.5


# ---------------------------------------------------------------------------
# line-spectrum's CLI suites
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_suite_outputs():
    wl = workloads.LineSpectrum()
    return {op["id"]: wl.collect(op, wl.run(op)) for op in wl.generate(0) if "argv" in op}


def test_cli_suites_pass(cli_suite_outputs):
    assert set(cli_suite_outputs) == {"cli-existence", "cli-convergence"}
    for out in cli_suite_outputs.values():
        assert checks.check_cli_suite(out) == []


def test_cli_suite_exit_code_rejected(cli_suite_outputs):
    assert checks.check_cli_suite({**cli_suite_outputs["cli-existence"], "rc": 1})


def test_cli_suite_count_off_by_one_rejected(cli_suite_outputs):
    def bump_case(out):
        out["report"]["reports"][0]["cases"][0]["count"] += 1

    def bump_grid(out):
        out["report"]["reports"][0]["grid_trail"][0]["count"] -= 1
    assert checks.check_cli_suite(_mutated(cli_suite_outputs["cli-existence"], bump_case))
    assert checks.check_cli_suite(_mutated(cli_suite_outputs["cli-convergence"], bump_grid))
