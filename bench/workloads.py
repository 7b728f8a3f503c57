"""The three workloads: seeded inputs, the operation each input drives, and
the checks applied to the outputs.

Each workload has a fixed list of operation slots.  The seed draws the
continuous parameters of every slot (well positions, depths, exponents,
samples), so the work per round barely moves between seeds while the inputs
do.  A round runs every slot once, in order.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import numpy as np

from hardybounds import bounds, cli, spectra
from hardybounds.bounds import OperatorSpec
from hardybounds.potentials import make_potential

import specs

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _potential(spec: dict):
    params = {k: v for k, v in spec.items() if k != "family"}
    return make_potential(spec["family"], params)


def warm_up() -> None:
    """One small call into every layer, so first-call costs stay out of the
    timed rounds."""
    well = make_potential("square_well", {"c": 4.0, "a": 1.0, "b": 2.0})
    spectra.count_negative(OperatorSpec(1, 0, "one"), well, m=64, eigenvalues=1)
    spectra.total_central_count(OperatorSpec(3, 0, "one"), well, m=64)
    bounds.bound_1d(well, OperatorSpec(1, 0, "zero"))
    bounds.central_bound(well, OperatorSpec(3, 0, "zero"))
    bounds.clr_bound(well, OperatorSpec(3, 0, "zero", threshold_depth=2))


class Workload:
    """A workload's ``run`` is the timed call; ``collect`` turns what it
    returned into the output that is checked, outside the timed region."""

    def collect(self, op: dict, raw):
        return raw


# ---------------------------------------------------------------------------
# operations through the CLI, in-process
# ---------------------------------------------------------------------------

def cli_op(op_id: str, argv: list[str]) -> dict:
    """``hardybounds <argv> --json <tmp>`` through ``cli.main``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{op_id}-{os.getpid()}.json")
    return {"id": op_id, "argv": [*argv, "--json", path], "path": path}


def run_cli(op: dict):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(op["argv"])
    return rc, buf.getvalue()


def collect_cli(op: dict, raw) -> dict:
    rc, text = raw
    with open(op["path"], encoding="utf-8") as fh:
        report = json.load(fh)
    os.unlink(op["path"])
    return {"rc": rc, "stdout": text, "report": report}


# ---------------------------------------------------------------------------
# verify-all: the CLI's headline run.  It is not in BENCHMARK.json: a run
# holds only 5 to 10 of its 2.7 s rounds, too few to get past the machine's
# bursts of load (see README.md), but it runs by hand with the same checks.
# ---------------------------------------------------------------------------

class VerifyAll(Workload):
    """``hardybounds verify all --json <tmp>``.  The run has no seeded input:
    the suites are fixed by the CLI."""

    name = "verify-all"

    def generate(self, seed: int) -> list[dict]:
        return [cli_op("verify-all", ["verify", "all"])]

    def run(self, op: dict):
        return run_cli(op)

    def collect(self, op: dict, raw):
        return collect_cli(op, raw)

    def check(self, ops: list[dict], outputs: list) -> list[str]:
        import checks

        return checks.check_verify_all(outputs[0])


# ---------------------------------------------------------------------------
# line-spectrum: d = 1 counts at large m
# ---------------------------------------------------------------------------

# (family, n, variant, m, doublings, eigenvalues)
LINE_SLOTS = (
    ("square_well", 0, "zero", 4000, 0, 0),
    ("square_well", 0, "one", 8000, 1, 0),
    ("square_well", 1, "zero", 2000, 0, 2),
    ("square_well", 1, "one", 2000, 1, 0),
    ("square_well", 2, "zero", 8000, 0, 0),
    ("square_well", 2, "one", 12000, 0, 0),
    ("power_log_well", 0, "zero", 12000, 0, 0),
    ("power_log_well", 0, "one", 2000, 0, 2),
    ("power_log_well", 1, "zero", 4000, 1, 0),
    ("power_log_well", 1, "one", 16000, 0, 0),
    ("power_log_well", 2, "zero", 2000, 0, 2),
    ("power_log_well", 2, "one", 8000, 0, 0),
)


def _iexp(s: float, k: int) -> float:
    for _ in range(k):
        s = math.exp(s)
    return s


def line_well(rng: random.Random, family: str, n: int, variant: str) -> dict:
    """A finite well placed and scaled in the transformed coordinate
    s = ln^(n+1) x: it spans 0.4 to 1.2 in s inside the window, and its
    transformed depth max |W| is 20 to 400."""
    k = n + 1
    if variant == "zero":
        centre = rng.uniform(-2.0, 1.0 if n == 2 else 2.0)
    else:
        centre = rng.uniform(0.9, 1.2 if n == 2 else 3.0)
    width = rng.uniform(0.4, 1.2) if n < 2 or variant == "zero" else rng.uniform(0.4, 0.6)
    s_a, s_b = centre - width / 2, centre + width / 2
    pot = {"family": family, "c": 1.0, "a": _iexp(s_a, k), "b": _iexp(s_b, k)}
    if family == "power_log_well":
        pot["p"] = rng.uniform(-3.0, 1.0)
        pot["q"] = float(rng.choice((0, 1))) if pot["a"] >= 1.0 else 0.0
    s = np.linspace(s_a, s_b, 2001)[1:-1]
    scale = float(np.max(np.abs(specs.transformed_w(pot, k, s))))
    pot["c"] = rng.uniform(20.0, 400.0) / scale
    return pot


class LineSpectrum(Workload):
    """Seeded d = 1 ``count_negative`` calls, one channel at large m, and the
    CLI's two suites of d = 1 counts, ``verify existence`` and ``verify
    convergence``, which take the harness and report path."""

    name = "line-spectrum"

    def generate(self, seed: int) -> list[dict]:
        rng = random.Random(f"line-spectrum:{seed}")
        ops = []
        for i, (family, n, variant, m, doublings, eigenvalues) in enumerate(LINE_SLOTS):
            pot = line_well(rng, family, n, variant)
            ops.append({
                "id": f"line{i}-{family}-n{n}-{variant}-m{m}",
                "potential": pot, "n": n, "variant": variant, "L": 20.0, "m": m,
                "doublings": doublings, "eigenvalues": eigenvalues,
                "_V": _potential(pot), "_spec": OperatorSpec(1, n, variant),
            })
        return ops + [cli_op("cli-existence", ["verify", "existence"]),
                      cli_op("cli-convergence", ["verify", "convergence"])]

    def run(self, op: dict):
        if "argv" in op:
            return run_cli(op)
        return spectra.count_negative(
            op["_spec"], op["_V"], L=op["L"], m=op["m"],
            doublings=op["doublings"], eigenvalues=op["eigenvalues"],
        )

    def collect(self, op: dict, raw):
        return collect_cli(op, raw) if "argv" in op else raw

    def check(self, ops: list[dict], outputs: list) -> list[str]:
        import checks

        errors = []
        for op, res in zip(ops, outputs):
            errors += checks.check_cli_suite(res) if "argv" in op else checks.check_line_count(op, res)
        return errors


# ---------------------------------------------------------------------------
# bound-quad: the three bound evaluators, quadrature-heavy
# ---------------------------------------------------------------------------

# (kind, family, d, n, variant, l_max target for central bounds)
QUAD_SLOTS = tuple(
    [("line", fam, 1, n, var, None)
     for fam in ("square_well", "power_log_well", "power_log_tail", "tabulated")
     for n, var in ((0, "zero"), (0, "one"), (1, "zero"), (1, "one"))]
    + [
        ("central", "square_well", 2, 0, "zero", 12),
        ("central", "square_well", 3, 1, "one", 20),
        ("central", "square_well", 5, 0, "one", 8),
        ("central", "square_well", 2, 1, "one", 25),
        ("central", "square_well", 3, 0, "zero", 15),
        ("central", "square_well", 5, 1, "zero", 6),
        # l_max = 0 only: for l >= 1 the centrifugal crossing of these families
        # is a kink that the bound quadrature does not split at, and the
        # channel integrals then miss the mpmath reference by up to 1e-5
        # relative on some seeds (a FOUND line in CHANGES.md)
        ("central", "power_log_well", 2, 1, "zero", 0),
        ("central", "power_log_well", 3, 0, "zero", 0),
        ("central", "power_log_well", 5, 1, "one", 0),
        ("central", "power_log_tail", 2, 0, "one", 0),
        ("central", "power_log_tail", 3, 1, "zero", 0),
        ("central", "power_log_tail", 5, 0, "zero", 0),
        ("central", "tabulated", 2, 1, "one", 0),
        ("central", "tabulated", 3, 0, "one", 0),
        ("central", "tabulated", 5, 1, "zero", 0),
        ("clr", "square_well", 3, 0, "zero", None),
        ("clr", "square_well", 3, 1, "zero", None),
        ("clr", "power_log_well", 3, 0, "zero", None),
        ("clr", "power_log_well", 3, 1, "one", None),
        ("clr", "tabulated", 3, 0, "zero", None),
        ("clr", "tabulated", 3, 0, "one", None),
        ("clr", "tabulated", 3, 1, "zero", None),
        ("clr", "power_log_tail", 3, 0, "zero", None),
        ("clr", "square_well", 5, 0, "zero", None),
        ("clr", "square_well", 5, 0, "one", None),
        ("clr", "power_log_well", 5, 0, "one", None),
    ]
    # cheap square-well bounds, so that the median operation falls inside
    # their class and not on the step up to the central square wells
    + [("line", "square_well", 1, n, var, None)
       for n, var in ((0, "zero"), (0, "one"), (1, "zero"), (1, "one"))] * 2
)


TAB_SAMPLES = 320  # every sample is a quadrature breakpoint: >= 15 evaluations each


def quad_potential(rng: random.Random, family: str, th: float) -> dict:
    """A well starting just above the domain threshold ``th``.  Tabulated
    samples run from below every threshold used here (<= e^e) to 20-40, and
    are negative inside: a sign change between samples is a kink that the
    bound quadrature does not split at (see the central slots)."""
    if family == "tabulated":
        t = np.linspace(0.0, 1.0, TAB_SAMPLES)
        r = np.geomspace(rng.uniform(0.3, 0.8), rng.uniform(20.0, 40.0), TAB_SAMPLES)
        centre, width = rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.3)
        noise = np.array([rng.uniform(0.0, 0.2) for _ in t])
        v = -rng.uniform(1.0, 10.0) * (np.exp(-(((t - centre) / width) ** 2)) + 0.05 + noise)
        v[0] = v[-1] = 0.0
        return {"family": "tabulated", "r": r.tolist(), "v": v.tolist()}
    if family == "square_well":
        a = th + rng.uniform(0.2, 1.5) if th < 1.0 else th * rng.uniform(1.05, 1.8)
        return {"family": "square_well", "c": rng.uniform(0.5, 20.0), "a": a,
                "b": a * rng.uniform(1.5, 4.0)}
    a = max(th, 1.0) * rng.uniform(1.05, 1.8)
    if family == "power_log_well":
        b = a * rng.uniform(1.5, 4.0)
        p = rng.uniform(-2.0, 1.0)
    else:  # semi-infinite tail, p <= -3 so the weighted integrals converge
        b = math.inf
        p = rng.uniform(-4.0, -3.0)
    q = float(rng.choice((0, 1)))
    rm = 2.0 * a if math.isinf(b) else math.sqrt(a * b)
    c = rng.uniform(1.0, 10.0) / (rm**p * (math.log(rm) ** q if q else 1.0))
    return {"family": "power_log_well", "c": c, "p": p, "q": q, "a": a, "b": b}


def _scale_depth(pot: dict, factor: float) -> dict:
    out = dict(pot)
    if pot["family"] == "tabulated":
        out["v"] = [factor * v for v in pot["v"]]
    else:
        out["c"] = factor * pot["c"]
    return out


class BoundQuad(Workload):
    """Seeded ``bound_1d``, ``central_bound`` and ``clr_bound`` calls."""

    name = "bound-quad"

    def generate(self, seed: int) -> list[dict]:
        rng = random.Random(f"bound-quad:{seed}")
        ops = []
        for i, (kind, family, d, n, variant, lstar) in enumerate(QUAD_SLOTS):
            depth = n + 2 if kind == "clr" else n
            pot = quad_potential(rng, family, specs.threshold(depth, variant))
            if kind == "central":
                # place sup r^2 V_- strictly inside the l_max = lstar bracket
                lo_s, hi_s = lstar * (lstar + d - 2), (lstar + 1) * (lstar + d - 1)
                S = rng.uniform(lo_s + 0.2 * (hi_s - lo_s), hi_s - 0.2 * (hi_s - lo_s))
                pot = _scale_depth(pot, S / specs.sup_r2_negative_part(
                    pot, specs.threshold(n, variant), samples=20_001))
            ops.append({
                "id": f"quad{i}-{kind}-{family}-d{d}-n{n}-{variant}",
                "kind": kind, "potential": pot, "d": d, "n": n, "variant": variant,
                "_V": _potential(pot),
                "_spec": OperatorSpec(d, n, variant, threshold_depth=depth),
            })
        return ops

    def run(self, op: dict):
        kind = op["kind"]
        if kind == "line":
            return bounds.bound_1d(op["_V"], op["_spec"])
        if kind == "central":
            return bounds.central_bound(op["_V"], op["_spec"])
        return bounds.clr_bound(op["_V"], op["_spec"])

    def check(self, ops: list[dict], outputs: list) -> list[str]:
        import checks

        errors = []
        for op, bv in zip(ops, outputs):
            if op["kind"] == "line":
                doubled = _potential(_scale_depth(op["potential"], 2.0))
                scaled = bounds.bound_1d(doubled, op["_spec"])
                errors += checks.check_line_bound(op, bv, scaled)
            elif op["kind"] == "central":
                errors += checks.check_central_bound(op, bv)
            else:
                errors += checks.check_clr_bound(op, bv)
        return errors


WORKLOADS = {w.name: w for w in (VerifyAll(), LineSpectrum(), BoundQuad())}
