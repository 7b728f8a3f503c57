"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
as they complete.  Every tolerance is pinned here, not configured elsewhere.
"""

import math
import time

import numpy as np

from hardybounds.bounds import (
    OperatorSpec,
    bound_1d,
    central_bound,
    clr_bound,
    l_max,
)
from hardybounds.harness import (
    SweepSpec,
    run_bound_sweep,
    run_hardy_positivity,
    run_transform_identity,
)
from hardybounds.iterfun import DomainThreshold, degeneracy
from hardybounds.potentials import PowerLogWell, SquareWell, ZeroPotential
from hardybounds.spectra import (
    Grid,
    TridiagonalOperator,
    assemble,
    count_negative,
    inertia_negative_count,
    lowest_eigenvalues,
    total_central_count,
)

X_LN_X_1_2 = 2.0 * math.log(2.0) - 0.75


class _Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(name, ok, watch, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({watch.elapsed:.2f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert watch.elapsed <= watch.budget, (
        f"{name} exceeded its runtime budget: {watch.elapsed:.1f}s > {watch.budget}s"
    )


def test_transformation_identity_suite():
    # (d, n) in {1,2,3,5} x {0,1}, 5 bumps each, V in {0, square well};
    # both quadratic-form values agree to 1e-6 relative
    with _Stopwatch(30.0) as watch:
        rep = run_transform_identity(
            d_list=(1, 2, 3, 5), n_list=(0, 1), suite_size=5, tol=1e-6
        )
    assert len(rep.cases) == 4 * 2 * 5 * 2
    _report(
        "transformation identity",
        rep.passed,
        watch,
        f"max discrepancy {rep.max_discrepancy:.2e} over {len(rep.cases)} cases",
    )


def test_hardy_positivity_suite():
    # weight stacks up to depth 2: minimum Rayleigh quotient >= -1e-8
    with _Stopwatch(10.0) as watch:
        rep = run_hardy_positivity(d_list=(1, 2, 3, 5), n_list=(0, 1, 2), suite_size=5)
    _report(
        "hardy positivity",
        rep.min_quotient >= -1e-8,
        watch,
        f"min quotient {rep.min_quotient:.3e}",
    )


def test_halfline_bound_and_count_agree():
    # variant one, depth 0, V = -1 on (1,2): raw = 2 ln 2 - 3/4 within 1e-9,
    # cap 0, discrete count 0 at (L=20, m=4000), stable under one doubling
    with _Stopwatch(5.0) as watch:
        spec = OperatorSpec(1, 0, "one")
        V = SquareWell(c=1.0, a=1.0, b=2.0)
        bv = bound_1d(V, spec, tol=1e-12)
        res = count_negative(spec, V, L=20.0, m=4000, doublings=1)
    quad_ok = abs(bv.raw - X_LN_X_1_2) <= 1e-9
    counts = [step["count"] for step in res.trail]
    ok = quad_ok and bv.integer_cap == 0 and counts == [0, 0]
    _report(
        "half-line bound vs count",
        ok,
        watch,
        f"raw {bv.raw:.12f} cap {bv.integer_cap} counts {counts}",
    )


def test_existence_and_depth_ladder():
    # variant zero binds at least one state; the ladder counts stay below
    # floor(1 + c (2 ln 2 - 3/4)) and never decrease with depth
    with _Stopwatch(60.0) as watch:
        spec = OperatorSpec(1, 0, "zero")
        base = count_negative(
            spec, SquareWell(c=1.0, a=1.0, b=2.0), L=20.0, m=4000
        ).negative_count
        ladder = []
        for c in (1, 2, 4, 8, 16, 32, 64):
            count = count_negative(
                spec, SquareWell(c=float(c), a=1.0, b=2.0), L=20.0, m=4000
            ).negative_count
            cap = math.floor(1.0 + c * X_LN_X_1_2)
            bv = bound_1d(SquareWell(c=float(c), a=1.0, b=2.0), spec, tol=1e-12)
            ladder.append((c, count, cap, bv.integer_cap))
    existence_ok = base >= 1
    caps_ok = all(count <= cap and cap == bcap for _, count, cap, bcap in ladder)
    monotone_ok = all(
        a[1] <= b[1] for a, b in zip(ladder, ladder[1:])
    )
    _report(
        "existence and depth ladder",
        existence_ok and caps_ok and monotone_ok,
        watch,
        f"counts {[c for _, c, _, _ in ladder]} caps {[k for _, _, k, _ in ladder]}",
    )


def test_central_channel_bound_d3():
    # d=3, depth 0, variant one, well on (1,2): l_max = 1 with S = 4;
    # bound raw = I0 + 3 I1 with I0 = 2 ln 2 - 3/4 to 1e-9;
    # degeneracy-weighted counts stay below floor(raw)
    with _Stopwatch(30.0) as watch:
        V = SquareWell(c=1.0, a=1.0, b=2.0)
        spec = OperatorSpec(3, 0, "one")
        lm = l_max(V, 3, DomainThreshold(0, "one"))
        bv = central_bound(V, spec, tol=1e-12)
        total, table = total_central_count(spec, V, L=20.0, m=4000, doublings=1)
    lm_ok = lm == 1
    i0_ok = abs(bv.channels[0].integral - X_LN_X_1_2) <= 1e-9
    i1 = 1.5 * math.log(2.0) - 0.5 - 0.75 * math.log(2.0) ** 2
    raw_ok = abs(bv.raw - (X_LN_X_1_2 + 3.0 * i1)) <= 1e-9
    count_ok = total <= bv.integer_cap
    _report(
        "central channel bound d=3",
        lm_ok and i0_ok and raw_ok and count_ok,
        watch,
        f"l_max {lm} raw {bv.raw:.9f} total count {total} cap {bv.integer_cap}",
    )


def test_clr_dimension_sanity():
    # d=3 variant zero with V >= 0: exactly zero bound and zero count;
    # d=5 with V = 0: strictly positive bound (recorded, not compared)
    with _Stopwatch(10.0) as watch:
        spec3 = OperatorSpec(3, 0, "zero", threshold_depth=2)
        z3 = clr_bound(ZeroPotential(), spec3)
        barrier = PowerLogWell(c=-1.0, p=0.0, q=0.0, a=3.0, b=8.0)
        b3 = clr_bound(barrier, spec3)
        count_spec = OperatorSpec(d=3, n=0, variant="zero", threshold_depth=2)
        total, _ = total_central_count(count_spec, ZeroPotential(), L=20.0, m=1000)
        spec5 = OperatorSpec(5, 0, "zero", threshold_depth=2)
        z5 = clr_bound(ZeroPotential(), spec5)
    zeros_ok = z3.raw == 0.0 and b3.raw == 0.0 and total == 0
    positive_ok = z5.raw > 0.0
    _report(
        "clr dimension sanity",
        zeros_ok and positive_ok,
        watch,
        f"d=3 raw {z3.raw} count {total}; d=5 raw {z5.raw} (recorded)",
    )


def test_clr_sweep_d3():
    # d=3, C_3 = 0.1156, central well ladder: every row satisfied
    with _Stopwatch(120.0) as watch:
        sweep = SweepSpec(
            family="square_well",
            base_params={"a": 3.0, "b": 6.0},
            vary="c",
            values=(1, 2, 4, 8, 16),
        )
        spec = OperatorSpec(3, 0, "zero", threshold_depth=2)
        rows = run_bound_sweep(sweep, "t42", spec, L=20.0, m=4000, doublings=1)
    ok = all(r.satisfied for r in rows)
    _report(
        "clr sweep d=3",
        ok,
        watch,
        f"counts {[r.count for r in rows]} caps {[r.bound_cap for r in rows]}",
    )


def test_inertia_matches_dense_oracle():
    # 100 random symmetric tridiagonals, m <= 200: exact agreement
    with _Stopwatch(10.0) as watch:
        rng = np.random.default_rng(20260810)
        agree = 0
        for _ in range(100):
            m = int(rng.integers(2, 201))
            T = TridiagonalOperator(rng.uniform(-2, 2, m), rng.uniform(-2, 2, m - 1))
            ours = inertia_negative_count(T, 0.0)
            dense = int(np.sum(np.linalg.eigvalsh(T.dense()) < 0.0))
            agree += int(ours == dense)
    _report("inertia vs dense oracle", agree == 100, watch, f"{agree}/100")


def test_degeneracy_matches_combinatorial_oracle():
    with _Stopwatch(1.0) as watch:
        ok = True
        for d in range(2, 11):
            for l in range(0, 21):
                expected = math.comb(d + l - 1, l) - (
                    math.comb(d + l - 3, l - 2) if l >= 2 else 0
                )
                ok &= degeneracy(d, l) == expected
        for l in range(0, 21):
            ok &= degeneracy(3, l) == 2 * l + 1
    _report("degeneracy oracle", ok, watch)


def test_tridiagonal_eigenvalue_oracles():
    # free stencil matches the closed-form Toeplitz spectrum to 1e-10;
    # the sech^2 well has exactly one negative eigenvalue at -1 +/- 1e-3
    with _Stopwatch(10.0) as watch:
        m = 150
        T = assemble(lambda s: 0.0, Grid(0.0, float(m + 1), m))
        got = lowest_eigenvalues(T, 8, tol=1e-12)
        exact = [2.0 * (1.0 - math.cos(j * math.pi / (m + 1))) for j in range(1, 9)]
        toeplitz_ok = max(abs(g - e) for g, e in zip(got, exact)) <= 1e-10
        Tpt = assemble(lambda s: -2.0 / np.cosh(s) ** 2, Grid(-20.0, 20.0, 8000))
        count = inertia_negative_count(Tpt, 0.0)
        e0 = lowest_eigenvalues(Tpt, 1, tol=1e-9)[0]
        pt_ok = count == 1 and abs(e0 + 1.0) <= 1e-3
    _report(
        "tridiagonal eigenvalue oracles",
        toeplitz_ok and pt_ok,
        watch,
        f"toeplitz max err {max(abs(g - e) for g, e in zip(got, exact)):.2e}, "
        f"ground state {e0:.6f} count {count}",
    )
