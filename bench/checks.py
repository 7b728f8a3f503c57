"""Independent checks of hardybounds outputs.

Nothing here calls the library's numerics: counts are recomputed with
``scipy.linalg.eigvalsh_tridiagonal`` on a three-point matrix built in numpy
from the closed-form transformed potential, and bounds are recomputed with
``mpmath.quad`` from the weighted integrals as the paper states them.  Every
check returns a list of error strings; an empty list means the output passed.

Potentials are plain specs, ``{"family": ..., **params}``, the same specs the
workloads hand to ``hardybounds.make_potential``.
"""

from __future__ import annotations

import bisect
import math

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from specs import breakpoints, sup_r2_negative_part, support, threshold, transformed_w, window

EPS = np.finfo(float).eps
BISECTION_TOL = 1e-10  # hardybounds.lowest_eigenvalues default
BOUND_RTOL = 1e-8  # program quadrature runs at 1e-10 relative
CLR_C = {3: 0.1156, 4: 0.1156, 5: 0.1156, 6: 0.1156, 7: 0.1156}  # default CLR table


def v_at(pot: dict, r: float) -> float:
    """V(r) at one point."""
    fam = pot["family"]
    if fam == "zero":
        return 0.0
    if fam == "tabulated":
        rs, vs = pot["r"], pot["v"]
        if r < rs[0] or r > rs[-1]:
            raise ValueError(f"r = {r} outside the samples")
        i = min(bisect.bisect_right(rs, r), len(rs) - 1)
        t = (r - rs[i - 1]) / (rs[i] - rs[i - 1])
        return vs[i - 1] * (1 - t) + vs[i] * t
    if not (pot["a"] < r < pot["b"]):
        return 0.0
    if fam == "square_well":
        return -pot["c"]
    return -pot["c"] * r ** pot["p"] * (math.log(r) ** pot["q"] if pot["q"] else 1.0)


def iterated_logs(r: float, count: int) -> list[float]:
    """[ln r, ln ln r, ...], ``count`` entries."""
    out = []
    for _ in range(count):
        r = math.log(r)
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# counts: scipy on the same three-point matrix
# ---------------------------------------------------------------------------

def three_point(pot: dict, k: int, s_min: float, s_max: float, m: int, coupling: float = 0.0):
    h = (s_max - s_min) / (m + 1)
    s = s_min + h * np.arange(1, m + 1)
    diag = 2.0 / (h * h) + transformed_w(pot, k, s, coupling)
    off = np.full(m - 1, -1.0 / (h * h))
    return diag, off


def scipy_negative_count(diag, off) -> int:
    ev = eigvalsh_tridiagonal(diag, off, select="v", select_range=(-np.inf, 0.0))
    return int(np.sum(ev < 0.0))


def scipy_lowest(diag, off, k: int) -> np.ndarray:
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))


def degeneracy(d: int, l: int) -> int:
    """Dimension of the degree-l spherical harmonics on S^(d-1)."""
    if l == 0:
        return 1
    return math.comb(l + d - 1, d - 1) - math.comb(l + d - 3, d - 1)


def check_trail(pot, d, n, variant, threshold_depth, trail, l=0, where="") -> list[str]:
    """Each refinement step's count against scipy on the same matrix."""
    errors = []
    coupling = float(l * (l + d - 2)) if d >= 2 else 0.0
    for step in trail:
        s_min, s_max = window(n, variant, threshold_depth, step["L"])
        diag, off = three_point(pot, n + 1, s_min, s_max, step["m"], coupling)
        want = scipy_negative_count(diag, off)
        if step["count"] != want:
            errors.append(
                f"{where} l={l} L={step['L']} m={step['m']}: count {step['count']} != scipy {want}"
            )
    return errors


def check_line_count(op: dict, res) -> list[str]:
    """A d = 1 ``count_negative`` result: window, trail counts, eigenvalues."""
    where = op["id"]
    pot, n, variant = op["potential"], op["n"], op["variant"]
    errors = []
    if len(res.trail) != op["doublings"] + 1:
        errors.append(f"{where}: trail has {len(res.trail)} steps, want {op['doublings'] + 1}")
    for j, step in enumerate(res.trail):
        if step["L"] != op["L"] * 2**j or step["m"] != op["m"] * 2**j:
            errors.append(f"{where}: refinement step {j} is L={step['L']} m={step['m']}")
    errors += check_trail(pot, 1, n, variant, n, res.trail, where=where)
    if res.negative_count != res.trail[-1]["count"]:
        errors.append(f"{where}: count {res.negative_count} != last trail count")
    s_min, s_max = window(n, variant, n, res.trail[-1]["L"])
    if (res.s_min, res.s_max, res.m) != (s_min, s_max, res.trail[-1]["m"]):
        errors.append(f"{where}: window ({res.s_min}, {res.s_max}, {res.m}) is wrong")
    k = op["eigenvalues"]
    if len(res.lowest_eigenvalues) != k:
        errors.append(f"{where}: {len(res.lowest_eigenvalues)} eigenvalues, want {k}")
    elif k:
        diag, off = three_point(pot, n + 1, s_min, s_max, res.m)
        want = scipy_lowest(diag, off, k)
        norm = float(np.max(np.abs(diag)) + 2.0 * abs(off[0]))
        tol = BISECTION_TOL + 64.0 * EPS * norm
        for got, ref in zip(res.lowest_eigenvalues, want):
            if abs(got - ref) > tol:
                errors.append(f"{where}: eigenvalue {got!r} != scipy {ref!r} (tol {tol:.2e})")
    return errors


# ---------------------------------------------------------------------------
# bounds: mpmath on the weighted integrals
# ---------------------------------------------------------------------------

def _sign_changes(fn, lo: float, hi: float, points: int) -> list[float]:
    """Roots of fn on (lo, hi) found by log-spaced sampling and bisection."""
    xs = np.geomspace(lo, hi, points)[1:-1]
    vals = [fn(float(x)) for x in xs]
    roots = []
    for x0, x1, f0, f1 in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if (f0 > 0.0) != (f1 > 0.0):
            a, b = float(x0), float(x1)
            for _ in range(200):
                mid = 0.5 * (a + b)
                if mid <= a or mid >= b:
                    break
                if (fn(mid) > 0.0) == (f0 > 0.0):
                    a = mid
                else:
                    b = mid
            roots.append(0.5 * (a + b))
    return roots


def _positive_part_integral(arg, weight, lo: float, hi: float, extra=(), power=1.0) -> float:
    """int_lo^hi max(arg(r), 0) ** power * weight(r) dr by ``mpmath.quad``,
    split at the sign changes of ``arg`` and at the points in ``extra``, so
    that every piece is smooth.  ``hi`` may be inf, in which case ``arg``
    keeps its sign beyond lo * 1e8.  The integrand is evaluated in floats."""
    finite_hi = hi if math.isfinite(hi) else lo * 1e8
    cuts = sorted({lo, finite_hi, *(p for p in extra if lo < p < finite_hi)})
    roots = []
    points = max(16, 4000 // len(cuts))
    for a, b in zip(cuts[:-1], cuts[1:]):
        roots += _sign_changes(arg, a, b, points)
    nodes = sorted(set(cuts + roots))
    if not math.isfinite(hi):
        nodes.append(mpmath.inf)
    total = mpmath.mpf(0)
    for a, b in zip(nodes[:-1], nodes[1:]):
        mid = 0.5 * (a + b) if math.isfinite(b) else 2.0 * a
        if arg(mid) <= 0.0:
            continue
        total += mpmath.quad(lambda r: max(arg(float(r)), 0.0) ** power * weight(float(r)), [a, b])
    return float(total)


def _log_kinks(n: int) -> list[float]:
    """Zeros of the |ln^(j) x| factors, j = 1..n+1: 1, e, e^e, ..."""
    return [threshold(j, "one") for j in range(n + 1)]


def line_weight(n: int):
    """x |ln x| ... |ln^(n+1) x|, which tends to 0 where a log factor does."""
    def w(x):
        out = cur = x
        for _ in range(n + 1):
            if cur <= 0.0:
                return 0.0
            cur = math.log(cur)
            out *= abs(cur)
        return out

    return w


def channel_integral(pot: dict, d: int, n: int, variant: str, l: int) -> float:
    """int over (threshold, inf) of (-l(l+d-2)/r^2 - V)_+ r |ln r| ... |ln^(n+1) r| dr."""
    sup = support(pot)
    th = threshold(n, variant)
    lo = max(sup[0], th)
    hi = sup[1]
    if hi <= lo:
        return 0.0
    coupling = l * (l + d - 2) if d >= 2 else 0

    def arg(r):
        return -v_at(pot, r) - coupling / (r * r)

    extra = breakpoints(pot) + _log_kinks(n)
    return _positive_part_integral(arg, line_weight(n), lo, hi, extra)


def check_line_bound(op: dict, bv, scaled) -> list[str]:
    """``bound_1d``: [1 +] int |V_-| x |ln x| ... |ln^(n+1) x| dx, and the
    bound is linear in the well depth (``scaled`` is the bound at twice the
    depth)."""
    where = op["id"]
    base = 1.0 if op["variant"] == "zero" else 0.0
    ref = base + channel_integral(op["potential"], 1, op["n"], op["variant"], 0)
    errors = _compare(where, bv.raw, ref)
    if bv.integer_cap != math.floor(bv.raw):
        errors.append(f"{where}: cap {bv.integer_cap} != floor({bv.raw})")
    want = base + 2.0 * (bv.raw - base)
    if abs(scaled.raw - want) > BOUND_RTOL * max(1.0, abs(want)):
        errors.append(f"{where}: bound at depth 2c is {scaled.raw!r}, not linear ({want!r})")
    return errors


def check_central_bound(op: dict, bv) -> list[str]:
    """``central_bound``: l_max from a dense sup, then the channel integrals."""
    where = op["id"]
    pot, d, n, variant = op["potential"], op["d"], op["n"], op["variant"]
    S = sup_r2_negative_part(pot, threshold(n, variant))
    lm = len(bv.channels) - 1
    errors = []
    if not (lm * (lm + d - 2) < S <= (lm + 1) * (lm + d - 1)):
        errors.append(f"{where}: l_max {lm} does not bracket sampled sup {S!r}")
    base = 1.0 if variant == "zero" else 0.0
    total = 0.0
    for ch in bv.channels:
        D = degeneracy(d, ch.l)
        if ch.degeneracy != D:
            errors.append(f"{where}: l={ch.l} degeneracy {ch.degeneracy} != {D}")
        ref = channel_integral(pot, d, n, variant, ch.l)
        errors += _compare(f"{where} l={ch.l}", ch.integral, ref)
        total += D * (base + ref)
    errors += _compare(where, bv.raw, total)
    return errors


def clr_integral(pot: dict, d: int, n: int, variant: str) -> float:
    """C_d |S^(d-1)| int ( A(r) - V(r) )_+^(d/2) prod_j (ln^j r)^(d-1) r^(d-1) dr
    over (exp^(n+2) variant, inf), where

        zero: A = (d-1)(d-3) / (4 r^2 prod_{j<=n+1} (ln^j r)^2),
        one:  A = ((d-1)(d-3) - (ln^(n+2) r)^2) / (4 r^2 prod_{j<=n+2} (ln^j r)^2),

    and the log products run to n+1 (zero) or n+2 (one).  +inf where the
    integral diverges: a negative tail reaching infinity, or d >= 4 on the
    variant-zero domain, where A decays like 1/(r^2 ln^2 r ...)."""
    coeff = (d - 1) * (d - 3)
    th = threshold(n + 2, variant)
    sup = support(pot)
    if sup is not None and not math.isfinite(sup[1]):
        return math.inf
    if variant == "zero" and coeff > 0:
        return math.inf
    logs = n + 1 if variant == "zero" else n + 2
    hi = 0.0 if sup is None else sup[1]
    if variant == "one" and coeff > 0:
        # A > 0 only while ln^(n+2) r < sqrt((d-1)(d-3))
        r_star = math.sqrt(coeff)
        for _ in range(n + 2):
            r_star = math.exp(r_star)
        hi = max(hi, r_star)
    if hi <= th:
        return 0.0

    def arg(r):
        lg = iterated_logs(r, logs)
        den = 4.0 * r * r
        for f in lg:
            den *= f * f
        num = coeff - (lg[-1] ** 2 if variant == "one" else 0.0)
        return num / den - v_at(pot, r)

    def weight(r):
        out = r ** (d - 1)
        for f in iterated_logs(r, logs):
            out *= f ** (d - 1)
        return out

    # geometric cuts keep mpmath's panels inside one decade pair each
    extra = breakpoints(pot) + [th * 100.0**j for j in range(1, 40) if th * 100.0**j < hi]
    total = _positive_part_integral(arg, weight, th, hi, extra, power=d / 2.0)
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return CLR_C[d] * area * total


def check_clr_bound(op: dict, bv) -> list[str]:
    ref = clr_integral(op["potential"], op["d"], op["n"], op["variant"])
    return _compare(op["id"], bv.raw, ref)


def _compare(where: str, got: float, ref: float) -> list[str]:
    if math.isinf(ref) or math.isinf(got):
        return [] if got == ref else [f"{where}: bound {got!r} != reference {ref!r}"]
    if abs(got - ref) > BOUND_RTOL * max(1.0, abs(ref)):
        return [f"{where}: bound {got!r} != mpmath {ref!r}"]
    return []


# ---------------------------------------------------------------------------
# verify all
# ---------------------------------------------------------------------------

SUITE_LINES = ("hardy", "transform", "bounds t41", "bounds t43", "bounds t42",
               "existence", "convergence")
# the potential of `verify convergence`, fixed in the CLI
CONVERGENCE_WELL = {"family": "square_well", "c": 16.0, "a": 1.0, "b": 2.0}


def _t41_closed_form(c: float, a: float, b: float) -> float:
    """c * int_a^b x ln x dx for 1 <= a < b."""
    F = lambda x: 0.5 * x * x * math.log(x) - 0.25 * x * x  # noqa: E731
    return c * (F(b) - F(a))


def check_verify_all(out: dict) -> list[str]:
    """Exit code, every suite PASS, count <= cap on every sweep row, the t41
    closed form, and every channel count against scipy."""
    errors = []
    if out["rc"] != 0:
        errors.append(f"verify all exited {out['rc']}")
    lines = out["stdout"].splitlines()
    for name in SUITE_LINES:
        line = next((x for x in lines if x.startswith(name)), None)
        if line is None or not line.rstrip().endswith("PASS"):
            errors.append(f"suite {name}: {line!r}")
    reports = {r["suite"]: r for r in out["report"]["reports"]}
    for suite in ("hardy", "transform", "bounds-t41", "bounds-t43", "bounds-t42"):
        if not reports.get(suite, {}).get("passed"):
            errors.append(f"report {suite} not passed")
    hardy = reports["hardy"]
    if min(c["quotient"] for c in hardy["cases"]) < -hardy["tolerance"]:
        errors.append("hardy: a Rayleigh quotient is below the tolerance")
    tr = reports["transform"]
    if max(c["discrepancy"] for c in tr["cases"]) > tr["tolerance"]:
        errors.append("transform: a discrepancy exceeds the tolerance")
    note = reports["bounds-dimension-note"]
    if note["d3_raw"] != 0.0 or note["d5_raw"] != "inf":
        errors.append(f"dimension note: d3 {note['d3_raw']!r}, d5 {note['d5_raw']!r}")

    for theorem in ("t41", "t43", "t42"):
        for row in reports[f"bounds-{theorem}"]["rows"]:
            errors += _check_sweep_row(theorem, row)

    errors += check_existence(reports["existence"])
    errors += check_convergence(reports["convergence"])
    return errors


def check_existence(rep: dict) -> list[str]:
    """Every existence case's count against scipy, and its status."""
    errors = []
    if not rep.get("passed"):
        errors.append("report existence not passed")
    for case in rep["cases"]:
        pot = case["potential"]
        m = int(round(4000 * case["window"] / 20.0))
        step = {"L": case["window"], "m": m, "count": case["count"]}
        errors += check_trail(pot, 1, case["n"], "zero", case["n"], [step], where="existence")
        if (case["count"] >= 1) != (case["status"] == "confirmed"):
            errors.append(f"existence: status {case['status']} with count {case['count']}")
    return errors


def check_convergence(rep: dict) -> list[str]:
    """Every count of the window and grid ladders against scipy."""
    errors = check_trail(CONVERGENCE_WELL, 1, 0, "zero", 0,
                         rep["window_trail"] + rep["grid_trail"], where="convergence")
    if not rep["stabilized"] or rep["stable_count"] != rep["grid_trail"][-1]["count"]:
        errors.append("convergence: not stabilized")
    return errors


def check_cli_suite(out: dict) -> list[str]:
    """One ``verify existence`` or ``verify convergence``: exit code 0, the
    suite's PASS line, and the suite's counts."""
    (rep,) = out["report"]["reports"]
    suite = rep["suite"]
    errors = [] if out["rc"] == 0 else [f"verify {suite} exited {out['rc']}"]
    line = next((x for x in out["stdout"].splitlines() if x.startswith(suite)), None)
    if line is None or not line.rstrip().endswith("PASS"):
        errors.append(f"suite {suite}: {line!r}")
    check = {"existence": check_existence, "convergence": check_convergence}[suite]
    return errors + check(rep)


def _check_sweep_row(theorem: str, row: dict) -> list[str]:
    where = row["experiment_id"]
    d, n, variant = row["d"], row["n"], row["variant"]
    pot = {"family": row["family"], **row["params"]}
    errors = []
    if row["bound_cap"] is None or row["count"] > row["bound_cap"] or not row["satisfied"]:
        errors.append(f"{where}: count {row['count']} exceeds cap {row['bound_cap']}")
    if theorem == "t41":
        base = 1.0 if variant == "zero" else 0.0
        ref = base + _t41_closed_form(pot["c"], pot["a"], pot["b"])
        if abs(row["bound_raw"] - ref) > BOUND_RTOL * max(1.0, ref):
            errors.append(f"{where}: bound {row['bound_raw']!r} != closed form {ref!r}")
        errors += check_trail(pot, 1, n, variant, n, row["count_trail"], where=where)
        if row["count"] != row["count_trail"][-1]["count"]:
            errors.append(f"{where}: count is not the finest refinement's")
        return errors
    depth = n + 2 if theorem == "t42" else n
    total = 0
    for ch in row["count_trail"]:
        l = ch["l"]
        if ch["degeneracy"] != degeneracy(d, l):
            errors.append(f"{where}: l={l} degeneracy {ch['degeneracy']}")
        errors += check_trail(pot, d, n, variant, depth, ch["trail"], l=l, where=where)
        if ch["count"] != ch["trail"][-1]["count"]:
            errors.append(f"{where}: l={l} count is not the finest refinement's")
        total += degeneracy(d, l) * ch["count"]
    if total != row["count"]:
        errors.append(f"{where}: channel sum {total} != count {row['count']}")
    if row["count_trail"][-1]["count"] != 0:
        errors.append(f"{where}: channel scan stopped on a nonzero channel")
    return errors
