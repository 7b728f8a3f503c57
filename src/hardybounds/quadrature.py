"""Adaptive quadrature on finite and semi-infinite intervals.

The core rule is QUADPACK's QK15 (Piessens et al., 1983), the 15-point
Kronrod extension of the 7-point Gauss rule.  Each pass bisects every panel
whose error is at least its share of the target, the target over the panel
count: a global rule (Malcolm and Simpson, ACM TOMS 1, 1975).  All nodes
are interior, so integrable endpoint singularities need no special casing.
Semi-infinite ranges use the rational substitution x = a + t/(1-t), with a
dyadic start: t = 1/2, 3/4, 7/8 and 15/16 (x - a = 1, 3, 7, 15) are
initial breakpoints, so the first pass already grades its panels toward
x = infinity instead of bisecting its way there.  ``graded_breakpoints``
makes such a start toward any point, the standard graded mesh for an
algebraic endpoint singularity: a d = 3 CLR bound grades toward the zeros
of a tabulated V's W, where its variant-zero integrand vanishes like
dist^(3/2) (its variant-one integrand vanishes just beside them).

No pass runs past ``max_evals``: a pass, the first included, whose nodes
would take the count past it fails with QuadratureError instead.

Integrands are array functions: ``f(x)`` receives an ndarray of nodes, one
row of 15 per panel, and returns the values as an ndarray of the same shape
(a scalar is broadcast to it).  Each pass calls ``f`` once: the first on
every initial panel (one per breakpoint interval), each later one on both
halves of every panel it splits.

An integrand may add a trailing axis of m components, shape (P, 15, m), to
integrate m functions on the same nodes.  Each component meets its own
stopping rule, error <= tol * max(1, |value|); until all do, each pass
splits the panels by their errors in the first component that misses its
target.  ``evaluations`` counts integrand nodes, each shared by all
components.  A pass of many rows (panels times components) is
post-processed in numpy, a pass of few in a Python loop, which costs less
there.

No panel's error estimate falls below its rounding floor 50 eps resabs h,
so a component's summed estimate stays near 50 eps int |f| however far it
is bisected.  A target below that floor fails at once with
QuadratureError, as QUADPACK's QAG reports roundoff, instead of running
the evaluation budget out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class QuadratureError(RuntimeError):
    """Quadrature failed: NaN integrand, exhausted budget, or bad interval."""


# 15-point Kronrod abscissae (positive half; the center node is handled
# separately) and weights, with the embedded 7-point Gauss weights attached
# to the odd-index abscissae.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327

_EPS = 2.220446049250313e-16

# The 15 nodes of a panel in evaluation order: the center, then c - h x_i and
# c + h x_i for each abscissa.
_NODES = np.array((0.0,) + tuple(s * x for x in _XGK for s in (-1.0, 1.0)))
_KRONROD = np.array((_WGK_CENTER,) + tuple(w for w in _WGK for _ in (0, 1)))
_GAUSS = np.array(
    (_WG_CENTER,) + tuple(_WG[i // 2] if i % 2 else 0.0 for i in range(7) for _ in (0, 1))
)
# f(nodes) @ _SUMS gives, per panel, the Kronrod and Gauss sums, then the 15
# values, then their deviations from the Kronrod mean resk / 2; the absolute
# values of all 32 columns @ _ABS_SUMS give resabs and resasc.
_SUMS = np.column_stack([_KRONROD, _GAUSS, np.eye(15), np.eye(15) - 0.5 * _KRONROD[:, None]])
_ABS_SUMS = np.zeros((32, 2))
_ABS_SUMS[2:17, 0] = _ABS_SUMS[17:, 1] = _KRONROD


@dataclass(frozen=True)
class QuadResult:
    """An integral, its error estimate and the number of integrand nodes.

    For a component integrand, ``value`` and ``error_estimate`` are 1-d
    ndarrays with one entry per component; otherwise they are floats."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int


# a pass of at least this many rows (panels x components) is post-processed by
# numpy: below it the Python loop costs less, above it more (about 1 us a row
# against a fixed 20 us and a fraction of a us a row)
_WIDE_ROWS = 24


def _nonfinite(x: np.ndarray, fx: np.ndarray) -> QuadratureError:
    """The error for integrand values fx at the nodes x that hold a NaN or an
    infinity: it names the first such value, by panel, then node, then
    component."""
    at = fx.reshape(len(fx), 15, -1)
    p, i, j = np.unravel_index(np.argmax(~np.isfinite(at)), at.shape)
    what = "NaN" if math.isnan(at[p, i, j]) else at[p, i, j]
    return QuadratureError(f"integrand returned {what} at x = {float(x[p, i])!r}")


def _gk15(f, lo: Sequence[float], hi: Sequence[float]) -> tuple[list, list, list, bool]:
    """Gauss-Kronrod 7/15 on the panels (lo[i], hi[i]), all evaluated in one
    call of f.  Returns the integrals, the error estimates and their rounding
    floors 50 eps resabs h, each as one column per component (a single
    column for a plain integrand) holding one entry per panel, and whether f
    has a component axis."""
    p = len(lo)
    if p < _WIDE_ROWS:  # the loop of few rows reads the panels as tuples
        panels = [(0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(lo, hi)]
        ch = np.array(panels)
        c, h = ch[:, :1], ch[:, 1:]
    else:  # the same operations on an array of the ends
        a, b = np.array((lo, hi))
        c, h = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]
    x = c + h * _NODES
    fx = f(x)
    if getattr(fx, "shape", ())[:2] != x.shape:  # a scalar result
        fx = np.full(x.shape, fx)
    # one row of 15 values per component and panel; a NaN (or infinite) value
    # makes its row's sums NaN
    rows = fx if fx.ndim == 2 else fx.transpose(2, 0, 1).reshape(-1, 15)
    sums = rows.dot(_SUMS)
    abs_sums = np.abs(sums).dot(_ABS_SUMS)
    if len(rows) >= _WIDE_ROWS:
        resk, resg, resabs, resasc = sums[:, 0], sums[:, 1], abs_sums[:, 0], abs_sums[:, 1]
        if math.isnan(resabs.sum()):
            raise _nonfinite(x, fx)
        hp = np.tile(h[:, 0], len(rows) // p)
        err = np.abs((resk - resg) * hp)
        resasc = resasc * hp
        # err = resasc min(1, (200 err / resasc)^1.5) where resasc != 0
        nz = resasc != 0.0
        ratio = np.divide(200.0 * err, resasc, out=np.zeros(len(hp)), where=nz)
        err = np.where(nz, resasc * np.minimum(ratio, 1.0) ** 1.5, err)
        floor = 50.0 * _EPS * resabs * hp
        err = np.maximum(err, floor)
        return (*(a.reshape(-1, p).tolist() for a in (resk * hp, err, floor)), fx.ndim == 3)
    vals, errs, floors = [], [], []
    for (resk, resg), (resabs, resasc), (_, hp) in zip(
        sums[:, :2].tolist(), abs_sums.tolist(), panels * (len(rows) // p)
    ):
        if resabs != resabs:
            raise _nonfinite(x, fx)
        err = abs((resk - resg) * hp)
        resasc *= hp
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        floor = 50.0 * _EPS * resabs * hp
        vals.append(resk * hp)
        errs.append(max(err, floor))
        floors.append(floor)
    if len(rows) == p:
        return [vals], [errs], [floors], fx.ndim == 3
    split = ([col[j : j + p] for j in range(0, len(col), p)] for col in (vals, errs, floors))
    return (*split, True)


def graded_breakpoints(a: float, z: float, levels: int) -> list[float]:
    """The points m_1, ..., m_levels of m <- (m + z) / 2 from m_0 = a: the
    panel ends that bisecting (a, z) toward z would make, each panel half as
    wide as the one before it."""
    out = []
    for _ in range(levels):
        a = 0.5 * (a + z)
        out.append(a)
    return out


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_evals: int = 1_000_000,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Integrate the array function f over (a, b) to relative accuracy tol.

    f may add a trailing axis of m components to its result, (P, 15, m), to
    integrate m functions on the same nodes; the result then holds m
    integrals and m error estimates.  Each component stops when its summed
    error estimate is <= tol * max(1, |its value|).  Until all do, each pass
    takes the first component that misses its target and bisects, in one
    call of f, every panel whose error in it is at least the target divided
    by the number of panels (Malcolm and Simpson's global rule).  Raises
    QuadratureError before any pass, the first included, whose nodes would
    take ``evaluations`` past ``max_evals``, or as soon as a component's
    estimate sits at its rounding floor above its target.
    ``evaluations`` counts integrand nodes, each shared by all components.
    Points listed in ``breakpoints`` (kinks, jumps) become initial panel
    boundaries so each panel is smooth.
    """
    if not (a < b):
        raise QuadratureError(f"need a < b, got a={a}, b={b}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError("integrate handles finite intervals only")
    if tol <= 0.0:
        raise QuadratureError(f"tolerance must be positive, got {tol}")

    edges = [a, *sorted({p for p in breakpoints if a < p < b}), b]
    # panel i is (los[i], his[i]); per component, a column of panel values,
    # one of errors and one of their rounding floors
    los, his = edges[:-1], edges[1:]
    evaluations = 15 * len(los)
    if evaluations > max_evals:
        raise QuadratureError(
            f"no convergence within {max_evals} evaluations: the first pass needs {evaluations}"
        )
    val_cols, err_cols, floor_cols, components = _gk15(f, los, his)
    while True:
        total_val = list(map(math.fsum, val_cols))
        total_err = list(map(math.fsum, err_cols))
        for j, (value, error) in enumerate(zip(total_val, total_err)):
            target = tol * max(1.0, abs(value))
            if error > target:
                break
        else:  # every component meets its target
            break
        errs, floors = err_cols[j], floor_cols[j]
        # the worst error is at least error / P > target / P, and rounding
        # cannot lift the share above it: the worst panel is always split
        share = target / len(errs)
        split = [i for i, e in enumerate(errs) if e >= share]
        if evaluations + 30 * len(split) > max_evals:
            raise QuadratureError(
                f"no convergence within {max_evals} evaluations: "
                f"error estimate {error:.3e} > target {target:.3e}"
            )
        # the summed floor, about 50 eps int |f|, does not shrink as panels
        # are bisected: once the worst panel sits at its floor and the floor
        # exceeds the target by at least the error above the floor, the
        # target is out of reach (QUADPACK's roundoff exit)
        worst = errs.index(max(errs))
        if errs[worst] <= floors[worst]:
            floor = math.fsum(floors)
            if 2.0 * floor >= error + target:
                raise QuadratureError(
                    f"error estimate {error:.3e} sits at its rounding floor {floor:.3e} "
                    f"(50 eps times the integral of |f|), above the target {target:.3e}: "
                    "the tolerance is below what double precision resolves"
                )
        lefts, rights = [los[i] for i in split], [his[i] for i in split]
        mids = [0.5 * (lo + hi) for lo, hi in zip(lefts, rights)]
        # each left half takes its parent's place, each right half is appended
        for i, lo, mid, hi in zip(split, lefts, mids, rights):
            if not lo < mid < hi:
                raise QuadratureError(
                    f"interval [{lo}, {hi}] cannot be subdivided further; "
                    "integrand is too singular for the requested tolerance"
                )
            his[i] = mid
        v, e, fl, _ = _gk15(f, lefts + mids, mids + rights)
        los += mids
        his += rights
        for col, new in zip(val_cols + err_cols + floor_cols, v + e + fl):
            for i, left in zip(split, new):
                col[i] = left
            col += new[len(split):]
        evaluations += 30 * len(split)
    if components:
        return QuadResult(np.array(total_val), np.array(total_err), evaluations)
    return QuadResult(total_val[0], total_err[0], evaluations)


def integrate_semiinfinite(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    tol: float = 1e-10,
    max_evals: int = 1_000_000,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Integrate the array function f over (a, infinity) via the substitution
    x = a + t/(1-t).

    The first pass breaks (0, 1) at t = 1/2, 3/4, 7/8 and 15/16, which are
    x - a = 1, 3, 7 and 15, so its panels grade toward x = infinity; a tail
    that decays like a power of x needs few bisections after it.
    ``breakpoints`` are given on the x axis and mapped into t.  f must be
    absolutely integrable; slow tails exhaust the budget or drive a node
    onto t = 1 (x = infinity), and both raise.
    """
    if not math.isfinite(a):
        raise QuadratureError(f"lower endpoint must be finite, got {a}")

    def g(t: np.ndarray) -> np.ndarray:
        om = 1.0 - t
        if np.count_nonzero(om <= 0.0):
            # bisection toward the mapped infinity has run out of doubles
            raise QuadratureError(
                "a quadrature node reached t = 1 (x = infinity): the tail decays "
                "too slowly for the requested tolerance"
            )
        fx = f(a + t / om)
        om2 = om * om
        return fx / (om2[..., None] if getattr(fx, "ndim", 0) == 3 else om2)

    # x - a = 1, 3, 7, 15: the first pass grades its panels toward x = infinity
    mapped = graded_breakpoints(0.0, 1.0, 4)
    for p in breakpoints:
        if p > a and math.isfinite(p):
            u = p - a
            mapped.append(u / (1.0 + u))
    return integrate(g, 0.0, 1.0, tol=tol, max_evals=max_evals, breakpoints=mapped)
