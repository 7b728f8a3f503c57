"""Adaptive quadrature on finite and semi-infinite intervals.

The core rule is the 15-point Kronrod extension of the 7-point Gauss rule,
driven by worst-interval bisection.  All nodes are interior, so integrable
endpoint singularities need no special casing.  Semi-infinite ranges use the
rational substitution x = a + t/(1-t).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence


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


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _eval(f, x, counter):
    counter.n += 1
    v = f(x)
    if math.isnan(v):
        raise QuadratureError(f"integrand returned NaN at x = {x!r}")
    return v


def _gk15(f, a: float, b: float, counter) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel on [a, b]: (integral, error estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = _eval(f, c, counter)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    fv = [fc]
    for i, x in enumerate(_XGK):
        dx = h * x
        f1 = _eval(f, c - dx, counter)
        f2 = _eval(f, c + dx, counter)
        fv.append(f1)
        fv.append(f2)
        s = f1 + f2
        resk += _WGK[i] * s
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += _WG[(i - 1) // 2] * s
    mean = resk * 0.5
    resasc = _WGK_CENTER * abs(fc - mean)
    for i in range(7):
        resasc += _WGK[i] * (abs(fv[1 + 2 * i] - mean) + abs(fv[2 + 2 * i] - mean))
    value = resk * h
    err = abs((resk - resg) * h)
    resasc *= abs(h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs * abs(h))
    return value, err


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_evals: int = 1_000_000,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Integrate f over (a, b) to relative accuracy tol.

    Stops when the summed error estimate is <= tol * max(1, |value|); raises
    QuadratureError if the evaluation budget runs out first.  Points listed in
    ``breakpoints`` (kinks, jumps) become initial panel boundaries so each
    panel is smooth.
    """
    if not (a < b):
        raise QuadratureError(f"need a < b, got a={a}, b={b}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError("integrate handles finite intervals only")
    if tol <= 0.0:
        raise QuadratureError(f"tolerance must be positive, got {tol}")

    counter = _Counter()
    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    heap = []
    serial = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _gk15(f, lo, hi, counter)
        heapq.heappush(heap, (-e, serial, lo, hi, v, e))
        serial += 1

    while True:
        total_err = math.fsum(item[5] for item in heap)
        total_val = math.fsum(item[4] for item in heap)
        if total_err <= tol * max(1.0, abs(total_val)):
            return QuadResult(total_val, total_err, counter.n)
        if counter.n >= max_evals:
            raise QuadratureError(
                f"no convergence within {max_evals} evaluations: "
                f"error estimate {total_err:.3e} > target "
                f"{tol * max(1.0, abs(total_val)):.3e}"
            )
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(
                f"interval [{lo}, {hi}] cannot be subdivided further; "
                "integrand is too singular for the requested tolerance"
            )
        v1, e1 = _gk15(f, lo, mid, counter)
        v2, e2 = _gk15(f, mid, hi, counter)
        heapq.heappush(heap, (-e1, serial, lo, mid, v1, e1))
        serial += 1
        heapq.heappush(heap, (-e2, serial, mid, hi, v2, e2))
        serial += 1


def integrate_semiinfinite(
    f: Callable[[float], float],
    a: float,
    tol: float = 1e-10,
    max_evals: int = 1_000_000,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Integrate f over (a, infinity) via the substitution x = a + t/(1-t).

    ``breakpoints`` are given on the x axis and mapped into t.  f must be
    absolutely integrable; slow tails exhaust the budget or drive a node
    onto t = 1 (x = infinity), and both raise.
    """
    if not math.isfinite(a):
        raise QuadratureError(f"lower endpoint must be finite, got {a}")

    def g(t: float) -> float:
        om = 1.0 - t
        if om <= 0.0:
            # bisection toward the mapped infinity has run out of doubles
            raise QuadratureError(
                "a quadrature node reached t = 1 (x = infinity): the tail decays "
                "too slowly for the requested tolerance"
            )
        x = a + t / om
        return f(x) / (om * om)

    mapped = []
    for p in breakpoints:
        if p > a and math.isfinite(p):
            u = p - a
            mapped.append(u / (1.0 + u))
    return integrate(g, 0.0, 1.0, tol=tol, max_evals=max_evals, breakpoints=mapped)
