"""Adaptive quadrature on finite and semi-infinite intervals.

The core rule is the 15-point Kronrod extension of the 7-point Gauss rule,
driven by worst-interval bisection: QUADPACK's QK15 and QAG (Piessens et al.,
1983).  All nodes are interior, so integrable endpoint singularities need no
special casing.  Semi-infinite ranges use the rational substitution
x = a + t/(1-t).

Integrands are array functions: ``f(x)`` receives an ndarray of nodes, one
row of 15 per panel, and returns the values as an ndarray of the same shape
(a scalar is broadcast to it).  Each pass calls ``f`` once: the first on
every initial panel (one per breakpoint interval), each later one on both
halves of the panel it splits.
"""

from __future__ import annotations

import heapq
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
# values of the last 30 columns @ _ABS_SUMS give resabs and resasc.
_SUMS = np.column_stack([_KRONROD, _GAUSS, np.eye(15), np.eye(15) - 0.5 * _KRONROD[:, None]])
_ABS_SUMS = np.zeros((30, 2))
_ABS_SUMS[:15, 0] = _ABS_SUMS[15:, 1] = _KRONROD


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


def _gk15(f, edges: Sequence[float]) -> list[tuple[float, float]]:
    """Gauss-Kronrod 7/15 on the panels between consecutive ``edges``, all
    evaluated in one call of f: (integral, error estimate) per panel."""
    c = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
    h = [0.5 * (hi - lo) for lo, hi in zip(edges, edges[1:])]
    x = np.array(c)[:, None] + np.array(h)[:, None] * _NODES
    fx = f(x)
    if getattr(fx, "shape", ()) != x.shape:  # a scalar result
        fx = np.full(x.shape, fx)
    sums = fx.dot(_SUMS)
    abs_sums = np.abs(sums[:, 2:]).dot(_ABS_SUMS)
    out = []
    for p, ((resk, resg), (resabs, resasc), hp) in enumerate(
        zip(sums[:, :2].tolist(), abs_sums.tolist(), h)
    ):
        if resabs != resabs:  # a NaN (or infinite) value makes its panel's sums NaN
            i = int(np.argmax(~np.isfinite(fx[p])))
            what = "NaN" if math.isnan(fx[p][i]) else fx[p][i]
            raise QuadratureError(f"integrand returned {what} at x = {float(x[p][i])!r}")
        err = abs((resk - resg) * hp)
        resasc *= hp
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        out.append((resk * hp, max(err, 50.0 * _EPS * resabs * hp)))
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

    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    # the heap orders panels worst first; values and errors are kept by serial
    # number, so that the sums below run over plain floats
    heap, vals, errs = [], {}, {}
    for serial, (lo, hi, (v, e)) in enumerate(zip(edges, edges[1:], _gk15(f, edges))):
        heap.append((-e, serial, lo, hi))
        vals[serial], errs[serial] = v, e
    heapq.heapify(heap)
    serial = len(heap)
    evaluations = 15 * serial

    while True:
        total_err = math.fsum(errs.values())
        total_val = math.fsum(vals.values())
        if total_err <= tol * max(1.0, abs(total_val)):
            return QuadResult(total_val, total_err, evaluations)
        if evaluations >= max_evals:
            raise QuadratureError(
                f"no convergence within {max_evals} evaluations: "
                f"error estimate {total_err:.3e} > target "
                f"{tol * max(1.0, abs(total_val)):.3e}"
            )
        _, worst, lo, hi = heapq.heappop(heap)
        del vals[worst], errs[worst]
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(
                f"interval [{lo}, {hi}] cannot be subdivided further; "
                "integrand is too singular for the requested tolerance"
            )
        for lo, hi, (v, e) in zip((lo, mid), (mid, hi), _gk15(f, (lo, mid, hi))):
            heapq.heappush(heap, (-e, serial, lo, hi))
            vals[serial], errs[serial] = v, e
            serial += 1
        evaluations += 30


def integrate_semiinfinite(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    tol: float = 1e-10,
    max_evals: int = 1_000_000,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Integrate the array function f over (a, infinity) via the substitution
    x = a + t/(1-t).

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
        return f(a + t / om) / (om * om)

    mapped = []
    for p in breakpoints:
        if p > a and math.isfinite(p):
            u = p - a
            mapped.append(u / (1.0 + u))
    return integrate(g, 0.0, 1.0, tol=tol, max_evals=max_evals, breakpoints=mapped)
