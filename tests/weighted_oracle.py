"""The x side of the t41/t43 bounds, kept as a test oracle.

The library computes each bound as a flat integral of the transformed
potential in s = ln^(n+1) x.  The functions here integrate the same bounds
in x, with the iterated-log weight x |ln x| ... |ln^(n+1) x| and its kinks,
as the library did before the flat side became the implementation.  In x a
tail -c x^p needs p <= -3: for -3 < p < -2 the semi-infinite map
x = a + t/(1-t) turns the integrand into (1-t)^(-p-3), singular at t = 1.
"""

import math

import numpy as np

from hardybounds.iterfun import float_or_array, iterated_exp, log_chain
from hardybounds.potentials import _centrifugal_crossings
from hardybounds.quadrature import integrate, integrate_semiinfinite


@float_or_array
def absolute_log_weight(x, n: int):
    """x |ln x| |ln^(2) x| ... |ln^(n+1) x| for x above exp^(n)(0)."""
    w = x
    for cur in log_chain(x, n + 1)[1:]:
        w = w * np.abs(cur)
    return w


def log_kinks(n: int, lo: float, hi: float) -> list[float]:
    """Zeros x = exp^(k)(1), k = 0..n, of the factors |ln x|, ..., |ln^(n+1) x|
    of the depth-n weight, inside (lo, hi)."""
    pts = []
    for k in range(n + 1):
        try:
            p = iterated_exp(1.0, k)  # 1, e, e^e, ...
        except OverflowError:
            break
        if lo < p < hi:
            pts.append(p)
        if p > hi:
            break
    return pts


def weighted_negpart_quad(V, n, threshold, tol, L=0.0):
    """int_threshold^inf max(-(L/x^2 + V(x)), 0) x |ln x| ... |ln^(n+1) x| dx
    in one quadrature over V's own negative support, split at V's
    breakpoints, at the crossings of L/x^2 + V and at the weight's kinks.
    With the coupling L = l(l+d-2) of channel l, this is the channel
    integral I_l of ``central_bound``; with L = 0, the integral of
    ``bound_1d``."""
    ns = V.negative_support()
    if ns is None:
        return 0.0
    lo, hi = max(ns[0], threshold), ns[1]
    if hi <= lo:
        return 0.0

    def f(x):
        with np.errstate(over="ignore", divide="ignore"):  # L/x^2 = inf: 0
            vneg = np.maximum(-(L / (x * x) + V(x)), 0.0)
        on = vneg != 0.0
        vneg[on] *= absolute_log_weight(x[on], n)
        return vneg

    pts = [p for p in V.breakpoints() if lo < p < hi]
    if L:
        pts += [p for p in _centrifugal_crossings(V, [L]) if lo < p < hi]
    if math.isfinite(hi):
        pts += log_kinks(n, lo, hi)
        return integrate(f, lo, hi, tol=tol, breakpoints=pts).value
    pts += log_kinks(n, lo, lo + 1e6)
    return integrate_semiinfinite(f, lo, tol=tol, breakpoints=pts).value
