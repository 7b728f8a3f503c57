"""The x side of the t41, t42 and t43 bounds, kept as a test oracle.

The library computes each bound as a flat integral of the transformed
potential in s = ln^(n+1) x.  The functions here integrate the same bounds
in x, with the iterated-log weights and their kinks, as the library did
before the flat side became the implementation.  In x a tail -c x^p needs
p <= -3: for -3 < p < -2 the semi-infinite map x = a + t/(1-t) turns the
integrand into (1-t)^(-p-3), singular at t = 1.  The t42 integrand reaches
only as far as its powers stay doubles.
"""

import math

import numpy as np
import scipy.optimize

from hardybounds.iterfun import float_or_array, iterated_exp, log_chain
from hardybounds.potentials import _centrifugal_crossings, checked_pow
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


def clr_x_integral(V, spec, tol, horizon=None):
    """The t42 integral of ``spec`` in x, without its constant C_d |S^(d-1)|:

        int ( A(x) - V(x) )_+^(d/2) (x ln x ... ln^(m) x)^(d-1) dx

    over (exp^(n+2) 0, inf) with m = n + 1 and
    A = (d-1)(d-3) / (4 (x ln x ... ln^(m) x)^2) on variant zero, and over
    (exp^(n+2) 1, inf) with m = n + 2 and the numerator less (ln^(m) x)^2 on
    variant one, cut at ``horizon``.  A tabulated V is 0 outside its
    samples.  +inf where the integral diverges: on a negative tail, and for
    d >= 4 on variant zero without a horizon.  OverflowError where the
    x-side range or a power leaves the doubles: r* = exp^(n+2) sqrt((d-1)(d-3)),
    the end of the variant-one integrand, at d = 5, n = 1, or its weight
    (x ln x ...)^(d-1) at d = 4, n = 1."""
    d, n, one = spec.d, spec.n, spec.variant == "one"
    coeff = float((d - 1) * (d - 3))
    ns, rng = V.negative_support(), V.sampled_range()
    if ns is not None and math.isinf(ns[1]):
        return math.inf
    if not one and coeff > 0.0 and horizon is None:
        return math.inf
    # past the negative support the integrand is at most that of V = 0
    hi = 0.0 if ns is None else ns[1]
    if not one and coeff > 0.0:
        hi = math.inf
    if one and coeff > 0.0:
        try:
            hi = max(hi, iterated_exp(math.sqrt(coeff), n + 2))
        except OverflowError:
            if horizon is None:
                raise
            hi = math.inf
    if horizon is not None:
        hi = min(hi, horizon)
    lo = spec.threshold.value
    V_at = V
    if rng is not None and coeff == 0.0:
        lo, hi = max(lo, rng[0]), min(hi, rng[1])
    elif rng is not None:
        def V_at(x):
            v = np.zeros(x.shape)
            inside = (rng[0] <= x) & (x <= rng[1])
            v[inside] = V(x[inside])
            return v
    if hi <= lo:
        return 0.0
    logs = n + 1 + one

    def arg(x):
        """A(x) - V(x), and the weight's base x ln x ... ln^(logs) x."""
        chain = log_chain(x, logs)
        prod = np.prod(chain, axis=0)
        num = coeff - chain[-1] ** 2 if one else coeff
        return num / (4.0 * prod * prod) - V_at(x), prod

    def f(x):
        g, prod = arg(x)
        g = np.maximum(g, 0.0)
        on = g != 0.0  # the weight is evaluated only where g > 0
        with np.errstate(over="ignore"):
            g[on] = checked_pow(g[on], d / 2.0) * checked_pow(prod[on], d - 1)
        return g

    # Split at V's breakpoints, at panels at most twice as long as their
    # start, and at the sign changes of A - V on a dense geometric grid,
    # where the integrand kinks: a panel whose nodes all miss a short
    # positive stretch would stop at 0 for it.
    pts = [p for p in V.breakpoints() if lo < p < hi]
    cut = lo
    while cut * 2.0 < hi:
        cut *= 2.0
        pts.append(cut)
    grid = np.geomspace(lo, hi, 4001)[1:-1]
    positive = arg(grid)[0] > 0.0
    for i in np.flatnonzero(positive[:-1] != positive[1:]):
        pts.append(scipy.optimize.brentq(lambda x: float(arg(np.array([x]))[0][0]),
                                         grid[i], grid[i + 1], xtol=1e-300))
    return integrate(f, lo, hi, tol=tol, breakpoints=pts).value
