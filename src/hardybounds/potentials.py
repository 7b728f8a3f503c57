"""Potential families, their negative parts, and their images under the
iterated log change of variables.

All families evaluate pointwise on r > 0 (square wells also accept r <= 0 so
they can live on the whole line).  Each family has one formula, its
``evaluate_array`` on a float ndarray.  Calling a potential, ``V(r)``,
evaluates it elementwise; a float r goes in as a one-element array and the
value comes back as a float.  A k-step
transform turns V into the s-coordinate potential

    W(s) = e^{2s} e^{2 e^s} ... e^{2 exp^(k-1) s} * V(exp^(k) s),

which is what the flat 1-d operator -d^2/ds^2 + W sees after the Hardy stack
has been absorbed.  Evaluation accumulates the exponential prefactor as a
log magnitude so compactly supported wells never overflow; the form
-c r^p (ln r)^q of three families is transformed in log space (tails too).
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .iterfun import call_on_array, safe_iterated_log

_EXP_MAX = 700.0  # exp() stays finite below this
_POSITIVE_WALL = 1e300  # stand-in for astronomically large positive values
_DOUBLE_MAX = sys.float_info.max


#: V = -c r^p (ln r)^q on (a, b), and 0 elsewhere
PowerLogForm = namedtuple("PowerLogForm", "c p q a b")


class Potential:
    """Base class: a real potential on a radial or line domain.  The supports
    and breakpoints of a V with a power-log form are read off the form, which
    a family with one sets as ``_form`` at construction."""

    family = "abstract"
    _form: Optional[PowerLogForm] = None

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        """V elementwise on a float ndarray of r; each family defines it."""
        raise NotImplementedError

    def __call__(self, r):
        """V(r) for a float, or elementwise for an ndarray of r."""
        return call_on_array(self.evaluate_array, r)

    def support(self) -> Optional[tuple[float, float]]:
        """Interval outside which the potential vanishes (None = empty); every
        family, the tabulated one too, is 0 at its ends.  A V without a form
        may be nonzero anywhere: (0, inf) unless overridden."""
        form = self.power_log_form()
        return (0.0, math.inf) if form is None else (form.a, form.b)

    def negative_support(self) -> Optional[tuple[float, float]]:
        """Interval containing {r : V(r) < 0} (None = V >= 0 everywhere):
        the support, unless the form is a barrier."""
        form = self.power_log_form()
        return None if form is not None and form.c <= 0.0 else self.support()

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the potential or its negative part jumps or kinks."""
        form = self.power_log_form()
        if form is None:
            return ()
        return (form.a,) if math.isinf(form.b) else (form.a, form.b)

    def zeros(self) -> tuple[tuple[float, int], ...]:
        """(r, side) for each r where V returns continuously to 0 from a
        stretch where V < 0, which lies below r (side -1) or above it (+1).
        Only the tabulated family lists them."""
        return ()

    def power_log_form(self) -> Optional[PowerLogForm]:
        """(c, p, q, a, b) when V = -c r^p (ln r)^q on (a, b) and 0 elsewhere;
        None for any other V."""
        return self._form

    def sup_r2_negative_part(self, lo: float, hi: float) -> Optional[float]:
        """sup over (lo, hi) of r^2 max(-V(r), 0) in closed form, for
        lo < hi inside the negative support; None when V has no closed form,
        which ``bounds.l_max`` refuses: a family without a power-log form
        overrides this method, as the tabulated one does.

        For a power-log form it is c r^(p+2) (ln r)^q at its maximiser: c b^2
        for a square well, c for an inverse-square tail."""
        if (form := self._form) is None:
            return None
        c, p, q = form.c, form.p, form.q  # c > 0: a barrier has no negative support
        # c r^(p+2) (ln r)^q rises on the support for p >= -2 (a >= 1 when
        # q > 0); for p < -2 it falls, after a peak at ln r = q/|p+2| if q > 0
        e = p + 2.0
        if e < 0.0 and q:
            # in u = ln r (> 0 here, as a >= 1), so a peak past the doubles stays finite
            u = min(max(q / -e, math.log(lo)), math.log(hi))
            return c * math.exp(e * u) * u**q
        r = hi if e >= 0.0 else lo  # inf ** 0.0 is 1: a p = -2, q = 0 tail has sup c
        return c * r**e * (math.log(r) ** q if q else 1.0)

    def params(self) -> dict:
        """The constructor's arguments by name, in field order (none for a
        potential that is not a dataclass)."""
        own = fields(self) if is_dataclass(self) else ()
        return {f.name: getattr(self, f.name) for f in own if f.init}


@dataclass(frozen=True)
class ZeroPotential(Potential):
    family = "zero"

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        return np.zeros(r.shape)

    def support(self):
        return None


@dataclass(frozen=True)
class SquareWell(Potential):
    """V = -c on (a, b), zero elsewhere.

    a may be negative so the well can also serve as a line potential; radial
    consumers only ever see the r > 0 part.
    """

    family = "square_well"
    c: float
    a: float
    b: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise DomainError(f"square well depth must be positive, got c={self.c}")
        if not self.a < self.b:
            raise DomainError(f"square well needs a < b, got a={self.a}, b={self.b}")
        object.__setattr__(self, "_form", PowerLogForm(self.c, 0.0, 0.0, self.a, self.b))

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        return np.where((self.a < r) & (r < self.b), -self.c, 0.0)


@dataclass(frozen=True)
class InverseSquareTail(Potential):
    """V = -c/r^2 for r > a, zero up to the onset."""

    family = "inverse_square"
    c: float
    a: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise DomainError(f"inverse-square coefficient must be positive, got {self.c}")
        if self.a < 0.0:
            raise DomainError(f"onset must be >= 0, got {self.a}")
        object.__setattr__(self, "_form", PowerLogForm(self.c, -2.0, 0.0, self.a, math.inf))

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        _require_positive(r, "inverse-square tail")
        out = np.zeros(r.shape)
        on = r > self.a
        out[on] = -_inverse_square(self.c, r[on])
        return out


@dataclass(frozen=True)
class PowerLogWell(Potential):
    """V = -c * r^p * (ln r)^q on (a, b), zero elsewhere.  b may be inf.

    c < 0 turns the well into a barrier.  q != 0 requires a >= 1 so the log
    factor keeps a single sign on the support.
    """

    family = "power_log_well"
    c: float
    p: float
    q: float
    a: float
    b: float

    def __post_init__(self):
        if self.c == 0.0:
            raise DomainError("power-log well needs c != 0 (use the zero potential)")
        if self.a <= 0.0 or not self.a < self.b:
            raise DomainError(f"power-log well needs 0 < a < b, got a={self.a}, b={self.b}")
        if self.q < 0.0:
            raise DomainError(f"log exponent must be >= 0, got q={self.q}")
        if self.q != 0.0 and self.a < 1.0:
            raise DomainError("q != 0 requires a >= 1 so (ln r)^q is single-signed")
        object.__setattr__(self, "_form", PowerLogForm(self.c, self.p, self.q, self.a, self.b))

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        _require_positive(r, "power-log well")
        out = np.zeros(r.shape)
        inside = (self.a < r) & (r < self.b)
        x = r[inside]
        # float ** raises OverflowError where a product only goes to inf
        with np.errstate(over="ignore"):
            rp = checked_pow(x, self.p)
            v = self.c * rp
            if self.q != 0.0:
                v *= checked_pow(np.log(x), self.q)
        out[inside] = -v
        return out


@dataclass(frozen=True)
class TabulatedPotential(Potential):
    """Sample points with linear interpolation between them, and 0 at and
    outside the end samples, as every family is 0 outside its support; r <= 0
    is a domain error.

    Strictly between the end samples, on the sample interval [r_i, r_(i+1)]
    that holds r, V(r) is numpy's ``interp``: slope_i (r - r_i) + v_i with
    slope_i = (v_(i+1) - v_i) / (r_(i+1) - r_i).  The end values v_0 and v_N
    are V's limits from inside, which ``sup_r2_negative_part`` reads."""

    family = "tabulated"
    r: tuple[float, ...]
    v: tuple[float, ...]
    # the samples as ndarrays, the breakpoints (the samples and V's zeros
    # between them), and the zeros that end a negative stretch
    _rs: np.ndarray = field(init=False, repr=False, compare=False)
    _vs: np.ndarray = field(init=False, repr=False, compare=False)
    _breaks: tuple = field(init=False, repr=False, compare=False)
    _zeros: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(x) for x in self.r))
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        if len(self.r) < 2 or len(self.r) != len(self.v):
            raise DomainError("tabulated potential needs >= 2 matched samples")
        if self.r[0] <= 0.0:
            raise DomainError("tabulated sample points must be positive")
        if any(x >= y for x, y in zip(self.r, self.r[1:])):
            raise DomainError("tabulated sample points must be strictly increasing")
        rs, vs = np.array(self.r), np.array(self.v)
        cross = np.flatnonzero(np.sign(vs[:-1]) * np.sign(vs[1:]) < 0.0)
        h0, h1 = 0.5 * vs[cross], 0.5 * vs[cross + 1]  # halved, so that h0 - h1 is finite
        zeros = rs[cross] + (rs[cross + 1] - rs[cross]) * (h0 / (h0 - h1))
        object.__setattr__(self, "_rs", rs)
        object.__setattr__(self, "_vs", vs)
        object.__setattr__(self, "_breaks", tuple(np.insert(rs, cross + 1, zeros).tolist()))
        # a sign change ends the negative stretch on the side of its negative
        # sample; a zero sample ends one on each side with a negative neighbour
        ends = [(z, -1 if vs[i] < 0.0 else 1) for i, z in zip(cross.tolist(), zeros.tolist())]
        for i in np.flatnonzero(vs == 0.0).tolist():
            ends += [(self.r[i], side) for side, j in ((-1, i - 1), (1, i + 1))
                     if 0 <= j < len(vs) and vs[j] < 0.0]
        object.__setattr__(self, "_zeros", tuple(sorted(ends)))

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        _require_positive(r, "tabulated potential")
        rs = self._rs
        return np.where((rs[0] < r) & (r < rs[-1]), np.interp(r, rs, self._vs), 0.0)

    def support(self):
        return (self.r[0], self.r[-1])

    def negative_support(self):
        if all(x >= 0.0 for x in self.v):
            return None
        return (self.r[0], self.r[-1])

    def breakpoints(self):
        return self._breaks

    def zeros(self):
        return self._zeros

    def sup_r2_negative_part(self, lo, hi):
        """The largest value over the ends, the samples and the turning point
        of each sample interval, read on the interpolant, so that the end
        samples count with their values."""
        # V = alpha + beta r on a sample interval: r^2 (-V) turns at -2 alpha / (3 beta)
        rs, vs = self._rs, self._vs
        beta = np.diff(vs) / np.diff(rs)
        with np.errstate(all="ignore"):  # a flat interval has no turning point
            turn = -2.0 * (vs[:-1] - beta * rs[:-1]) / (3.0 * beta)
        xs = np.concatenate(([lo, hi], rs, turn))
        xs = xs[(lo <= xs) & (xs <= hi)]
        return float(np.max(xs * xs * np.maximum(-np.interp(xs, rs, vs), 0.0)))

    def params(self):
        return {"r": list(self.r), "v": list(self.v)}


def _centrifugal_crossings(V: Potential, couplings) -> list[float]:
    """The r inside V's support where L/r^2 + V(r) changes sign, for each
    coupling L > 0: there the positive part of -(L/r^2 + V) has a kink.
    Found for a power-log form with c > 0 and for a tabulated V; empty for
    any other V."""
    form = V.power_log_form()
    if form is not None and form.c > 0.0:
        cross = [x for L in couplings for x in _power_log_crossings(L, form)]
    elif isinstance(V, TabulatedPotential):
        cross = [x for L in couplings for x in _tabulated_crossings(L, V)]
    else:
        return []
    if not cross:
        return []
    lo, hi = V.support()
    return [x for x in cross if lo < x < hi]


def _monotone_roots(F, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The zeros of F, which is monotone on each piece [lo_i, hi_i]: one per
    piece whose ends differ strictly in sign, by bisection down to adjacent
    doubles.  All pieces are bisected at once; F takes an ndarray."""
    flo, fhi = F(lo), F(hi)
    keep = ((flo < 0.0) & (0.0 < fhi)) | ((fhi < 0.0) & (0.0 < flo))
    lo, hi, neg = lo[keep], hi[keep], flo[keep] < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        live = (mid > lo) & (mid < hi)
        if not np.count_nonzero(live):
            return mid
        # a piece whose midpoint met an end has converged and stays put
        same = (F(mid) < 0.0) == neg
        lo = np.where(live & same, mid, lo)
        hi = np.where(live & ~same, mid, hi)


def _power_log_crossings(L: float, form: PowerLogForm) -> list[float]:
    """The r in (a, b) with c r^p (ln r)^q = L, for c > 0.

    In u = ln r the equation is (p+2) u + q ln u = ln(L/c), solved in logs
    because the powers overflow for p near -2.  For q > 0 and p < -2 the left
    side rises up to u = q/|p+2| and falls after it, so each side of that
    peak holds at most one root.  A square well with a <= 0 starts at u = -inf."""
    c, p, q, a, b = form
    rhs = math.log(L / c)
    lo = math.log(a) if a > 0.0 else -math.inf
    hi = min(math.log(b), _EXP_MAX)
    if q == 0.0:
        if p == -2.0:
            return []
        u = rhs / (p + 2.0)
        return [math.exp(u)] if lo < u < hi else []

    def F(u: np.ndarray) -> np.ndarray:
        out = np.full(u.shape, -math.inf)
        pos = u > 0.0
        out[pos] = (p + 2.0) * u[pos] + q * np.log(u[pos]) - rhs
        return out

    cuts = [lo, hi]
    if p < -2.0 and lo < (peak := q / -(p + 2.0)) < hi:
        cuts.insert(1, peak)
    return np.exp(_monotone_roots(F, np.array(cuts[:-1]), np.array(cuts[1:]))).tolist()


def _tabulated_crossings(L: float, V: "TabulatedPotential") -> list[float]:
    """The r inside the samples where L/r^2 + V(r) changes sign.

    On a sample interval V is linear with slope beta, so L/r^2 + V is convex
    with at most two zeros, one on each side of its minimum (2L/beta)^(1/3).
    V is read on the interpolant, whose end values are its limits there."""

    def g(r: np.ndarray) -> np.ndarray:
        return L / (r * r) + np.interp(r, V._rs, V._vs)

    r0, r1 = V._rs[:-1], V._rs[1:]
    beta = np.diff(V._vs) / (r1 - r0)
    rising = beta > 0.0
    bottom = np.full(beta.shape, math.nan)  # no split where beta <= 0
    with np.errstate(over="ignore"):  # a subnormal slope puts the bottom at inf
        bottom[rising] = (2.0 * L / beta[rising]) ** (1.0 / 3.0)
    split = (r0 < bottom) & (bottom < r1)
    lo = np.concatenate([r0, bottom[split]])
    hi = np.concatenate([np.where(split, bottom, r1), r1[split]])
    return _monotone_roots(g, lo, hi).tolist()


def _require_positive(r: np.ndarray, what: str) -> None:
    bad = r <= 0.0
    if np.count_nonzero(bad):
        raise DomainError(f"{what} needs r > 0, got {float(r[bad][0])}")


def _inverse_square(c: float, r):
    """c / r^2 for c > 0 and a float or an ndarray r, raising OverflowError
    where the quotient leaves the double range (r*r underflows to 0 below
    r = 1.5e-162 or so), instead of dividing by zero."""
    r2 = r * r
    low = r2 <= c / _DOUBLE_MAX
    if np.count_nonzero(low):
        at = float(np.asarray(r)[low][0])
        raise OverflowError(f"{c} / r^2 exceeds the double range at r = {at}")
    return c / r2


def checked_pow(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p, raising OverflowError where a finite x overflows, as float ** does.
    Call it under ``np.errstate(over="ignore")``."""
    out = x**p
    if np.count_nonzero(np.isinf(out)):
        over = np.isinf(out) & np.isfinite(x)
        if np.count_nonzero(over):
            raise OverflowError(f"{float(x[over][0])} ** {p}: numerical result out of range")
    return out


def negative_part_abs(V: Potential, r):
    """|V(r)_-| = max(-V(r), 0), for a float or elementwise for an ndarray."""
    return np.maximum(-V(r), 0.0)


def describe_potential(V: Potential) -> dict:
    return {"family": V.family, **V.params()}


_FAMILIES = {
    "zero": (ZeroPotential, ()),
    "square_well": (SquareWell, ("c", "a", "b")),
    "inverse_square": (InverseSquareTail, ("c", "a")),
    "power_log_well": (PowerLogWell, ("c", "p", "q", "a", "b")),
    "tabulated": (TabulatedPotential, ("r", "v")),
}


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    return _is_real(x) and math.isfinite(x)


def make_potential(family: str, params: Optional[dict] = None) -> Potential:
    """Construct a potential from its family tag and a parameter mapping.

    This is the single factory behind the configuration file and the
    ``family:key=value,...`` command-line syntax.
    """
    if family not in _FAMILIES:
        raise DomainError(
            f"unknown potential family {family!r}; choose from {sorted(_FAMILIES)}"
        )
    cls, keys = _FAMILIES[family]
    params = dict(params or {})
    unknown = set(params) - set(keys)
    if unknown:
        raise DomainError(f"unknown parameters for {family}: {sorted(unknown)}")
    missing = set(keys) - set(params)
    if family == "power_log_well":
        # exponents default to a plain well
        params.setdefault("p", 0.0)
        params.setdefault("q", 0.0)
        missing = set(keys) - set(params)
    if missing:
        raise DomainError(f"missing parameters for {family}: {sorted(missing)}")
    for key in keys:
        value = params[key]
        if family == "tabulated":
            what = "a sequence of finite real numbers"
            ok = isinstance(value, (list, tuple, np.ndarray)) and all(map(_is_finite, value))
        elif (family, key) == ("power_log_well", "b"):
            what = "a real number or inf"
            ok = _is_real(value) and not math.isnan(value)
        else:
            what, ok = "a finite real number", _is_finite(value)
        if not ok:
            raise DomainError(f"{family} parameter {key} must be {what}, got {value!r}")
    if family == "tabulated":
        return cls(r=tuple(params["r"]), v=tuple(params["v"]))
    return cls(**{k: params[k] for k in keys}) if keys else cls()


# --------------------------------------------------------------------------
# transformation
# --------------------------------------------------------------------------

def _exp_tower(s: np.ndarray, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """(2 * (s + e^s + ... + exp^(terms-1) s), exp^(terms) s) elementwise: the
    log of the stacked Jacobian and the tower, from one pass of exps.  A value
    past the double range is inf; call it under ``np.errstate(over="ignore")``."""
    if not terms:
        return np.zeros(s.shape), s
    total, cur = s, np.exp(s)
    for _ in range(terms - 1):
        total = total + cur
        cur = np.exp(cur)
    return 2.0 * total, cur


def _overflow_error(s) -> OverflowError:
    return OverflowError(f"transformed potential value at s={s} exceeds the double range")


def _signed_exp(s: np.ndarray, expo: np.ndarray, sign) -> np.ndarray:
    """sign * e^expo; past e^700 a positive value is the wall, a negative one raises."""
    over = expo > _EXP_MAX
    if not np.count_nonzero(over):
        return sign * np.exp(expo)
    neg_over = over & (sign < 0.0)
    if np.count_nonzero(neg_over):
        raise _overflow_error(s.flat[np.argmax(neg_over)])
    return np.where(over, _POSITIVE_WALL, sign * np.exp(np.minimum(expo, _EXP_MAX)))


def _transformed_form(s: np.ndarray, k: int, c: float, p: float, q: float) -> np.ndarray:
    """The k-step transform of -c y^p (ln y)^q in log space, never forming y:
    -c exp(2 (s + ... + exp^(k-2) s) + (p+2) u + q ln u), u = ln y = exp^(k-1) s."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        expo, u = _exp_tower(s, k - 1)
        if p != -2.0:  # at p = -2 u may be inf, and 0 * inf is nan
            expo = expo + (p + 2.0) * u
        if q != 0.0:
            expo = expo + q * np.log(u)
        # nan is inf - inf: a falling (p+2) u with u = inf outgrows the rest
        expo = np.fmax(expo, -math.inf) + math.log(abs(c))
    return _signed_exp(s, expo, -math.copysign(1.0, c))


@dataclass(frozen=True)
class TransformedPotential:
    """Image of coupling/r^2 + base(r) under ``steps`` applications of the
    log change of variables:

        W(s) = coupling C(s) + e^{2s} ... e^{2 exp^(steps-1) s} * base(exp^(steps) s),

    with C(s) = e^{2s} ... e^{2 exp^(steps-2) s} the transform of 1/r^2 (1 at
    one step).  ``spectra.channel_potential`` builds a count's channel l as
    ``TransformedPotential(V, n + 1, l(l+d-2))``; the bounds integrate the
    same W_0 + L C(s), one C(s) broadcast over all their couplings.

    W has one formula, on a float ndarray of s.  A base with a power-log
    form, and the coupling term (the form (-coupling, -2, 0) on (0, inf)),
    are transformed in log space; any other base is read on the tower
    exp^(steps) s inside its mapped support, and raises OverflowError where
    the tower leaves the double range.  A tabulated base is 0 at and outside
    its end samples, so W is 0 outside their images, as for any other base.
    A float s gives a float.  The bounds and the counts read V's geometry in
    s off ``negative_interval``, ``kinks`` and ``exterior``, and map none of
    it themselves.
    """

    base: Potential
    steps: int
    coupling: float = 0.0
    # set at construction: the base's support mapped into s (None if empty)
    _window: Optional[tuple[float, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.steps, int) or self.steps < 1:
            raise DomainError(f"steps must be a positive integer, got {self.steps!r}")
        k, window = self.steps, self.base.support()
        if window is not None:  # inf maps to inf
            window = (safe_iterated_log(window[0], k), safe_iterated_log(window[1], k))
        object.__setattr__(self, "_window", window)

    def __call__(self, s):
        """W(s) for a float, or elementwise for an ndarray of s."""
        return call_on_array(self._evaluate_array, s)

    def negative_interval(self, threshold: float) -> tuple[float, float]:
        """The image in s of the base's negative support clipped to
        r > threshold; empty (lo >= hi) where there is none."""
        ns = self.base.negative_support()
        lo, hi = (0.0, 0.0) if ns is None else (max(ns[0], threshold), ns[1])
        return safe_iterated_log(lo, self.steps), safe_iterated_log(hi, self.steps)

    def kinks(self, couplings=()) -> list[float]:
        """The images in s of the base's breakpoints, unreachable ones dropped,
        in increasing order; then the finite images of the crossings of
        L/r^2 + base for each coupling L > 0 given, where the negative part of
        W + L C(s) kinks."""
        out = sorted(self.base.breakpoints())
        for _ in range(self.steps):  # a point that a log meets at or below 0 has no image
            if out and (out[0] <= 0.0 or out[-1] == math.inf):  # the log keeps the order
                out = [p for p in out if 0.0 < p < math.inf]
            out = list(map(math.log, out))
        for x in _centrifugal_crossings(self.base, couplings) if couplings else ():
            if math.isfinite(s := safe_iterated_log(x, self.steps)):
                out.append(s)
        return out

    def zeros(self) -> list[tuple[float, int]]:
        """(s, side) for the image s of each of the base's ``zeros``, where W
        returns continuously to 0 from the side where W < 0, unreachable ones
        dropped: a tabulated base's zero samples and sign changes.  Empty with
        a coupling, whose term moves the zeros."""
        if self.coupling != 0.0:
            return []
        return [(s, side) for x, side in self.base.zeros()
                if math.isfinite(s := safe_iterated_log(x, self.steps))]

    def exterior(self) -> Optional[tuple[float, float, float]]:
        """(a, b, w) with W exactly w outside the open interval (a, b) of s;
        None with a coupling past one step.  w is the coupling L, which W adds
        as it is at one step (0.0 without one)."""
        if self.coupling != 0.0 and self.steps > 1:
            return None
        a, b = self._window or (0.0, 0.0)
        return a, b, float(self.coupling)

    def _evaluate_array(self, s: np.ndarray) -> np.ndarray:
        out = self._base_array(s)
        if self.coupling != 0.0:  # C(s) = 1 at one step: add L itself
            out += self.coupling if self.steps == 1 else _transformed_form(
                s, self.steps, -self.coupling, -2.0, 0.0)
        return out

    def _base_array(self, s: np.ndarray) -> np.ndarray:
        out = np.zeros(s.shape)
        if self._window is None:
            return out
        inside = (s > self._window[0]) & (s < self._window[1])
        s_in = s[inside]
        if (form := self.base.power_log_form()) is not None:
            out[inside] = _transformed_form(s_in, self.steps, form.c, form.p, form.q)
        else:
            out[inside] = self._tower_array(s_in)
        return out

    def _tower_array(self, s: np.ndarray) -> np.ndarray:
        """The base read on the tower exp^(steps) s, times the Jacobian."""
        with np.errstate(over="ignore"):
            expo, y = _exp_tower(s, self.steps)
        tower_over = np.isinf(y)
        if np.count_nonzero(tower_over):
            raise _overflow_error(s.flat[np.argmax(tower_over)])
        v = self.base.evaluate_array(y)
        # v e^expo at once where no value can pass e^700, else in log space
        big = math.log(max(np.max(np.abs(v), initial=0.0), 1.0))
        if np.max(expo, initial=-math.inf) + big <= _EXP_MAX:
            return v * np.exp(expo)
        nz = v != 0.0
        expo[nz] += np.log(np.abs(v[nz]))
        return np.where(nz, _signed_exp(s, expo, np.sign(v)), 0.0)


def transform_potential(V: Potential, k: int) -> TransformedPotential:
    """k-fold log change of variables applied to V (k >= 1)."""
    return TransformedPotential(base=V, steps=k)


# --------------------------------------------------------------------------
# the negative tail: hypothesis check and integrability
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedBelowCheck:
    passed: bool
    reason: str


def check_bounded_below_weighted(
    V: Potential, n: int
) -> tuple[BoundedBelowCheck, Optional[str]]:
    """The two facts the bounds read off V's negative tail -c r^p (ln r)^q:

    * whether x^2 (ln x)^2 ... (ln^(n) x)^2 V stays bounded below.  On the
      tail it behaves like -c x^(p+2) (ln x)^(q+2) (ln^(2) x)^2 ..., so it
      does exactly when p < -2, or when p = -2, q = 0 and n = 0;
    * the note why |V_-| times the x log weights of the bounds has a
      divergent integral, or None: it converges exactly when p < -2.

    A negative support that is empty or bounded has no tail, and passes both;
    every family is bounded on a bounded support.  An unbounded one without a
    power-log form fails both as undecided.  No potential is evaluated, and
    no domain threshold enters, as a tail runs past every threshold."""
    ns = V.negative_support()
    if ns is None or math.isfinite(ns[1]):
        return BoundedBelowCheck(True, "no negative tail"), None
    if (form := V.power_log_form()) is None:
        return (BoundedBelowCheck(False, "undecided, the negative tail has no power-log form"),
                "potential with unbounded negative support; tail decay unknown")
    p, q = form.p, form.q
    tail = f"tail r^{p:g}" + (f" (ln r)^{q:g}" if q else "")
    if p < -2.0:
        return BoundedBelowCheck(True, f"{tail}: the weighted potential tends to 0"), None
    if (p, q) == (-2.0, 0.0):
        note = "inverse-square tail makes the weighted integral diverge"
    else:
        note = f"power-law tail r^{p} makes the weighted integral diverge"
    if (p, q, n) == (-2.0, 0.0, 0):
        return BoundedBelowCheck(True, f"{tail}: the weighted potential tends to -c"), note
    return BoundedBelowCheck(False, f"{tail} makes the weighted potential unbounded below"), note
