"""Potential families, their negative parts, and their images under the
iterated log change of variables.

All families evaluate pointwise on r > 0 (square wells also accept r <= 0 so
they can live on the whole line).  Calling a potential on an ndarray
evaluates it elementwise with numpy, with the formula and the errors of its
scalar ``evaluate``; quadrature keeps to the scalar path.  A k-step
transform turns V into the s-coordinate potential

    W(s) = e^{2s} e^{2 e^s} ... e^{2 exp^(k-1) s} * V(exp^(k) s),

which is what the flat 1-d operator -d^2/ds^2 + W sees after the Hardy stack
has been absorbed.  Evaluation accumulates the exponential prefactor as a
log magnitude so compactly supported wells never overflow.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, DepthCapError
from .iterfun import (
    DEPTH_CAP,
    DomainThreshold,
    iterated_exp,
    safe_iterated_log,
    squared_log_weight,
)

_EXP_MAX = 700.0  # exp() stays finite below this
_POSITIVE_WALL = 1e300  # stand-in for astronomically large positive values
SAMPLED_RANGE_NOTE = "tabulated potential: integral restricted to the sampled range"


class Potential:
    """Base class: a real potential on a radial or line domain."""

    family = "abstract"
    central = True

    def evaluate(self, r: float) -> float:
        raise NotImplementedError

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        """``evaluate`` elementwise; families override it with numpy."""
        flat = r.ravel().tolist()
        return np.fromiter(map(self.evaluate, flat), dtype=float, count=len(flat)).reshape(r.shape)

    def __call__(self, r):
        """V(r) for a float, or elementwise for an ndarray of r."""
        if np.ndim(r) == 0:
            return self.evaluate(r)
        return self.evaluate_array(np.asarray(r, dtype=float))

    def support(self) -> Optional[tuple[float, float]]:
        """Interval outside which the potential vanishes (None = empty)."""
        return None

    def negative_support(self) -> Optional[tuple[float, float]]:
        """Interval containing {r : V(r) < 0} (None = V >= 0 everywhere)."""
        return None

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the potential jumps or kinks."""
        return ()

    def sampled_range(self) -> Optional[tuple[float, float]]:
        """Interval of the samples of a tabulated V (None = defined for every
        r > 0).  Outside it ``evaluate`` raises; the bounds take V as 0 there."""
        return None

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class ZeroPotential(Potential):
    family = "zero"

    def evaluate(self, r: float) -> float:
        return 0.0


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

    def evaluate(self, r: float) -> float:
        return -self.c if self.a < r < self.b else 0.0

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        return np.where((self.a < r) & (r < self.b), -self.c, 0.0)

    def support(self):
        return (self.a, self.b)

    def negative_support(self):
        return (self.a, self.b)

    def breakpoints(self):
        return (self.a, self.b)

    def params(self):
        return {"c": self.c, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class InverseSquareTail(Potential):
    """V = -c/r^2 for r >= a, zero before the onset."""

    family = "inverse_square"
    c: float
    a: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise DomainError(f"inverse-square coefficient must be positive, got {self.c}")
        if self.a < 0.0:
            raise DomainError(f"onset must be >= 0, got {self.a}")

    def evaluate(self, r: float) -> float:
        if r <= 0.0:
            raise DomainError(f"inverse-square tail needs r > 0, got {r}")
        return -self.c / (r * r) if r >= self.a else 0.0

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        _require_positive(r, "inverse-square tail")
        out = np.zeros(r.shape)
        on = r >= self.a
        out[on] = -self.c / (r[on] * r[on])
        return out

    def support(self):
        return (self.a, math.inf)

    def negative_support(self):
        return (self.a, math.inf)

    def breakpoints(self):
        return (self.a,) if self.a > 0.0 else ()

    def params(self):
        return {"c": self.c, "a": self.a}


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

    def evaluate(self, r: float) -> float:
        if r <= 0.0:
            raise DomainError(f"power-log well needs r > 0, got {r}")
        if not (self.a < r < self.b):
            return 0.0
        v = self.c * r**self.p
        if self.q != 0.0:
            v *= math.log(r) ** self.q
        return -v

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        _require_positive(r, "power-log well")
        out = np.zeros(r.shape)
        inside = (self.a < r) & (r < self.b)
        x = r[inside]
        # float ** raises OverflowError where a product only goes to inf
        with np.errstate(over="ignore"):
            rp = _checked_pow(x, self.p)
            v = self.c * rp
            if self.q != 0.0:
                v *= _checked_pow(np.log(x), self.q)
        out[inside] = -v
        return out

    def support(self):
        return (self.a, self.b)

    def negative_support(self):
        return (self.a, self.b) if self.c > 0.0 else None

    def breakpoints(self):
        return (self.a,) if math.isinf(self.b) else (self.a, self.b)

    def params(self):
        return {"c": self.c, "p": self.p, "q": self.q, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class TabulatedPotential(Potential):
    """Sample points with linear interpolation; evaluation outside the sampled
    range is a domain error."""

    family = "tabulated"
    r: tuple[float, ...]
    v: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(x) for x in self.r))
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        if len(self.r) < 2 or len(self.r) != len(self.v):
            raise DomainError("tabulated potential needs >= 2 matched samples")
        if self.r[0] <= 0.0:
            raise DomainError("tabulated sample points must be positive")
        if any(x >= y for x, y in zip(self.r, self.r[1:])):
            raise DomainError("tabulated sample points must be strictly increasing")

    def evaluate(self, r: float) -> float:
        if r < self.r[0] or r > self.r[-1]:
            raise DomainError(
                f"tabulated potential defined on [{self.r[0]}, {self.r[-1]}], got r={r}"
            )
        i = bisect.bisect_right(self.r, r) - 1
        if i == len(self.r) - 1:
            return self.v[-1]
        t = (r - self.r[i]) / (self.r[i + 1] - self.r[i])
        return self.v[i] * (1.0 - t) + self.v[i + 1] * t

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        rs, vs = np.array(self.r), np.array(self.v)
        outside = (r < rs[0]) | (r > rs[-1])
        if outside.any():
            raise DomainError(
                f"tabulated potential defined on [{self.r[0]}, {self.r[-1]}], "
                f"got r={float(r[outside][0])}"
            )
        # at r = r[-1] the last interval gives t = 1 and the value v[-1] exactly
        i = np.minimum(np.searchsorted(rs, r, side="right") - 1, len(rs) - 2)
        t = (r - rs[i]) / (rs[i + 1] - rs[i])
        return vs[i] * (1.0 - t) + vs[i + 1] * t

    def support(self):
        return (self.r[0], self.r[-1])

    def negative_support(self):
        if all(x >= 0.0 for x in self.v):
            return None
        return (self.r[0], self.r[-1])

    def breakpoints(self):
        return self.r

    def sampled_range(self):
        return (self.r[0], self.r[-1])

    def params(self):
        return {"r": list(self.r), "v": list(self.v)}


@dataclass(frozen=True)
class CentrifugalShift(Potential):
    """l(l+d-2)/r^2 + base(r): the effective radial potential of channel l."""

    family = "effective_radial"
    base: Potential
    l: int
    d: int

    def __post_init__(self):
        if not isinstance(self.l, int) or self.l < 0:
            raise DomainError(f"channel index must be a non-negative integer, got {self.l!r}")
        if self.l > 0 and self.d < 2:
            raise DomainError("centrifugal term needs d >= 2")
        if isinstance(self.base, CentrifugalShift):
            raise DomainError("refusing to stack centrifugal terms")
        if not self.base.central:
            raise DomainError("effective radial potential needs a central base")

    @property
    def coupling(self) -> float:
        return float(self.l * (self.l + self.d - 2))

    def evaluate(self, r: float) -> float:
        if r <= 0.0:
            raise DomainError(f"effective radial potential needs r > 0, got {r}")
        return self.coupling / (r * r) + self.base.evaluate(r)

    def evaluate_array(self, r: np.ndarray) -> np.ndarray:
        _require_positive(r, "effective radial potential")
        return self.coupling / (r * r) + self.base.evaluate_array(r)

    def support(self):
        if self.coupling == 0.0:
            return self.base.support()
        return (0.0, math.inf)

    def negative_support(self):
        L = self.coupling
        if L == 0.0:
            return self.base.negative_support()
        base = self.base
        if isinstance(base, SquareWell):
            lo = max(base.a, math.sqrt(L / base.c))
            return (lo, base.b) if lo < base.b else None
        if isinstance(base, InverseSquareTail):
            return (base.a, math.inf) if base.c > L else None
        # conservative: the positive part of -V_eff vanishes automatically
        # outside the true region, so over-covering is harmless
        return base.negative_support()

    def breakpoints(self):
        pts = list(self.base.breakpoints())
        L, base = self.coupling, self.base
        # where L/r^2 + V changes sign, its positive part has a kink
        cross = None
        if L > 0.0 and isinstance(base, SquareWell):
            cross = math.sqrt(L / base.c)
        elif (L > 0.0 and isinstance(base, PowerLogWell) and base.q == 0.0
              and base.p != -2.0 and base.c > 0.0):
            # c r^(p+2) = L, solved in logs: the power overflows for p near -2
            log_cross = math.log(L / base.c) / (base.p + 2.0)
            if math.log(base.a) < log_cross < min(math.log(base.b), _EXP_MAX):
                cross = math.exp(log_cross)
        if cross is not None and base.a < cross < base.b:
            pts.append(cross)
        return tuple(sorted(pts))

    def sampled_range(self):
        return self.base.sampled_range()

    def params(self):
        return {"l": self.l, "d": self.d, "base": describe_potential(self.base)}


def _require_positive(r: np.ndarray, what: str) -> None:
    bad = r <= 0.0
    if bad.any():
        raise DomainError(f"{what} needs r > 0, got {float(r[bad][0])}")


def _checked_pow(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p, raising OverflowError where a finite x overflows, as float ** does."""
    out = x**p
    over = np.isinf(out) & np.isfinite(x)
    if over.any():
        raise OverflowError(f"{float(x[over][0])} ** {p}: numerical result out of range")
    return out


def eval_potential(V: Potential, r: float) -> float:
    """V(r)."""
    return V.evaluate(r)


def negative_part_abs(V: Potential, r: float) -> float:
    """|V(r)_-| = max(-V(r), 0)."""
    return max(-V.evaluate(r), 0.0)


def effective_radial_potential(V: Potential, l: int, d: int) -> Potential:
    """r -> l(l+d-2)/r^2 + V(r); the l = 0 channel returns V unchanged."""
    if not isinstance(l, int) or l < 0:
        raise DomainError(f"channel index must be a non-negative integer, got {l!r}")
    if l == 0:
        return V
    return CentrifugalShift(base=V, l=l, d=d)


def describe_potential(V: Potential) -> dict:
    return {"family": V.family, **V.params()}


_FAMILIES = {
    "zero": (ZeroPotential, ()),
    "square_well": (SquareWell, ("c", "a", "b")),
    "inverse_square": (InverseSquareTail, ("c", "a")),
    "power_log_well": (PowerLogWell, ("c", "p", "q", "a", "b")),
    "tabulated": (TabulatedPotential, ("r", "v")),
}


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
    if family == "tabulated":
        return cls(r=tuple(params["r"]), v=tuple(params["v"]))
    return cls(**{k: params[k] for k in keys}) if keys else cls()


# --------------------------------------------------------------------------
# transformation
# --------------------------------------------------------------------------

def _exp_prefactor_exponent(s: float, terms: int) -> float:
    """2 * (s + e^s + ... + exp^(terms-1) s); the log of the stacked Jacobian."""
    total = 0.0
    cur = s
    for _ in range(terms):
        total += cur
        cur = math.exp(cur) if cur < _EXP_MAX else math.inf
        if math.isinf(total):
            break
    return 2.0 * total


def _exp_prefactor_exponent_array(s: np.ndarray, terms: int) -> np.ndarray:
    """``_exp_prefactor_exponent`` elementwise, with the same cut-off at _EXP_MAX."""
    total = np.zeros(s.shape)
    cur = s
    for _ in range(terms):
        total = total + cur
        cur = np.where(cur < _EXP_MAX, np.exp(np.minimum(cur, _EXP_MAX)), np.inf)
    return 2.0 * total


def _overflow_error(s) -> OverflowError:
    return OverflowError(f"transformed potential value at s={s} exceeds the double range")


@dataclass(frozen=True)
class TransformedPotential:
    """Image of ``base`` under ``steps`` applications of the log change of
    variables, plus an additive constant:

        W(s) = e^{2s} ... e^{2 exp^(steps-1) s} * base(exp^(steps) s) + extra_constant

    Calling it on an ndarray of s evaluates W elementwise; the base potential
    is then called once, on the ndarray of points inside its mapped support.
    A centrifugal term l(l+d-2)/r^2 and an inverse-square tail -c/r^2 are
    applied in telescoped form, c * e^{2s} ... e^{2 exp^(steps-2) s}, so they
    never overflow through exp^(steps) s.
    """

    base: Potential
    steps: int
    extra_constant: float = 0.0
    # set at construction: the centrifugal coupling split off the base, the
    # potential it shifts, and that potential's support mapped into s (the
    # onset for an inverse-square tail; None for an empty support)
    _coupling: float = field(init=False, repr=False, compare=False)
    _core: Potential = field(init=False, repr=False, compare=False)
    _window: Optional[tuple[float, float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.steps, int) or self.steps < 1:
            raise DomainError(f"steps must be a positive integer, got {self.steps!r}")
        if self.steps > DEPTH_CAP:
            raise DepthCapError(
                f"transform depth {self.steps} exceeds the cap {DEPTH_CAP}"
            )
        core, coupling = self.base, 0.0
        if isinstance(core, CentrifugalShift):
            core, coupling = core.base, core.coupling
        if core.sampled_range() is not None:
            # no zero extension: outside the sampled range the value is undefined
            window = (-math.inf, math.inf)
        else:
            supp = core.support()
            window = None if supp is None else (
                safe_iterated_log(supp[0], self.steps),
                safe_iterated_log(supp[1], self.steps),  # inf maps to inf
            )
        object.__setattr__(self, "_coupling", coupling)
        object.__setattr__(self, "_core", core)
        object.__setattr__(self, "_window", window)

    def evaluate(self, s: float) -> float:
        out = self._core_value(s)
        if self._coupling > 0.0:
            # l(l+d-2)/y^2 telescopes: c * e^{2s} ... e^{2 exp^(k-2) s}
            expo = math.log(self._coupling) + _exp_prefactor_exponent(s, self.steps - 1)
            out += _POSITIVE_WALL if expo > _EXP_MAX else math.exp(expo)
        return out + self.extra_constant

    def __call__(self, s):
        """W(s) for a float, or elementwise for an ndarray of s."""
        if np.ndim(s) == 0:
            return self.evaluate(s)
        s = np.asarray(s, dtype=float)
        out = self._core_array(s)
        if self._coupling > 0.0:
            expo = math.log(self._coupling) + _exp_prefactor_exponent_array(s, self.steps - 1)
            out += np.where(expo > _EXP_MAX, _POSITIVE_WALL, np.exp(np.minimum(expo, _EXP_MAX)))
        return out + self.extra_constant

    def _core_value(self, s: float) -> float:
        if self._window is None:
            return 0.0
        V, k = self._core, self.steps
        lo_s, hi_s = self._window
        if isinstance(V, InverseSquareTail):
            # -c/y^2 telescopes like the centrifugal term, active for y >= onset
            if s < lo_s:
                return 0.0
            expo = math.log(V.c) + _exp_prefactor_exponent(s, k - 1)
            if expo > _EXP_MAX:
                raise _overflow_error(s)
            return -math.exp(expo)
        if s <= lo_s or s >= hi_s:
            return 0.0
        v = V.evaluate(iterated_exp(s, k))
        if v == 0.0:
            return 0.0
        expo = _exp_prefactor_exponent(s, k) + math.log(abs(v))
        if expo > _EXP_MAX:
            if v > 0.0:
                return _POSITIVE_WALL
            raise _overflow_error(s)
        return math.copysign(math.exp(expo), v)

    def _core_array(self, s: np.ndarray) -> np.ndarray:
        out = np.zeros(s.shape)
        if self._window is None:
            return out
        V, k = self._core, self.steps
        lo_s, hi_s = self._window
        if isinstance(V, InverseSquareTail):
            on = s >= lo_s
            expo = math.log(V.c) + _exp_prefactor_exponent_array(s[on], k - 1)
            over = expo > _EXP_MAX
            if over.any():
                raise _overflow_error(s[on][np.argmax(over)])
            out[on] = -np.exp(expo)
            return out
        inside = (s > lo_s) & (s < hi_s)
        s_in = s[inside]
        # the tower that feeds V uses math.exp, as ``evaluate`` does, so V sees
        # the same argument on both paths: an ulp of np.exp can move a point
        # across a jump of V, or through the ill-conditioned (ln y)^q near y = 1
        y = s_in.tolist()
        for _ in range(k):
            y = list(map(math.exp, y))  # OverflowError past the double range
        v = V(np.array(y))
        nz = v != 0.0
        expo = _exp_prefactor_exponent_array(s_in, k)
        expo[nz] += np.log(np.abs(v[nz]))
        over = nz & (expo > _EXP_MAX)
        neg_over = over & (v < 0.0)
        if neg_over.any():
            raise _overflow_error(s_in[np.argmax(neg_over)])
        w = np.copysign(np.exp(np.minimum(expo, _EXP_MAX)), v)
        out[inside] = np.where(over, _POSITIVE_WALL, np.where(nz, w, 0.0))
        return out


def transform_potential(V: Potential, k: int, extra_constant: float = 0.0) -> TransformedPotential:
    """k-fold log change of variables applied to V (1 <= k <= depth cap)."""
    return TransformedPotential(base=V, steps=k, extra_constant=extra_constant)


def transformed_breakpoints(V: Potential, k: int) -> tuple[float, ...]:
    """Images of V's breakpoints under s = ln^(k) r, dropping unreachable ones."""
    out = []
    for p in V.breakpoints():
        q = safe_iterated_log(p, k)
        if math.isfinite(q):
            out.append(q)
    return tuple(sorted(out))


# --------------------------------------------------------------------------
# hypothesis check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedBelowCheck:
    passed: bool
    witness: Optional[float]
    sampled_min: float
    samples: int


def check_bounded_below_weighted(
    V: Potential,
    n: int,
    domain: DomainThreshold,
    samples: int = 2000,
) -> BoundedBelowCheck:
    """Heuristic test that x^2 (ln x)^2 ... (ln^(n) x)^2 V(x) stays bounded
    below on (threshold, infinity).

    Samples the weighted value on a log-spaced grid up to a horizon and flags
    a downward divergence when the tail keeps sinking well below the mid-range
    values.  A flag is a warning, not a proof; see the failing point in
    ``witness``.
    """
    if samples < 100:
        raise DomainError(f"need at least 100 samples, got {samples}")
    lo = max(domain.value * (1.0 + 1e-12), 1e-6)
    hi = max(1e6, 1e4 * lo)
    supp = V.support()
    if supp is not None and math.isfinite(supp[1]):
        hi = max(hi, 10.0 * supp[1])
    rng = V.sampled_range()
    if rng is not None:
        lo = max(lo, rng[0])
        hi = min(hi, rng[1])
        if not lo < hi:
            # the samples end below the domain: there is nothing to check
            return BoundedBelowCheck(passed=True, witness=None, sampled_min=0.0, samples=0)

    xs = np.geomspace(lo, hi, samples)
    w = squared_log_weight(xs, n) * V(xs)

    scale = max(1.0, float(np.max(np.abs(w))))
    tail = w[int(0.9 * samples):]
    mid = w[int(0.45 * samples):int(0.55 * samples)]
    w_tail = float(tail.min())
    w_mid = float(mid.min())
    diverging = w_tail < -1e-9 * scale and (w_mid >= 0.0 or w_tail <= 2.0 * w_mid)
    idx = int(np.argmin(w))
    witness = float(xs[idx]) if diverging else None
    return BoundedBelowCheck(
        passed=not diverging,
        witness=witness,
        sampled_min=float(w.min()),
        samples=samples,
    )
