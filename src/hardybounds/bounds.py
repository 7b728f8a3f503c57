"""Evaluators for the eigenvalue-count bounds.

Three families:

* line / half-line weighted bounds for the 1-d iterated-log Hardy operator,
  N <= [1 +] int |V_-| x |ln x| ... |ln^(n+1) x| dx over (threshold, inf);
* CLR-type bounds for d >= 3,
  N <= C_d * int ( hardy-improvement - V )_+^{d/2} * log-power weights dx,
  with threshold exp^(n+2)(0) or exp^(n+2)(1);
* partial-wave bounds for central potentials,
  N <= sum_{l<=l_max} D(d,l) ([1 +] I_l),
  I_l the weighted integral of the negative part of the channel-l effective
  radial potential.

Bounds are real numbers; comparisons against integer counts use floor(raw).
A bound whose integrand has a non-integrable tail is reported as +inf with
integer_cap None (the inequality is then vacuous but still true).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .iterfun import (
    DomainThreshold,
    degeneracy,
    iterated_exp,
    sphere_area,
    squared_log_weight,
)
from .potentials import (
    CentrifugalShift,
    InverseSquareTail,
    Potential,
    SAMPLED_RANGE_NOTE,
    PowerLogWell,
    SquareWell,
    check_bounded_below_weighted,
    effective_radial_potential,
    negative_part_abs,
)
from .quadrature import QuadResult, QuadratureError, integrate, integrate_semiinfinite


@dataclass(frozen=True)
class OperatorSpec:
    """The operator H_{d,n}: dimension, log depth, and domain threshold.

    ``threshold_depth`` defaults to n (line and partial-wave bounds); the
    CLR-type bounds live on domains with threshold depth n + 2.
    """

    d: int
    n: int
    variant: str
    threshold_depth: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise DomainError(f"dimension must be an integer >= 1, got {self.d!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise DomainError(f"log depth must be a non-negative integer, got {self.n!r}")
        if self.threshold_depth is None:
            object.__setattr__(self, "threshold_depth", self.n)
        # constructing the threshold validates depth and variant
        object.__setattr__(
            self, "_threshold", DomainThreshold(self.threshold_depth, self.variant)
        )

    @property
    def threshold(self) -> DomainThreshold:
        return self._threshold  # type: ignore[attr-defined]

    @classmethod
    def for_line_bound(cls, n: int, variant: str) -> "OperatorSpec":
        return cls(d=1, n=n, variant=variant)

    @classmethod
    def for_central_bound(cls, d: int, n: int, variant: str) -> "OperatorSpec":
        return cls(d=d, n=n, variant=variant)

    @classmethod
    def for_clr_bound(cls, d: int, n: int, variant: str) -> "OperatorSpec":
        return cls(d=d, n=n, variant=variant, threshold_depth=n + 2)


@dataclass(frozen=True)
class BoundConstants:
    """CLR constants C_d.  Only d = 3 has a pinned literature value here;
    the entries for 4 <= d <= 7 are configurable placeholders."""

    values: dict = field(
        default_factory=lambda: {3: 0.1156, 4: 0.1156, 5: 0.1156, 6: 0.1156, 7: 0.1156}
    )
    source: str = (
        "C_3 = 0.1156 (Lieb); entries for d in [4, 7] are placeholders equal to "
        "C_3, not literature values"
    )

    def get(self, d: int) -> float:
        try:
            c = self.values[d]
        except KeyError:
            raise DomainError(f"no CLR constant configured for d = {d}") from None
        if c <= 0.0:
            raise DomainError(f"CLR constant for d = {d} must be positive, got {c}")
        return float(c)


DEFAULT_CLR_CONSTANTS = BoundConstants()


@dataclass(frozen=True)
class QuadDiagnostics:
    error_estimate: float = 0.0
    evaluations: int = 0
    warnings: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ChannelTerm:
    l: int
    degeneracy: int
    integral: float
    error_estimate: float


@dataclass(frozen=True)
class BoundValue:
    """A bound on the negative-eigenvalue count: the real value and its floor.

    ``integer_cap`` is None when raw = +inf (vacuous bound)."""

    raw: float
    integer_cap: Optional[int]
    diagnostics: QuadDiagnostics
    channels: tuple[ChannelTerm, ...] = ()

    @classmethod
    def build(cls, raw, diagnostics, channels=()):
        cap = None if math.isinf(raw) else int(math.floor(raw))
        return cls(raw=raw, integer_cap=cap, diagnostics=diagnostics, channels=channels)


def absolute_log_weight(x: float, n: int) -> float:
    """x |ln x| |ln^(2) x| ... |ln^(n+1) x| for x above exp^(n)(0)."""
    if x <= 0.0:
        raise DomainError(f"weight requires x > 0, got {x}")
    w = x
    cur = x
    for k in range(n + 1):
        if cur <= 0.0:
            raise DomainError(
                f"absolute_log_weight({x}, {n}): log #{k + 1} undefined; "
                f"x must exceed exp^({n})(0)"
            )
        cur = math.log(cur)
        w *= abs(cur)
    return w


def _log_kinks(n: int, lo: float, hi: float) -> list[float]:
    """Zeros of |ln^(k) x| factors (x = exp^(k-1) 1) inside (lo, hi)."""
    pts = []
    for k in range(n + 2):
        try:
            p = iterated_exp(1.0, k)  # 1, e, e^e, ...
        except OverflowError:
            break
        if lo < p < hi:
            pts.append(p)
        if p > hi:
            break
    return pts


def _tail_is_integrable(V: Potential) -> tuple[bool, Optional[str]]:
    """Whether |V_-| times any of the x * log-power weights has an integrable
    tail.  The threshold power is x^(-2): decay strictly faster converges,
    anything at or above it diverges regardless of the log factors."""
    ns = V.negative_support()
    if ns is None or math.isfinite(ns[1]):
        return True, None
    if isinstance(V, InverseSquareTail):
        return False, "inverse-square tail makes the weighted integral diverge"
    if isinstance(V, PowerLogWell):
        if V.p < -2.0:
            return True, None
        return False, f"power-law tail r^{V.p} makes the weighted integral diverge"
    if isinstance(V, CentrifugalShift):
        return _tail_is_integrable(V.base)
    return False, "potential with unbounded negative support; tail decay unknown"


def _weighted_negpart_quad(
    V: Potential,
    n: int,
    threshold: float,
    tol: float,
    weight=absolute_log_weight,
) -> tuple[QuadResult, list[str]]:
    """int_threshold^inf |V_-(x)| * weight(x, n) dx with support clipping."""
    notes: list[str] = []
    ns = V.negative_support()
    if ns is None:
        return QuadResult(0.0, 0.0, 0), notes
    lo = max(ns[0], threshold)
    hi = ns[1]
    if hi <= lo:
        return QuadResult(0.0, 0.0, 0), notes

    def f(x: float) -> float:
        vneg = negative_part_abs(V, x)
        return 0.0 if vneg == 0.0 else vneg * weight(x, n)

    pts = [p for p in V.breakpoints() if lo < p < hi]
    if math.isfinite(hi):
        pts += _log_kinks(n, lo, hi)
        if V.sampled_range() is not None:
            notes.append(SAMPLED_RANGE_NOTE)
        return integrate(f, lo, hi, tol=tol, breakpoints=pts), notes
    pts += _log_kinks(n, lo, lo + 1e6)
    return integrate_semiinfinite(f, lo, tol=tol, breakpoints=pts), notes


def _line_weight(x: float, _n: int) -> float:
    return abs(x)


def bargmann_line_bound(V: Potential, tol: float = 1e-10) -> BoundValue:
    """1 + int_{-inf}^{inf} |V(x)_-| |x| dx for the flat operator on the line."""
    ok, why = _tail_is_integrable(V)
    if not ok:
        return BoundValue.build(math.inf, QuadDiagnostics(notes=(why,)))
    ns = V.negative_support()
    if ns is None:
        return BoundValue.build(1.0, QuadDiagnostics())
    lo, hi = ns
    pts = [p for p in list(V.breakpoints()) + [0.0] if lo < p < hi]
    quad = integrate(
        lambda x: negative_part_abs(V, x) * abs(x), lo, hi, tol=tol, breakpoints=pts
    )
    diag = QuadDiagnostics(error_estimate=quad.error_estimate, evaluations=quad.evaluations)
    return BoundValue.build(1.0 + quad.value, diag)


def bargmann_halfline_bound(V: Potential, tol: float = 1e-10) -> BoundValue:
    """int_0^inf |V(x)_-| x dx for the flat Dirichlet operator on (0, inf)."""
    ok, why = _tail_is_integrable(V)
    if not ok:
        return BoundValue.build(math.inf, QuadDiagnostics(notes=(why,)))
    quad, notes = _weighted_negpart_quad(V, 0, 0.0, tol, weight=_line_weight)
    diag = QuadDiagnostics(quad.error_estimate, quad.evaluations, notes=tuple(notes))
    return BoundValue.build(quad.value, diag)


def bound_1d(V: Potential, spec: OperatorSpec, tol: float = 1e-10) -> BoundValue:
    """Weighted bound for the 1-d iterated-log Hardy operator.

    Variant "zero" (threshold exp^(n) 0) carries an additive 1; variant "one"
    (threshold exp^(n) 1) does not.  A failed boundedness-below check is
    reported as a warning, not an error.
    """
    if spec.d != 1:
        raise DomainError(f"bound_1d needs d = 1, got d = {spec.d}")
    if spec.threshold_depth != spec.n:
        raise DomainError("bound_1d needs a threshold of depth n")
    warnings = []
    hyp = check_bounded_below_weighted(V, spec.n, spec.threshold)
    if not hyp.passed:
        warnings.append(
            f"weighted potential may be unbounded below (sampled minimum "
            f"{hyp.sampled_min:.3e} near x = {hyp.witness:.6g})"
        )
    ok, why = _tail_is_integrable(V)
    if not ok:
        return BoundValue.build(
            math.inf, QuadDiagnostics(warnings=tuple(warnings), notes=(why,))
        )
    quad, notes = _weighted_negpart_quad(V, spec.n, spec.threshold.value, tol)
    base = 1.0 if spec.variant == "zero" else 0.0
    diag = QuadDiagnostics(
        quad.error_estimate, quad.evaluations, tuple(warnings), tuple(notes)
    )
    return BoundValue.build(base + quad.value, diag)


def l_max(V: Potential, d: int, domain: DomainThreshold) -> Optional[int]:
    """Largest l >= 0 whose effective radial potential still dips negative on
    the domain, i.e. the largest l with l(l+d-2) < sup r^2 (-V(r))_+.

    None when the supremum is 0 (every channel bound is then 0).  An infinite
    supremum (every channel dips negative) raises EvaluationError.
    """
    if d < 2:
        raise DomainError(f"l_max needs d >= 2, got {d}")
    S = _sup_r2_negative_part(V, domain.value)
    if S <= 0.0:
        return None
    if math.isinf(S):
        raise EvaluationError(
            "sup r^2 |V_-| is infinite: every angular channel has a negative part"
        )
    # l(l+c) < S  <=>  l(l+c) <= M = ceil(S) - 1  <=>  (2l+c)^2 <= 4M + c^2
    c = d - 2
    M = math.ceil(S) - 1
    return (math.isqrt(4 * M + c * c) - c) // 2


def _sup_r2_negative_part(V: Potential, threshold: float) -> float:
    """sup over (threshold, inf) of r^2 max(-V(r), 0).

    Closed forms for the monotone families; otherwise log-spaced sampling with
    golden-section refinement (heuristic for wild potentials).
    """
    ns = V.negative_support()
    if ns is None:
        return 0.0
    lo = max(ns[0], threshold)
    hi = ns[1]
    if hi <= lo:
        return 0.0
    if isinstance(V, SquareWell):
        return V.c * hi * hi
    if isinstance(V, InverseSquareTail):
        return V.c
    if isinstance(V, PowerLogWell) and V.c > 0.0 and V.p + 2.0 >= 0.0:
        # r^2 * c r^p (ln r)^q is non-decreasing on the support (a >= 1 when q > 0)
        if math.isinf(hi):
            return math.inf
        return V.c * hi ** (V.p + 2.0) * (math.log(hi) ** V.q if V.q else 1.0)

    if math.isinf(hi):
        hi = max(1e6, lo * 1e3)

    def g(r: float) -> float:
        return r * r * negative_part_abs(V, r)

    xs = np.geomspace(max(lo, 1e-12) * (1 + 1e-12), hi * (1 - 1e-12), 10_000)
    vals = xs * xs * np.maximum(-V(xs), 0.0)
    i = int(np.argmax(vals))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, len(xs) - 1)])
    return _golden_max(g, a, b)


def _golden_max(g, a: float, b: float, iters: int = 120) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = g(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = g(x1)
        if b - a <= 1e-13 * max(1.0, abs(a)):
            break
    return max(f1, f2)


def central_bound(V: Potential, spec: OperatorSpec, tol: float = 1e-10) -> BoundValue:
    """Partial-wave bound for a central potential:

        sum_{l=0}^{l_max} D(d,l) * ([1 +] I_l),
        I_l = int_threshold^inf ( -l(l+d-2)/r^2 - V(r) )_+ x-log-weights dr,

    with the +1 present exactly on variant "zero" domains.  The empty sum
    (l_max undefined) is 0 for both variants.
    """
    if spec.d < 2:
        raise DomainError(f"central_bound needs d >= 2, got d = {spec.d}")
    if spec.threshold_depth != spec.n:
        raise DomainError("central_bound needs a threshold of depth n")
    if not V.central:
        raise DomainError("central_bound needs a central potential")

    warnings = []
    hyp = check_bounded_below_weighted(V, spec.n, spec.threshold)
    if not hyp.passed:
        warnings.append(
            f"weighted potential may be unbounded below (sampled minimum "
            f"{hyp.sampled_min:.3e} near r = {hyp.witness:.6g})"
        )
    # before l_max: a non-integrable tail can make sup r^2 |V_-| infinite
    ok, why = _tail_is_integrable(V)
    if not ok:
        return BoundValue.build(
            math.inf, QuadDiagnostics(warnings=tuple(warnings), notes=(why,))
        )
    lm = l_max(V, spec.d, spec.threshold)
    if lm is None:
        return BoundValue.build(0.0, QuadDiagnostics(warnings=tuple(warnings)))

    base = 1.0 if spec.variant == "zero" else 0.0
    channels = []
    notes: list[str] = []
    total = 0.0
    err = 0.0
    evals = 0
    for l in range(lm + 1):
        Veff = effective_radial_potential(V, l, spec.d)
        try:
            quad, ch_notes = _weighted_negpart_quad(
                Veff, spec.n, spec.threshold.value, tol
            )
        except QuadratureError as exc:
            raise QuadratureError(f"channel l = {l}: {exc}") from exc
        D = degeneracy(spec.d, l)
        channels.append(ChannelTerm(l, D, quad.value, quad.error_estimate))
        total += D * (base + quad.value)
        err += D * quad.error_estimate
        evals += quad.evaluations
        notes.extend(ch_notes)
    diag = QuadDiagnostics(err, evals, tuple(warnings), tuple(dict.fromkeys(notes)))
    return BoundValue.build(total, diag, tuple(channels))


def _log_power_weight(r: float, count: int, power: int) -> float:
    """(ln r)^power ... (ln^(count) r)^power; all factors must be positive."""
    w = 1.0
    cur = r
    for k in range(count):
        cur = math.log(cur)
        if cur <= 0.0:
            raise DomainError(
                f"log weight factor #{k + 1} is not positive at r = {r}; "
                "point lies below the domain threshold"
            )
        w *= cur**power
    return w


def clr_bound(
    V: Potential,
    spec: OperatorSpec,
    constants: BoundConstants = DEFAULT_CLR_CONSTANTS,
    tol: float = 1e-10,
    horizon: Optional[float] = None,
) -> BoundValue:
    """CLR-type bound for d >= 3 with central V, radialized to one dimension.

    Variant "zero" (threshold exp^(n+2) 0):
        C_d |S^(d-1)| int ( (d-1)(d-3) / (4 r^2 (ln r)^2 ... (ln^(n+1) r)^2) - V )_+^{d/2}
                          * (ln r)^{d-1} ... (ln^(n+1) r)^{d-1} r^{d-1} dr.

    Variant "one" (threshold exp^(n+2) 1): the numerator gains the
    -(ln^(n+2) r)^2 improvement and the weight stack extends to ln^(n+2).

    For d >= 4 the variant-"zero" integrand behaves like const / (r ln r ...)
    wherever V has died off, which is not integrable: the bound is then +inf
    (vacuous but true).  Pass ``horizon`` to integrate up to a finite radius
    instead, for illustration purposes; the truncation is recorded in the
    diagnostics and is a lower estimate of the true integral.

    A tabulated V is taken as 0 outside its samples.
    """
    if spec.d < 3:
        raise DomainError(f"clr_bound needs d >= 3, got d = {spec.d}")
    if spec.threshold_depth != spec.n + 2:
        raise DomainError("clr_bound needs a threshold of depth n + 2")
    if not V.central:
        raise DomainError("clr_bound needs a central potential")

    d, n = spec.d, spec.n
    coeff = float((d - 1) * (d - 3))
    th = spec.threshold.value
    Cd = constants.get(d)
    prefactor = Cd * sphere_area(d)
    notes: list[str] = []

    rng = V.sampled_range()
    if rng is None or coeff == 0.0:
        V_at = V.evaluate
    else:
        notes.append("tabulated potential: taken as 0 outside the sampled range")

        def V_at(r: float) -> float:
            return V.evaluate(r) if rng[0] <= r <= rng[1] else 0.0

    if spec.variant == "zero":
        logs = n + 1

        def positive_part(r: float) -> float:
            A = coeff / (4.0 * squared_log_weight(r, logs))
            return max(A - V_at(r), 0.0)

    else:
        logs = n + 2

        def positive_part(r: float) -> float:
            inner = math.log(r)
            for _ in range(n + 1):
                inner = math.log(inner)
            # inner = ln^(n+2) r, positive on the domain
            A = (coeff - inner * inner) / (4.0 * squared_log_weight(r, logs))
            return max(A - V_at(r), 0.0)

    def integrand(r: float) -> float:
        g = positive_part(r)
        if g == 0.0:
            return 0.0
        return g ** (d / 2.0) * _log_power_weight(r, logs, d - 1) * r ** (d - 1)

    # where does the integrand certainly vanish / certainly diverge?
    ns = V.negative_support()
    supp = V.support()
    supp_end = 0.0 if supp is None else supp[1]
    if ns is not None and math.isinf(ns[1]):
        return BoundValue.build(
            math.inf,
            QuadDiagnostics(notes=("negative tail extends to infinity; bound diverges",)),
        )

    if spec.variant == "zero":
        if coeff > 0.0 and horizon is None:
            return BoundValue.build(
                math.inf,
                QuadDiagnostics(
                    notes=(
                        "variant-zero integrand decays like 1/(r ln r ...) for d >= 4; "
                        "the bound is +inf",
                    )
                ),
            )
        hi = horizon if horizon is not None else supp_end
        if coeff > 0.0:
            notes.append(f"integral truncated at horizon r = {hi:g} (true value is +inf)")
    else:
        hi = supp_end
        if coeff > 0.0:
            # improvement term positive until ln^(n+2) r = sqrt((d-1)(d-3))
            r_star = iterated_exp(math.sqrt(coeff), n + 2)
            hi = max(hi, r_star)
        if horizon is not None:
            hi = min(hi, horizon)
            notes.append(f"integral truncated at horizon r = {hi:g}")

    lo = th
    if rng is not None and coeff == 0.0:
        # A <= 0 everywhere, so the integrand vanishes outside the samples
        lo, hi = max(lo, rng[0]), min(hi, rng[1])
        notes.append(SAMPLED_RANGE_NOTE)
    if hi <= lo:
        return BoundValue.build(0.0, QuadDiagnostics(notes=tuple(notes)))

    pts = [p for p in V.breakpoints() if lo < p < hi]
    # geometric midpoints help the adaptive rule over wide log ranges
    if hi / lo > 1e3:
        k = lo
        while k * 100.0 < hi:
            k *= 100.0
            pts.append(k)
    quad = integrate(integrand, lo, hi, tol=tol, breakpoints=pts)
    diag = QuadDiagnostics(
        prefactor * quad.error_estimate, quad.evaluations, notes=tuple(notes)
    )
    return BoundValue.build(prefactor * quad.value, diag)
