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

Every bound is a flat integral of W = transform(V, n+1) in s = ln^(n+1) r,
the paper's identity used as the implementation.  The line and partial-wave
integrals are int |W_-| |s| ds; the CLR integrals are

    C_d |S^(d-1)| int_1^inf ( (d-1)(d-3) / (4 s^2) - W )_+^{d/2} s^{d-1} ds,
    C_d |S^(d-1)| int_e^inf ( ((d-1)(d-3) - ln^2 s) / (4 s^2 ln^2 s) - W )_+^{d/2}
                            (s ln s)^{d-1} ds

on the variant "zero" and "one" domains.  They reach every depth whose
threshold is a double, past the counts' cap DEPTH_CAP = 3 on the transform
steps.  Each bound gives its integrand and span to one driver,
``_flat_integral``, which owns the quadrature and the infinite ends.  A
tabulated V is 0 outside its samples in V itself, so its W is integrated as
any other.

Bounds are real numbers; comparisons against integer counts use floor(raw).
A bound whose integrand has a non-integrable tail is reported as +inf with
integer_cap None (the inequality is then vacuous but still true).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .iterfun import (
    DomainThreshold,
    degeneracy,
    safe_iterated_log,
    sphere_area,
)
from .potentials import (
    Potential,
    _transformed_form,
    check_bounded_below_weighted,
    checked_pow,
    transform_potential,
)
from .quadrature import graded_breakpoints, integrate, integrate_semiinfinite


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


@dataclass(frozen=True)
class BoundConstants:
    """CLR constants C_d.  Only d = 3 has a pinned literature value here,
    C_3 = 0.1156 (Lieb); the entries for 4 <= d <= 7 are configurable
    placeholders equal to C_3, not literature values.

    ``placeholders`` lists the d whose entry is still a placeholder; a bound
    computed with one of them says so in its notes.  A caller that sets an
    entry removes its d from the set, as the configuration loader does.
    """

    values: dict = field(
        default_factory=lambda: {3: 0.1156, 4: 0.1156, 5: 0.1156, 6: 0.1156, 7: 0.1156}
    )
    placeholders: frozenset = frozenset({4, 5, 6, 7})

    def get(self, d: int) -> float:
        try:
            c = self.values[d]
        except KeyError:
            raise DomainError(f"no CLR constant configured for d = {d}") from None
        if not (math.isfinite(c) and c > 0.0):
            raise DomainError(f"CLR constant for d = {d} must be positive and finite, got {c}")
        return float(c)


DEFAULT_CLR_CONSTANTS = BoundConstants()

BOUND_TOL = 1e-10  # quadrature tolerance of a bound, and of ``sweep``, when none is given

#: theorem -> (least d, largest d, threshold depth less n).
#: t41: the line and half-line; t42: CLR-type, with threshold depth n + 2;
#: t43: partial waves.
_THEOREMS = {
    "t41": (1, 1, 0),
    "t42": (3, math.inf, 2),
    "t43": (2, math.inf, 0),
}
THEOREMS = tuple(_THEOREMS)


def _depth_offset(theorem: str, d: int) -> int:
    """Threshold depth less n of the operators ``theorem`` bounds in
    dimension d.  DomainError for an unknown theorem, or a d outside the
    theorem's range."""
    if theorem not in THEOREMS:
        raise DomainError(f"theorem must be one of {', '.join(THEOREMS)}, got {theorem!r}")
    d_min, d_max, offset = _THEOREMS[theorem]
    if not d_min <= d <= d_max:
        raise DomainError(f"{theorem} needs d {'=' if d_min == d_max else '>='} {d_min}")
    return offset


def theorem_operator(theorem: str, d: int, n: int, variant: str) -> OperatorSpec:
    """The operator (d, n, variant) as ``theorem`` states its bound for it.

    DomainError for an unknown theorem, or a d outside the theorem's range."""
    return OperatorSpec(d, n, variant, threshold_depth=n + _depth_offset(theorem, d))


def _require_operator(theorem: str, spec: OperatorSpec) -> None:
    """DomainError unless ``spec`` is an operator ``theorem`` bounds."""
    depth = spec.n + _depth_offset(theorem, spec.d)
    if spec.threshold_depth != depth:
        raise DomainError(f"{theorem} needs threshold depth {depth} at n = {spec.n}")


def theorem_bound(
    theorem: str,
    V: Potential,
    spec: OperatorSpec,
    constants: BoundConstants = DEFAULT_CLR_CONSTANTS,
    tol: float = BOUND_TOL,
) -> BoundValue:
    """The bound of ``theorem`` for V on ``spec``; only t42 reads ``constants``.

    The bound functions are looked up by name at each call, so rebinding one
    of them in this module reaches every caller."""
    if theorem == "t41":
        return bound_1d(V, spec, tol=tol)
    if theorem == "t42":
        return clr_bound(V, spec, constants=constants, tol=tol)
    if theorem == "t43":
        return central_bound(V, spec, tol=tol)
    raise DomainError(f"theorem must be one of {', '.join(THEOREMS)}, got {theorem!r}")


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

    @classmethod
    def vacuous(cls, note: str, warnings: tuple[str, ...] = ()) -> "BoundValue":
        """The +inf bound, true but empty, with the note why it diverges."""
        return cls.build(math.inf, QuadDiagnostics(warnings=warnings, notes=(note,)))


# Panels of the first pass per zero of W that ``clr_bound`` grades toward.
# On variant "zero" a d = 3 CLR integrand vanishes like dist^(3/2) at a zero
# of a tabulated V's W, so each bisection of the end panel cuts QK15's error
# only 2^2.5-fold.  On variant "one" it vanishes where W = -1/(4 s^2), just on
# W's negative side of the zero; grading toward W's zero approximates that
# crossing, which on the measured wells lies within the graded panels.  Over
# bound-quad seeds 1-40, the 120 clr tabulated slots took 6-9 passes
# ungraded; at 6 levels 96 of them take one pass, at 8 all 120.
_GRADING_LEVELS = 8


def _graded(zeros, lo: float, hi: float, kinks) -> list[float]:
    """The breakpoints that grade the first pass toward each zero z of W in
    [lo, hi], on its side where W < 0: ``graded_breakpoints`` from the
    neighbouring panel end on that side toward z."""
    edges = sorted({lo, hi, *(p for p in kinks if lo < p < hi)})
    out = []
    for z, side in zeros:
        if lo <= z <= hi:
            # the last edge below z, or the first above it
            i = bisect.bisect_left(edges, z) - 1 if side < 0 else bisect.bisect_right(edges, z)
            if 0 <= i < len(edges) and math.isfinite(edges[i]):
                out += graded_breakpoints(edges[i], z, _GRADING_LEVELS)
    return out


def _flat_integral(f, lo: float, hi: float, kinks, tol: float):
    """int_lo^hi f(s) ds for an integrand f of s: the value, its error
    estimate and the integrand nodes.  An empty span (hi <= lo) is 0 with no
    nodes.

    The one quadrature of the bounds.  Panels break at ``kinks``; an end at
    s = -inf is mirrored onto +inf, and a line with both ends infinite is
    split at 0.  A caller grades the first pass toward a point by adding
    ``graded_breakpoints`` to ``kinks``, as ``clr_bound`` does."""
    if hi <= lo:
        return 0.0, 0.0, 0
    if math.isfinite(lo) and math.isfinite(hi):
        quads = [integrate(f, lo, hi, tol=tol, breakpoints=kinks)]
    else:
        start = hi if math.isfinite(hi) else lo if math.isfinite(lo) else 0.0
        quads = []
        if math.isinf(hi):
            quads.append(integrate_semiinfinite(f, start, tol=tol, breakpoints=kinks))
        if math.isinf(lo):
            quads.append(integrate_semiinfinite(
                lambda t: f(-t), -start, tol=tol, breakpoints=[-p for p in kinks]))
    return (sum(q.value for q in quads), sum(q.error_estimate for q in quads),
            sum(q.evaluations for q in quads))


def _channel_integrals(
    V: Potential, couplings: list[float], n: int, threshold: float, tol: float
) -> tuple[list[float], list[float], int]:
    """I_l = int |(W_0(s) + L_l C(s))_-| |s| ds for the couplings
    L_0 = 0 < L_1 < ... (I_0 is the integral of |W_0-| |s|): the integrals,
    their error estimates and the integrand nodes.

    W_0 = transform(V, n + 1) and C(s) = exp(2 (s + e^s + ... + exp^(n-1) s)),
    the transform of 1/r^2 from the same helper: W_0 + L_l C(s) is the
    potential the count assembles for channel l.  The change of variables
    s = ln^(n+1) r carries int_threshold^inf (-L_l/r^2 - V(r))_+ r |ln r| ...
    |ln^(n+1) r| dr onto I_l: the paper's identity is the implementation.

    One ``_flat_integral``, with a component per coupling, covers the image
    of V's negative support clipped to the threshold, which holds every
    channel's; W_0 is evaluated once per node.  Panels break at W_0's kinks
    for the couplings, and at s = 0, the kink of |s|."""
    m, k = len(couplings), n + 1
    W = transform_potential(V, k)
    lo, hi = W.negative_interval(threshold)
    shifts = np.array(couplings)

    def f(s: np.ndarray) -> np.ndarray:
        if m == 1:  # a plain integrand
            return np.maximum(-W(s), 0.0) * np.abs(s)
        # channel l in column l; where L C overflows, the channel's integrand is 0
        with np.errstate(over="ignore"):
            g = -W(s)[..., None] - shifts * _transformed_form(s, k, -1.0, -2.0, 0.0)[..., None]
        return np.maximum(g, 0.0) * np.abs(s)[..., None]

    value, error, evals = _flat_integral(f, lo, hi, [*W.kinks(couplings[1:]), 0.0], tol)
    if m == 1 or not evals:  # one component, or an empty span
        return [value] * m, [error] * m, evals
    return value.tolist(), error.tolist(), evals


def _tail_prologue(
    V: Potential, spec: OperatorSpec
) -> tuple[tuple[str, ...], Optional[BoundValue]]:
    """The warning of a failed boundedness-below check of V on ``spec``, and
    the vacuous +inf bound when V's negative tail makes the weighted
    integral diverge (None when it converges)."""
    hyp, why = check_bounded_below_weighted(V, spec.n)
    warnings = () if hyp.passed else (f"hypothesis not met at depth n = {spec.n}: {hyp.reason}",)
    return warnings, None if why is None else BoundValue.vacuous(why, warnings)


def bound_1d(V: Potential, spec: OperatorSpec, tol: float = BOUND_TOL) -> BoundValue:
    """Weighted bound for the 1-d iterated-log Hardy operator.

    Variant "zero" (threshold exp^(n) 0) carries an additive 1; variant "one"
    (threshold exp^(n) 1) does not.  A failed boundedness-below check is
    reported as a warning, not an error.
    """
    _require_operator("t41", spec)
    warnings, vacuous = _tail_prologue(V, spec)
    if vacuous is not None:
        return vacuous
    (value,), (err,), evals = _channel_integrals(V, [0.0], spec.n, spec.threshold.value, tol)
    base = 1.0 if spec.variant == "zero" else 0.0
    diag = QuadDiagnostics(err, evals, warnings)
    return BoundValue.build(base + value, diag)


def l_max(V: Potential, d: int, domain: DomainThreshold) -> Optional[int]:
    """Largest l >= 0 whose effective radial potential still dips negative on
    the domain, i.e. the largest l with l(l+d-2) < sup r^2 (-V(r))_+.

    None when the supremum is 0 (every channel bound is then 0).  An infinite
    supremum (every channel dips negative) raises EvaluationError, and so
    does a V without a closed-form sup: l_max is exact or refused.
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
    """sup over (threshold, inf) of r^2 max(-V(r), 0): V's own
    ``sup_r2_negative_part`` on its negative support clipped to the
    threshold.  EvaluationError for a V that has none: a family without a
    power-log form must provide it, as the tabulated family does."""
    ns = V.negative_support()
    if ns is None:
        return 0.0
    lo = max(ns[0], threshold)
    hi = ns[1]
    if hi <= lo:
        return 0.0
    S = V.sup_r2_negative_part(lo, hi)
    if S is None:
        raise EvaluationError(
            f"sup r^2 |V_-| of {V.family} over ({lo:g}, {hi:g}) has no closed form: "
            "a potential without a power-log form must provide sup_r2_negative_part")
    return S


def central_bound(V: Potential, spec: OperatorSpec, tol: float = BOUND_TOL) -> BoundValue:
    """Partial-wave bound for a central potential:

        sum_{l=0}^{l_max} D(d,l) * ([1 +] I_l),
        I_l = int_threshold^inf ( -l(l+d-2)/r^2 - V(r) )_+ x-log-weights dr,

    with the +1 present exactly on variant "zero" domains.  The empty sum
    (l_max undefined) is 0 for both variants.
    """
    _require_operator("t43", spec)
    # before l_max: a non-integrable tail can make sup r^2 |V_-| infinite
    warnings, vacuous = _tail_prologue(V, spec)
    if vacuous is not None:
        return vacuous
    lm = l_max(V, spec.d, spec.threshold)
    if lm is None:
        return BoundValue.build(0.0, QuadDiagnostics(warnings=warnings))

    base = 1.0 if spec.variant == "zero" else 0.0
    values, errors, evals = _channel_integrals(
        V, [float(l * (l + spec.d - 2)) for l in range(lm + 1)], spec.n, spec.threshold.value, tol
    )
    channels = []
    total = err = 0.0
    for l, value, error in zip(range(lm + 1), values, errors):
        D = degeneracy(spec.d, l)
        channels.append(ChannelTerm(l, D, value, error))
        total += D * (base + value)
        err += D * error
    diag = QuadDiagnostics(err, evals, warnings)
    return BoundValue.build(total, diag, tuple(channels))


def clr_bound(
    V: Potential,
    spec: OperatorSpec,
    constants: BoundConstants = DEFAULT_CLR_CONSTANTS,
    tol: float = BOUND_TOL,
    horizon: Optional[float] = None,
) -> BoundValue:
    """CLR-type bound for d >= 3 with central V, radialized to one dimension.

    Variant "zero" (threshold exp^(n+2) 0):
        C_d |S^(d-1)| int ( (d-1)(d-3) / (4 r^2 (ln r)^2 ... (ln^(n+1) r)^2) - V )_+^{d/2}
                          * (ln r)^{d-1} ... (ln^(n+1) r)^{d-1} r^{d-1} dr.

    Variant "one" (threshold exp^(n+2) 1): the numerator gains the
    -(ln^(n+2) r)^2 improvement and the weight stack extends to ln^(n+2).

    In s = ln^(n+1) r, dr = r ln r ... ln^(n) r ds carries these onto the
    flat integrals of W = transform(V, n+1) in the module docstring, which is
    how they are computed.  The variant-one improvement term is positive up
    to s* = exp(sqrt((d-1)(d-3))), a double at every depth.

    For d >= 4 the variant-"zero" integrand behaves like const / s wherever V
    has died off, which is not integrable: the bound is then +inf (vacuous
    but true).  Pass ``horizon`` to integrate up to a finite radius instead,
    for illustration purposes; the truncation is recorded in the diagnostics
    and is a lower estimate of the true integral.

    The span is the image of V's negative support, past which the integrand
    is at most that of V = 0.  For d >= 4 the improvement term is positive,
    and the span widens to (1, inf) on variant "zero" and to
    (e, max(end, s*)) on variant "one"; there a tabulated V is 0 outside its
    samples, as V itself defines it.  At d = 3 the improvement term is 0 on
    variant "zero", and the integrand meets each zero of a tabulated V's W
    like dist^(3/2); on variant "one" it is -1/(4 s^2), and the integrand
    vanishes where W = -1/(4 s^2), just on W's negative side of that zero.
    The first pass is graded toward W's zeros (``W.zeros()``), on variant
    "one" as an approximation of the crossing, which on the measured wells
    lies within the graded panels; so it converges without bisecting its
    way to them.
    """
    _require_operator("t42", spec)

    d, k = spec.d, spec.n + 1
    coeff = float((d - 1) * (d - 3))
    Cd = constants.get(d)
    notes: list[str] = []

    W = transform_potential(V, k)
    # past V's negative support the integrand is at most that of V = 0
    lo, hi = W.negative_interval(spec.threshold.value)
    if hi == math.inf:
        return BoundValue.vacuous("negative tail extends to infinity; bound diverges")
    if coeff > 0.0:  # the improvement term is positive: on (1, inf), or on (e, s*)
        if spec.variant == "zero" and horizon is None:
            return BoundValue.vacuous(
                "variant-zero integrand decays like 1/(r ln r ...) for d >= 4; the bound is +inf"
            )
        lo, hi = (1.0, math.inf) if spec.variant == "zero" else (
            math.e, max(hi, math.exp(math.sqrt(coeff))))
    if horizon is not None and (cut := safe_iterated_log(horizon, k)) < hi:
        notes.append(f"integral truncated at horizon r = {horizon:g}"
                     + (" (true value is +inf)" if math.isinf(hi) else ""))
        hi = cut

    def f(s: np.ndarray) -> np.ndarray:
        if spec.variant == "zero":
            x, num = s, coeff
        else:
            u = np.log(s)
            x, num = s * u, coeff - u * u
        g = np.maximum(num / (4.0 * x * x) - W(s), 0.0)
        # the power raises OverflowError as float ** does; the product overflows to inf
        with np.errstate(over="ignore"):
            return checked_pow(g, d / 2.0) * x ** (d - 1)

    kinks = W.kinks()
    if coeff == 0.0:  # d = 3: grade the first pass toward W's zeros
        kinks = [*kinks, *_graded(W.zeros(), lo, hi, kinks)]
    value, error, evals = _flat_integral(f, lo, hi, kinks, tol)
    if d in constants.placeholders:
        notes.append(
            f"C_{d} = {Cd:g} is a placeholder, not a literature value; "
            f'set constants["{d}"] in the configuration to replace it'
        )
    prefactor = Cd * sphere_area(d)
    diag = QuadDiagnostics(prefactor * error, evals, notes=tuple(notes))
    return BoundValue.build(prefactor * value, diag)
