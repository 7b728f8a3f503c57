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
steps.

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
    safe_iterated_log,
    sphere_area,
)
from .potentials import (
    Potential,
    SAMPLED_RANGE_NOTE,
    _centrifugal_crossings,
    _transformed_form,
    check_bounded_below_weighted,
    checked_pow,
    negative_part_abs,
    transform_potential,
    transformed_breakpoints,
)
from .quadrature import integrate, integrate_semiinfinite


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
    def for_clr_bound(cls, d: int, n: int, variant: str) -> "OperatorSpec":
        return cls(d=d, n=n, variant=variant, threshold_depth=n + 2)


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
    tol: float = 1e-10,
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


def _channel_integrals(
    V: Potential, couplings: list[float], n: int, threshold: float, tol: float
) -> tuple[list[float], list[float], int, list[str]]:
    """I_l = int |(W_0(s) + L_l C(s))_-| |s| ds for the couplings
    L_0 = 0 < L_1 < ... (I_0 is the integral of |W_0-| |s|): the integrals,
    their error estimates, the integrand nodes and the notes.

    W_0 = transform(V, n + 1) and C(s) = exp(2 (s + e^s + ... + exp^(n-1) s)),
    the transform of 1/r^2 from the same helper: W_0 + L_l C(s) is the
    potential the count assembles for channel l.  The change of variables
    s = ln^(n+1) r carries int_threshold^inf (-L_l/r^2 - V(r))_+ r |ln r| ...
    |ln^(n+1) r| dr onto I_l: the paper's identity is the implementation.

    One quadrature, with a component per coupling, covers the image of V's
    negative support clipped to the threshold, which holds every channel's;
    W_0 is evaluated once per node.  Panels break at the images of V's
    breakpoints and of each channel's crossings, where its integrand kinks,
    and at s = 0, the kink of |s|.  An end at s = -inf is mirrored onto
    +inf, and a line with both ends infinite is split at 0."""
    notes: list[str] = []
    m, k = len(couplings), n + 1
    ns = V.negative_support()
    lo, hi = (0.0, 0.0) if ns is None else (max(ns[0], threshold), ns[1])
    lo, hi = safe_iterated_log(lo, k), safe_iterated_log(hi, k)
    if hi <= lo:
        return [0.0] * m, [0.0] * m, 0, notes
    if V.sampled_range() is not None:
        notes.append(SAMPLED_RANGE_NOTE)
    W = transform_potential(V, k)
    pts = [*transformed_breakpoints(V, k), 0.0]
    if m > 1:
        crossings = (safe_iterated_log(x, k) for x in _centrifugal_crossings(V, couplings[1:]))
        pts += [s for s in crossings if math.isfinite(s)]
        shifts = np.array(couplings)

    def f(s: np.ndarray) -> np.ndarray:
        g = -W(s)
        if m == 1:  # a plain integrand
            return np.maximum(g, 0.0) * np.abs(s)
        # channel l in column l; where L C overflows, the channel's integrand is 0
        with np.errstate(over="ignore"):
            g = g[..., None] - shifts * _transformed_form(s, k, -1.0, -2.0, 0.0)[..., None]
        return np.maximum(g, 0.0) * np.abs(s)[..., None]

    if math.isfinite(lo) and math.isfinite(hi):
        quads = [integrate(f, lo, hi, tol=tol, breakpoints=pts)]
    else:
        start = hi if math.isfinite(hi) else lo if math.isfinite(lo) else 0.0
        quads = []
        if math.isinf(hi):
            quads.append(integrate_semiinfinite(f, start, tol=tol, breakpoints=pts))
        if math.isinf(lo):
            quads.append(integrate_semiinfinite(
                lambda t: f(-t), -start, tol=tol, breakpoints=[-p for p in pts]))
    value = sum(q.value for q in quads)
    error = sum(q.error_estimate for q in quads)
    evals = sum(q.evaluations for q in quads)
    if m == 1:
        return [value], [error], evals, notes
    return value.tolist(), error.tolist(), evals, notes


def _tail_prologue(
    V: Potential, spec: OperatorSpec
) -> tuple[tuple[str, ...], Optional[BoundValue]]:
    """The warning of a failed boundedness-below check of V on ``spec``, and
    the vacuous +inf bound when V's negative tail makes the weighted
    integral diverge (None when it converges)."""
    hyp, why = check_bounded_below_weighted(V, spec.n)
    warnings = () if hyp.passed else (f"hypothesis not met at depth n = {spec.n}: {hyp.reason}",)
    return warnings, None if why is None else BoundValue.vacuous(why, warnings)


def bound_1d(V: Potential, spec: OperatorSpec, tol: float = 1e-10) -> BoundValue:
    """Weighted bound for the 1-d iterated-log Hardy operator.

    Variant "zero" (threshold exp^(n) 0) carries an additive 1; variant "one"
    (threshold exp^(n) 1) does not.  A failed boundedness-below check is
    reported as a warning, not an error.
    """
    _require_operator("t41", spec)
    warnings, vacuous = _tail_prologue(V, spec)
    if vacuous is not None:
        return vacuous
    (value,), (err,), evals, notes = _channel_integrals(
        V, [0.0], spec.n, spec.threshold.value, tol
    )
    base = 1.0 if spec.variant == "zero" else 0.0
    diag = QuadDiagnostics(err, evals, warnings, tuple(notes))
    return BoundValue.build(base + value, diag)


# a zoom pass samples its bracket at these fractions, shrinking it 128-fold;
# scaling them is about four times cheaper than a call of np.linspace
_ZOOM = np.linspace(0.0, 1.0, 257)


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
    """sup over (threshold, inf) of r^2 max(-V(r), 0): V's closed form
    (``Potential.sup_r2_negative_part``) on its clipped negative support,
    else a sampled zoom (heuristic for wild potentials)."""
    ns = V.negative_support()
    if ns is None:
        return 0.0
    lo = max(ns[0], threshold)
    hi = ns[1]
    if hi <= lo:
        return 0.0
    exact = V.sup_r2_negative_part(lo, hi)
    return _zoomed_sup(V, lo, hi) if exact is None else exact


def _zoomed_sup(V: Potential, lo: float, hi: float) -> float:
    """sup over (lo, hi) of r^2 max(-V(r), 0) by log-spaced sampling, then
    repeated resampling around the largest sample; hi = inf is an error."""
    if math.isinf(hi):
        raise EvaluationError(f"sup r^2 |V_-| of {V.family} over ({lo:g}, inf) has no "
                              "closed form, and a sampled sup would cut the tail")

    def g(r: np.ndarray) -> np.ndarray:
        return r * r * negative_part_abs(V, r)

    xs = np.geomspace(max(lo, 1e-12) * (1 + 1e-12), hi * (1 - 1e-12), 10_000)
    vals = g(xs)
    best = -math.inf
    # zoom: resample the two cells around the sampled maximum until the
    # bracket is 1e-13 wide relative to its left end
    while True:
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
        if b - a <= 1e-13 * max(1.0, abs(a)):
            return best
        xs = a + (b - a) * _ZOOM
        vals = g(xs)


def central_bound(V: Potential, spec: OperatorSpec, tol: float = 1e-10) -> BoundValue:
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
    values, errors, evals, notes = _channel_integrals(
        V, [float(l * (l + spec.d - 2)) for l in range(lm + 1)], spec.n, spec.threshold.value, tol
    )
    channels = []
    total = err = 0.0
    for l, value, error in zip(range(lm + 1), values, errors):
        D = degeneracy(spec.d, l)
        channels.append(ChannelTerm(l, D, value, error))
        total += D * (base + value)
        err += D * error
    diag = QuadDiagnostics(err, evals, warnings, tuple(notes))
    return BoundValue.build(total, diag, tuple(channels))


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

    In s = ln^(n+1) r, dr = r ln r ... ln^(n) r ds carries these onto the
    flat integrals of W = transform(V, n+1) in the module docstring, which is
    how they are computed.  The variant-one improvement term is positive up
    to s* = exp(sqrt((d-1)(d-3))), a double at every depth.

    For d >= 4 the variant-"zero" integrand behaves like const / s wherever V
    has died off, which is not integrable: the bound is then +inf (vacuous
    but true).  Pass ``horizon`` to integrate up to a finite radius instead,
    for illustration purposes; the truncation is recorded in the diagnostics
    and is a lower estimate of the true integral.

    A tabulated V is taken as 0 outside its samples.
    """
    _require_operator("t42", spec)

    d, k = spec.d, spec.n + 1
    coeff = float((d - 1) * (d - 3))
    Cd = constants.get(d)
    prefactor = Cd * sphere_area(d)
    notes: list[str] = []

    ns = V.negative_support()
    if ns is not None and math.isinf(ns[1]):
        return BoundValue.vacuous("negative tail extends to infinity; bound diverges")
    # past V's negative support the integrand is at most that of V = 0
    ns_end = -math.inf if ns is None else safe_iterated_log(ns[1], k)
    if spec.variant == "zero":
        if coeff > 0.0 and horizon is None:
            return BoundValue.vacuous(
                "variant-zero integrand decays like 1/(r ln r ...) for d >= 4; the bound is +inf"
            )
        lo, hi = 1.0, math.inf if coeff > 0.0 else ns_end
    else:
        lo, hi = math.e, max(ns_end, math.exp(math.sqrt(coeff)))

    W = W_at = transform_potential(V, k)
    rng = V.sampled_range()
    if rng is not None:
        ends = [safe_iterated_log(x, k) for x in rng]
        if coeff != 0.0:
            notes.append("tabulated potential: taken as 0 outside the sampled range")

            def W_at(s: np.ndarray) -> np.ndarray:
                w = np.zeros(s.shape)
                inside = (ends[0] <= s) & (s <= ends[1])
                w[inside] = W(s[inside])
                return w

    if horizon is not None and (cut := safe_iterated_log(horizon, k)) < hi:
        notes.append(f"integral truncated at horizon r = {horizon:g}"
                     + (" (true value is +inf)" if math.isinf(hi) else ""))
        hi = cut
    if rng is not None and coeff == 0.0:
        # the improvement term is <= 0 everywhere, so the integrand vanishes outside the samples
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
        notes.append(SAMPLED_RANGE_NOTE)
    if hi <= lo:
        return BoundValue.build(0.0, QuadDiagnostics(notes=tuple(notes)))

    def integrand(s: np.ndarray) -> np.ndarray:
        if spec.variant == "zero":
            x, num = s, coeff
        else:
            u = np.log(s)
            x, num = s * u, coeff - u * u
        g = np.maximum(num / (4.0 * x * x) - W_at(s), 0.0)
        # the power raises OverflowError as float ** does; the product overflows to inf
        with np.errstate(over="ignore"):
            return checked_pow(g, d / 2.0) * x ** (d - 1)

    quad = integrate(integrand, lo, hi, tol=tol, breakpoints=transformed_breakpoints(V, k))
    if d in constants.placeholders:
        notes.append(
            f"C_{d} = {Cd:g} is a placeholder, not a literature value; "
            f'set constants["{d}"] in the configuration to replace it'
        )
    diag = QuadDiagnostics(
        prefactor * quad.error_estimate, quad.evaluations, notes=tuple(notes)
    )
    return BoundValue.build(prefactor * quad.value, diag)
