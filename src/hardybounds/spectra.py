"""Finite-difference discretization of the transformed 1-d operators and
exact counting of negative eigenvalues by Sturm sequences.

The operator is always discretized in the fully transformed s-coordinate,
where -d^2/ds^2 + W(s) has no inverse-square singularity, so the plain
three-point stencil with Dirichlet ends converges cleanly.  Dirichlet
truncation of the window restricts the form domain, so the continuum count
on a finite window never exceeds that of the full operator.  The grid count
carries no such guarantee: the three-point stencil with point-sampled W can
over-count as well as under-count on a coarse grid (a square well with c=256
on (1, 2), d=1, n=0, variant one, L=20 counts 6 at m=200 and 5 at every
m >= 400), so the refinement trail is part of the result.

Where W is 0, as everywhere on the window outside the image of a finite
well, the rows of the matrix are equal, and the Sturm pass crosses each such
run in one closed-form step (Chebyshev polynomials of the second kind give
the run's pivots); it steps the other rows one at a time.  The lowest
eigenvalues are found by bisection on the same count, with brackets shared
between the requested eigenvalues.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, DepthCapError, EvaluationError
from .iterfun import (
    DEPTH_CAP,
    degeneracy,
    hardy_weight_stack,
    iterated_exp,
    safe_iterated_log,
)
from .bounds import OperatorSpec, l_max
from .potentials import (
    Potential,
    TransformedPotential,
    ZeroPotential,
    transformed_breakpoints,
)
from .quadrature import integrate
from .testfunctions import TestFunction, transform_test_function

#: the default window L and interior grid size m of a count, which the
#: harness and the CLI read too
DEFAULT_L = 20.0
DEFAULT_M = 4000

_PIVOT_EPS = 2.0**-40
_MIN_H2 = 1.0 / math.sqrt(sys.float_info.max)  # smallest h^2 whose 1/h^4 is finite
# Shortest stretch of equal rows that the Sturm pass crosses in one closed-form
# step: that step costs about 18 plain steps (1.2 us against 64 ns, timeit).
_MIN_RUN = 18


@dataclass(frozen=True)
class Grid:
    """Uniform grid with Dirichlet conditions at both ends; m interior points."""

    s_min: float
    s_max: float
    m: int

    def __post_init__(self):
        if not self.s_min < self.s_max:
            raise DomainError(f"grid needs s_min < s_max, got ({self.s_min}, {self.s_max})")
        if not isinstance(self.m, int) or self.m < 2:
            raise DomainError(f"grid needs at least 2 interior points, got {self.m!r}")

    @property
    def h(self) -> float:
        return (self.s_max - self.s_min) / (self.m + 1)

    def points(self) -> np.ndarray:
        return self.s_min + self.h * np.arange(1, self.m + 1)


@dataclass(frozen=True)
class TridiagonalOperator:
    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diagonal, dtype=float)
        off = np.asarray(self.off_diagonal, dtype=float)
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "off_diagonal", off)
        if diag.ndim != 1 or off.ndim != 1 or len(off) != len(diag) - 1:
            raise DomainError("need m diagonal and m-1 off-diagonal entries")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise DomainError("tridiagonal entries must be finite")
        top = float(max(-off.min(initial=0.0), off.max(initial=0.0)))
        # max |diagonal| + 2 max |off-diagonal| >= ||T||; ||T|| itself is
        # summed only where that sum overflows
        bound = float(max(-diag.min(initial=0.0), diag.max(initial=0.0))) + 2.0 * top
        if math.isinf(bound):
            with np.errstate(over="ignore"):
                bound = self.norm_inf()
        if math.isinf(bound) or math.isinf(top * top):
            raise DomainError("||T|| or a squared off-diagonal entry leaves the double range")

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def norm_inf(self) -> float:
        d = np.abs(self.diagonal).copy()
        e = np.abs(self.off_diagonal)
        d[:-1] += e
        d[1:] += e
        return float(d.max()) if len(d) else 0.0

    def dense(self) -> np.ndarray:
        return (
            np.diag(self.diagonal)
            + np.diag(self.off_diagonal, 1)
            + np.diag(self.off_diagonal, -1)
        )


def assemble(W, grid: Grid) -> TridiagonalOperator:
    """Three-point stencil for -d^2/ds^2 + W(s) on the grid:
    diagonal 2/h^2 + W(s_i), off-diagonal -1/h^2.

    W is called once, on the array of grid points; a scalar result (a constant
    potential) is broadcast to every point.  EvaluationError when 1/h^2, or
    its square in the Sturm recurrence, leaves the double range, and when an
    entry or ||T|| does.
    """
    h = grid.h
    if not h * h > _MIN_H2:
        raise EvaluationError(f"grid step h = {h:g} is too small: 1/h^2 or its square "
                              "leaves the double range")
    pts = grid.points()
    try:
        w = np.broadcast_to(W(pts), pts.shape)
    except (DomainError, OverflowError) as exc:
        raise EvaluationError(_first_failure(W, pts, exc)) from exc
    diag = 2.0 / (h * h) + w
    off = np.full(grid.m - 1, -1.0 / (h * h))
    try:
        return TridiagonalOperator(diag, off)
    except DomainError as exc:
        raise EvaluationError(f"assembled matrix: {exc}") from exc


def _first_failure(W, pts: np.ndarray, exc: Exception) -> str:
    """Message naming the first grid point at which W fails.  Runs only after
    the array evaluation has failed."""
    for i, s in enumerate(pts.tolist()):
        try:
            W(s)
        except (DomainError, OverflowError) as point_exc:
            return f"potential evaluation failed at grid index {i} (s = {s}): {point_exc}"
    return f"potential evaluation failed on the grid: {exc}"


def _sturm_count(pieces, shift: float, pivot_sub: float) -> tuple[int, bool]:
    """Negative pivots of the shifted LDL^T factorization = eigenvalues < shift,
    and whether an exact zero pivot occurred.

    ``pieces`` come from ``_sturm_inputs``: each is a plain stretch of
    (diagonal, squared coupling to the row before) pairs, stepped one row at
    a time, then a run of equal rows or None; a run is crossed in one step by
    ``_cross_run``.  Exact zero pivots are replaced by ``pivot_sub``.
    Infinite intermediate pivots are harmless: the following ratio collapses
    to zero and the recurrence self-heals.
    """
    count = 0
    zero_pivot = False
    d = math.inf  # before the first row, so that its pivot is diag[0] - shift
    for diag, off_sq, run in pieces:
        for a, e2 in zip(diag, off_sq):
            d = (a - shift) - e2 / d
            if d == 0.0:
                d = pivot_sub
                zero_pivot = True
            if d < 0.0:
                count += 1
        if run is None:
            continue
        negatives, d = _cross_run(run, shift, d, pivot_sub)
        count += negatives
        if d == 0.0:
            d = pivot_sub
            zero_pivot = True
        if d < 0.0:
            count += 1
    return count, zero_pivot


def _cross_run(run, shift: float, d: float, pivot_sub: float) -> tuple[int, float]:
    """The number of negative pivots among the first k - 1 rows of a run of
    k equal rows (diagonal a, coupling e), and the last pivot, from the pivot
    d before the run.

    With delta = d/|e| and c = (a - shift)/(2|e|) the run's pivots are
    |e| q_j/q_(j-1), j = 1..k, where q_j = delta U_j(c) - U_(j-1)(c) and U
    is the Chebyshev polynomial of the second kind; a pivot is negative where
    q changes sign.  The pivots of (c, delta) are the negated pivots of
    (-c, -delta), so c < 0 is crossed as -c.  c - 1 and c + 1 are formed from
    a - 2|e| and a + 2|e|, exact on an assembled free stretch, so shifts near
    the band edges keep their precision.  A zero coupling, or one negligible
    beside a - shift, leaves k pivots a - shift.
    """
    a, e, lower, upper, k = run
    coupled = e * e != 0.0  # as the plain recurrence reads e^2
    c_minus_1 = (lower - shift) / (2.0 * e) if coupled else math.inf
    c_plus_1 = (upper - shift) / (2.0 * e) if coupled else math.inf
    if math.isinf(c_minus_1) or math.isinf(c_plus_1):
        t = a - shift
        return (k - 1 if (t or pivot_sub) < 0.0 else 0), t
    delta = d / e
    mirror = c_minus_1 + c_plus_1 < 0.0
    if mirror:
        delta, c_minus_1 = -delta, -c_plus_1
    if c_minus_1 >= 0.0:  # c = cosh(theta)
        theta = 2.0 * math.asinh(math.sqrt(0.5 * c_minus_1))
        if theta == 0.0:
            tau_prev, tau = (k - 1) / k, k / (k + 1)
        else:
            shrink = math.exp(-theta)
            tau_prev = shrink * math.expm1(-2.0 * (k - 1) * theta) / math.expm1(-2.0 * k * theta)
            tau = shrink * math.expm1(-2.0 * k * theta) / math.expm1(-2.0 * (k + 1) * theta)
        negatives, delta = _cross_monotone(delta, tau_prev, tau)
    else:  # c = cos(theta), 0 < theta <= pi/2
        half = math.sqrt(-0.5 * c_minus_1)  # sin(theta/2)
        theta = 2.0 * math.asin(half)
        if (k + 1) * theta <= 0.5 * math.pi:  # U_k(c) > 0 with room for rounding
            tau_prev = math.sin((k - 1) * theta) / math.sin(k * theta)
            tau = math.sin(k * theta) / math.sin((k + 1) * theta)
            negatives, delta = _cross_monotone(delta, tau_prev, tau)
        else:
            negatives, delta = _cross_turning(delta, half, theta, k)
    if mirror:
        negatives, delta = k - 1 - negatives, -delta
    return negatives, e * delta


def _cross_monotone(delta: float, tau_prev: float, tau: float) -> tuple[int, float]:
    """``_cross_run`` on the scale |e| = 1 where U_0(c), ..., U_k(c) are all
    positive: c >= 1, or c = cos(theta) with (k + 1) theta < pi.  Then q_j
    has the sign of delta - tau_j, where tau_j = U_(j-1)/U_j rises from
    tau_0 = 0; tau_prev and tau are tau_(k-1) and tau_k.  q changes sign at
    most once, and only for delta > 0.
    """
    tau = max(tau, tau_prev)
    negatives = int(math.copysign(1.0, delta) > 0.0 and delta - tau_prev < 0.0)
    # the last pivot q_k/q_(k-1) = (delta - tau)/(tau (delta - tau_prev)),
    # whose sign is that of the two differences whatever the rounding
    if abs(delta) > 1.0:
        return negatives, (1.0 - tau / delta) / (tau * (1.0 - tau_prev / delta))
    num, den = delta - tau, tau * (delta - tau_prev)
    if den == 0.0:  # q_(k-1) = 0, signed as a +eps pivot (or as delta = -0.0)
        return negatives, math.copysign(math.inf, num) * math.copysign(1.0, den) if num else 0.0
    return negatives, num / den


def _cross_turning(delta: float, half: float, theta: float, k: int) -> tuple[int, float]:
    """``_cross_run`` on the scale |e| = 1 at c = cos(theta) with
    half = sin(theta/2), 0 < theta <= pi/2, where U_j(c) changes sign.

    There sign(delta) q_j = r sin(phi + j theta)/sin(theta) with r > 0 and
    phi = atan2(|delta| sin(theta), |delta| cos(theta) - sign(delta)) in
    [0, pi], so q changes sign each time phi + j theta passes a multiple of
    pi.  phi is near 0, where it keeps its precision, when delta is near 0
    from below.
    """
    gap = 2.0 * half * half  # 1 - cos(theta)
    sin_theta = 2.0 * half * math.sqrt(1.0 - half * half)
    size, sign = abs(delta), math.copysign(1.0, delta)
    if size > 2.0:  # divided by |delta|
        phi = math.atan2(sin_theta, (1.0 - sign / size) - gap)
    else:
        phi = math.atan2(size * sin_theta, (size - sign) - size * gap)
    turns, rest = divmod(phi + k * theta, math.pi)
    # q_(k-1) lies one theta back: in the same half turn unless rest < theta
    negatives = int(turns) - (rest < theta)
    den = math.sin(rest - theta)
    if den == 0.0:  # q_(k-1) = 0, counted as passed
        return negatives, math.inf
    return negatives, math.sin(rest) / den


def _sturm_inputs(T: TridiagonalOperator) -> tuple[list, float]:
    """The pieces that ``_sturm_count`` reads, and the zero-pivot substitute
    eps ||T||.  For a subnormal ||T|| the product underflows to 0, and the
    least positive double stands in for it.

    Row i is the pair (diagonal i, coupling to row i - 1), 0 for row 0.  A
    stretch of at least ``_MIN_RUN`` equal rows is a run; the rows between
    runs form plain stretches.  A matrix without such a stretch is one plain
    stretch, stepped as the plain recurrence.
    """
    diag = T.diagonal
    e = np.concatenate(([0.0], np.abs(T.off_diagonal)))
    e2 = e * e
    starts = np.flatnonzero(np.concatenate(
        ([True], (diag[1:] != diag[:-1]) | (e[1:] != e[:-1]))))
    ends = np.append(starts[1:], len(diag))
    runs = ends - starts >= _MIN_RUN
    pieces = []
    first = 0
    for i, j in zip(starts[runs].tolist(), ends[runs].tolist()):
        a, c = float(diag[i]), float(e[i])
        run = (a, c, a - 2.0 * c, a + 2.0 * c, j - i)
        pieces.append((diag[first:i].tolist(), e2[first:i].tolist(), run))
        first = j
    pieces.append((diag[first:].tolist(), e2[first:].tolist(), None))
    return pieces, max(_PIVOT_EPS * (T.norm_inf() or 1.0), math.ulp(0.0))


def inertia_negative_count(
    T: TridiagonalOperator, shift: float = 0.0
) -> Union[int, tuple[int, int]]:
    """Number of eigenvalues strictly below ``shift``.

    Zero pivots are perturbed by +/- eps ||T|| with eps = 2^-40; when the two
    perturbations disagree the ambiguity is surfaced as an interval
    (low, high) instead of a silently chosen integer.  The -eps pass runs only
    when the +eps pass met an exact zero pivot: otherwise the two passes are
    the same recurrence.
    """
    pieces, sub = _sturm_inputs(T)
    up, zero_pivot = _sturm_count(pieces, shift, sub)
    if not zero_pivot:
        return up
    down, _ = _sturm_count(pieces, shift, -sub)
    if up == down:
        return up
    return (min(up, down), max(up, down))


def lowest_eigenvalues(T: TridiagonalOperator, k: int, tol: float = 1e-10) -> list[float]:
    """k smallest eigenvalues, sorted ascending.  Eigenvalue j is the midpoint
    of a bracket [lo, hi] with count(lo) < j <= count(hi) under the +eps
    Sturm count, closed once hi - lo <= tol or once no double lies strictly
    between lo and hi (ulps are wider than tol = 1e-10 from magnitude 2^19).

    All k brackets start at the Gershgorin interval and are bisected, and
    every counted midpoint narrows each of them, so eigenvalue j + 1 starts
    from what the search for j has found.
    """
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= T.size:
        raise DomainError(f"need an integer 1 <= k <= {T.size}, got {k!r}")
    pieces, sub = _sturm_inputs(T)
    d = T.diagonal
    e = np.abs(T.off_diagonal)
    radius = np.zeros(T.size)
    radius[:-1] += e
    radius[1:] += e
    # Bracket ends of eigenvalue j at index j - 1: the Gershgorin interval,
    # widened past the rounding of d -/+ radius and of the Sturm count, so
    # that count(lo) = 0 and count(hi) = T.size.
    slack = 8.0 * sys.float_info.epsilon * T.norm_inf()
    lo = [max(float((d - radius).min()) - slack, -sys.float_info.max)] * k
    hi = [min(float((d + radius).max()) + slack, sys.float_info.max)] * k

    out = []
    for i in range(k):
        while hi[i] - lo[i] > tol and math.nextafter(lo[i], hi[i]) < hi[i]:
            x = 0.5 * lo[i] + 0.5 * hi[i]
            count = _sturm_count(pieces, x, sub)[0]
            for j in range(i, k):
                if lo[j] < x < hi[j]:
                    if count > j:
                        hi[j] = x
                    else:
                        lo[j] = x
        out.append(0.5 * lo[i] + 0.5 * hi[i])
    return sorted(out)  # brackets of eigenvalues closer than tol may overlap


@dataclass(frozen=True)
class CountResult:
    negative_count: int
    lowest_eigenvalues: tuple[float, ...]
    s_min: float
    s_max: float
    m: int
    trail: tuple[dict, ...]
    ambiguous: bool = False
    pivot_interval: Optional[tuple[int, int]] = None


def transformed_window_start(spec: OperatorSpec, steps: int) -> float:
    """Image of the domain threshold under s = ln^(steps) x.

    -inf means the transformed operator lives on the whole line."""
    rem = spec.threshold_depth - steps
    base = 0.0 if spec.variant == "zero" else 1.0
    if rem >= 0:
        return iterated_exp(base, rem)
    return safe_iterated_log(base, -rem)


def channel_potential(V: Potential, spec: OperatorSpec, l: Optional[int]):
    """Transformed potential seen by the flat operator -d^2/ds^2 + W.

    d = 1 takes the potential as is; channel l of a central d >= 2 adds the
    coupling l(l+d-2) times C(s), the transform of 1/r^2, which has one fewer
    exponential factor than the potential's own.
    """
    k = spec.n + 1
    if k > DEPTH_CAP:
        raise DepthCapError(f"log depth n = {spec.n} needs {k} transform steps (cap {DEPTH_CAP})")
    if spec.d == 1:
        if l not in (None, 0):
            raise DomainError("d = 1 has no angular channels")
        l = 0
    elif l is None:
        raise DomainError("central operators with d >= 2 need a channel index l")
    elif not isinstance(l, int) or l < 0:
        raise DomainError(f"channel index must be a non-negative integer, got {l!r}")
    return TransformedPotential(V, k, float(l * (l + spec.d - 2)))


def count_negative(
    spec: OperatorSpec,
    V: Potential,
    l: Optional[int] = None,
    L: float = DEFAULT_L,
    m: int = DEFAULT_M,
    doublings: int = 0,
    eigenvalues: int = 0,
) -> CountResult:
    """Negative-eigenvalue count of the transformed operator on a Dirichlet
    window of half-width L (full line) or length L (half line), with
    ``doublings`` rounds of simultaneous window and grid doubling recorded in
    the refinement trail.  ``eigenvalues`` > 0 also finds that many lowest
    eigenvalues (``lowest_eigenvalues``), once, on the finest matrix."""
    if L <= 0.0 or m < 2:
        raise DomainError(f"need L > 0 and m >= 2, got L={L}, m={m}")
    for name, value in (("doublings", doublings), ("eigenvalues", eigenvalues)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    W = channel_potential(V, spec, l)
    s0 = transformed_window_start(spec, spec.n + 1)
    trail = []
    for j in range(doublings + 1):
        Lj = L * 2**j
        mj = m * 2**j
        if math.isinf(s0):
            grid = Grid(-Lj, Lj, mj)
        else:
            grid = Grid(s0, s0 + Lj, mj)
        T = assemble(W, grid)
        raw = inertia_negative_count(T, 0.0)
        ambiguous = isinstance(raw, tuple)
        count = raw[1] if ambiguous else raw
        trail.append({"L": Lj, "m": mj, "count": count, "ambiguous": ambiguous})
    return CountResult(
        negative_count=count,
        lowest_eigenvalues=tuple(lowest_eigenvalues(T, eigenvalues)) if eigenvalues else (),
        s_min=grid.s_min,
        s_max=grid.s_max,
        m=mj,
        trail=tuple(trail),
        ambiguous=ambiguous,
        pivot_interval=raw if ambiguous else None,
    )


def total_central_count(
    spec: OperatorSpec,
    V: Potential,
    L: float = DEFAULT_L,
    m: int = DEFAULT_M,
    doublings: int = 0,
) -> tuple[int, list[dict]]:
    """Degeneracy-weighted sum of channel counts for a central potential.

    Channels are scanned upward; the sum stops at the first channel with a
    zero count beyond l_max (channels above l_max have non-negative potential
    after the transform, hence exactly zero count).
    """
    if spec.d < 2:
        raise DomainError("total_central_count needs d >= 2")
    lm = l_max(V, spec.d, spec.threshold)
    lm_eff = -1 if lm is None else lm
    total = 0
    table = []
    l = 0
    while True:
        res = count_negative(spec, V, l=l, L=L, m=m, doublings=doublings)
        D = degeneracy(spec.d, l)
        total += D * res.negative_count
        table.append(
            {"l": l, "degeneracy": D, "count": res.negative_count, "trail": res.trail}
        )
        if res.negative_count == 0 and l > lm_eff:
            break
        l += 1
        if l > lm_eff + 64:
            raise EvaluationError(
                f"channel scan did not terminate by l = {l}; l_max = {lm_eff}"
            )
    return total, table


def quadratic_form_value(
    side: str,
    d: int,
    n: int,
    u: TestFunction,
    V: Optional[Potential] = None,
    l: int = 0,
    tol: float = 1e-11,
) -> float:
    """Quadratic form of the depth-n Hardy operator on a radial profile, in
    the integrated-by-parts form (first derivatives only).

    side "original":
        int ( u'^2 + (l(l+d-2)/r^2 - weight_stack(r) + V) u^2 ) r^{d-1} dr
    side "transformed": push u through n+1 changes of variable and evaluate
        int ( phi'^2 + W phi^2 ) ds
    against the transformed channel potential W.  For matching supports the
    two values agree; that identity is what the verification suite checks.
    """
    Vp = V if V is not None else ZeroPotential()
    if d == 1 and l != 0:
        raise DomainError("d = 1 has no angular channels")
    if side == "original":
        L = float(l * (l + d - 2))
        lo, hi = u.support

        def f(r: np.ndarray) -> np.ndarray:
            uu = u.value(r)
            du = u.derivative(r)
            pot = Vp(r)
            cent = L / (r * r) if L else 0.0
            return (du * du + (cent - hardy_weight_stack(r, d, n) + pot) * uu * uu) * r ** (
                d - 1
            )

        pts = [p for p in Vp.breakpoints() if lo < p < hi]
        return integrate(f, lo, hi, tol=tol, breakpoints=pts).value

    if side == "transformed":
        k = n + 1
        spec = OperatorSpec(d=d, n=n, variant="zero")
        W = channel_potential(Vp, spec, l if d >= 2 else None)
        phi = transform_test_function(u, d, k)
        lo, hi = phi.support

        def g(s: np.ndarray) -> np.ndarray:
            ps = phi.value(s)
            dps = phi.derivative(s)
            return dps * dps + W(s) * ps * ps

        pts = [p for p in transformed_breakpoints(Vp, k) if lo < p < hi]
        return integrate(g, lo, hi, tol=tol, breakpoints=pts).value

    raise DomainError(f"side must be 'original' or 'transformed', got {side!r}")


def kinetic_term(u: TestFunction, d: int, tol: float = 1e-11) -> float:
    """int u'(r)^2 r^{d-1} dr, the positive scale of the quadratic form."""
    lo, hi = u.support
    return integrate(lambda r: u.derivative(r) ** 2 * r ** (d - 1), lo, hi, tol=tol).value
