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

Outside the image of a finite well W is constant (0, or the coupling on an
n = 0 channel), and the rows of the matrix are equal.  ``assemble`` reads W
only on the rows strictly inside that image, and holds each free stretch on
either side as at most ``_MIN_RUN`` rows and a count, so a count's work
follows the rows of the well, not the grid size m.  The Sturm pass crosses
each run of equal rows in one closed-form step (Chebyshev polynomials of the
second kind give the run's pivots); it steps the other rows one at a time.
The lowest eigenvalues are found by bisection on the same count, with
brackets shared between the requested eigenvalues.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import cached_property
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
)
from .quadrature import integrate
from .testfunctions import TestFunction, transform_test_function

#: the default window L and interior grid size m of a count, which the
#: harness and the CLI read too
DEFAULT_L = 20.0
DEFAULT_M = 4000

_PIVOT_EPS = 2.0**-40
_MIN_H2 = 1.0 / math.sqrt(sys.float_info.max)  # smallest h^2 whose 1/h^4 is finite
_MAX_H2 = 1.0 / math.sqrt(sys.float_info.min)  # largest h^2 whose 1/h^4 is about normal
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


class TridiagonalOperator:
    """Symmetric tridiagonal matrix, held by rows: row i is the pair
    (diagonal i, |off-diagonal i - 1|), with coupling 0 for row 0.  A matrix
    built from its two diagonals holds every row.  ``assemble`` holds only
    the first ``_MIN_RUN`` rows of a longer free stretch, and the number of
    rows left out.

    ``diagonal``, ``off_diagonal`` and ``dense()`` are formed on first access.
    ||T||, the Gershgorin ends and the Sturm pieces with their zero-pivot
    substitute are formed once, from the held rows, equal bit for bit to what
    the full diagonals give.
    """

    def __init__(self, diagonal, off_diagonal):
        diag = np.asarray(diagonal, dtype=float)
        off = np.asarray(off_diagonal, dtype=float)
        if diag.ndim != 1 or off.ndim != 1 or len(off) != len(diag) - 1:
            raise DomainError("need m diagonal and m-1 off-diagonal entries")
        self.diagonal, self.off_diagonal = diag, off
        self._hold(diag, np.concatenate(([0.0], np.abs(off))), np.ones(len(diag), dtype=np.intp))

    @classmethod
    def _from_rows(cls, diag: np.ndarray, coupling: np.ndarray, reps: np.ndarray):
        """The assembled matrix, with off-diagonal -coupling, whose held row i
        stands for reps[i] equal rows.  A row held with reps > 1 lies in a
        stretch of at least ``_MIN_RUN`` equal held rows, so its copies add no
        row sum and no plain row that the held rows lack."""
        T = cls.__new__(cls)
        T._hold(diag, coupling, reps)
        return T

    def _hold(self, diag: np.ndarray, coupling: np.ndarray, reps: np.ndarray) -> None:
        self._rows = (diag, coupling, reps)
        self.size = int(reps.sum())
        self._after = np.concatenate((coupling[1:], [0.0]))  # coupling to the next row
        with np.errstate(over="ignore"):
            # added in the order of |d_i| + |e_i| + |e_(i-1)|; NaN and inf
            # entries give a NaN or an infinite norm
            self._norm = float(((np.abs(diag) + self._after) + coupling).max())
        top = float(coupling.max())
        if not (math.isfinite(self._norm) and math.isfinite(top * top)):
            raise DomainError("entries, ||T|| and squared off-diagonal entries must lie "
                              "in the double range")

    @cached_property
    def diagonal(self) -> np.ndarray:
        diag, _, reps = self._rows
        return np.repeat(diag, reps)

    @cached_property
    def off_diagonal(self) -> np.ndarray:
        _, coupling, reps = self._rows
        return -np.repeat(coupling, reps)[1:]

    @cached_property
    def _sturm(self) -> tuple[list, float]:
        return _sturm_inputs(self)

    @cached_property
    def _gershgorin(self) -> tuple[float, float]:
        diag, coupling, _ = self._rows
        radius = self._after + coupling
        return float((diag - radius).min()), float((diag + radius).max())

    def __repr__(self) -> str:
        return (f"TridiagonalOperator(diagonal={self.diagonal!r}, "
                f"off_diagonal={self.off_diagonal!r})")

    def norm_inf(self) -> float:
        return self._norm

    def dense(self) -> np.ndarray:
        return (
            np.diag(self.diagonal)
            + np.diag(self.off_diagonal, 1)
            + np.diag(self.off_diagonal, -1)
        )


def assemble(W, grid: Grid) -> TridiagonalOperator:
    """Three-point stencil for -d^2/ds^2 + W(s) on the grid:
    diagonal 2/h^2 + W(s_i), off-diagonal -1/h^2.

    W is called once, on an array of grid points; a scalar result (a constant
    potential) is broadcast to them.  A ``TransformedPotential`` that names an
    interval outside which it is a constant w (``exterior``: 0, or the
    coupling on an n = 0 channel) is read only on the rows strictly inside
    it.  The free rows 2/h^2 + w on either side are held as at most
    ``_MIN_RUN`` rows and a count, so no array of length m is formed.
    Any other W is read on every row.  EvaluationError when 1/h^2, or its
    square in the Sturm recurrence, leaves the double range or underflows,
    and when an entry or ||T|| leaves the double range.
    """
    h = grid.h
    if not h * h > _MIN_H2:
        raise EvaluationError(f"grid step h = {h:g} is too small: 1/h^2 or its square "
                              "leaves the double range")
    if not h * h < _MAX_H2:
        raise EvaluationError(f"grid step h = {h:g} is too large: 1/h^2 or its square "
                              "underflows")
    lo, hi, w = _live_rows(W, grid)
    pts = grid.s_min + h * np.arange(lo + 1, hi + 1)
    free = 2.0 / (h * h)
    try:
        live = np.add(free, W(pts), out=np.empty_like(pts))
    except (DomainError, OverflowError) as exc:
        raise EvaluationError(_first_failure(W, pts, lo, exc)) from exc
    # held: row 0 and up to _MIN_RUN free rows 2/h^2 + w before the live ones,
    # the live rows, and up to _MIN_RUN free rows after them; the free rows
    # left out are counted on row 1 and on the last row, each inside a held run
    head, tail = min(lo, _MIN_RUN + 1), min(grid.m - hi, _MIN_RUN)
    diag = np.concatenate(([free + w] * head, live, [free + w] * tail))
    coupling = np.full(len(diag), 1.0 / (h * h))
    coupling[0] = 0.0
    reps = np.ones(len(diag), dtype=np.intp)
    reps[min(1, head)] += lo - head
    reps[-1] += grid.m - hi - tail
    try:
        return TridiagonalOperator._from_rows(diag, coupling, reps)
    except DomainError as exc:
        raise EvaluationError(f"assembled matrix: {exc}") from exc


def _live_rows(W, grid: Grid) -> tuple[int, int, float]:
    """Rows lo..hi-1 outside which W is the constant w on the grid: those
    whose points, formed as ``Grid.points`` forms them, lie strictly inside
    the interval (a, b) of ``W.exterior()``, and its w; (m, m) when no row
    does, and every row for a W without a constant exterior."""
    exterior = W.exterior() if isinstance(W, TransformedPotential) else None
    a, b, w = exterior or (-math.inf, math.inf, 0.0)  # no constant exterior: every row
    s_min, h = grid.s_min, grid.h

    def point(i):
        return s_min + h * (i + 1)

    lo = bisect.bisect_right(range(grid.m), a, key=point)
    hi = bisect.bisect_left(range(grid.m), b, key=point)
    return (lo, hi, w) if lo < hi else (grid.m, grid.m, w)


def _first_failure(W, pts: np.ndarray, start: int, exc: Exception) -> str:
    """Message naming the first grid point at which W fails; ``pts`` are the
    points of rows ``start`` on.  Runs only after the array evaluation has
    failed."""
    for i, s in enumerate(pts.tolist(), start=start):
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
    a - 2|e| and a + 2|e|, exact on a free stretch where W = 0, so shifts near
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
    # c = cosh(theta); also c - 1 = -5e-324, whose half rounds to -0.0 (c = 1)
    if 0.5 * c_minus_1 >= 0.0:
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
    stretch, stepped as the plain recurrence.  Rows left out of the held ones
    lie in runs, and count in their lengths.
    """
    diag, e, reps = T._rows
    e2 = e * e
    starts = np.flatnonzero(np.concatenate(
        ([True], (diag[1:] != diag[:-1]) | (e[1:] != e[:-1]))))
    ends = np.concatenate((starts[1:], [len(diag)]))
    lengths = np.add.reduceat(reps, starts)
    runs = lengths >= _MIN_RUN
    rows, rows_e2 = diag.tolist(), e2.tolist()
    pieces = []
    first = 0
    for i, j, k in zip(starts[runs].tolist(), ends[runs].tolist(), lengths[runs].tolist()):
        a, c = rows[i], float(e[i])
        pieces.append((rows[first:i], rows_e2[first:i], (a, c, a - 2.0 * c, a + 2.0 * c, k)))
        first = j
    pieces.append((rows[first:], rows_e2[first:], None))
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
    pieces, sub = T._sturm
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
    pieces, sub = T._sturm
    # Bracket ends of eigenvalue j at index j - 1: the Gershgorin interval,
    # widened past the rounding of d -/+ radius and of the Sturm count, so
    # that count(lo) = 0 and count(hi) = T.size.
    low, high = T._gershgorin
    slack = 8.0 * sys.float_info.epsilon * T.norm_inf()
    lo = [max(low - slack, -sys.float_info.max)] * k
    hi = [min(high + slack, sys.float_info.max)] * k

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
    if not 0.0 < L < math.inf or m < 2:
        raise DomainError(f"need a finite L > 0 and m >= 2, got L={L}, m={m}")
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
    """Degeneracy-weighted sum of channel counts for a central potential,
    over the channels l = 0 .. l_max that ``central_bound`` sums (none when
    l_max is None).  Above an exact l_max every channel potential is >= 0
    and counts 0; ``l_max`` refuses a V whose sup it cannot give exactly.
    """
    if spec.d < 2:
        raise DomainError("total_central_count needs d >= 2")
    lm = l_max(V, spec.d, spec.threshold)
    total = 0
    table = []
    for l in range(0 if lm is None else lm + 1):
        res = count_negative(spec, V, l=l, L=L, m=m, doublings=doublings)
        D = degeneracy(spec.d, l)
        total += D * res.negative_count
        table.append(
            {"l": l, "degeneracy": D, "count": res.negative_count, "trail": res.trail}
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

        return integrate(g, lo, hi, tol=tol, breakpoints=W.kinks()).value

    raise DomainError(f"side must be 'original' or 'transformed', got {side!r}")


def kinetic_term(u: TestFunction, d: int, tol: float = 1e-11) -> float:
    """int u'(r)^2 r^{d-1} dr, the positive scale of the quadratic form."""
    lo, hi = u.support
    return integrate(lambda r: u.derivative(r) ** 2 * r ** (d - 1), lo, hi, tol=tol).value
