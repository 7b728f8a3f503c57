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

The lowest eigenvalues are bracketed by the same Sturm count: bisection until
a bracket isolates one eigenvalue, then Newton steps on det(T - x) whose
derivative comes from the same pivots, every bracket end still counted.
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
    ZeroPotential,
    effective_radial_potential,
    transform_potential,
    transformed_breakpoints,
)
from .quadrature import integrate
from .testfunctions import TestFunction, transform_test_function

_PIVOT_EPS = 2.0**-40
_MIN_H2 = 1.0 / math.sqrt(sys.float_info.max)  # smallest h^2 whose 1/h^4 is finite


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
    its square in the Sturm recurrence, leaves the double range.
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
    return TridiagonalOperator(diag, off)


def _first_failure(W, pts: np.ndarray, exc: Exception) -> str:
    """Message naming the first grid point at which W fails.  Runs only after
    the array evaluation has failed."""
    for i, s in enumerate(pts.tolist()):
        try:
            W(s)
        except (DomainError, OverflowError) as point_exc:
            return f"potential evaluation failed at grid index {i} (s = {s}): {point_exc}"
    return f"potential evaluation failed on the grid: {exc}"


def _sturm_count(diag, off_sq, shift: float, pivot_sub: float) -> tuple[int, bool]:
    """Negative pivots of the shifted LDL^T factorization = eigenvalues < shift,
    and whether an exact zero pivot occurred.

    ``off_sq`` holds the squared off-diagonal.  Exact zero pivots are replaced
    by ``pivot_sub``.  Infinite intermediate pivots are harmless: the following
    ratio collapses to zero and the recurrence self-heals.
    """
    count = 0
    zero_pivot = False
    d = diag[0] - shift
    if d == 0.0:
        d = pivot_sub
        zero_pivot = True
    if d < 0.0:
        count += 1
    for a, e2 in zip(diag[1:], off_sq):
        d = (a - shift) - e2 / d
        if d == 0.0:
            d = pivot_sub
            zero_pivot = True
        if d < 0.0:
            count += 1
    return count, zero_pivot


def _sturm_inputs(T: TridiagonalOperator) -> tuple[list, list, float]:
    """Diagonal, squared off-diagonal and zero-pivot substitute eps ||T||, as
    the Sturm recurrence reads them.  For a subnormal ||T|| the product
    underflows to 0, and the least positive double stands in for it."""
    scale = T.norm_inf() or 1.0
    off = T.off_diagonal
    return T.diagonal.tolist(), (off * off).tolist(), max(_PIVOT_EPS * scale, math.ulp(0.0))


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
    diag, off_sq, sub = _sturm_inputs(T)
    up, zero_pivot = _sturm_count(diag, off_sq, shift, sub)
    if not zero_pivot:
        return up
    down, _ = _sturm_count(diag, off_sq, shift, -sub)
    if up == down:
        return up
    return (min(up, down), max(up, down))


def _sturm_newton(diag, off_sq, shift: float, pivot_sub: float) -> tuple[int, float]:
    """The +eps Sturm count of ``_sturm_count`` and G = sum_i d_i'/d_i =
    sum_k 1/(shift - lambda_k), the logarithmic derivative of det(T - shift),
    from the same pivots in one pass.  The pivots are computed with the same
    expression as ``_sturm_count``, so the count is the same bit for bit."""
    count = 0
    d = diag[0] - shift
    if d == 0.0:
        d = pivot_sub
    if d < 0.0:
        count += 1
    u = -1.0 / d
    g = u
    for a, e2 in zip(diag[1:], off_sq):
        r = e2 / d
        d = (a - shift) - r
        if d == 0.0:
            d = pivot_sub
        if d < 0.0:
            count += 1
        u = (r * u - 1.0) / d
        g += u
    return count, g


def lowest_eigenvalues(T: TridiagonalOperator, k: int, tol: float = 1e-10) -> list[float]:
    """k smallest eigenvalues, sorted ascending.  Eigenvalue j is the midpoint
    of a bracket [lo, hi] with count(lo) < j <= count(hi) under the +eps
    Sturm count, closed once hi - lo <= tol or once no double lies strictly
    between lo and hi (ulps are wider than tol = 1e-10 from magnitude 2^19).

    All k brackets start at the Gershgorin interval, and every counted point
    narrows each of them, so eigenvalue j + 1 starts from what the search for
    j has found.  A bracket is bisected until it holds exactly one eigenvalue
    (end counts j - 1 and j) and is narrow (width <= 1e-2 max(1, |lo| + |hi|)).
    From there each point is a Newton step x - 1/G on det(T - x), with
    G = sum 1/(x - lambda) from ``_sturm_newton``, unless the step leaves the
    bracket or is more than half the step before it: then it is a bisection.
    Every point is counted before it moves an end.  A step below tol/4 is
    closed by one count on each side of the Newton point at x +/- tol/2, or at
    the next double where x +/- tol/2 rounds back to x; a probe that is not
    strictly inside the bracket is not counted.
    """
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= T.size:
        raise DomainError(f"need an integer 1 <= k <= {T.size}, got {k!r}")
    diag, off_sq, sub = _sturm_inputs(T)
    d = T.diagonal
    e = np.abs(T.off_diagonal)
    radius = np.zeros(T.size)
    radius[:-1] += e
    radius[1:] += e
    # Bracket ends of eigenvalue j at index j - 1, with their counts.
    lo = [float((d - radius).min())] * k
    hi = [float((d + radius).max())] * k
    c_lo = [0] * k
    c_hi = [T.size] * k

    def narrow(first: int, x: float, count: int) -> None:
        for i in range(first, k):
            if lo[i] < x < hi[i]:
                if count > i:
                    hi[i], c_hi[i] = x, count
                else:
                    lo[i], c_lo[i] = x, count

    out = []
    for i in range(k):
        x_next, last_step = math.nan, math.inf
        while hi[i] - lo[i] > tol and math.nextafter(lo[i], hi[i]) < hi[i]:
            if not (c_lo[i] == i and c_hi[i] == i + 1
                    and hi[i] - lo[i] <= 1e-2 * max(1.0, abs(lo[i]) + abs(hi[i]))):
                x = 0.5 * (lo[i] + hi[i])
                narrow(i, x, _sturm_count(diag, off_sq, x, sub)[0])
                continue
            if not lo[i] < x_next < hi[i]:
                x_next, last_step = 0.5 * (lo[i] + hi[i]), math.inf
            x = x_next
            count, g = _sturm_newton(diag, off_sq, x, sub)
            narrow(i, x, count)
            step = 1.0 / g if g else math.inf
            x_next = x - step
            if abs(step) < 0.25 * tol:
                for probe in (min(x_next - 0.5 * tol, math.nextafter(x_next, -math.inf)),
                              max(x_next + 0.5 * tol, math.nextafter(x_next, math.inf))):
                    if lo[i] < probe < hi[i]:
                        narrow(i, probe, _sturm_count(diag, off_sq, probe, sub)[0])
            if not abs(step) <= 0.5 * last_step:
                x_next = math.nan  # not converging fast enough: bisect next
            last_step = abs(step)
        out.append(0.5 * (lo[i] + hi[i]))
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

    d = 1 takes the potential as is; central d >= 2 prepends the channel's
    centrifugal term, whose transform picks up one fewer exponential factor
    than the potential itself.
    """
    k = spec.n + 1
    if k > DEPTH_CAP:
        raise DepthCapError(f"log depth n = {spec.n} needs {k} transform steps (cap {DEPTH_CAP})")
    if spec.d == 1:
        if l not in (None, 0):
            raise DomainError("d = 1 has no angular channels")
        return transform_potential(V, k)
    if l is None:
        raise DomainError("central operators with d >= 2 need a channel index l")
    return transform_potential(effective_radial_potential(V, l, spec.d), k)


def count_negative(
    spec: OperatorSpec,
    V: Potential,
    l: Optional[int] = None,
    L: float = 20.0,
    m: int = 4000,
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
    L: float = 20.0,
    m: int = 4000,
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
