"""Property tests: the single-pass Sturm count, and its closed-form step
across runs of equal rows, against dense eigenvalues and against the
two-pass reference; the eigenvalue search on assembled wells against dense
eigenvalues and the count at its bracket ends; the potentials, the transformed potentials
and the log weights against scalar reference formulas kept here; each
family's power-log form against its potential; the array
bisection of the channel crossings against the scalar one; the l_max sup
(its closed forms) against a dense sup, and the channels a central count
sums against those of the bound; the batched
GK15 quadrature against the scalar rule, component by component; and
central_bound's shared channel quadrature against one quadrature per
channel and against flat integrals of the channel potentials the count
assembles; clr_bound's flat integral against its x side; and Weyl
monotonicity of the count in the depth of a well."""

import bisect
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from hypothesis import assume, event, example, find, given, settings
from hypothesis import strategies as st

from hardybounds import bounds
from hardybounds.errors import DomainError, EvaluationError
from hardybounds.bounds import (
    DEFAULT_CLR_CONSTANTS,
    OperatorSpec,
    _sup_r2_negative_part,
    central_bound,
    clr_bound,
    l_max,
)
from hardybounds.iterfun import (
    DomainThreshold,
    hardy_weight_stack,
    iterated_exp,
    safe_iterated_log,
    sphere_area,
)
from hardybounds.quadrature import (
    QuadratureError,
    _EPS as _QUAD_EPS,
    _gk15,
    _WG,
    _WG_CENTER,
    _WGK,
    _WGK_CENTER,
    _XGK,
    integrate,
    integrate_semiinfinite,
)
from hardybounds.potentials import (
    InverseSquareTail,
    Potential,
    PowerLogWell,
    SquareWell,
    TabulatedPotential,
    TransformedPotential,
    ZeroPotential,
    _centrifugal_crossings,
    _monotone_roots,
    _tabulated_crossings,
    make_potential,
    negative_part_abs,
    transform_potential,
)
from hardybounds.spectra import (
    _MIN_RUN,
    Grid,
    TridiagonalOperator,
    _live_rows,
    _sturm_count,
    _sturm_inputs,
    assemble,
    channel_potential,
    count_negative,
    inertia_negative_count,
    lowest_eigenvalues,
    total_central_count,
    transformed_window_start,
)
from weighted_oracle import absolute_log_weight, clr_x_integral, weighted_negpart_quad
from test_potentials import Formless

_PIVOT_EPS = 2.0**-40


def pivot_sub(T):
    """eps ||T||, or the least positive double where that underflows to 0."""
    return max(_PIVOT_EPS * (T.norm_inf() or 1.0), math.ulp(0.0))


def two_pass_count(T, shift=0.0):
    """Reference: the +eps and -eps zero-pivot passes, both always run."""

    def count(sub):
        diag, off = T.diagonal.tolist(), T.off_diagonal.tolist()
        n = 0
        d = diag[0] - shift
        if d == 0.0:
            d = sub
        n += d < 0.0
        for i in range(1, len(diag)):
            e = off[i - 1]
            d = (diag[i] - shift) - e * e / d
            if d == 0.0:
                d = sub
            n += d < 0.0
        return n

    up, down = count(pivot_sub(T)), count(-pivot_sub(T))
    return up if up == down else (min(up, down), max(up, down))


def first_zero_pivot(T):
    """Index of the first exact zero pivot of the unperturbed recurrence."""
    diag, off = T.diagonal.tolist(), T.off_diagonal.tolist()
    d = diag[0]
    for i in range(len(diag)):
        if i:
            d = diag[i] - off[i - 1] * off[i - 1] / d
        if d == 0.0:
            return i
    return None


@st.composite
def tridiagonals(draw):
    """Random tridiagonals, half of them forced through an exact zero pivot.

    Small integer entries hit zero pivots by themselves; the forced case sets
    diagonal entry j to the exact value that cancels pivot j.
    """
    m = draw(st.integers(2, 40))
    entries = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    )
    diag = draw(st.lists(entries, min_size=m, max_size=m))
    off = draw(st.lists(entries, min_size=m - 1, max_size=m - 1))
    if draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        d = diag[0]
        for i in range(1, j):
            if d == 0.0:
                break
            d = diag[i] - off[i - 1] * off[i - 1] / d
        if j == 0:
            diag[0] = 0.0
        elif d != 0.0 and math.isfinite(off[j - 1] * off[j - 1] / d):
            diag[j] = off[j - 1] * off[j - 1] / d
    return TridiagonalOperator(np.array(diag), np.array(off))


class TestSturmProperties:
    @settings(max_examples=150, deadline=None)
    @given(T=tridiagonals())
    def test_single_pass_against_references(self, T):
        res = inertia_negative_count(T, 0.0)
        assert res == two_pass_count(T, 0.0)
        # the -eps re-run happens exactly when an exact zero pivot occurs
        pieces, _ = _sturm_inputs(T)
        _, zero_pivot, _ = _sturm_count(pieces, 0.0, pivot_sub(T))
        assert zero_pivot == (first_zero_pivot(T) is not None)
        # dense oracle: the count brackets the eigenvalues below +-delta, and
        # an interval appears only where an eigenvalue sits at zero
        ev = np.linalg.eigvalsh(T.dense())
        delta = 1e-8 * max(1.0, T.norm_inf())
        below = int(np.sum(ev < -delta))
        at_most = int(np.sum(ev < delta))
        if isinstance(res, tuple):
            assert below <= res[0] < res[1] <= at_most
        else:
            assert below <= res <= at_most

    def test_forced_zero_pivots_run_the_second_pass(self):
        # eigenvalues {0, 2}: the second pivot is 1 - 1/1 = 0 exactly
        T = TridiagonalOperator(np.array([1.0, 1.0]), np.array([-1.0]))
        assert first_zero_pivot(T) == 1
        sub = _PIVOT_EPS * T.norm_inf()
        pieces, _ = _sturm_inputs(T)
        assert _sturm_count(pieces, 0.0, sub)[:2] == (0, True)
        assert _sturm_count(pieces, 0.0, -sub)[:2] == (1, True)
        assert inertia_negative_count(T, 0.0) == (0, 1)
        # an interior zero pivot: both perturbations agree on the count
        T = TridiagonalOperator(np.array([1.0, 1.0, 3.0]), np.array([-1.0, 1.0]))
        assert first_zero_pivot(T) == 1
        assert inertia_negative_count(T, 0.0) == two_pass_count(T) == 1

    def test_subnormal_norm_keeps_a_nonzero_pivot_substitute(self):
        # eps ||T|| underflows to 0 here; the eigenvalues are +-5e-324
        T = TridiagonalOperator(np.array([0.0, 0.0]), np.array([5e-324]))
        assert inertia_negative_count(T, 0.0) == two_pass_count(T) == (0, 2)

    def test_strategy_reaches_zero_pivots(self):
        found = find(tridiagonals(), lambda T: first_zero_pivot(T) not in (None, 0))
        assert first_zero_pivot(found) >= 1


class TestLowestEigenvalueProperties:
    """The bracketed bisection on the tridiagonals above, whose small
    integer entries repeat diagonals, zero couplings and hit zero pivots."""

    @settings(max_examples=200, deadline=None)
    @given(T=tridiagonals(), data=st.data())
    def test_values_against_dense_and_sturm_brackets(self, T, data):
        k = data.draw(st.integers(1, T.size), label="k")
        tol = 1e-10
        got = lowest_eigenvalues(T, k, tol)
        ref = np.linalg.eigvalsh(T.dense())[:k]
        bound = tol + 64 * np.finfo(float).eps * T.norm_inf()
        assert np.all(np.abs(np.array(got) - ref) <= bound)
        pieces, sub = _sturm_inputs(T)
        for j, v in enumerate(got, start=1):
            # where an ulp of v is wider than tol, v +/- tol/2 rounds back to
            # v, and the bracket ends are the doubles next to v
            below = min(v - tol / 2, math.nextafter(v, -math.inf))
            above = max(v + tol / 2, math.nextafter(v, math.inf))
            assert _sturm_count(pieces, below, sub)[0] < j
            assert _sturm_count(pieces, above, sub)[0] >= j


@st.composite
def stretched_tridiagonals(draw):
    """Tridiagonals built, as an assembled grid is, from stretches of rows
    (diagonal, coupling to the row before): free stretches whose diagonal is
    exactly 2|e|, level stretches at another diagonal, stretches with zero
    coupling and stretches of unequal rows.  Lengths run from 1 to 1000, at
    and around ``_MIN_RUN``; entries are scaled by 1 or 1e3."""
    scale = draw(st.sampled_from([1.0, 1e3]))
    lengths = st.one_of(st.integers(1, 1000), st.integers(_MIN_RUN - 1, _MIN_RUN + 1),
                        st.integers(_MIN_RUN, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diag, off = [], []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(lengths)
        kind = draw(st.sampled_from(["free", "level", "decoupled", "unequal"]))
        e = scale * draw(st.sampled_from([1.0, 0.5, draw(st.floats(0.25, 4.0))]))
        if kind == "unequal":
            diag += (scale * rng.uniform(-4.0, 4.0, k)).tolist()
            off += (scale * rng.uniform(-2.0, 2.0, k)).tolist()
            continue
        a = {"free": 2.0 * e, "level": scale * draw(st.floats(-4.0, 4.0)),
             "decoupled": scale * draw(st.integers(-2, 2))}[kind]
        diag += [a] * k
        off += [0.0 if kind == "decoupled" else draw(st.sampled_from([e, -e]))] * k
    if len(diag) < 2:
        diag.append(diag[0])
        off.append(off[0])
    return TridiagonalOperator(np.array(diag), np.array(off[1:]))


def run_shifts(T, ev):
    """Shifts in the three regimes c > 1, |c| < 1 and c < -1 of a row
    (a, e), c = (a - x)/(2|e|), at its band edges a +/- 2|e|, within 1e-9 of
    an eigenvalue, and anywhere in the spectrum."""
    rows = st.integers(1, T.size - 1)

    def at(i, c):
        return float(T.diagonal[i] - 2.0 * abs(T.off_diagonal[i - 1]) * c)

    return st.one_of(
        st.builds(at, rows, st.floats(-3.0, 3.0)),
        st.builds(at, rows, st.sampled_from([-1.0, 1.0])),
        st.builds(lambda j, u: float(ev[j] + 1e-9 * u),
                  st.integers(0, len(ev) - 1), st.floats(-1.0, 1.0)),
        st.floats(float(ev[0]) - 1.0, float(ev[-1]) + 1.0),
    )


class TestRunStepProperties:
    """The closed-form step across runs of equal rows against the plain
    recurrence, the dense spectrum and the eigenvalue search."""

    @settings(max_examples=150, deadline=None)
    @given(T=stretched_tridiagonals(), data=st.data())
    def test_count_against_plain_recurrence_and_dense(self, T, data):
        ev = eigvalsh_tridiagonal(T.diagonal, T.off_diagonal)
        delta = 1e-9 * T.norm_inf()
        for x in data.draw(st.lists(run_shifts(T, ev), min_size=1, max_size=6), label="x"):
            res = inertia_negative_count(T, x)
            below = int(np.sum(ev < x - delta))
            at_most = int(np.sum(ev <= x + delta))
            low, high = res if isinstance(res, tuple) else (res, res)
            assert below <= low <= high <= at_most
            if below == at_most:  # no eigenvalue within 1e-9 ||T|| of x
                assert res == two_pass_count(T, x)

    @settings(max_examples=60, deadline=None)
    @given(T=stretched_tridiagonals(), data=st.data())
    def test_lowest_eigenvalues_against_dense(self, T, data):
        k = data.draw(st.integers(1, min(T.size, 4)), label="k")
        tol = 1e-10
        got = lowest_eigenvalues(T, k, tol)
        ref = eigvalsh_tridiagonal(T.diagonal, T.off_diagonal)[:k]
        assert np.all(np.abs(np.array(got) - ref) <= tol + 64 * np.finfo(float).eps * T.norm_inf())


@st.composite
def line_count_matrices(draw):
    """The matrix of a line count: a square or power-log well placed in
    s = ln^(n+1) x inside the window at L = 20, with max |W| from 20 to 400
    and 200 to 600 grid points, so that a free run of equal rows ends it."""
    n = draw(st.sampled_from([0, 1, 2]), label="n")
    spec = OperatorSpec(1, n, draw(st.sampled_from(["zero", "one"]), label="variant"))
    s0 = transformed_window_start(spec, n + 1)
    s_a = draw(st.floats(-2.0, 0.3) if math.isinf(s0) else st.floats(s0 + 0.3, s0 + 1.0))
    s_b = min(s_a + draw(st.floats(0.3, 1.0)), 1.2 if n == 2 else 3.0)  # W in the double range
    a, b = iterated_exp(s_a, n + 1), iterated_exp(s_b, n + 1)
    if draw(st.booleans(), label="square"):
        well = lambda c: SquareWell(c=c, a=a, b=b)
    else:
        p, q = draw(st.floats(-3.0, 1.0)), draw(st.sampled_from([0.0, 1.0] if a >= 1.0 else [0.0]))
        well = lambda c: PowerLogWell(c, p, q, a, b)
    s = np.linspace(s_a, s_b, 201)[1:-1]
    scale = float(np.max(np.abs(channel_potential(well(1.0), spec, None)(s))))
    V = well(draw(st.floats(20.0, 400.0)) / scale)
    L = 20.0
    grid = Grid(-L, L, draw(st.integers(200, 600))) if math.isinf(s0) else \
        Grid(s0, s0 + L, draw(st.integers(200, 600)))
    return assemble(channel_potential(V, spec, None), grid)


class TestFalsePositionProperties:
    """The eigenvalue search on assembled wells, where false position on the
    twisted pivot at the free tail closes the brackets: each value against
    the dense spectrum, and its bracket against the Sturm count."""

    @settings(max_examples=60, deadline=None)
    @given(T=line_count_matrices(), k=st.integers(1, 6), tol=st.sampled_from([1e-10, 0.0]))
    def test_values_against_dense_and_counts(self, T, k, tol):
        pieces, sub = _sturm_inputs(T)
        assert pieces[-1] == ([], [], None) and pieces[-2][2] is not None  # a tail run
        got = lowest_eigenvalues(T, k, tol)
        ref = np.linalg.eigvalsh(T.dense())[:k]
        assert np.all(np.abs(np.array(got) - ref) <= tol / 2 + 64 * np.finfo(float).eps * T.norm_inf())
        event(f"eigenvalues above the tail level: {sum(v > 0.0 for v in got)}")
        for j, v in enumerate(got, start=1):
            down, up = math.nextafter(v, -math.inf), math.nextafter(v, math.inf)
            if tol == 0.0:
                # the bracket closed on adjacent doubles, v and one next to it;
                # no wider test holds, as the count is not monotone within
                # rounding of an eigenvalue
                low, at, high = (_sturm_count(pieces, x, sub)[0] for x in (down, v, up))
                assert low < j <= at or at < j <= high
            else:
                assert _sturm_count(pieces, min(v - tol / 2, down), sub)[0] == j - 1
                assert _sturm_count(pieces, max(v + tol / 2, up), sub)[0] == j


def dense_reference(W, grid):
    """What a count reads off the matrix built from full diagonals, row by
    row: the materialised diagonal, the Sturm pieces, eps ||T||, ||T|| and
    the widened-free Gershgorin ends."""
    h = grid.h
    pts = grid.points()
    diag = 2.0 / (h * h) + np.broadcast_to(W(pts), pts.shape)
    off = np.full(grid.m - 1, -1.0 / (h * h))
    e = np.concatenate(([0.0], np.abs(off)))
    pieces, first, i = [], 0, 0
    while i < len(diag):
        j = i + 1
        while j < len(diag) and diag[j] == diag[i] and e[j] == e[i]:
            j += 1
        if j - i >= _MIN_RUN:
            a, c = float(diag[i]), float(e[i])
            pieces.append((diag[first:i].tolist(), (e[first:i] * e[first:i]).tolist(),
                           (a, c, a - 2.0 * c, a + 2.0 * c, j - i)))
            first = j
        i = j
    pieces.append((diag[first:].tolist(), (e[first:] * e[first:]).tolist(), None))
    norm = np.abs(diag)
    norm[:-1] += e[1:]
    norm[1:] += e[1:]
    radius = np.zeros(len(diag))
    radius[:-1] += e[1:]
    radius[1:] += e[1:]
    norm = float(norm.max())
    return {"diagonal": diag.tobytes(), "off_diagonal": off.tobytes(), "pieces": pieces,
            "sub": max(_PIVOT_EPS * (norm or 1.0), math.ulp(0.0)), "norm": norm,
            "gershgorin": (float((diag - radius).min()), float((diag + radius).max()))}


@st.composite
def assembled_wells(draw):
    """(W, grid) pairs as a count assembles them: wells, barriers (c < 0),
    tails (b = inf) and q = 1 wells at n in {0, 1, 2} on both variants, whose
    image in s covers row 0, the last row, both or neither, or misses the
    window; with depths down to 1e-320, so that W rounds to 0.0 on some rows
    inside its support; tabulated V, which is read on every row; and coupled
    channels, read on every row past n = 0, and at n = 0 held outside the
    image as the coupling W evaluates, which is not 3 for l = 1 at d = 4.
    m runs down to 2."""
    n = draw(st.integers(0, 2), label="n")
    variant = draw(st.sampled_from(["zero", "one"]), label="variant")
    m = draw(st.one_of(st.integers(2, 40), st.integers(41, 400)), label="m")
    L = draw(st.floats(0.25, 12.0 if n < 2 else 1.5), label="L")
    s0 = transformed_window_start(OperatorSpec(1, n, variant), n + 1)
    grid = Grid(-L, L, m) if math.isinf(s0) else Grid(s0, s0 + L, m)
    span = grid.s_max - grid.s_min
    kind = draw(st.sampled_from(["square", "power", "barrier", "tail", "tabulated"]), label="kind")
    s_a = grid.s_min + span * draw(st.floats(-0.3, 1.3), label="start")
    s_b = s_a + span * draw(st.one_of(st.floats(0.001, 0.2), st.floats(0.01, 1.6)), label="width")

    def image(s):  # x = exp^(n+1) s, or inf past the double range
        try:
            return iterated_exp(s, n + 1)
        except OverflowError:
            return math.inf

    a, b = image(s_a), math.inf if kind == "tail" else image(s_b)
    assume(a < b and math.isfinite(a))
    depth = 10.0 ** draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-320.0, 3.0)), label="log10 c")
    if kind == "square":
        V = SquareWell(c=depth, a=a, b=b)
    elif kind == "tabulated":  # samples past both ends of the grid's image
        ends = [image(s) for s in (grid.s_min - 0.5, grid.s_max + 0.5)]
        assume(math.isfinite(ends[1]))
        r = np.geomspace(*ends, draw(st.integers(2, 12)))
        V = TabulatedPotential(r=tuple(r), v=tuple(-depth * np.cos(np.arange(len(r)))))
    else:
        q = float(draw(st.integers(0, 1))) if a >= 1.0 else 0.0
        p = draw(st.floats(-80.0, 2.0), label="p")
        V = PowerLogWell(c=-depth if kind == "barrier" else depth, p=p, q=q, a=a, b=b)
    if draw(st.sampled_from([False, False, True]), label="coupled"):
        spec, l = OperatorSpec(draw(st.integers(2, 4)), n, variant), draw(st.integers(1, 2))
    else:
        spec, l = OperatorSpec(1, n, variant), None
    return channel_potential(V, spec, l), grid


class TestHeldRowProperties:
    """``assemble`` reads W only where it can be nonzero and holds the free
    stretches by their length; what a count reads off it is what the full
    diagonals give, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=assembled_wells())
    # the exterior of l = 1 at d = 4 is exp(log 3), and 2/h^2 + 3 rounds apart from it
    @example(case=(channel_potential(SquareWell(c=50.0, a=1.0, b=2.0),
                                     OperatorSpec(4, 0, "one"), 1), Grid(0.0, 12.0, 30)))
    def test_held_rows_match_the_full_diagonals(self, case):
        W, grid = case
        try:
            want = dense_reference(W, grid)
        except (DomainError, OverflowError):
            event("both paths raise")
            with pytest.raises(EvaluationError):
                assemble(W, grid)
            return
        if not math.isfinite(want["norm"]):
            event("both paths raise")
            with pytest.raises(EvaluationError):
                assemble(W, grid)
            return
        T = assemble(W, grid)
        pieces, sub = _sturm_inputs(T)
        got = {"diagonal": T.diagonal.tobytes(), "off_diagonal": T.off_diagonal.tobytes(),
               "pieces": pieces, "sub": sub, "norm": T.norm_inf(), "gershgorin": T._gershgorin}
        assert got == want
        assert T.size == grid.m
        event("every row held" if len(T._rows[0]) == grid.m else "free rows left out")
        lo, hi, w = _live_rows(W, grid)
        if W.exterior() is not None:
            event("image misses the window" if lo == hi else
                  f"image covers row 0: {lo == 0}, the last row: {hi == grid.m}")
            if W.coupling != 0.0:
                event("coupled n = 0 exterior")
        if np.any(np.frombuffer(want["diagonal"])[lo:hi] == 2.0 / (grid.h * grid.h) + w):
            event("W is its exterior value on a row inside its interval")


# ---------------------------------------------------------------------------
# scalar reference formulas: the definitions the array code must reproduce
# ---------------------------------------------------------------------------

_EXP_MAX = 700.0
_POSITIVE_WALL = 1e300


def scalar_potential(V, r: float) -> float:
    """V(r) for one float r, one family at a time, with math's functions."""
    if isinstance(V, ZeroPotential):
        return 0.0
    if isinstance(V, SquareWell):
        return -V.c if V.a < r < V.b else 0.0
    if isinstance(V, InverseSquareTail):
        if r <= 0.0:
            raise DomainError(f"inverse-square tail needs r > 0, got {r}")
        if r <= V.a:
            return 0.0
        if r * r <= V.c / sys.float_info.max:
            raise OverflowError(f"{V.c} / r^2 exceeds the double range at r = {r}")
        return -V.c / (r * r)
    if isinstance(V, PowerLogWell):
        if r <= 0.0:
            raise DomainError(f"power-log well needs r > 0, got {r}")
        if not (V.a < r < V.b):
            return 0.0
        v = V.c * r**V.p
        if V.q != 0.0:
            v *= math.log(r) ** V.q
        return -v
    if isinstance(V, TabulatedPotential):
        if r <= 0.0:
            raise DomainError(f"tabulated potential needs r > 0, got {r}")
        # 0 at and outside the end samples, as a square well is at its ends
        return scalar_interpolant(V, r) if V.r[0] < r < V.r[-1] else 0.0
    raise TypeError(V)


def scalar_interpolant(V, r: float) -> float:
    """numpy's interp of a tabulated V's samples at one r in [r_0, r_N]: the
    sample interval's slope times the offset from its left end, plus the left
    value; v_N at the last sample."""
    i = bisect.bisect_right(V.r, r) - 1
    if i == len(V.r) - 1:
        return V.v[-1]
    slope = (V.v[i + 1] - V.v[i]) / (V.r[i + 1] - V.r[i])
    return slope * (r - V.r[i]) + V.v[i]


def scalar_prefactor_exponent(s: float, terms: int) -> float:
    """2 * (s + e^s + ... + exp^(terms-1) s), a term past 700 counting as inf."""
    total, cur = 0.0, s
    for _ in range(terms):
        total += cur
        cur = math.exp(cur) if cur < _EXP_MAX else math.inf
        if math.isinf(total):
            break
    return 2.0 * total


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def scalar_transformed_form(c, p, q, s: float, k: int, spread: float = 0.0) -> float:
    """The k-step transform of -c y^p (ln y)^q at one float s, in log space:
    -c exp(2 (s + ... + exp^(k-2) s) + (p+2) u + q ln u) with
    u = ln y = exp^(k-1) s, shifted by ``spread``: a relative error in y is
    that error in ln y."""
    total, u = 0.0, s
    for _ in range(k - 1):
        total += u
        u = _exp_or_inf(u)
    u += spread
    expo = 2.0 * total
    if p != -2.0:
        # an infinite u with p < -2 takes every other term down with it
        expo = -math.inf if math.isinf(u) and p < -2.0 else expo + (p + 2.0) * u
    if q != 0.0 and expo != -math.inf:
        expo += q * math.log(u) if u > 0.0 else -math.inf
    expo += math.log(abs(c))
    if expo <= _EXP_MAX:
        return -math.copysign(math.exp(expo), c)
    if c < 0.0:
        return _POSITIVE_WALL
    raise OverflowError(s)


def scalar_transformed(W, s: float, spread: float = 0.0) -> float:
    """W(s) for one float s.  A base with a power-log form, and the coupling
    term, are transformed by ``scalar_transformed_form``; any other base is
    read on the tower exp^(k) s, computed by math.exp and then scaled by
    (1 + spread)."""
    out = 0.0
    V, k = W.base, W.steps
    form = V.power_log_form()
    if W._window is not None and W._window[0] < s < W._window[1]:
        if form is not None:
            out = scalar_transformed_form(form.c, form.p, form.q, s, k, spread)
        else:
            v = scalar_potential(V, iterated_exp(s, k) * (1.0 + spread))
            if v != 0.0:
                expo = scalar_prefactor_exponent(s, k) + math.log(abs(v))
                if expo <= _EXP_MAX:
                    out = math.copysign(math.exp(expo), v)
                elif v > 0.0:
                    out = _POSITIVE_WALL
                else:
                    raise OverflowError(s)
    if W.coupling != 0.0:
        out += scalar_transformed_form(-W.coupling, -2.0, 0.0, s, k)
    return out


def tower_spread(s: float, k: int) -> float:
    """A bound on the relative difference between two evaluations of
    exp^(k) s whose every exp is within 2 ulp: an error d in y becomes
    |y| d in e^y."""
    spread, y = 0.0, s
    for _ in range(k):
        spread = abs(y) * spread + 4.0 * _EPS
        y = math.exp(min(y, _EXP_MAX))
    return spread


def scalar_absolute_log_weight(x: float, n: int) -> float:
    if x <= 0.0:
        raise DomainError(f"weight requires x > 0, got {x}")
    w, cur = x, x
    for k in range(n + 1):
        if cur <= 0.0:
            raise DomainError(f"log #{k + 1} undefined")
        cur = math.log(cur)
        w *= abs(cur)
    return w


def scalar_hardy_weight_stack(x: float, d: int, n: int) -> float:
    if x <= 0.0:
        raise DomainError(f"hardy_weight_stack requires x > 0, got {x}")
    total = (d - 2) ** 2 / (4.0 * x * x)
    acc, cur = 4.0 * x * x, x
    for k in range(1, n + 1):
        cur = math.log(cur) if cur > 0.0 else -math.inf
        if cur <= 0.0:
            raise DomainError(f"log factor #{k} is not positive")
        acc *= cur * cur
        total += 1.0 / acc
    return total


def scalar_monotone_roots(F, cuts):
    """The bisection of ``_monotone_roots``, one piece and one point at a time."""
    roots = []
    for lo, hi in zip(cuts, cuts[1:]):
        flo, fhi = F(lo), F(hi)
        if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
            continue
        while (mid := 0.5 * (lo + hi)) > lo and mid < hi:
            fmid = F(mid)
            if (fmid < 0.0) == (flo < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append(mid)
    return roots


# ---------------------------------------------------------------------------
# transformed potentials against the scalar definition
# ---------------------------------------------------------------------------

_pos = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)  # noqa: E731
_EPS = sys.float_info.epsilon  # a float: the scalar oracles overflow to inf silently


@st.composite
def potentials(draw):
    family = draw(st.sampled_from(
        ["zero", "square_well", "inverse_square", "power_log_well", "tabulated"]
    ))
    if family == "zero":
        return ZeroPotential()
    if family == "square_well":
        a = draw(_pos(0.1, 5.0))
        return SquareWell(c=draw(_pos(0.01, 300.0)), a=a, b=a + draw(_pos(0.05, 20.0)))
    if family == "inverse_square":
        return InverseSquareTail(c=draw(_pos(0.01, 10.0)), a=draw(_pos(0.0, 5.0)))
    if family == "power_log_well":
        q = draw(st.sampled_from([0.0, 1.0, 2.5]))
        a = draw(_pos(1.0 if q else 0.1, 5.0))
        b = draw(st.one_of(st.just(math.inf), _pos(0.1, 30.0).map(lambda w: a + w)))
        c = draw(_pos(0.01, 50.0)) * draw(st.sampled_from([1.0, -1.0]))
        return PowerLogWell(c=c, p=draw(_pos(-4.0, 2.0)), q=q, a=a, b=b)
    lo = draw(_pos(0.2, 3.0))
    r = lo + np.cumsum([draw(_pos(0.05, 5.0)) for _ in range(draw(st.integers(2, 8)))])
    v = [draw(_pos(-20.0, 5.0)) for _ in r]
    return TabulatedPotential(r=tuple(r.tolist()), v=tuple(v))


def _reference_or_error(f, xs):
    """[f(x) for x in xs] as an array, or the type of the first error raised."""
    try:
        return np.array([f(x) for x in xs])
    except (DomainError, OverflowError) as exc:
        return type(exc)


class TestTransformedArrayProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        V=potentials(),
        k=st.sampled_from([1, 2, 3]),
        l=st.sampled_from([0, 1, 3]),
        lo=_pos(-25.0, 8.0),
        width=_pos(0.01, 30.0),
        m=st.integers(1, 300),
    )
    def test_array_matches_scalar_evaluate(self, V, k, l, lo, width, m):
        W = channel_potential(V, OperatorSpec(3, k - 1, "one"), l)
        s = np.linspace(lo, lo + width, m).tolist()
        ref = _reference_or_error(lambda x: scalar_transformed(W, x), s)
        if isinstance(ref, type):
            event("both paths raise")
            with pytest.raises((DomainError, OverflowError)):
                W(np.array(s))
            return
        event("array path evaluated")
        got = W(np.array(s))
        assert got.shape == (m,)
        # the array tower uses np.exp, which may differ from math.exp by an
        # ulp: V is also read at the ends of the tower's rounding spread, so a
        # jump of V or the ill-conditioned (ln y)^q near y = 1 inside that
        # spread is allowed for; beyond it, numpy's exp and log may differ from
        # libm's by an ulp, so the paths agree to rounding relative to the size
        # of each term (a centrifugal term and a well can cancel far below it)
        ends = []
        for sign in (-1.0, 1.0):
            ends.append(_reference_or_error(
                lambda x: scalar_transformed(W, x, sign * tower_spread(x, k)), s))
        lo_ref = np.minimum.reduce([ref] + [e for e in ends if not isinstance(e, type)])
        hi_ref = np.maximum.reduce([ref] + [e for e in ends if not isinstance(e, type)])
        terms = np.abs(transform_potential(V, k)(np.array(s)))
        if l:
            terms += np.abs(TransformedPotential(ZeroPotential(), k, W.coupling)(np.array(s)))
        tol = 1e-12 * terms
        assert np.all((lo_ref - tol <= got) & (got <= hi_ref + tol))

    @pytest.mark.parametrize("V, k, s, expected", [
        # W = -e^{2s} for s > 0: e^{720} is past the double range
        (PowerLogWell(c=1.0, p=0.0, q=0.0, a=1.0, b=math.inf), 1, 360.0, OverflowError),
        # the same barrier is capped at the positive wall
        (PowerLogWell(c=-1.0, p=0.0, q=0.0, a=1.0, b=math.inf), 1, 360.0, 1e300),
        # telescoped -c e^{2s} e^{2 e^s}: 2(6 + e^6) > 700 while exp^(2) 6 is finite
        (InverseSquareTail(c=1.0, a=1.0), 3, 6.0, OverflowError),
        # exp^(1) 1 = e lies below the samples: zero
        (TabulatedPotential(r=(3.0, 4.0), v=(-1.0, -2.0)), 1, 1.0, 0.0),
        # outside the support of a well: zero
        (SquareWell(c=4.0, a=1.0, b=2.0), 1, 5.0, 0.0),
        # exp^(2) 7 = e^1096.6 leaves the double range, but W is formed in
        # logs: the barrier e^{14 + 2 e^7} is capped at the positive wall ...
        (PowerLogWell(c=-1.0, p=0.0, q=0.0, a=1.0, b=math.inf), 2, 7.0, 1e300),
        # ... and -2 e^{14 - e^7} e^7 underflows to 0
        (PowerLogWell(c=2.0, p=-3.0, q=1.0, a=1.0, b=math.inf), 2, 7.0, 0.0),
    ])
    def test_overflow_and_domain_semantics(self, V, k, s, expected):
        W = transform_potential(V, k)
        pts = np.array([0.5 * s, s])
        if isinstance(expected, type):
            with pytest.raises(expected):
                W(s)
            with pytest.raises(expected):
                W(pts)
        else:
            assert W(s) == expected
            assert W(pts)[1] == expected

    @pytest.mark.parametrize("V, k, s", [
        # exp^(3) 2 = e^1618.2: the tower, which a V without a form is read
        # on inside its support, here every r > 0, leaves the double range
        (Formless(), 3, 2.0),
    ])
    def test_tower_overflow_is_an_overflow_error(self, V, k, s):
        W = transform_potential(V, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            with pytest.raises(OverflowError, match="exceeds the double range"):
                W(s)
            with pytest.raises(OverflowError, match=f"s={s}"):
                W(np.array([0.5, s, 2.0 * s]))

    def test_scalar_call_returns_the_scalar_value(self):
        W = channel_potential(SquareWell(c=4.0, a=1.0, b=2.0), OperatorSpec(3, 0, "one"), 1)
        got = W(0.5)
        assert type(got) is float
        assert got == W(np.array([0.5]))[0]
        assert got == pytest.approx(scalar_transformed(W, 0.5), rel=1e-15)


# ---------------------------------------------------------------------------
# potentials and weights on ndarrays against their scalar definitions
# ---------------------------------------------------------------------------


class TestPotentialArrayProperties:
    @settings(max_examples=300, deadline=None)
    @given(V=potentials(), data=st.data())
    def test_array_matches_scalar_evaluate(self, V, data):
        anywhere = st.one_of(_pos(1e-6, 60.0), _pos(-5.0, 0.0))
        if isinstance(V, TabulatedPotential):
            inside = st.one_of(_pos(V.r[0], V.r[-1]), st.sampled_from(V.r))
        else:
            inside = anywhere
        xs = data.draw(st.lists(inside, min_size=1, max_size=40))
        xs += data.draw(st.lists(anywhere, max_size=2))
        ref = _reference_or_error(lambda x: scalar_potential(V, x), xs)
        if isinstance(ref, type):
            event("both paths raise")
            with pytest.raises(ref):
                V(np.array(xs))
            return
        event("both paths evaluate")
        got = V(np.array(xs))
        assert got.shape == (len(xs),)
        if isinstance(V, PowerLogWell):
            # numpy's log and pow differ from libm's by up to an ulp each, and
            # (ln r)^q scales the log's difference by q
            assert np.all(np.abs(got - ref) <= (4.0 + V.q) * _EPS * np.abs(ref))
        else:
            assert np.array_equal(got, ref)

    @settings(max_examples=200, deadline=None)
    @given(V=potentials())
    def test_params_rebuild_the_potential(self, V):
        # a potential is its family and its params, the factory's input
        assert make_potential(V.family, V.params()) == V

    @settings(max_examples=300, deadline=None)
    @given(V=potentials(), data=st.data())
    def test_power_log_form_is_the_potential(self, V, data):
        # the form is what the transform, the l_max sup, the tail test and
        # the channel crossings read: it must describe the same V
        form = V.power_log_form()
        if form is None:
            assert isinstance(V, (ZeroPotential, TabulatedPotential))
            return
        c, p, q, a, b = form
        xs = data.draw(st.lists(_pos(1e-6, 60.0), min_size=1, max_size=40))
        xs += [x for x in (a, b) if 0.0 < x < math.inf]  # open ends: V is 0 there
        if isinstance(V, SquareWell):  # a line potential: r <= 0 too
            xs += data.draw(st.lists(_pos(-5.0, 0.0), max_size=3))
        want = np.array([-c * x**p * (math.log(x) ** q if q else 1.0) if a < x < b else 0.0
                         for x in xs])
        got = V(np.array(xs))
        # rounding of pow and log, as in the test above
        assert np.all(np.abs(got - want) <= (4.0 + q) * _EPS * np.abs(want))

    @pytest.mark.parametrize("V", [
        InverseSquareTail(c=1.0, a=0.5),
        PowerLogWell(c=1.0, p=-1.0, q=0.0, a=0.5, b=3.0),
        TabulatedPotential(r=(0.5, 3.0), v=(-1.0, -1.0)),
    ])
    def test_nonpositive_r_is_a_domain_error(self, V):
        with pytest.raises(DomainError):
            V(0.0)
        with pytest.raises(DomainError):
            V(np.array([1.0, 0.0, 2.0]))

    def test_power_overflow_is_an_overflow_error(self):
        # float ** raises where numpy's power returns inf
        V = PowerLogWell(c=1.0, p=2.0, q=0.0, a=1.0, b=math.inf)
        with pytest.raises(OverflowError):
            V(1e200)
        with pytest.raises(OverflowError):
            V(np.array([2.0, 1e200]))

    def test_subclass_with_only_evaluate_array(self):
        class Linear(Potential):
            def evaluate_array(self, r):
                return 2.0 * r

        xs = np.array([[0.5, 1.0], [2.0, 3.0]])
        assert np.array_equal(Linear()(xs), 2.0 * xs)
        assert np.array_equal(Linear()([0.5, 1.0]), [1.0, 2.0])
        got = Linear()(1.5)
        assert type(got) is float and got == 3.0
        V = SquareWell(c=4.0, a=1.0, b=2.0)
        assert V(1.5) == scalar_potential(V, 1.5) == -4.0

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.one_of(_pos(1e-6, 1e8), _pos(-2.0, 0.0)), min_size=1, max_size=40),
        n=st.sampled_from([0, 1, 2]),
        d=st.sampled_from([1, 3]),
    )
    def test_quadrature_weights_match_scalar(self, xs, n, d):
        # x |ln x| ... |ln^(n+1) x| takes n + 1 logs; the Hardy stack n
        _check_log_weight(lambda x: absolute_log_weight(x, n),
                          lambda x: scalar_absolute_log_weight(x, n), xs, n + 1)
        _check_log_weight(lambda x: hardy_weight_stack(x, d, n),
                          lambda x: scalar_hardy_weight_stack(x, d, n), xs, n)


def _check_log_weight(weight, reference, xs, logs):
    """weight on an ndarray of xs, and on each x as a float, against the
    scalar ``reference``, where the weight takes ``logs`` nested logs of x."""
    ref = _reference_or_error(reference, xs)
    if isinstance(ref, type):
        with pytest.raises(ref):
            weight(np.array(xs))
        with pytest.raises(ref):
            [weight(x) for x in xs]
        return
    got = weight(np.array(xs))
    assert all(type(weight(x)) is float and weight(x) == g for x, g in zip(xs, got))
    if logs == 0:
        assert np.array_equal(got, ref)
        return
    # np.log and math.log differ by up to an ulp, and ln y amplifies a
    # relative difference in y by 1/|ln y|: compare where every factor
    # |ln^(k) x| is at least 1/2, so each level at most triples the
    # difference of the one before
    def abs_logs(x):
        for _ in range(logs):
            x = math.log(x)
            yield abs(x)

    factors = np.array([list(abs_logs(x)) for x in xs])
    ok = np.all(factors >= 0.5, axis=1)
    assert np.all(np.abs(got - ref)[ok] <= 64.0 * _EPS * np.abs(ref[ok]))


# ---------------------------------------------------------------------------
# the array bisection of the channel crossings, and the l_max sup
# ---------------------------------------------------------------------------

@st.composite
def tabulated_wells(draw):
    n = draw(st.integers(2, 40))
    r = draw(_pos(0.2, 2.0)) * np.cumprod([1.0] + [1.0 + draw(_pos(0.01, 0.5)) for _ in range(n - 1)])
    v = [-draw(_pos(0.0, 60.0)) for _ in range(n)]
    return TabulatedPotential(r=tuple(r.tolist()), v=tuple(v))


class LogBump(Potential):
    """V = -c exp(-(ln r - m)^2) on (a, b): r^2 |V| peaks inside, at
    ln r = m + 1, and no closed form gives its sup, so l_max refuses it."""

    family = "log_bump"

    def __init__(self, c, m, a, b):
        self.c, self.m, self.a, self.b = c, m, a, b

    def evaluate_array(self, r):
        inside = (self.a < r) & (r < self.b)
        return np.where(inside, -self.c * np.exp(-((np.log(r) - self.m) ** 2)), 0.0)

    def support(self):
        return (self.a, self.b)

    def negative_support(self):
        return (self.a, self.b)


def filtered_breakpoints(V, k: int) -> tuple[float, ...]:
    """Reference: the images of V's breakpoints under s = ln^(k) r, one list
    comprehension per log that drops each point it meets at or below 0 or at
    infinity, sorted at the end."""
    out = V.breakpoints()
    for _ in range(k):
        out = [math.log(p) for p in out if 0.0 < p < math.inf]
    return tuple(sorted(out))


class ListedBreakpoints(Potential):
    """V = 0 with the breakpoints it is given, unsorted and unreachable ones
    among them."""

    family = "listed_breakpoints"

    def __init__(self, *points):
        self.points = points

    def evaluate_array(self, r):
        return np.zeros(r.shape)

    def breakpoints(self):
        return self.points


class TestTransformedBreakpoints:
    @settings(max_examples=300, deadline=None)
    @given(V=st.one_of(potentials(), tabulated_wells()), k=st.sampled_from([1, 2, 3]))
    # samples at 1 and e, whose images reach 0 and leave at the next log
    @example(V=TabulatedPotential(r=(0.5, 1.0, math.e, 4.0), v=(-1.0, 2.0, -3.0, 0.0)), k=3)
    @example(V=ListedBreakpoints(math.inf, 3.0, 20.0), k=1)
    @example(V=ListedBreakpoints(20.0, -1.0, 3.0, 0.0), k=2)
    @example(V=make_potential("tabulated", {"r": np.geomspace(0.3, 30.0, 320).tolist(),
                                            "v": [-1.0] * 320}), k=2)
    def test_the_images_are_the_filtered_ones(self, V, k):
        got = TransformedPotential(V, k).kinks()
        assert list(map(float.hex, got)) == list(map(float.hex, filtered_breakpoints(V, k)))
        event(f"{len(got)} of {len(V.breakpoints())} points")


class TestCrossingsAndSupScan:
    @settings(max_examples=150, deadline=None)
    @given(V=tabulated_wells(), L=st.sampled_from([2.0, 6.0, 20.0, 110.0]))
    def test_array_bisection_is_bit_equal_to_the_scalar_one(self, V, L):
        # the crossings read the interpolant, whose end values are V's limits
        def g(r):
            return L / (r * r) + scalar_interpolant(V, r)

        want, lo, hi = [], [], []
        for r0, r1, v0, v1 in zip(V.r, V.r[1:], V.v, V.v[1:]):
            beta = (v1 - v0) / (r1 - r0)
            cuts = [r0, r1]
            if beta > 0.0 and r0 < (bottom := (2.0 * L / beta) ** (1.0 / 3.0)) < r1:
                cuts.insert(1, bottom)
            want += scalar_monotone_roots(g, cuts)
            lo += cuts[:-1]
            hi += cuts[1:]
        got = _monotone_roots(lambda r: L / (r * r) + np.interp(r, V.r, V.v), np.array(lo),
                              np.array(hi))
        assert got.tolist() == want
        assert sorted(_tabulated_crossings(L, V)) == sorted(want)
        event(f"{len(want)} roots")

    @pytest.mark.parametrize("seed", range(30))
    def test_zoom_sup_against_a_dense_sup(self, seed):
        rng = np.random.default_rng(seed)
        domain = DomainThreshold(0, "one" if seed % 2 else "zero")
        if seed < 12 and seed % 2:
            # a power-log tail with p < -2: r^2 |V| peaks inside for q > 0
            q = float(rng.choice([0.0, 1.0, 2.0]))
            a = rng.uniform(1.0, 3.0)
            V = PowerLogWell(c=rng.uniform(5.0, 200.0), p=rng.uniform(-4.0, -2.2), q=q,
                             a=a, b=math.inf)
        elif seed < 12 or 24 <= seed < 30:
            r = np.geomspace(rng.uniform(0.3, 0.8), rng.uniform(20.0, 40.0), 60)
            v = -rng.uniform(1.0, 40.0) * (np.exp(-((np.linspace(-2, 2, 60) - rng.uniform(-1, 1)) ** 2))
                                           + rng.uniform(0.0, 0.2, 60))
            V = TabulatedPotential(r=tuple(r.tolist()), v=tuple(v.tolist()))
            if seed >= 24:
                # the threshold, e or e^e, inside the samples
                domain = DomainThreshold(1 + seed % 2, "one")
        else:
            # a power-log well with finite b, p below, at and above -2, q in
            # {0, 1, 2}, and the threshold, e or e^e, inside the support; the
            # peak of r^2 |V| for p < -2 falls inside it, past b or before it
            p = [rng.uniform(-2.8, -2.1), -2.0, rng.uniform(-1.8, 1.0)][seed % 3]
            V = PowerLogWell(c=rng.uniform(0.5, 20.0), p=p, q=float((seed // 3) % 3),
                             a=rng.uniform(1.0, 2.5), b=rng.uniform(20.0, 300.0))
            domain = DomainThreshold(1 + seed % 2, "one")
        ns = V.negative_support()
        lo = max(ns[0], domain.value)
        hi = ns[1] if math.isfinite(ns[1]) else max(1e6, lo * 1e3)
        # the dense grid holds the kinks of a tabulated V, its samples, and
        # reaches as close to the ends as the scan does
        xs = np.geomspace(lo * (1.0 + 1e-12), hi * (1.0 - 1e-12), 200_001)
        if isinstance(V, TabulatedPotential):
            xs = np.union1d(xs, np.array([x for x in V.r[1:-1] if lo < x < hi]))
        dense = float(np.max(xs * xs * np.maximum(-V(xs), 0.0)))
        S = _sup_r2_negative_part(V, domain.value)
        assert dense * (1.0 - 1e-13) <= S <= dense * (1.0 + 1e-9)
        d = 3
        want = (math.isqrt(4 * (math.ceil(dense) - 1) + (d - 2) ** 2) - (d - 2)) // 2
        assert l_max(V, d, domain) == want

    def test_zoom_refuses_an_unbounded_negative_support(self):
        # r^2 |V| peaks at r = e^16 with value e^31 = 2.90e13, past any cut
        # of the tail a sampled scan could make
        with pytest.raises(EvaluationError, match=r"over \(1, inf\) has no closed form"):
            l_max(LogBump(c=1.0, m=15.0, a=1.0, b=math.inf), 3, DomainThreshold(0, "zero"))

    def test_a_tail_without_a_form_is_undecided(self):
        V = LogBump(c=1.0, m=15.0, a=1.0, b=math.inf)
        for bv in (bounds.bound_1d(V, bounds.OperatorSpec(1, 0, "zero")),
                   bounds.central_bound(V, bounds.OperatorSpec(3, 0, "zero"))):
            assert bv.raw == math.inf
            assert bv.diagnostics.warnings == ("hypothesis not met at depth n = 0: undecided, "
                                               "the negative tail has no power-log form",)
            assert bv.diagnostics.notes == (
                "potential with unbounded negative support; tail decay unknown",)

    def test_l_max_is_exact_for_every_family_and_refused_for_other_potentials(self):
        r = np.geomspace(0.5, 30.0, 40)
        families = [
            ZeroPotential(),
            SquareWell(c=3.0, a=0.5, b=2.0),
            InverseSquareTail(c=5.0, a=1.0),
            PowerLogWell(c=3.0, p=-1.0, q=1.0, a=1.0, b=50.0),
            PowerLogWell(c=30.0, p=-3.0, q=1.0, a=3.0, b=math.inf),
            PowerLogWell(c=5.0, p=-2.0, q=0.0, a=1.0, b=math.inf),
            PowerLogWell(c=-2.0, p=1.0, q=0.0, a=1.0, b=math.inf),
            TabulatedPotential(r=tuple(r), v=tuple(-20.0 * np.exp(-((r - 4.0) ** 2)))),
        ]
        for V in families:
            for domain in (DomainThreshold(0, "zero"), DomainThreshold(1, "one")):
                l_max(V, 3, domain)
        # a bounded negative support without a closed-form sup is refused
        # too: a sampled search could miss a narrow peak
        with pytest.raises(EvaluationError, match="must provide sup_r2_negative_part"):
            l_max(LogBump(c=1.0, m=1.0, a=0.5, b=30.0), 3, DomainThreshold(0, "zero"))


# ---------------------------------------------------------------------------
# the batched GK15 quadrature against the scalar rule
# ---------------------------------------------------------------------------

def scalar_integrate(f, a, b, tol, breakpoints=()):
    """Reference: QUADPACK's QK15 on one panel and one node at a time, under
    the pass and stopping rules of ``integrate``: each pass bisects every
    panel whose error is at least the target over the panel count, and
    evaluates all left halves, then all right halves, in panel order.  f is
    called on one-element arrays.  Returns (value, evaluations)."""
    count = 0

    def at(x):
        nonlocal count
        count += 1
        v = float(f(np.array([x]))[0])
        if math.isnan(v):
            raise QuadratureError(f"integrand returned NaN at x = {x!r}")
        return v

    def gk15(lo, hi):
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        fc = at(c)
        resk, resg, resabs = _WGK_CENTER * fc, _WG_CENTER * fc, _WGK_CENTER * abs(fc)
        fv = [fc]
        for i, x in enumerate(_XGK):
            f1, f2 = at(c - h * x), at(c + h * x)
            fv += [f1, f2]
            resk += _WGK[i] * (f1 + f2)
            resabs += _WGK[i] * (abs(f1) + abs(f2))
            if i % 2 == 1:
                resg += _WG[(i - 1) // 2] * (f1 + f2)
        mean = resk * 0.5
        resasc = _WGK_CENTER * abs(fc - mean)
        for i in range(7):
            resasc += _WGK[i] * (abs(fv[1 + 2 * i] - mean) + abs(fv[2 + 2 * i] - mean))
        err = abs((resk - resg) * h)
        resasc *= abs(h)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        return resk * h, max(err, 50.0 * _QUAD_EPS * resabs * abs(h))

    edges = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    panels = [(lo, hi, *gk15(lo, hi)) for lo, hi in zip(edges, edges[1:])]
    while True:
        total_val = math.fsum(item[2] for item in panels)
        target = tol * max(1.0, abs(total_val))
        if math.fsum(item[3] for item in panels) <= target:
            return total_val, count
        split = [i for i, item in enumerate(panels) if item[3] >= target / len(panels)]
        ends = [panels[i][:2] for i in split]
        halves = [(lo, 0.5 * (lo + hi)) for lo, hi in ends] + [(0.5 * (lo + hi), hi) for lo, hi in ends]
        halves = [(lo, hi, *gk15(lo, hi)) for lo, hi in halves]
        for i, left in zip(split, halves):
            panels[i] = left
        panels += halves[len(split):]


def _smooth(alpha, omega, phi, mu, s):
    """exp(alpha sin(omega x + phi)) plus a Lorentzian peak of width s at mu:
    smooth and positive, so that relative differences are well defined."""

    def f(x):
        return np.exp(alpha * np.sin(omega * x + phi)) + 1.0 / (s * s + (x - mu) ** 2)

    return f


def _smooth_function(draw, a, b):
    alpha, omega, phi = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 20.0)), draw(st.floats(0.0, 6.3))
    mu, s = draw(st.floats(a, b)), draw(st.floats(0.01, 2.0))
    return _smooth(alpha, omega, phi, mu, s)


@st.composite
def smooth_integrands(draw):
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(0.1, 20.0))
    f = _smooth_function(draw, a, b)
    pts = draw(st.lists(st.floats(a, b), max_size=40))
    return f, a, b, pts


@st.composite
def component_integrands(draw):
    """One to eight smooth functions on a shared interval and shared
    breakpoints: each alone, and all of them stacked on a trailing
    component axis."""
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(0.1, 20.0))
    parts = [_smooth_function(draw, a, b) for _ in range(draw(st.integers(1, 8)))]
    pts = draw(st.lists(st.floats(a, b), max_size=20))
    return _stacked_case(parts, a, b, pts)


def _stacked_case(parts, a, b, pts):
    def stacked(x):
        return np.stack([g(x) for g in parts], axis=-1)

    return parts, stacked, a, b, pts


def settled_edges(calls, a, b, breakpoints):
    """The panel edges an ``integrate`` run ended on, rebuilt from the node
    arrays of its integrand calls: the first call holds the initial panels,
    and each later one the left halves of the panels it bisected, then their
    right halves; each left center lies inside its parent.  The midpoint is
    recomputed as ``integrate`` computes it, so the edges are the run's own
    floats."""
    edges = [a, *sorted({p for p in breakpoints if a < p < b}), b]
    for x in calls[1:]:
        for center in x[: len(x) // 2, 0].tolist():
            i = bisect.bisect_right(edges, center) - 1
            edges.insert(i + 1, 0.5 * (edges[i] + edges[i + 1]))
    return edges


# QK15's estimate undershoots for the first component run alone: the scalar
# rule stops at 12.24553726903693 with an estimate of 9.0e-13, 2.3e-11 from
# the integral.  Stacked with three copies of 1 + 1/(1 + x^2), it is
# bisected further and comes within 2e-15 of it.
_FINER_THAN_ALONE = _stacked_case(
    [_smooth(1.1963291811555183e-10, 10.0, 0.0, 0.0, 1.0)] + [_smooth(0.0, 1.0, 0.0, 0.0, 1.0)] * 3,
    -1.0, 9.0, [],
)


class TestBatchedQuadrature:
    @settings(max_examples=150, deadline=None)
    @given(case=smooth_integrands(), tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
    def test_matches_the_scalar_rule(self, case, tol):
        f, a, b, pts = case
        value, count = scalar_integrate(f, a, b, tol, pts)
        res = integrate(f, a, b, tol=tol, breakpoints=pts)
        assert res.evaluations == count
        assert abs(res.value - value) <= 1e-13 * abs(value)

    @settings(max_examples=60, deadline=None)
    @given(case=component_integrands(), tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
    @example(case=_FINER_THAN_ALONE, tol=1e-12)
    def test_each_component_matches_the_scalar_rule(self, case, tol):
        # the batched run bisects by the first component that misses its
        # target, so another may end on a finer partition than its scalar
        # run would pick; on the partition it did end on, the scalar rule
        # must stop at once with the same value
        parts, stacked, a, b, pts = case
        calls = []

        def recorded(x):
            calls.append(x)
            return stacked(x)

        res = integrate(recorded, a, b, tol=tol, breakpoints=pts)
        assert res.value.shape == res.error_estimate.shape == (len(parts),)
        edges = settled_edges(calls, a, b, pts)
        for g, got, err in zip(parts, res.value, res.error_estimate):
            want, count = scalar_integrate(g, a, b, tol, edges[1:-1])
            assert count == 15 * (len(edges) - 1)
            assert abs(got - want) <= 1e-13 * abs(want)
            assert err <= tol * max(1.0, abs(got))

    def test_a_stacked_component_keeps_its_accuracy(self):
        _, stacked, a, b, _ = _FINER_THAN_ALONE
        alpha = 1.1963291811555183e-10
        # exp(alpha sin 10x) = 1 + alpha sin 10x + O(alpha^2), and alpha^2 < 1e-19
        exact = 10.0 + math.atan(9.0) + math.atan(1.0) + alpha * (math.cos(-10.0) - math.cos(90.0)) / 10.0
        res = integrate(stacked, a, b, tol=1e-12)
        assert abs(res.value[0] - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("pts", [(), (0.25, 0.75), tuple(i / 31.0 for i in range(1, 31))])
    def test_nan_names_the_first_nan_node(self, pts):
        def f(x):
            return np.where(x > 0.6, np.nan, 1.0)

        with pytest.raises(QuadratureError) as ref:
            scalar_integrate(f, 0.0, 1.0, 1e-8, pts)
        with pytest.raises(QuadratureError, match="NaN at x") as got:
            integrate(f, 0.0, 1.0, tol=1e-8, breakpoints=pts)
        assert str(got.value) == str(ref.value)

    def test_scalar_result_is_broadcast(self):
        res = integrate(lambda x: 1.0, 0.0, 1.0)
        assert (res.value, res.evaluations) == (1.0, 15)
        res = integrate(lambda x: 2.0, 0.0, 3.0, breakpoints=[1.0, 2.0])
        assert res.value == pytest.approx(6.0, rel=1e-15) and res.evaluations == 45

    def test_node_at_t_one_still_raises(self):
        # x^-1.2 decays too slowly: bisection toward x = infinity reaches t = 1
        with pytest.raises(QuadratureError, match="t = 1"):
            integrate_semiinfinite(lambda x: x**-1.2, 1.5)

    @pytest.mark.parametrize("components", [0, 3])
    def test_a_wide_first_pass_is_its_single_panel_passes(self, components):
        # 320 panels take the array-built nodes, one panel the tuple-built
        # ones: the nodes must be the same floats.  The 15-node sums of all
        # rows are one matrix product, whose summation order may follow the
        # row count, so values and floors agree to rounding
        rng = np.random.default_rng(320)
        edges = np.sort(rng.uniform(-5.0, 15.0, 321)).tolist()
        parts = [_smooth(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 20.0), 0.0, 3.0, 0.1)
                 for _ in range(max(components, 1))]
        seen = []

        def f(x):
            seen.append(x)
            out = np.stack([g(x) for g in parts], axis=-1)
            return out if components else out[..., 0]

        vals, _, floors, stacked = _gk15(f, edges[:-1], edges[1:])
        single = [_gk15(f, edges[i : i + 1], edges[i + 1 : i + 2]) for i in range(320)]
        assert stacked == bool(components)
        assert np.array_equal(seen[0], np.vstack(seen[1:]))
        for got, want in ((vals, [s[0] for s in single]), (floors, [s[2] for s in single])):
            want = np.array(want)[:, :, 0].T  # (component, panel)
            assert np.all(np.abs(np.array(got) - want) <= 4.0 * _QUAD_EPS * np.abs(want))

    def test_a_tolerance_below_the_rounding_floor_fails_at_once(self):
        # each panel's estimate is at least 50 eps int |f| over it, so no
        # bisection brings the sum down to tol = 1e-17
        with pytest.raises(QuadratureError, match="rounding floor") as exc:
            integrate(lambda x: np.exp(x), 0.0, 1.0, tol=1e-17)
        floor = 50.0 * _QUAD_EPS * (math.e - 1.0)
        assert f"rounding floor {floor:.3e}" in str(exc.value)


# ---------------------------------------------------------------------------
# central_bound's shared channel quadrature against one quadrature per channel
# ---------------------------------------------------------------------------

def per_channel_integrals(V, spec, tol):
    """Reference: the channel integrals I_0 .. I_lmax, one x-side quadrature
    each of max(-(l(l+d-2)/x^2 + V), 0) times the weight, as each channel
    integral was computed before the channels shared one quadrature."""
    lm = l_max(V, spec.d, spec.threshold)
    return [
        weighted_negpart_quad(V, spec.n, spec.threshold.value, tol, L=l * (l + spec.d - 2))
        for l in range(lm + 1)
    ]


def flat_negpart_integral(W, lo, hi, pts, tol):
    """int_lo^hi |W_-(s)| |s| ds, split at s = 0, by the plain rule on a
    finite piece and by the semi-infinite one (mirrored at -inf) on an
    infinite piece."""
    def f(s):
        return np.maximum(-W(s), 0.0) * np.abs(s)

    total = 0.0
    for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
        if not a < b:
            continue
        if math.isinf(b):
            total += integrate_semiinfinite(f, a, tol=tol, breakpoints=pts).value
        elif math.isinf(a):
            total += integrate_semiinfinite(lambda t: f(-t), -b, tol=tol,
                                            breakpoints=[-p for p in pts]).value
        else:
            total += integrate(f, a, b, tol=tol, breakpoints=pts).value
    return total


@st.composite
def central_wells(draw):
    """A square, power-log (finite or tail) or tabulated well on an operator
    (d, n, variant), its depth scaled so that l_max is a drawn 0..25."""
    spec = OperatorSpec(draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 1)),
                        draw(st.sampled_from(["zero", "one"])))
    th = spec.threshold.value
    family = draw(st.sampled_from(["square", "power_log", "tail", "tabulated"]))
    a = max(th, 1.0) * draw(_pos(1.05, 2.0))
    if family == "square":
        V = SquareWell(c=1.0, a=a, b=a * draw(_pos(1.5, 4.0)))
    elif family in ("power_log", "tail"):
        b = math.inf if family == "tail" else a * draw(_pos(1.5, 4.0))
        # p <= -3 on tails, as slower ones exhaust the semi-infinite rule at 1e-10
        p = draw(_pos(-4.0, -3.0)) if family == "tail" else draw(_pos(-2.0, 1.0))
        V = PowerLogWell(c=1.0, p=p, q=float(draw(st.integers(0, 1))), a=a, b=b)
    else:
        k = draw(st.integers(3, 30))
        r = np.geomspace(draw(_pos(0.3, 1.0)), a * draw(_pos(2.0, 10.0)), k)
        V = TabulatedPotential(r=tuple(r.tolist()), v=tuple(-draw(_pos(0.1, 1.0)) for _ in range(k)))
    # place sup r^2 |V_-| inside the bracket of the drawn l_max
    lm, c = draw(st.integers(0, 25)), spec.d - 2
    lo_s, hi_s = lm * (lm + c), (lm + 1) * (lm + 1 + c)
    scale = (lo_s + draw(_pos(0.2, 0.8)) * (hi_s - lo_s)) / _sup_r2_negative_part(V, th)
    if family == "tabulated":
        V = TabulatedPotential(r=V.r, v=tuple(scale * v for v in V.v))
    else:
        V = dataclasses.replace(V, c=scale)
    return V, spec, lm


class TestSharedChannelQuadrature:
    @settings(max_examples=60, deadline=None)
    @given(case=central_wells())
    def test_channel_integrals_match_one_quadrature_per_channel(self, case):
        V, spec, lm = case
        bv = central_bound(V, spec)
        assert [ch.l for ch in bv.channels] == list(range(lm + 1))
        for ch, want in zip(bv.channels, per_channel_integrals(V, spec, 1e-10)):
            assert abs(ch.integral - want) <= 1e-10 * max(1.0, abs(want)), (ch.l, ch.integral, want)

    @settings(max_examples=60, deadline=None)
    @given(case=central_wells())
    def test_channel_integrals_are_flat_integrals_of_the_counted_potential(self, case):
        # I_l of the bound is int |W_l-| |s| ds of the W_l = channel_potential(V, spec, l)
        # that count_negative assembles, over the bound's domain and breakpoints
        V, spec, lm = case
        k, threshold = spec.n + 1, spec.threshold.value
        lo, hi = V.negative_support()
        lo, hi = safe_iterated_log(max(lo, threshold), k), safe_iterated_log(hi, k)
        couplings = [l * (l + spec.d - 2) for l in range(1, lm + 1)]
        crossings = [safe_iterated_log(x, k) for x in _centrifugal_crossings(V, couplings)]
        pts = [*filtered_breakpoints(V, k), 0.0, *(s for s in crossings if math.isfinite(s))]
        bv = central_bound(V, spec)
        for ch in bv.channels:
            want = flat_negpart_integral(channel_potential(V, spec, ch.l), lo, hi, pts, 1e-12)
            assert abs(ch.integral - want) <= 1e-10 * max(1.0, abs(want)), (ch.l, ch.integral, want)


# the count window of the channel-set property: short, as only W's sign is read
_COUNT_L, _COUNT_M = 5.0, 250


def count_window(spec):
    """The s interval that ``count_negative`` grids at L = _COUNT_L."""
    s0 = transformed_window_start(spec, spec.n + 1)
    return (-_COUNT_L, _COUNT_L) if math.isinf(s0) else (s0, s0 + _COUNT_L)


@st.composite
def counted_wells(draw):
    """A square, power-log (finite or tail), inverse-square or tabulated well
    on an operator (d, n, variant), its depth scaled so that l_max is a
    drawn 0..12.  A tabulated well's samples cover the count window: 0 at a
    sample below it, and 0 at a sample past the well and at one past the
    window, so that V stays 0 between them."""
    spec = OperatorSpec(draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 1)),
                        draw(st.sampled_from(["zero", "one"])))
    th = spec.threshold.value
    family = draw(st.sampled_from(["square", "power_log", "tail", "inverse_square", "tabulated"]))
    a = max(th, 1.0) * draw(_pos(1.05, 2.0))
    if family == "square":
        V = SquareWell(c=1.0, a=a, b=a * draw(_pos(1.5, 4.0)))
    elif family in ("power_log", "tail"):
        b = math.inf if family == "tail" else a * draw(_pos(1.5, 4.0))
        # p <= -3 on tails, as slower ones exhaust the semi-infinite rule at 1e-10
        p = draw(_pos(-4.0, -3.0)) if family == "tail" else draw(_pos(-2.0, 1.0))
        V = PowerLogWell(c=1.0, p=p, q=float(draw(st.integers(0, 1))), a=a, b=b)
    elif family == "inverse_square":
        V = InverseSquareTail(c=1.0, a=a)
    else:
        k = draw(st.integers(3, 20))
        r = np.geomspace(draw(_pos(0.3, 1.0)), a * draw(_pos(2.0, 10.0)), k)
        lo, hi = (iterated_exp(s, spec.n + 1) for s in count_window(spec))
        r = [0.5 * min(r[0], lo), *r, 1.5 * r[-1], 2.0 * max(hi, 1.5 * r[-1])]
        v = [0.0, *(-draw(_pos(0.1, 1.0)) for _ in range(k)), 0.0, 0.0]
        V = TabulatedPotential(r=tuple(r), v=tuple(v))
    lm, c = draw(st.integers(0, 12)), spec.d - 2
    lo_s, hi_s = lm * (lm + c), (lm + 1) * (lm + 1 + c)
    scale = (lo_s + draw(_pos(0.2, 0.8)) * (hi_s - lo_s)) / _sup_r2_negative_part(V, th)
    if family == "tabulated":
        V = TabulatedPotential(r=V.r, v=tuple(scale * v for v in V.v))
    else:
        V = dataclasses.replace(V, c=scale)
    return V, spec, lm


class TestCountedChannels:
    @settings(max_examples=150, deadline=None)
    @given(case=counted_wells())
    def test_the_count_sums_the_channels_of_the_bound(self, case):
        V, spec, lm = case
        # channel l_max + 1 is >= 0 on the window, up to rounding of W_0 + L C
        s = np.linspace(*count_window(spec), 4001)
        above = channel_potential(V, spec, lm + 1)(s)
        w0 = channel_potential(V, spec, 0)(s)
        assert np.all(above >= -4.0 * _EPS * np.abs(w0)), float(np.min(above))
        res = count_negative(spec, V, l=lm + 1, L=_COUNT_L, m=_COUNT_M)
        assert res.negative_count == 0
        _, table = total_central_count(spec, V, L=_COUNT_L, m=_COUNT_M)
        assert [row["l"] for row in table] == list(range(lm + 1))
        bv = central_bound(V, spec)
        if math.isinf(bv.raw):  # a divergent tail: the vacuous bound sums no channel
            event("vacuous bound")
            return
        assert [ch.l for ch in bv.channels] == [row["l"] for row in table]


# ---------------------------------------------------------------------------
# a tabulated V is 0 outside its samples: the same well padded with zeros
# ---------------------------------------------------------------------------

@st.composite
def unpadded_wells(draw):
    """A tabulated well whose end samples may be nonzero, and the same well
    padded with zero samples: one just outside each end sample, and one at
    r = 1e-6 and 1e150, past every count window at ``_COUNT_L``.  The two
    V agree at every r but the end samples, where the padded one reads
    their values and the other reads 0."""
    k = draw(st.integers(2, 12))
    steps = [1.0] + [1.0 + draw(_pos(0.05, 1.0)) for _ in range(k - 1)]
    r = draw(_pos(0.3, 3.0)) * np.cumprod(steps)
    # r^2 |V| <= 30 at the samples: l_max <= 4 in d = 3
    v = tuple(draw(st.one_of(st.just(0.0), _pos(-30.0, 0.0))) / (x * x) for x in r.tolist())
    padded = [1e-6, math.nextafter(r[0], 0.0), *r, math.nextafter(r[-1], math.inf), 1e150]
    return (TabulatedPotential(r=tuple(r.tolist()), v=v),
            TabulatedPotential(r=tuple(padded), v=(0.0, 0.0, *v, 0.0, 0.0)))


class TestTabulatedZeroOutside:
    @settings(max_examples=150, deadline=None)
    @given(wells=unpadded_wells(), n=st.integers(0, 1), variant=st.sampled_from(["zero", "one"]))
    def test_counts_and_bounds_are_those_of_the_padded_well(self, wells, n, variant):
        V, padded = wells
        line, central = OperatorSpec(1, n, variant), OperatorSpec(3, n, variant)
        grid = {"L": _COUNT_L, "m": _COUNT_M}
        assert (count_negative(line, V, **grid).negative_count
                == count_negative(line, padded, **grid).negative_count)
        assert (total_central_count(central, V, **grid)
                == total_central_count(central, padded, **grid))
        # l_max reads the end samples' values: a sup without them drops channels
        assert l_max(V, 3, central.threshold) == l_max(padded, 3, central.threshold)
        clr = OperatorSpec(3, n, variant, threshold_depth=n + 2)
        for got, want in ((bounds.bound_1d(V, line), bounds.bound_1d(padded, line)),
                          (central_bound(V, central), central_bound(padded, central)),
                          (clr_bound(V, clr), clr_bound(padded, clr))):
            # the same integral on other panels: equal to the quadrature tolerance
            assert got.raw == pytest.approx(want.raw, rel=1e-9, abs=1e-9)
            assert [ch.l for ch in got.channels] == [ch.l for ch in want.channels]
            assert got.diagnostics.notes == want.diagnostics.notes

    @settings(max_examples=100, deadline=None)
    @given(wells=unpadded_wells(), k=st.integers(1, 3))
    def test_v_and_w_read_zero_at_the_end_samples_and_past_them(self, wells, k):
        V, padded = wells
        r0, rN = V.r[0], V.r[-1]
        rs = [r0, rN, math.nextafter(r0, 0.0), math.nextafter(rN, math.inf), 2.0 * rN]
        assert V(np.array(rs)).tolist() == [0.0] * 5
        assert padded(np.array(rs[2:])).tolist() == [0.0] * 3
        W = transform_potential(V, k)
        a, b, w = W.exterior()
        assert (a, b, w) == (safe_iterated_log(r0, k), safe_iterated_log(rN, k), 0.0)
        s = [x for x in (safe_iterated_log(r, k) for r in rs) if math.isfinite(x)]
        s += [x for x in (math.nextafter(a, -math.inf), math.nextafter(b, math.inf))
              if math.isfinite(x)]
        assert W(np.array(s)).tolist() == [0.0] * len(s)


# ---------------------------------------------------------------------------
# clr_bound's flat integral in s against its x side
# ---------------------------------------------------------------------------

@st.composite
def clr_cases(draw):
    """A square well, a power-log well (finite or tail) or barrier, a
    tabulated well, or V = 0, on a t42 operator (d, n, variant) with d in
    3..5 and n in 0..1, and a horizon or None.

    The tabulated samples are <= 0: where a positive sample interval crosses
    the improvement term, clr_bound misses the kink
    (``tests/test_bounds.py::TestClrBound::test_tabulated_crossing_of_the_improvement_term``).
    Some of them are 0, so that W returns to 0 inside the span, where the
    first pass is graded at d = 3."""
    d, n = draw(st.integers(3, 5)), draw(st.integers(0, 1))
    spec = OperatorSpec(d, n, draw(st.sampled_from(["zero", "one"])), threshold_depth=n + 2)
    th = spec.threshold.value
    family = draw(st.sampled_from(["square", "power_log", "tail", "tabulated", "zero"]))
    a = th * draw(_pos(0.5, 3.0))
    b = a * draw(_pos(1.2, 10.0))
    if family == "square":
        V = SquareWell(c=draw(_pos(0.01, 10.0)), a=a, b=b)
    elif family in ("power_log", "tail"):
        c = draw(_pos(0.01, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
        V = PowerLogWell(c=c, p=draw(_pos(-3.0, 1.0)), q=float(draw(st.integers(0, 1))),
                         a=max(a, 1.0), b=math.inf if family == "tail" else b)
    elif family == "tabulated":
        k = draw(st.integers(3, 20))
        r = np.geomspace(a, b, k)
        sample = st.one_of(st.just(0.0), _pos(-2.0, 0.0))
        V = TabulatedPotential(r=tuple(r.tolist()), v=tuple(draw(sample) for _ in range(k)))
    else:
        V = ZeroPotential()
    # a horizon 1e-3 or more above the threshold: in s the ends of the range
    # round to ulp(s) dr/ds in x, so a range only a few ulps of x wide loses
    # its x-side value (a FOUND line in CHANGES.md)
    horizon = draw(st.one_of(st.none(), _pos(1.001, 1e6).map(lambda t: th * t)))
    return V, spec, horizon


class TestClrFlatIntegral:
    @settings(max_examples=150, deadline=None)
    @given(case=clr_cases())
    def test_flat_integral_matches_the_x_side(self, case):
        # the s-side bound against C_d |S^(d-1)| times the x-side integral,
        # wherever the x side reaches
        V, spec, horizon = case
        try:
            want = clr_x_integral(V, spec, 1e-10, horizon)
        except OverflowError:
            event("the x side overflows")
            return
        got = clr_bound(V, spec, horizon=horizon).raw
        if math.isinf(want):
            assert got == want
            return
        want *= DEFAULT_CLR_CONSTANTS.get(spec.d) * sphere_area(spec.d)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (got, want)


@st.composite
def deepening_wells(draw):
    """A square well above the domain threshold of a line operator (d = 1) or
    of a d = 3 channel l in 0..2, at n 0..2 on either variant; a ladder of
    its depths, each at least 1 + 1e-6 times the one before; and a grid (L, m)."""
    d = draw(st.sampled_from([1, 3]))
    spec = OperatorSpec(d, draw(st.integers(0, 2)), draw(st.sampled_from(["zero", "one"])))
    l = None if d == 1 else draw(st.integers(0, 2))
    a = max(spec.threshold.value, 1.0) * draw(_pos(1.01, 3.0))
    b = a * draw(_pos(1.2, 10.0))
    depths = [10.0 ** draw(_pos(-2.0, 3.0))]
    for _ in range(draw(st.integers(1, 4))):
        depths.append(depths[-1] * (1 + 1e-6) * draw(st.one_of(st.just(1.0), _pos(1.0, 30.0))))
    grid = draw(st.sampled_from([2.0, 5.0, 10.0, 20.0])), draw(st.integers(50, 1500))
    return spec, l, a, b, depths, grid


class TestWeylMonotonicity:
    @settings(max_examples=300, deadline=None)
    @given(case=deepening_wells())
    # a channel whose centrifugal barrier the well overcomes as it deepens:
    # the counts read 1, 4, 14, 49
    @example(case=(OperatorSpec(3, 0, "zero"), 2, 1.5, 15.0, [0.1, 1.0, 10.0, 100.0],
                   (5.0, 400)))
    def test_count_does_not_fall_as_the_well_deepens(self, case):
        # W, and with it the FD matrix, only decreases as c grows, so by
        # min-max its negative count cannot fall
        spec, l, a, b, depths, (L, m) = case
        results = [count_negative(spec, SquareWell(c=c, a=a, b=b), l=l, L=L, m=m, doublings=0)
                   for c in depths]
        if any(res.ambiguous for res in results):
            event("pivot-ambiguous trail")
            return
        counts = [res.negative_count for res in results]
        event("counts rise" if counts[-1] > counts[0] else "counts equal")
        assert counts == sorted(counts), (depths, counts)
