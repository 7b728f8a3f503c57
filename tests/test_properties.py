"""Property tests: the single-pass Sturm count against dense eigenvalues and
against the two-pass reference, the array forms of the potentials, of a
transformed potential and of the squared log weight against their scalar
definitions, and the batched GK15 quadrature against the scalar rule."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import event, find, given, settings
from hypothesis import strategies as st

from hardybounds.errors import DomainError
from hardybounds.bounds import absolute_log_weight
from hardybounds.iterfun import hardy_weight_stack, iterated_log, squared_log_weight
from hardybounds.quadrature import (
    QuadratureError,
    _EPS as _QUAD_EPS,
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
    ZeroPotential,
    effective_radial_potential,
    transform_potential,
)
from hardybounds.spectra import (
    TridiagonalOperator,
    _sturm_count,
    inertia_negative_count,
)

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
        diag, off_sq = T.diagonal.tolist(), (T.off_diagonal**2).tolist()
        _, zero_pivot = _sturm_count(diag, off_sq, 0.0, pivot_sub(T))
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
        assert _sturm_count([1.0, 1.0], [1.0], 0.0, sub) == (0, True)
        assert _sturm_count([1.0, 1.0], [1.0], 0.0, -sub) == (1, True)
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


# ---------------------------------------------------------------------------
# transformed potentials: array path against the scalar definition
# ---------------------------------------------------------------------------

_pos = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)  # noqa: E731


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
        W = transform_potential(effective_radial_potential(V, l, 3), k)
        s = np.linspace(lo, lo + width, m)
        scalar, failed = [], False
        for x in s.tolist():
            try:
                scalar.append(W.evaluate(x))
            except (DomainError, OverflowError):
                failed = True
                scalar.append(math.nan)
        if failed:
            event("both paths raise")
            with pytest.raises((DomainError, OverflowError)):
                W(s)
            return
        event("array path evaluated")
        got = W(s)
        assert got.shape == s.shape
        # numpy's exp and log may differ from libm's by an ulp, so the two
        # paths agree to rounding relative to the size of each term; the sum
        # of a centrifugal term and a well can cancel far below that size
        terms = np.abs(transform_potential(V, k)(s))
        if l:
            terms += np.abs(transform_potential(effective_radial_potential(ZeroPotential(), l, 3), k)(s))
        assert np.all(np.abs(got - np.array(scalar)) <= 1e-12 * terms)

    @pytest.mark.parametrize("V, k, s, expected", [
        # W = -e^{2s} for s > 0: e^{720} is past the double range
        (PowerLogWell(c=1.0, p=0.0, q=0.0, a=1.0, b=math.inf), 1, 360.0, OverflowError),
        # the same barrier is capped at the positive wall
        (PowerLogWell(c=-1.0, p=0.0, q=0.0, a=1.0, b=math.inf), 1, 360.0, 1e300),
        # telescoped -c e^{2s} e^{2 e^s}: 2(6 + e^6) > 700 while exp^(2) 6 is finite
        (InverseSquareTail(c=1.0, a=1.0), 3, 6.0, OverflowError),
        # exp^(1) 1 = e lies below the samples
        (TabulatedPotential(r=(3.0, 4.0), v=(-1.0, -2.0)), 1, 1.0, DomainError),
        # outside the support of a well: zero
        (SquareWell(c=4.0, a=1.0, b=2.0), 1, 5.0, 0.0),
    ])
    def test_overflow_and_domain_semantics(self, V, k, s, expected):
        W = transform_potential(V, k)
        pts = np.array([0.5 * s, s])
        if isinstance(expected, type):
            with pytest.raises(expected):
                W.evaluate(s)
            with pytest.raises(expected):
                W(pts)
        else:
            assert W.evaluate(s) == expected
            assert W(pts)[1] == expected

    def test_scalar_call_returns_the_scalar_value(self):
        W = transform_potential(SquareWell(c=4.0, a=1.0, b=2.0), 1)
        assert W(0.5) == W.evaluate(0.5)
        assert W(np.array([0.5]))[0] == pytest.approx(W.evaluate(0.5), rel=1e-15)


# ---------------------------------------------------------------------------
# potentials and weights on ndarrays against their scalar definitions
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _scalar_or_error(f, xs):
    """[f(x) for x in xs] as an array, or the type of the first error raised."""
    try:
        return np.array([f(x) for x in xs])
    except (DomainError, OverflowError) as exc:
        return type(exc)


class TestPotentialArrayProperties:
    @settings(max_examples=300, deadline=None)
    @given(V=potentials(), l=st.sampled_from([0, 1, 3]), data=st.data())
    def test_array_matches_scalar_evaluate(self, V, l, data):
        anywhere = st.one_of(_pos(1e-6, 60.0), _pos(-5.0, 0.0))
        if isinstance(V, TabulatedPotential):
            inside = st.one_of(_pos(V.r[0], V.r[-1]), st.sampled_from(V.r))
        else:
            inside = anywhere
        xs = data.draw(st.lists(inside, min_size=1, max_size=40))
        xs += data.draw(st.lists(anywhere, max_size=2))
        W = effective_radial_potential(V, l, 3)
        ref = _scalar_or_error(W.evaluate, xs)
        if isinstance(ref, type):
            event("both paths raise")
            with pytest.raises(ref):
                W(np.array(xs))
            return
        event("both paths evaluate")
        got = W(np.array(xs))
        assert got.shape == (len(xs),)
        if isinstance(V, PowerLogWell):
            # numpy's log and pow differ from libm's by up to an ulp each, and
            # (ln r)^q scales the log's difference by q; a centrifugal term
            # adds the same value on both paths, plus one rounding of the sum
            base = np.abs(_scalar_or_error(V.evaluate, xs))
            assert np.all(np.abs(got - ref) <= (4.0 + V.q) * _EPS * base + _EPS * np.abs(ref))
        else:
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("V", [
        InverseSquareTail(c=1.0, a=0.5),
        PowerLogWell(c=1.0, p=-1.0, q=0.0, a=0.5, b=3.0),
        effective_radial_potential(SquareWell(c=1.0, a=0.5, b=3.0), 1, 3),
    ])
    def test_nonpositive_r_is_a_domain_error(self, V):
        with pytest.raises(DomainError):
            V.evaluate(0.0)
        with pytest.raises(DomainError):
            V(np.array([1.0, 0.0, 2.0]))

    def test_power_overflow_is_an_overflow_error(self):
        # float ** raises where numpy's power returns inf
        V = PowerLogWell(c=1.0, p=2.0, q=0.0, a=1.0, b=math.inf)
        with pytest.raises(OverflowError):
            V.evaluate(1e200)
        with pytest.raises(OverflowError):
            V(np.array([2.0, 1e200]))

    def test_fallback_and_scalar_call(self):
        class Linear(Potential):
            def evaluate(self, r):
                return 2.0 * r

        xs = np.array([[0.5, 1.0], [2.0, 3.0]])
        assert np.array_equal(Linear()(xs), 2.0 * xs)
        V = SquareWell(c=4.0, a=1.0, b=2.0)
        assert V(1.5) == V.evaluate(1.5) == -4.0

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.one_of(_pos(1e-6, 1e8), _pos(-2.0, 0.0)), min_size=1, max_size=40),
        count=st.sampled_from([0, 1, 2, 3]),
    )
    def test_squared_log_weight_matches_scalar(self, xs, count):
        _check_log_weight(lambda x: squared_log_weight(x, count), xs, count)

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.one_of(_pos(1e-6, 1e8), _pos(-2.0, 0.0)), min_size=1, max_size=40),
        n=st.sampled_from([0, 1, 2]),
        d=st.sampled_from([1, 3]),
    )
    def test_quadrature_weights_match_scalar(self, xs, n, d):
        # x |ln x| ... |ln^(n+1) x| takes n + 1 logs; the Hardy stack n
        _check_log_weight(lambda x: absolute_log_weight(x, n), xs, n + 1)
        _check_log_weight(lambda x: hardy_weight_stack(x, d, n), xs, n)


def _check_log_weight(weight, xs, logs):
    """weight on an ndarray of xs against [weight(x) for x in xs], where the
    weight takes ``logs`` nested logs of x."""
    ref = _scalar_or_error(weight, xs)
    if isinstance(ref, type):
        with pytest.raises(ref):
            weight(np.array(xs))
        return
    got = weight(np.array(xs))
    if logs == 0:
        assert np.array_equal(got, ref)
        return
    # np.log and math.log differ by up to an ulp, and ln y amplifies a
    # relative difference in y by 1/|ln y|: compare where every factor
    # |ln^(k) x| is at least 1/2, so each level at most triples the
    # difference of the one before
    factors = np.array([[abs(iterated_log(x, k)) for k in range(1, logs + 1)] for x in xs])
    ok = np.all(factors >= 0.5, axis=1)
    assert np.all(np.abs(got - ref)[ok] <= 64.0 * _EPS * np.abs(ref[ok]))


# ---------------------------------------------------------------------------
# the batched GK15 quadrature against the scalar rule
# ---------------------------------------------------------------------------

def scalar_integrate(f, a, b, tol, breakpoints=()):
    """Reference: QUADPACK's QK15 on one panel and one node at a time, under
    the worst-first heap and stopping rule of ``integrate``.  f is called on
    one-element arrays.  Returns (value, evaluations)."""
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
    heap = []
    for serial, (lo, hi) in enumerate(zip(edges, edges[1:])):
        v, e = gk15(lo, hi)
        heapq.heappush(heap, (-e, serial, lo, hi, v, e))
    serial = len(heap)
    while True:
        total_val = math.fsum(item[4] for item in heap)
        if math.fsum(item[5] for item in heap) <= tol * max(1.0, abs(total_val)):
            return total_val, count
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for lo, hi in ((lo, mid), (mid, hi)):
            v, e = gk15(lo, hi)
            heapq.heappush(heap, (-e, serial, lo, hi, v, e))
            serial += 1


@st.composite
def smooth_integrands(draw):
    """exp(alpha sin(omega x + phi)) plus a Lorentzian peak of width s at mu:
    smooth and positive, so that relative differences are well defined."""
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(0.1, 20.0))
    alpha, omega, phi = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 20.0)), draw(st.floats(0.0, 6.3))
    mu, s = draw(st.floats(a, b)), draw(st.floats(0.01, 2.0))

    def f(x):
        return np.exp(alpha * np.sin(omega * x + phi)) + 1.0 / (s * s + (x - mu) ** 2)

    pts = draw(st.lists(st.floats(a, b), max_size=6))
    return f, a, b, pts


class TestBatchedQuadrature:
    @settings(max_examples=150, deadline=None)
    @given(case=smooth_integrands(), tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
    def test_matches_the_scalar_rule(self, case, tol):
        f, a, b, pts = case
        value, count = scalar_integrate(f, a, b, tol, pts)
        res = integrate(f, a, b, tol=tol, breakpoints=pts)
        assert res.evaluations == count
        assert abs(res.value - value) <= 1e-13 * abs(value)

    @pytest.mark.parametrize("pts", [(), (0.25, 0.75)])
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
