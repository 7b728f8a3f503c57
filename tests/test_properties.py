"""Property tests: the single-pass Sturm count against dense eigenvalues and
against the two-pass reference, and the array form of a transformed
potential against its scalar definition."""

import math

import numpy as np
import pytest
from hypothesis import event, find, given, settings
from hypothesis import strategies as st

from hardybounds.errors import DomainError
from hardybounds.potentials import (
    InverseSquareTail,
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

    scale = T.norm_inf() or 1.0
    up, down = count(_PIVOT_EPS * scale), count(-_PIVOT_EPS * scale)
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
        _, zero_pivot = _sturm_count(diag, off_sq, 0.0, _PIVOT_EPS * (T.norm_inf() or 1.0))
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
