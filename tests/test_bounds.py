import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from hardybounds.bounds import (
    BoundConstants,
    BoundValue,
    DEFAULT_CLR_CONSTANTS,
    OperatorSpec,
    QuadDiagnostics,
    bound_1d,
    central_bound,
    clr_bound,
    l_max,
    theorem_bound,
    theorem_operator,
)
from hardybounds.errors import DomainError, EvaluationError
from hardybounds.iterfun import DomainThreshold, iterated_exp, sphere_area
from hardybounds.potentials import (
    InverseSquareTail,
    PowerLogWell,
    SquareWell,
    TabulatedPotential,
    ZeroPotential,
    _centrifugal_crossings,
    check_bounded_below_weighted,
    negative_part_abs,
)
from hardybounds import quadrature
from hardybounds.quadrature import integrate, integrate_semiinfinite
from weighted_oracle import absolute_log_weight, clr_x_integral, weighted_negpart_quad

# antiderivative oracles used throughout
X_LN_X_1_2 = 2.0 * math.log(2.0) - 0.75  # int_1^2 x ln x dx
# int_sqrt2^2 (1 - 2/r^2) r ln r dr  via  r^2/2 ln r - r^2/4 - (ln r)^2
I1_CHANNEL = 1.5 * math.log(2.0) - 0.5 - 0.75 * math.log(2.0) ** 2


# ---------------------------------------------------------------------------
# the flat Bargmann bounds: the operator -d^2/dx^2 + V on the line and the
# half line, whose bounds the t41 bounds become in s = ln^(n+1) x
# ---------------------------------------------------------------------------

def _flat_tail_note(V):
    """The tail test of the bounds, the note why the integral diverges or None."""
    return check_bounded_below_weighted(V, 0)[1]


def _flat_quad(V, floor, tol):
    """int over (floor, inf) of |V_-(x)| |x| dx, with support clipping."""
    ns = V.negative_support()
    lo, hi = (0.0, 0.0) if ns is None else (max(ns[0], floor), ns[1])
    if hi <= lo:
        return 0.0

    def f(x):
        return negative_part_abs(V, x) * np.abs(x)

    pts = [p for p in (*V.breakpoints(), 0.0) if lo < p < hi]
    if math.isinf(hi):
        return integrate_semiinfinite(f, lo, tol=tol, breakpoints=pts).value
    return integrate(f, lo, hi, tol=tol, breakpoints=pts).value


def bargmann_line_bound(V, tol=1e-10):
    """1 + int_{-inf}^{inf} |V(x)_-| |x| dx for the flat operator on the line."""
    why = _flat_tail_note(V)
    if why is not None:
        return BoundValue.build(math.inf, QuadDiagnostics(notes=(why,)))
    return BoundValue.build(1.0 + _flat_quad(V, -math.inf, tol), QuadDiagnostics())


def bargmann_halfline_bound(V, tol=1e-10):
    """int_0^inf |V(x)_-| x dx for the flat Dirichlet operator on (0, inf)."""
    why = _flat_tail_note(V)
    if why is not None:
        return BoundValue.build(math.inf, QuadDiagnostics(notes=(why,)))
    return BoundValue.build(_flat_quad(V, 0.0, tol), QuadDiagnostics())


class TestBargmann:
    def test_zero_potential_line(self):
        bv = bargmann_line_bound(ZeroPotential())
        assert bv.raw == 1.0
        assert bv.integer_cap == 1

    def test_symmetric_line_well(self):
        # int_{-1}^{1} |x| dx = 1
        bv = bargmann_line_bound(SquareWell(c=1.0, a=-1.0, b=1.0))
        assert bv.raw == pytest.approx(2.0, rel=1e-11)
        assert bv.integer_cap == 2

    def test_offset_line_well(self):
        bv = bargmann_line_bound(SquareWell(c=1.0, a=1.0, b=2.0))
        assert bv.raw == pytest.approx(2.5, rel=1e-11)

    def test_halfline_zero(self):
        assert bargmann_halfline_bound(ZeroPotential()).raw == 0.0

    def test_halfline_well(self):
        bv = bargmann_halfline_bound(SquareWell(c=1.0, a=1.0, b=2.0))
        assert bv.raw == pytest.approx(1.5, rel=1e-11)

    def test_halfline_well_at_origin(self):
        bv = bargmann_halfline_bound(SquareWell(c=4.0, a=0.0, b=1.0))
        assert bv.raw == pytest.approx(2.0, rel=1e-11)

    def test_inverse_square_diverges(self):
        bv = bargmann_line_bound(InverseSquareTail(c=1.0, a=1.0))
        assert math.isinf(bv.raw)
        assert bv.integer_cap is None


_real = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)  # noqa: E731


@st.composite
def identity_cases(draw):
    """(V, n): a square, a finite power-log or a tabulated well at n in
    {0, 1, 2}, or a p < -2 power-log tail at n in {0, 1}.  Every support starts
    past exp^(n)(0), so its image under s = ln^(n+1) x starts at a finite s."""
    family = draw(st.sampled_from(["square_well", "power_log_well", "tabulated", "tail"]))
    n = draw(st.integers(0, 1 if family == "tail" else 2))
    start = iterated_exp(0.0, n) + draw(_real(0.05, 3.0))
    if family == "square_well":
        return SquareWell(c=draw(_real(0.1, 50.0)), a=start, b=start + draw(_real(0.1, 20.0))), n
    if family == "tabulated":
        r = start + np.cumsum([0.0] + [draw(_real(0.05, 4.0)) for _ in range(draw(st.integers(1, 7)))])
        return TabulatedPotential(r=tuple(r.tolist()), v=tuple(draw(_real(-20.0, 5.0)) for _ in r)), n
    q = draw(st.sampled_from([0.0, 1.0, 2.5]))
    a = max(start, 1.0) if q else start
    if family == "tail":
        return PowerLogWell(c=draw(_real(0.1, 50.0)), p=draw(_real(-4.5, -3.5)), q=q, a=a, b=math.inf), n
    c = draw(_real(0.1, 50.0)) * draw(st.sampled_from([1.0, -1.0]))
    return PowerLogWell(c=c, p=draw(_real(-4.0, 2.0)), q=q, a=a, b=a + draw(_real(0.1, 20.0))), n


class TestTransformIdentity:
    """bound_1d of V on (1, n, variant) is computed as the flat bound of
    W = transform(V, n + 1): s = ln^(n+1) x carries the weight
    x |ln x| ... |ln^(n+1) x| dx onto |s| ds, the variant-zero threshold
    exp^(n)(0) onto s = -inf (the line) and the variant-one threshold
    exp^(n)(1) onto s = 0 (the half line).  The weighted integral in x,
    kept in ``weighted_oracle``, is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(case=identity_cases(), variant=st.sampled_from(["zero", "one"]))
    def test_weighted_bound_is_the_flat_bound_of_the_transform(self, case, variant):
        V, n = case
        spec = OperatorSpec(1, n, variant)
        base = 1.0 if variant == "zero" else 0.0
        weighted = base + weighted_negpart_quad(V, n, spec.threshold.value, 1e-10)
        got = bound_1d(V, spec)
        # each quadrature stops at an error of 1e-10 max(1, |value|)
        assert got.raw == pytest.approx(weighted, rel=1e-9, abs=1e-9)


class TestWeight:
    def test_matches_direct_product(self):
        x = 3.7
        assert absolute_log_weight(x, 0) == pytest.approx(x * abs(math.log(x)), rel=1e-14)
        assert absolute_log_weight(x, 1) == pytest.approx(
            x * abs(math.log(x)) * abs(math.log(math.log(x))), rel=1e-14
        )

    def test_abs_applied_to_sign_changing_factors(self):
        # below x = 1 the first log is negative; weight must stay nonnegative
        assert absolute_log_weight(0.5, 0) > 0.0


class TestBound1d:
    def test_zero_variant_zero(self):
        spec = OperatorSpec(1, 0, "zero")
        bv = bound_1d(ZeroPotential(), spec)
        assert bv.raw == 1.0
        assert bv.integer_cap == 1

    def test_well_variant_one(self):
        spec = OperatorSpec(1, 0, "one")
        bv = bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), spec, tol=1e-12)
        assert bv.raw == pytest.approx(X_LN_X_1_2, rel=1e-10)
        assert abs(bv.raw - X_LN_X_1_2) < 1e-9
        assert bv.integer_cap == 0

    def test_well_variant_zero(self):
        spec = OperatorSpec(1, 0, "zero")
        bv = bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), spec, tol=1e-12)
        assert bv.raw == pytest.approx(1.0 + X_LN_X_1_2, rel=1e-10)
        assert bv.integer_cap == 1

    def test_depth_scaling_is_linear(self):
        spec = OperatorSpec(1, 0, "one")
        base = bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), spec, tol=1e-12).raw
        for lam in (2.0, 5.0, 12.5):
            scaled = bound_1d(SquareWell(c=lam, a=1.0, b=2.0), spec, tol=1e-12).raw
            assert scaled == pytest.approx(lam * base, rel=1e-10)

    def test_monotone_in_potential(self):
        spec = OperatorSpec(1, 0, "one")
        shallow = bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), spec).raw
        deeper = bound_1d(SquareWell(c=1.0, a=0.8, b=2.3), spec).raw
        deepest = bound_1d(SquareWell(c=1.5, a=0.8, b=2.3), spec).raw
        assert shallow <= deeper <= deepest

    def test_depth_one_weight(self):
        # n=1, variant one: threshold e, weight x ln x ln ln x on (e, e^2)
        spec = OperatorSpec(1, 1, "one")
        V = SquareWell(c=1.0, a=math.e, b=math.e**2)
        bv = bound_1d(V, spec, tol=1e-12)
        oracle = integrate(
            lambda x: x * np.log(x) * np.log(np.log(x)),
            math.e,
            math.e**2,
            tol=1e-13,
        ).value
        assert bv.raw == pytest.approx(oracle, rel=1e-10)

    def test_depth_three_weights_and_thresholds(self):
        # depth 3 exercises four nested logs in the weight and the threshold
        # exp^(3)(1) = 3814279...; a well below the threshold contributes 0
        one = OperatorSpec(1, 3, "one")
        assert one.threshold.value == pytest.approx(3814279.104760214, rel=1e-12)
        assert bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), one).raw == 0.0
        zero = OperatorSpec(1, 3, "zero")
        V = SquareWell(c=1.0, a=4.0e6, b=8.0e6)
        bv = bound_1d(V, zero, tol=1e-10)
        oracle = integrate(
            lambda x: absolute_log_weight(x, 3), 4.0e6, 8.0e6, tol=1e-12
        ).value
        assert bv.raw == pytest.approx(1.0 + oracle, rel=1e-9)

    def test_hypothesis_warning_is_attached_not_fatal(self):
        spec = OperatorSpec(1, 0, "zero")
        V = PowerLogWell(c=1.0, p=-1.0, q=0.0, a=0.001, b=math.inf)
        bv = bound_1d(V, spec)
        # flagged, but evaluation proceeded
        assert bv.diagnostics.warnings == (
            "hypothesis not met at depth n = 0: tail r^-1 makes the weighted potential "
            "unbounded below",)
        assert math.isinf(bv.raw)  # tail -1/x is not weight-integrable

    def test_central_bound_carries_the_same_warning(self):
        V = InverseSquareTail(c=2.0, a=2.0)
        warning = ("hypothesis not met at depth n = 1: tail r^-2 makes the weighted potential "
                   "unbounded below",)
        for bv in (bound_1d(V, OperatorSpec(1, 1, "zero")),
                   central_bound(V, OperatorSpec(3, 1, "zero"))):
            assert bv.diagnostics.warnings == warning
            assert bv.diagnostics.notes == ("inverse-square tail makes the weighted integral diverge",)
            assert bv.raw == math.inf

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DomainError):
            bound_1d(ZeroPotential(), OperatorSpec(d=3, n=0, variant="one"))

    def test_tabulated_samples_below_the_domain(self):
        # exp^(2)(1) = 15.15...: the samples on [1, 13] end below the domain,
        # so the hypothesis check passes and the bound is 0
        spec = OperatorSpec(1, 2, "one")
        V = TabulatedPotential(r=tuple(range(1, 14)), v=(-1.0,) * 13)
        check = check_bounded_below_weighted(V, 2)[0]
        assert (check.passed, check.reason) == (True, "no negative tail")
        assert bound_1d(V, spec).raw == 0.0
        assert bound_1d(SquareWell(c=1.0, a=1.0, b=13.0), spec).raw == 0.0

    def test_floor_consistency(self):
        spec = OperatorSpec(1, 0, "zero")
        for c in (0.3, 1.0, 2.7, 8.1):
            bv = bound_1d(SquareWell(c=c, a=1.0, b=2.0), spec)
            assert bv.integer_cap == math.floor(bv.raw)
            assert bv.integer_cap <= bv.raw < bv.integer_cap + 1


class TestSlowTails:
    """Integrable tails -c r^p (ln r)^q with -3 < p < -2.  In x the
    semi-infinite map turns them into singularities at t = 1; in
    s = ln^(n+1) r they decay exponentially."""

    @pytest.mark.parametrize("variant", ["zero", "one"])
    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("q", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("p", [-2.2, -2.5, -2.8, -3.0])
    def test_tail_bound_is_finite(self, p, q, n, variant):
        a = max(1.0, math.e**n) + 0.5
        bv = bound_1d(PowerLogWell(c=5.0, p=p, q=q, a=a, b=math.inf), OperatorSpec(1, n, variant))
        assert math.isfinite(bv.raw)
        if n == 0:
            # int_(ln a)^inf 5 s^(q+1) e^(-eps s) ds = 5 Gamma(q+2, eps ln a) / eps^(q+2)
            eps = -(p + 2.0)
            with mpmath.workdps(30):
                tail = 5.0 * mpmath.gammainc(q + 2.0, eps * math.log(a)) / mpmath.mpf(eps)**(q + 2.0)
            base = 1.0 if variant == "zero" else 0.0
            assert bv.raw == pytest.approx(base + float(tail), rel=1e-12, abs=0.0)

    def test_depth_four_tail(self):
        # n = 4 on variant zero: the transform takes 5 steps, past the
        # count's depth cap; mpmath in v = ln x gives 1.19726233952e-9
        V = PowerLogWell(c=5.0, p=-3.5, q=0.0, a=3.9e6, b=math.inf)
        bv = bound_1d(V, OperatorSpec(1, 4, "zero"))
        assert bv.raw == pytest.approx(1.0 + 1.19726233952e-9, rel=0.0, abs=1e-10)


class TestTailPasses:
    """The semi-infinite map's dyadic start, x - a = 1, 3, 7, 15, grades the
    first pass toward x = infinity: the power-log tails of the bound goldens
    need few bisection passes after it.  A d = 3 CLR bound grades its first
    pass toward the zeros of a tabulated W in the same way."""

    @pytest.mark.parametrize("bound, V, spec, most", [
        (bound_1d, PowerLogWell(c=5.0, p=-3.0, q=1.0, a=1.0, b=math.inf),
         OperatorSpec(1, 0, "one"), 2),  # bound-t41-power-log
        (central_bound, PowerLogWell(c=30.0, p=-3.0, q=1.0, a=1.0, b=math.inf),
         OperatorSpec(3, 0, "one"), 2),  # bound-t43-power-log
        (central_bound, PowerLogWell(c=30.0, p=-3.0, q=1.0, a=3.0, b=math.inf),
         OperatorSpec(3, 1, "zero"), 3),  # bound-t43-n1-power-log
    ], ids=["t41-power-log", "t43-power-log", "t43-n1-power-log"])
    def test_golden_tails_take_few_passes(self, bound, V, spec, most, monkeypatch):
        passes = []
        gk15 = quadrature._gk15
        monkeypatch.setattr(quadrature, "_gk15", lambda f, lo, hi: passes.append(lo) or gk15(f, lo, hi))
        assert math.isfinite(bound(V, spec).raw)
        assert len(passes) <= most
        assert len(passes[0]) >= 5  # the dyadic panels are in the first pass

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("variant", ["zero", "one"])
    def test_a_zero_ended_clr_well_takes_one_pass(self, n, variant, monkeypatch):
        # at d = 3 the CLR integrand meets the last sample's zero like
        # dist^(3/2); the first pass is graded toward it, where bisection
        # passes used to go (8 passes before the grading)
        t = np.linspace(0.0, 1.0, 320)
        v = -(np.exp(-(((t - 0.5) / 0.2) ** 2)) + 0.05 + 0.1 * np.sin(37.0 * t) ** 2)
        v[0] = v[-1] = 0.0
        V = TabulatedPotential(r=tuple(np.geomspace(0.5, 1e8, 320).tolist()), v=tuple(v.tolist()))
        spec = OperatorSpec(3, n, variant, threshold_depth=n + 2)
        passes = []
        gk15 = quadrature._gk15
        monkeypatch.setattr(quadrature, "_gk15", lambda f, lo, hi: passes.append(lo) or gk15(f, lo, hi))
        bound = clr_bound(V, spec)
        assert len(passes) == 1
        want = clr_x_integral(V, spec, 1e-10) * DEFAULT_CLR_CONSTANTS.get(3) * sphere_area(3)
        assert bound.raw == pytest.approx(want, rel=1e-9)


class TestLmax:
    def test_nonnegative_potential_has_none(self):
        assert l_max(ZeroPotential(), 3, DomainThreshold(0, "zero")) is None

    def test_inverse_square_closed_form(self):
        # S = c = 5; l(l+1) < 5 up to l = 1 (2 < 5 <= 6)
        lm = l_max(InverseSquareTail(c=5.0, a=0.5), 3, DomainThreshold(0, "zero"))
        assert lm == 1

    def test_square_well_sup_at_outer_edge(self):
        # S = c b^2 = 4; l=1: 2 < 4, l=2: 6 >= 4
        lm = l_max(SquareWell(c=1.0, a=1.0, b=2.0), 3, DomainThreshold(0, "zero"))
        assert lm == 1

    def test_threshold_clips_the_well(self):
        # same well on a domain that excludes it entirely
        lm = l_max(SquareWell(c=1.0, a=1.0, b=2.0), 3, DomainThreshold(2, "zero"))
        assert lm is None

    def test_sampled_family_agrees_with_closed_form(self):
        from hardybounds.potentials import TabulatedPotential

        # piecewise-linear approximation of the square well keeps S near c b^2
        rs = [0.5, 0.999, 1.0, 2.0, 2.001, 3.0]
        vs = [0.0, 0.0, -1.0, -1.0, 0.0, 0.0]
        lm = l_max(TabulatedPotential(r=tuple(rs), v=tuple(vs)), 3,
                   DomainThreshold(0, "zero"))
        assert lm == 1

    def test_sampled_sup_weighs_by_r_squared(self):
        # |V| peaks at r = 1 (1.5), r^2 |V| at r = 4 (16): l(l+1) < 16 up to l = 3
        V = TabulatedPotential(r=(1.0, 2.0, 4.0), v=(-1.5, -1.0, -1.0))
        assert l_max(V, 3, DomainThreshold(0, "zero")) == 3

    @staticmethod
    def _counted_l_max(S, d):
        """The upward channel scan that the closed form replaces."""
        l = 0
        while (l + 1) * (l + 1 + d - 2) < S:
            l += 1
        return l

    def test_closed_form_matches_channel_scan(self):
        # S = c b^2 = c exactly for b = 1, so S can sit on and beside every
        # product l(l+d-2)
        domain = DomainThreshold(0, "zero")
        for d in (2, 3, 4, 7):
            for l in range(40):
                p = float(l * (l + d - 2))
                for S in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf),
                          p + 0.5, p - 0.5):
                    if S > 0.0:
                        lm = l_max(SquareWell(c=S, a=0.5, b=1.0), d, domain)
                        assert lm == self._counted_l_max(S, d), (d, S)

    @given(S=st.floats(min_value=1e-300, max_value=1e300), d=st.integers(2, 9))
    def test_closed_form_is_the_largest_binding_channel(self, S, d):
        lm = l_max(SquareWell(c=S, a=0.5, b=1.0), d, DomainThreshold(0, "zero"))
        assert lm * (lm + d - 2) < S <= (lm + 1) * (lm + d - 1)

    def test_infinite_supremum_raises(self):
        V = PowerLogWell(c=1.0, p=-1.0, q=0.0, a=2.0, b=math.inf)
        with pytest.raises(EvaluationError):
            l_max(V, 3, DomainThreshold(0, "one"))

    def test_central_bound_of_infinite_supremum_is_vacuous(self):
        V = PowerLogWell(c=1.0, p=-1.0, q=0.0, a=2.0, b=math.inf)
        bv = central_bound(V, OperatorSpec(3, 0, "one"))
        assert bv.raw == math.inf
        assert bv.integer_cap is None
        assert any("diverge" in note for note in bv.diagnostics.notes)


class TestHypothesisCheckOnBoundedSupports:
    def test_wide_square_wells_carry_no_warning(self):
        # the sampled tail window of the check used to overlap these wells
        # and flag them as unbounded below
        bv = bound_1d(SquareWell(c=1.0, a=1.0, b=1e6), OperatorSpec(1, 0, "zero"))
        assert bv.diagnostics.warnings == ()
        bv = central_bound(SquareWell(c=1e-9, a=1.0, b=1e5), OperatorSpec(3, 0, "zero"))
        assert bv.diagnostics.warnings == ()

    @pytest.mark.parametrize("V", [
        ZeroPotential(),
        SquareWell(c=5.0, a=1.0, b=2.0),
        PowerLogWell(c=30.0, p=-3.0, q=1.0, a=3.0, b=40.0),
        PowerLogWell(c=-1.0, p=-1.0, q=0.0, a=1.0, b=math.inf),
        TabulatedPotential(r=(0.5, 1.0, 4.0, 9.0), v=(0.0, -3.0, -1.0, 0.5)),
    ], ids=["zero", "square", "power-log", "power-log-barrier", "tabulated"])
    def test_bounded_negative_support_is_decided_without_samples(self, V):
        for n in (0, 1, 2):
            check = check_bounded_below_weighted(V, n)[0]
            assert (check.passed, check.reason) == (True, "no negative tail")


class TestCentralBound:
    def test_nonnegative_potential_gives_zero(self):
        spec = OperatorSpec(3, 0, "zero")
        bv = central_bound(ZeroPotential(), spec)
        assert bv.raw == 0.0
        assert bv.integer_cap == 0
        assert bv.channels == ()

    def test_d3_variant_one_channel_values(self):
        spec = OperatorSpec(3, 0, "one")
        bv = central_bound(SquareWell(c=1.0, a=1.0, b=2.0), spec, tol=1e-12)
        assert len(bv.channels) == 2
        assert bv.channels[0].integral == pytest.approx(X_LN_X_1_2, abs=1e-9)
        assert bv.channels[1].integral == pytest.approx(I1_CHANNEL, abs=1e-9)
        assert bv.raw == pytest.approx(X_LN_X_1_2 + 3 * I1_CHANNEL, abs=1e-9)

    def test_d3_variant_zero_adds_degeneracies(self):
        one = central_bound(
            SquareWell(c=1.0, a=1.0, b=2.0), OperatorSpec(3, 0, "one")
        )
        zero = central_bound(
            SquareWell(c=1.0, a=1.0, b=2.0), OperatorSpec(3, 0, "zero")
        )
        # support inside (1,2): integrals match, the zero variant adds D(3,0)+D(3,1)=4
        assert zero.raw == pytest.approx(one.raw + 4.0, rel=1e-10)

    def test_power_log_channel_split_at_centrifugal_crossing(self):
        # 6/r^2 - c r^p changes sign at r = (6/c)^(1/(p+2)) = 2.2249...; the
        # positive part has a kink there that the quadrature must split at
        c, p, a = 20.52529275988548, -3.5379243902274493, 1.5468400070144628
        V = PowerLogWell(c=c, p=p, q=0.0, a=a, b=math.inf)
        cross = (6.0 / c) ** (1.0 / (p + 2.0))
        assert cross in _centrifugal_crossings(V, [6.0])
        bv = central_bound(V, OperatorSpec(3, 1, "zero"), tol=1e-10)
        ref, _ = scipy.integrate.quad(
            lambda r: (c * r**p - 6.0 / r**2) * absolute_log_weight(r, 1), a, cross,
            epsabs=0.0, epsrel=1e-13,
        )
        assert ref == pytest.approx(0.238585695679, rel=1e-11)
        assert bv.channels[2].integral == pytest.approx(ref, rel=1e-9)

    def test_power_log_channel_split_at_log_crossing(self):
        # q = 1: the crossing c r^p ln r = 20 / r^2 has no closed form and is
        # solved in u = ln r; without it channel l = 4 missed by 1.8e-6
        c, p, a = 144.8590095387951, -3.0553189048920624, 2.7119420049225744
        V = PowerLogWell(c=c, p=p, q=1.0, a=a, b=math.inf)
        gap = lambda r: c * r**p * math.log(r) - 20.0 / r**2
        cross = scipy.optimize.brentq(gap, a, 100.0, xtol=1e-14)
        bv = central_bound(V, OperatorSpec(3, 0, "zero"), tol=1e-10)
        ref, _ = scipy.integrate.quad(
            lambda r: gap(r) * absolute_log_weight(r, 0), a, cross, epsabs=0.0, epsrel=1e-13,
        )
        assert ref == pytest.approx(49.0993110, rel=1e-8)
        assert bv.channels[4].integral == pytest.approx(ref, rel=1e-11)

    def test_tabulated_channel_split_at_crossing(self):
        # 20/r^2 + V changes sign between two samples; without the split
        # channel l = 4 missed by 4.6e-9
        r = np.linspace(1.2, 6.0, 9)
        v = -30.0 * r**-2.5
        g = lambda x: 20.0 / x**2 + np.interp(x, r, v)
        cross = scipy.optimize.brentq(g, 1.8, 2.4, xtol=1e-14)
        bv = central_bound(TabulatedPotential(r=tuple(r), v=tuple(v)), OperatorSpec(3, 0, "one"),
                           tol=1e-10)
        ref, _ = scipy.integrate.quad(
            lambda x: max(-g(x), 0.0) * absolute_log_weight(x, 0), 1.2, 6.0,
            points=sorted([*r[1:-1], cross]), epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert bv.channels[4].integral == pytest.approx(ref, rel=1e-12)

    def test_power_log_crossing_past_the_float_range(self):
        # p = -2.01: the crossing (L/c)^(1/(p+2)) = (2e-4)^(-100) is about
        # 1e370, past b and past the float range; it adds no breakpoint
        V = PowerLogWell(c=1e4, p=-2.01, q=0.0, a=2.0, b=10.0)
        assert _centrifugal_crossings(V, [2.0]) == []
        bv = central_bound(V, OperatorSpec(3, 0, "zero"), tol=1e-10)
        assert math.isfinite(bv.raw) and bv.channels[1].integral > 0.0

    def test_l0_channel_reproduces_line_bound(self):
        # deep narrow well keeps l_max = 0
        V = SquareWell(c=0.4, a=1.0, b=1.5)
        assert l_max(V, 3, DomainThreshold(0, "one")) == 0
        spec3 = OperatorSpec(3, 0, "one")
        spec1 = OperatorSpec(1, 0, "one")
        assert central_bound(V, spec3).raw == pytest.approx(
            bound_1d(V, spec1).raw, rel=1e-10
        )


class TestClrBound:
    def test_d3_variant_zero_nonnegative_potential(self):
        spec = OperatorSpec(3, 0, "zero", threshold_depth=2)
        assert clr_bound(ZeroPotential(), spec).raw == 0.0
        barrier = PowerLogWell(c=-1.0, p=0.0, q=0.0, a=3.0, b=10.0)
        assert clr_bound(barrier, spec).raw == 0.0

    def test_d3_variant_zero_well_reduction(self):
        # with (d-1)(d-3) = 0 and V <= 0 the integrand is (-V)^{3/2} times the
        # printed log-power weight; cross-check against a direct quadrature
        spec = OperatorSpec(3, 0, "zero", threshold_depth=2)
        c, a, b = 2.0, 3.0, 6.0
        bv = clr_bound(SquareWell(c=c, a=a, b=b), spec, tol=1e-12)
        direct = integrate(
            lambda r: c**1.5 * np.log(r) ** 2 * r * r, a, b, tol=1e-13
        ).value
        expected = 0.1156 * sphere_area(3) * direct
        assert bv.raw == pytest.approx(expected, rel=1e-10)

    def test_d5_zero_potential_diverges(self):
        spec = OperatorSpec(5, 0, "zero", threshold_depth=2)
        bv = clr_bound(ZeroPotential(), spec)
        assert math.isinf(bv.raw) and bv.raw > 0
        assert bv.integer_cap is None

    def test_d5_horizon_truncation_grows_like_log_log(self):
        spec = OperatorSpec(5, 0, "zero", threshold_depth=2)
        vals = [
            clr_bound(ZeroPotential(), spec, horizon=h).raw for h in (1e2, 1e4, 1e8)
        ]
        assert 0 < vals[0] < vals[1] < vals[2]

    def test_d4_variant_one_root_of_numerator(self):
        # integrand dies where (ln ln r)^2 >= (d-1)(d-3) = 3
        spec = OperatorSpec(4, 0, "one", threshold_depth=2)
        r_star = scipy.optimize.brentq(
            lambda r: 3.0 - math.log(math.log(r)) ** 2, 20.0, 1e6
        )
        assert r_star == pytest.approx(iterated_exp(math.sqrt(3.0), 2), rel=1e-10)
        bv = clr_bound(ZeroPotential(), spec, tol=1e-10)
        assert bv.raw > 0.0
        truncated = clr_bound(ZeroPotential(), spec, horizon=r_star, tol=1e-10)
        assert truncated.raw == pytest.approx(bv.raw, rel=1e-8)

    def test_constants_are_configurable(self):
        spec = OperatorSpec(3, 0, "zero", threshold_depth=2)
        V = SquareWell(c=1.0, a=3.0, b=6.0)
        doubled = BoundConstants(values={3: 2 * 0.1156})
        assert clr_bound(V, spec, constants=doubled).raw == pytest.approx(
            2 * clr_bound(V, spec).raw, rel=1e-12
        )
        with pytest.raises(DomainError):
            clr_bound(V, OperatorSpec(9, 0, "zero", threshold_depth=2),
                      constants=BoundConstants(values={3: 0.1156}))

    def test_tabulated_integral_restricted_to_samples(self):
        # the domain starts at exp^(2)(1) = 15.15..., below the first sample
        spec = OperatorSpec(3, 0, "one", threshold_depth=2)
        r = np.linspace(17.0, 42.0, 11)
        v = -2.0 - np.sin(r)
        bv = clr_bound(TabulatedPotential(r=tuple(r), v=tuple(v)), spec, tol=1e-12)
        assert "tabulated potential: integral restricted to the sampled range" in bv.diagnostics.notes

        # d = 3, variant one: the improvement term is -1 / (4 r^2 (ln r)^2)
        def integrand(x):
            g = max(-1.0 / (4.0 * x * x * math.log(x) ** 2) - np.interp(x, r, v), 0.0)
            return g**1.5 * (math.log(x) * math.log(math.log(x))) ** 2 * x * x

        ref, _ = scipy.integrate.quad(integrand, 17.0, 42.0, points=r[1:-1], epsabs=0.0,
                                      epsrel=1e-12, limit=200)
        assert bv.raw == pytest.approx(0.1156 * sphere_area(3) * ref, rel=1e-9)

    def test_d5_tabulated_is_zero_extended(self):
        # for d = 5 the improvement term (8 - (ln ln r)^2) / (4 r^2 (ln r)^2 (ln ln r)^2)
        # is positive up to r* = exp^(2)(sqrt 8) = 2.2e7: outside the samples
        # the integrand is that of V = 0, and V <= 0 only adds to it
        spec = OperatorSpec(5, 0, "one", threshold_depth=2)
        r = np.linspace(17.0, 42.0, 11)
        v = -1e-4 * (2.0 - np.sin(r))  # small against the improvement term
        bv = clr_bound(TabulatedPotential(r=tuple(r), v=tuple(v)), spec, tol=1e-12)
        zero = clr_bound(ZeroPotential(), spec, tol=1e-12)
        assert "tabulated potential: taken as 0 outside the sampled range" in bv.diagnostics.notes
        assert bv.raw > zero.raw > 0.0

        def integrand(x, V):
            LL = math.log(x) * math.log(math.log(x))
            A = (8.0 - math.log(math.log(x)) ** 2) / (4.0 * x * x * LL * LL)
            return max(A - V, 0.0) ** 2.5 * LL**4 * x**4

        ref, _ = scipy.integrate.quad(
            lambda x: integrand(x, np.interp(x, r, v)) - integrand(x, 0.0), 17.0, 42.0,
            points=r[1:-1], epsabs=0.0, epsrel=1e-12, limit=200,
        )
        prefactor = DEFAULT_CLR_CONSTANTS.get(5) * sphere_area(5)
        assert bv.raw - zero.raw == pytest.approx(prefactor * ref, rel=1e-8)

    def test_a_span_inside_the_samples_is_restricted_to_them(self):
        # d = 4, variant one: s* = exp(sqrt 3) = 5.65 lies below ln 400, so
        # the span (e, ln 400) stays inside the samples' images (ln 10, ln 400)
        V = TabulatedPotential(r=tuple(np.geomspace(10.0, 400.0, 9)), v=(-0.01,) * 9)
        spec = OperatorSpec(4, 0, "one", threshold_depth=2)
        bv = clr_bound(V, spec)
        assert bv.raw == 1497216043.4167657
        assert "tabulated potential: integral restricted to the sampled range" in bv.diagnostics.notes
        assert not any("taken as 0" in note for note in bv.diagnostics.notes)
        want = DEFAULT_CLR_CONSTANTS.get(4) * sphere_area(4) * clr_x_integral(V, spec, 1e-10)
        assert bv.raw == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n", [0, 1])
    def test_d4_variant_one_closed_form(self, n):
        # in u = ln s the integrand of V = 0 is (3 - u^2)^2 / (16 u) on (1, sqrt 3),
        # the same at every depth n; at n = 1 the x-side weight (r ln r ...)^3
        # passes the double range below r* = exp^(3)(sqrt 3) = 1.9e123
        bv = clr_bound(ZeroPotential(), OperatorSpec(4, n, "one", threshold_depth=n + 2))
        closed = 0.1156 * sphere_area(4) * (9.0 * math.log(3.0) - 8.0) / 32.0
        assert closed == pytest.approx(0.13459440149044413, abs=1e-16)
        assert bv.raw == pytest.approx(closed, abs=1e-12)

    def test_r_star_past_the_double_range(self):
        # d = 5, n = 1, variant one: r* = exp^(3)(sqrt 8) passes the double
        # range, but s* = exp(sqrt 8) = 16.9 does not
        spec = OperatorSpec(5, 1, "one", threshold_depth=3)
        bv = clr_bound(ZeroPotential(), spec)
        assert bv.raw == pytest.approx(
            clr_bound(ZeroPotential(), OperatorSpec(5, 0, "one", threshold_depth=2)).raw, abs=1e-10)
        assert bv.integer_cap == 5
        assert not any("exceeds the double range" in note for note in bv.diagnostics.notes)
        # a horizon below r* cuts the range: integrate up to it
        vals = [clr_bound(ZeroPotential(), spec, horizon=h) for h in (1e8, 1e12)]
        assert 0.0 < vals[0].raw < vals[1].raw < bv.raw
        assert "integral truncated at horizon r = 1e+12" in vals[1].diagnostics.notes

    @pytest.mark.xfail(strict=True, reason="the bound does not split where the improvement "
                       "term crosses a positive tabulated V")
    def test_tabulated_crossing_of_the_improvement_term(self):
        # d = 4, variant one: V = 0.5 (r - r1) / (r2 - r1) rises past the
        # improvement term (3 - (ln ln r)^2) / (4 (r ln r ln ln r)^2) about
        # 1.4e-3 after r1, and every node of the panel (r1, r2) misses the
        # positive stretch before that crossing; the reference splits there
        r = (15.154262241479262, 21.431363189658473, 30.308524482958525)
        V = TabulatedPotential(r=r, v=(0.0, 0.0, 0.5))
        spec = OperatorSpec(4, 0, "one", threshold_depth=2)

        def gap(x):  # the improvement term less V, V = 0 outside the samples
            u = math.log(math.log(x))
            A = (3.0 - u * u) / (4.0 * (x * math.log(x) * u) ** 2)
            return A - np.interp(x, r, V.v, right=0.0)

        def integrand(x):
            return max(gap(x), 0.0) ** 2 * (x * math.log(x) * math.log(math.log(x))) ** 3

        cross = scipy.optimize.brentq(gap, r[1], r[2], xtol=1e-14)
        ref, _ = scipy.integrate.quad(integrand, spec.threshold.value, iterated_exp(math.sqrt(3.0), 2),
                                      points=[r[0], r[1], cross, r[2]], epsabs=0.0,
                                      epsrel=1e-12, limit=200)
        prefactor = DEFAULT_CLR_CONSTANTS.get(4) * sphere_area(4)
        assert clr_bound(V, spec).raw == pytest.approx(prefactor * ref, rel=1e-9)

    def test_placeholder_constant_is_noted(self):
        V = SquareWell(c=1.0, a=20.0, b=30.0)
        spec = OperatorSpec(5, 0, "one", threshold_depth=2)
        noted = clr_bound(V, spec)
        assert any("C_5 = 0.1156 is a placeholder" in note for note in noted.diagnostics.notes)
        values = {**DEFAULT_CLR_CONSTANTS.values, 5: 0.2}
        configured = BoundConstants(values=values, placeholders=frozenset({4, 6, 7}))
        bv = clr_bound(V, spec, constants=configured)
        assert not any("placeholder" in note for note in bv.diagnostics.notes)
        assert bv.raw == pytest.approx(noted.raw * 0.2 / 0.1156, rel=1e-12)
        # C_3 is a literature value
        d3 = clr_bound(SquareWell(c=1.0, a=3.0, b=6.0),
                       OperatorSpec(3, 0, "zero", threshold_depth=2))
        assert not any("placeholder" in note for note in d3.diagnostics.notes)

    def test_rejects_low_dimension(self):
        with pytest.raises(DomainError):
            clr_bound(ZeroPotential(), OperatorSpec(2, 0, "zero", threshold_depth=2))

    def test_requires_matching_threshold_depth(self):
        with pytest.raises(DomainError):
            clr_bound(ZeroPotential(), OperatorSpec(d=3, n=0, variant="zero"))


class TestTheoremTable:
    @pytest.mark.parametrize("theorem, fits, misfits, depth", [
        ("t41", (1,), (2, 3), 0),
        ("t42", (3, 4, 7), (1, 2), 2),
        ("t43", (2, 3, 7), (1,), 0),
    ])
    def test_dimension_rule_and_threshold_depth(self, theorem, fits, misfits, depth):
        for d in fits:
            for n in (0, 1):
                spec = theorem_operator(theorem, d, n, "zero")
                assert (spec.d, spec.n, spec.variant, spec.threshold_depth) == (
                    d, n, "zero", n + depth)
        for d in misfits:
            with pytest.raises(DomainError, match=f"^{theorem} needs d"):
                theorem_operator(theorem, d, 0, "one")

    @pytest.mark.parametrize("theorem", ["t9", 5, None, "T41"])
    def test_unknown_theorem(self, theorem):
        with pytest.raises(DomainError, match="theorem must be one of t41, t42, t43"):
            theorem_operator(theorem, 3, 0, "one")
        with pytest.raises(DomainError, match="theorem must be one of"):
            theorem_bound(theorem, ZeroPotential(), OperatorSpec(3, 0, "one"))

    @pytest.mark.parametrize("bound, spec", [
        (bound_1d, OperatorSpec(2, 0, "one")),
        (bound_1d, OperatorSpec(1, 0, "one", threshold_depth=2)),
        (central_bound, OperatorSpec(1, 0, "one")),
        (central_bound, OperatorSpec(3, 0, "one", threshold_depth=2)),
        (clr_bound, OperatorSpec(2, 0, "zero", threshold_depth=2)),
        (clr_bound, OperatorSpec(3, 0, "zero")),
    ])
    def test_bounds_reject_an_operator_of_another_theorem(self, bound, spec):
        with pytest.raises(DomainError, match="^t4[123] needs"):
            bound(SquareWell(c=1.0, a=3.0, b=6.0), spec)

    @pytest.mark.parametrize("theorem, bound, d", [
        ("t41", bound_1d, 1), ("t42", clr_bound, 3), ("t43", central_bound, 3),
    ])
    def test_theorem_bound_is_the_theorems_bound(self, theorem, bound, d):
        V = SquareWell(c=4.0, a=3.0, b=6.0)
        spec = theorem_operator(theorem, d, 0, "one")
        assert theorem_bound(theorem, V, spec) == bound(V, spec)


class TestDefaultConstants:
    def test_c3_pinned(self):
        assert DEFAULT_CLR_CONSTANTS.get(3) == 0.1156

    def test_placeholders_labeled(self):
        assert DEFAULT_CLR_CONSTANTS.placeholders == {4, 5, 6, 7}

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_get_refuses_a_constant_that_is_not_positive_and_finite(self, c):
        with pytest.raises(DomainError, match="d = 3"):
            BoundConstants(values={3: c}).get(3)

    def test_get_accepts_a_positive_constant_below_the_classical_one(self):
        # a certified violated verdict needs one; only the CLI refuses it
        assert BoundConstants(values={3: 1e-9}).get(3) == 1e-9
