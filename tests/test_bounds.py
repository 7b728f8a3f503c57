import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from hardybounds.bounds import (
    BoundConstants,
    DEFAULT_CLR_CONSTANTS,
    OperatorSpec,
    absolute_log_weight,
    bargmann_halfline_bound,
    bargmann_line_bound,
    bound_1d,
    central_bound,
    clr_bound,
    l_max,
)
from hardybounds.errors import DomainError, EvaluationError
from hardybounds.iterfun import DomainThreshold, iterated_exp, sphere_area
from hardybounds.potentials import (
    InverseSquareTail,
    PowerLogWell,
    SquareWell,
    TabulatedPotential,
    ZeroPotential,
    check_bounded_below_weighted,
    effective_radial_potential,
)
from hardybounds.quadrature import integrate

# antiderivative oracles used throughout
X_LN_X_1_2 = 2.0 * math.log(2.0) - 0.75  # int_1^2 x ln x dx
# int_sqrt2^2 (1 - 2/r^2) r ln r dr  via  r^2/2 ln r - r^2/4 - (ln r)^2
I1_CHANNEL = 1.5 * math.log(2.0) - 0.5 - 0.75 * math.log(2.0) ** 2


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
        spec = OperatorSpec.for_line_bound(0, "zero")
        bv = bound_1d(ZeroPotential(), spec)
        assert bv.raw == 1.0
        assert bv.integer_cap == 1

    def test_well_variant_one(self):
        spec = OperatorSpec.for_line_bound(0, "one")
        bv = bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), spec, tol=1e-12)
        assert bv.raw == pytest.approx(X_LN_X_1_2, rel=1e-10)
        assert abs(bv.raw - X_LN_X_1_2) < 1e-9
        assert bv.integer_cap == 0

    def test_well_variant_zero(self):
        spec = OperatorSpec.for_line_bound(0, "zero")
        bv = bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), spec, tol=1e-12)
        assert bv.raw == pytest.approx(1.0 + X_LN_X_1_2, rel=1e-10)
        assert bv.integer_cap == 1

    def test_depth_scaling_is_linear(self):
        spec = OperatorSpec.for_line_bound(0, "one")
        base = bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), spec, tol=1e-12).raw
        for lam in (2.0, 5.0, 12.5):
            scaled = bound_1d(SquareWell(c=lam, a=1.0, b=2.0), spec, tol=1e-12).raw
            assert scaled == pytest.approx(lam * base, rel=1e-10)

    def test_monotone_in_potential(self):
        spec = OperatorSpec.for_line_bound(0, "one")
        shallow = bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), spec).raw
        deeper = bound_1d(SquareWell(c=1.0, a=0.8, b=2.3), spec).raw
        deepest = bound_1d(SquareWell(c=1.5, a=0.8, b=2.3), spec).raw
        assert shallow <= deeper <= deepest

    def test_depth_one_weight(self):
        # n=1, variant one: threshold e, weight x ln x ln ln x on (e, e^2)
        spec = OperatorSpec.for_line_bound(1, "one")
        V = SquareWell(c=1.0, a=math.e, b=math.e**2)
        bv = bound_1d(V, spec, tol=1e-12)
        oracle = integrate(
            lambda x: x * math.log(x) * math.log(math.log(x)),
            math.e,
            math.e**2,
            tol=1e-13,
        ).value
        assert bv.raw == pytest.approx(oracle, rel=1e-10)

    def test_depth_three_weights_and_thresholds(self):
        # depth 3 exercises four nested logs in the weight and the threshold
        # exp^(3)(1) = 3814279...; a well below the threshold contributes 0
        one = OperatorSpec.for_line_bound(3, "one")
        assert one.threshold.value == pytest.approx(3814279.104760214, rel=1e-12)
        assert bound_1d(SquareWell(c=1.0, a=1.0, b=2.0), one).raw == 0.0
        zero = OperatorSpec.for_line_bound(3, "zero")
        V = SquareWell(c=1.0, a=4.0e6, b=8.0e6)
        bv = bound_1d(V, zero, tol=1e-10)
        oracle = integrate(
            lambda x: absolute_log_weight(x, 3), 4.0e6, 8.0e6, tol=1e-12
        ).value
        assert bv.raw == pytest.approx(1.0 + oracle, rel=1e-9)

    def test_hypothesis_warning_is_attached_not_fatal(self):
        spec = OperatorSpec.for_line_bound(0, "zero")
        V = PowerLogWell(c=1.0, p=-1.0, q=0.0, a=0.001, b=math.inf)
        bv = bound_1d(V, spec)
        assert bv.diagnostics.warnings  # flagged, but evaluation proceeded
        assert math.isinf(bv.raw)  # tail -1/x is not weight-integrable

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DomainError):
            bound_1d(ZeroPotential(), OperatorSpec(d=3, n=0, variant="one"))

    def test_tabulated_samples_below_the_domain(self):
        # exp^(2)(1) = 15.15...: the samples on [1, 13] end below the domain,
        # so the hypothesis check has nothing to sample and the bound is 0
        spec = OperatorSpec(1, 2, "one")
        V = TabulatedPotential(r=tuple(range(1, 14)), v=(-1.0,) * 13)
        check = check_bounded_below_weighted(V, 2, spec.threshold)
        assert check.passed and check.samples == 0
        assert bound_1d(V, spec).raw == 0.0
        assert bound_1d(SquareWell(c=1.0, a=1.0, b=13.0), spec).raw == 0.0

    def test_floor_consistency(self):
        spec = OperatorSpec.for_line_bound(0, "zero")
        for c in (0.3, 1.0, 2.7, 8.1):
            bv = bound_1d(SquareWell(c=c, a=1.0, b=2.0), spec)
            assert bv.integer_cap == math.floor(bv.raw)
            assert bv.integer_cap <= bv.raw < bv.integer_cap + 1


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
        bv = central_bound(V, OperatorSpec.for_central_bound(3, 0, "one"))
        assert bv.raw == math.inf
        assert bv.integer_cap is None
        assert any("diverge" in note for note in bv.diagnostics.notes)


class TestCentralBound:
    def test_nonnegative_potential_gives_zero(self):
        spec = OperatorSpec.for_central_bound(3, 0, "zero")
        bv = central_bound(ZeroPotential(), spec)
        assert bv.raw == 0.0
        assert bv.integer_cap == 0
        assert bv.channels == ()

    def test_d3_variant_one_channel_values(self):
        spec = OperatorSpec.for_central_bound(3, 0, "one")
        bv = central_bound(SquareWell(c=1.0, a=1.0, b=2.0), spec, tol=1e-12)
        assert len(bv.channels) == 2
        assert bv.channels[0].integral == pytest.approx(X_LN_X_1_2, abs=1e-9)
        assert bv.channels[1].integral == pytest.approx(I1_CHANNEL, abs=1e-9)
        assert bv.raw == pytest.approx(X_LN_X_1_2 + 3 * I1_CHANNEL, abs=1e-9)

    def test_d3_variant_zero_adds_degeneracies(self):
        one = central_bound(
            SquareWell(c=1.0, a=1.0, b=2.0), OperatorSpec.for_central_bound(3, 0, "one")
        )
        zero = central_bound(
            SquareWell(c=1.0, a=1.0, b=2.0), OperatorSpec.for_central_bound(3, 0, "zero")
        )
        # support inside (1,2): integrals match, the zero variant adds D(3,0)+D(3,1)=4
        assert zero.raw == pytest.approx(one.raw + 4.0, rel=1e-10)

    def test_power_log_channel_split_at_centrifugal_crossing(self):
        # 6/r^2 - c r^p changes sign at r = (6/c)^(1/(p+2)) = 2.2249...; the
        # positive part has a kink there that the quadrature must split at
        c, p, a = 20.52529275988548, -3.5379243902274493, 1.5468400070144628
        V = PowerLogWell(c=c, p=p, q=0.0, a=a, b=math.inf)
        cross = (6.0 / c) ** (1.0 / (p + 2.0))
        assert cross in effective_radial_potential(V, 2, 3).breakpoints()
        bv = central_bound(V, OperatorSpec(3, 1, "zero"), tol=1e-10)
        ref, _ = scipy.integrate.quad(
            lambda r: (c * r**p - 6.0 / r**2) * absolute_log_weight(r, 1), a, cross,
            epsabs=0.0, epsrel=1e-13,
        )
        assert ref == pytest.approx(0.238585695679, rel=1e-11)
        assert bv.channels[2].integral == pytest.approx(ref, rel=1e-9)

    def test_power_log_crossing_past_the_float_range(self):
        # p = -2.01: the crossing (L/c)^(1/(p+2)) = (2e-4)^(-100) is about
        # 1e370, past b and past the float range; it adds no breakpoint
        V = PowerLogWell(c=1e4, p=-2.01, q=0.0, a=2.0, b=10.0)
        assert effective_radial_potential(V, 1, 3).breakpoints() == (2.0, 10.0)
        bv = central_bound(V, OperatorSpec(3, 0, "zero"), tol=1e-10)
        assert math.isfinite(bv.raw) and bv.channels[1].integral > 0.0

    def test_l0_channel_reproduces_line_bound(self):
        # deep narrow well keeps l_max = 0
        V = SquareWell(c=0.4, a=1.0, b=1.5)
        assert l_max(V, 3, DomainThreshold(0, "one")) == 0
        spec3 = OperatorSpec.for_central_bound(3, 0, "one")
        spec1 = OperatorSpec.for_line_bound(0, "one")
        assert central_bound(V, spec3).raw == pytest.approx(
            bound_1d(V, spec1).raw, rel=1e-10
        )


class TestClrBound:
    def test_d3_variant_zero_nonnegative_potential(self):
        spec = OperatorSpec.for_clr_bound(3, 0, "zero")
        assert clr_bound(ZeroPotential(), spec).raw == 0.0
        barrier = PowerLogWell(c=-1.0, p=0.0, q=0.0, a=3.0, b=10.0)
        assert clr_bound(barrier, spec).raw == 0.0

    def test_d3_variant_zero_well_reduction(self):
        # with (d-1)(d-3) = 0 and V <= 0 the integrand is (-V)^{3/2} times the
        # printed log-power weight; cross-check against a direct quadrature
        spec = OperatorSpec.for_clr_bound(3, 0, "zero")
        c, a, b = 2.0, 3.0, 6.0
        bv = clr_bound(SquareWell(c=c, a=a, b=b), spec, tol=1e-12)
        direct = integrate(
            lambda r: c**1.5 * math.log(r) ** 2 * r * r, a, b, tol=1e-13
        ).value
        expected = 0.1156 * sphere_area(3) * direct
        assert bv.raw == pytest.approx(expected, rel=1e-10)

    def test_d5_zero_potential_diverges(self):
        spec = OperatorSpec.for_clr_bound(5, 0, "zero")
        bv = clr_bound(ZeroPotential(), spec)
        assert math.isinf(bv.raw) and bv.raw > 0
        assert bv.integer_cap is None

    def test_d5_horizon_truncation_grows_like_log_log(self):
        spec = OperatorSpec.for_clr_bound(5, 0, "zero")
        vals = [
            clr_bound(ZeroPotential(), spec, horizon=h).raw for h in (1e2, 1e4, 1e8)
        ]
        assert 0 < vals[0] < vals[1] < vals[2]

    def test_d4_variant_one_root_of_numerator(self):
        # integrand dies where (ln ln r)^2 >= (d-1)(d-3) = 3
        spec = OperatorSpec.for_clr_bound(4, 0, "one")
        r_star = scipy.optimize.brentq(
            lambda r: 3.0 - math.log(math.log(r)) ** 2, 20.0, 1e6
        )
        assert r_star == pytest.approx(iterated_exp(math.sqrt(3.0), 2), rel=1e-10)
        bv = clr_bound(ZeroPotential(), spec, tol=1e-10)
        assert bv.raw > 0.0
        truncated = clr_bound(ZeroPotential(), spec, horizon=r_star, tol=1e-10)
        assert truncated.raw == pytest.approx(bv.raw, rel=1e-8)

    def test_constants_are_configurable(self):
        spec = OperatorSpec.for_clr_bound(3, 0, "zero")
        V = SquareWell(c=1.0, a=3.0, b=6.0)
        doubled = BoundConstants(values={3: 2 * 0.1156})
        assert clr_bound(V, spec, constants=doubled).raw == pytest.approx(
            2 * clr_bound(V, spec).raw, rel=1e-12
        )
        with pytest.raises(DomainError):
            clr_bound(V, OperatorSpec.for_clr_bound(9, 0, "zero"),
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

    def test_rejects_low_dimension(self):
        with pytest.raises(DomainError):
            clr_bound(ZeroPotential(), OperatorSpec.for_clr_bound(2, 0, "zero"))

    def test_requires_matching_threshold_depth(self):
        with pytest.raises(DomainError):
            clr_bound(ZeroPotential(), OperatorSpec(d=3, n=0, variant="zero"))


class TestDefaultConstants:
    def test_c3_pinned(self):
        assert DEFAULT_CLR_CONSTANTS.get(3) == 0.1156

    def test_placeholders_labeled(self):
        assert "placeholder" in DEFAULT_CLR_CONSTANTS.source
