import math

import numpy as np
import pytest
import scipy.optimize

from hardybounds.bounds import OperatorSpec, bound_1d, l_max
from hardybounds.errors import DomainError, EvaluationError
from hardybounds.iterfun import iterated_exp, safe_iterated_log
from hardybounds.potentials import (
    BoundedBelowCheck,
    InverseSquareTail,
    Potential,
    PowerLogWell,
    SquareWell,
    TabulatedPotential,
    TransformedPotential,
    ZeroPotential,
    _centrifugal_crossings,
    check_bounded_below_weighted,
    make_potential,
    negative_part_abs,
    transform_potential,
)
from hardybounds.spectra import channel_potential, count_negative, total_central_count


class TestEvaluation:
    def test_zero_everywhere(self):
        V = ZeroPotential()
        for r in (0.01, 1.0, 55.0):
            assert V(r) == 0.0

    def test_square_well_inside_and_outside(self):
        V = SquareWell(c=1.0, a=1.0, b=2.0)
        assert V(1.5) == -1.0
        assert V(0.5) == 0.0
        assert V(3.0) == 0.0

    def test_inverse_square_beyond_onset(self):
        V = InverseSquareTail(c=2.0, a=1.0)
        assert V(2.0) == pytest.approx(-0.5, rel=1e-15)
        assert V(0.5) == 0.0

    def test_power_log_well(self):
        V = PowerLogWell(c=1.0, p=1.0, q=1.0, a=1.0, b=4.0)
        assert V(2.0) == pytest.approx(-2.0 * math.log(2.0), rel=1e-14)
        assert V(5.0) == 0.0

    def test_tabulated_interpolates_and_is_zero_outside(self):
        # 0 at and outside the end samples, as a square well is at its ends
        V = TabulatedPotential(r=(1.0, 2.0, 3.0), v=(-1.0, -3.0, -2.0))
        assert V(1.5) == pytest.approx(-2.0, rel=1e-14)
        assert V(2.0) == -3.0
        assert V(np.array([0.5, 1.0, 3.0, 3.5, 1e300])).tolist() == [0.0] * 5
        for r in (0.0, -1.0):
            with pytest.raises(DomainError, match="needs r > 0"):
                V(r)

    def test_square_well_validation(self):
        with pytest.raises(DomainError):
            SquareWell(c=-1.0, a=1.0, b=2.0)
        with pytest.raises(DomainError):
            SquareWell(c=1.0, a=2.0, b=1.0)

    def test_tabulated_validation(self):
        with pytest.raises(DomainError):
            TabulatedPotential(r=(2.0, 1.0), v=(0.0, 0.0))


class TestNegativePart:
    def test_nonnegative_potential_gives_zero(self):
        V = PowerLogWell(c=-1.0, p=0.0, q=0.0, a=1.0, b=2.0)  # barrier
        for r in (0.5, 1.5, 3.0):
            assert negative_part_abs(V, r) == 0.0

    def test_well_values(self):
        V = SquareWell(c=1.0, a=1.0, b=2.0)
        assert negative_part_abs(V, 1.5) == 1.0
        assert negative_part_abs(V, 3.0) == 0.0

    @pytest.mark.parametrize(
        "V",
        [
            SquareWell(c=2.5, a=0.5, b=4.0),
            InverseSquareTail(c=1.0, a=2.0),
            PowerLogWell(c=1.0, p=-1.0, q=0.0, a=0.5, b=9.0),
            TabulatedPotential(r=(1.0, 2.0, 3.0), v=(1.0, -1.0, 2.0)),
        ],
    )
    def test_sum_with_potential_is_nonnegative(self, V):
        for r in np.geomspace(1.0, 2.9, 200):
            v = V(float(r))
            npart = negative_part_abs(V, float(r))
            assert v + npart >= 0.0
            if v <= 0.0:
                assert v + npart == pytest.approx(0.0, abs=1e-15)


class TestTransform:
    def test_zero_transforms_to_constant(self):
        W = transform_potential(ZeroPotential(), 1)
        assert all(W(s) == 0.0 for s in (-5.0, 0.0, 3.0))
        W2 = transform_potential(ZeroPotential(), 2)
        assert all(W2(s) == 0.0 for s in (-5.0, 0.0, 2.0))

    def test_single_step_well(self):
        # V = -1 on (1,2) becomes -e^{2s} on (0, ln 2)
        W = transform_potential(SquareWell(c=1.0, a=1.0, b=2.0), 1)
        assert W(0.3) == pytest.approx(-math.exp(0.6), rel=1e-13)
        assert W(-0.5) == 0.0
        assert W(math.log(2.0) + 0.01) == 0.0

    def test_single_step_substitution_property(self):
        # |W(s) - e^{2s} V(e^s)| <= 1e-12 max(1, |W|) on 10^3 sampled points
        V = SquareWell(c=3.0, a=0.7, b=5.0)
        W = transform_potential(V, 1)
        for s in np.linspace(-3.0, 3.0, 1000):
            direct = math.exp(2 * s) * V(math.exp(s))
            got = W(float(s))
            assert abs(got - direct) <= 1e-12 * max(1.0, abs(got))

    def test_two_step_well(self):
        # V = -1 on (e, e^2) becomes -e^{2s} e^{2 e^s} on (0, ln 2)
        V = SquareWell(c=1.0, a=math.e, b=math.e**2)
        W = transform_potential(V, 2)
        s = 0.4
        assert W(s) == pytest.approx(-math.exp(2 * s + 2 * math.exp(s)), rel=1e-12)
        assert W(-0.2) == 0.0
        assert W(0.8) == 0.0  # ln 2 = 0.693...

    def test_compact_support_never_overflows(self):
        V = SquareWell(c=1.0, a=1.0, b=2.0)
        W = transform_potential(V, 3)
        # far beyond the mapped support: exact zero, no tower is formed
        assert W(50.0) == 0.0
        assert W(-50.0) == 0.0

    def test_depth_past_the_count_cap(self):
        # the transform has no depth cap (the count keeps its own): a tail
        # -c y^-3 at k = 4 and 5 is exact in log space, also where the tower
        # exp^(k) s leaves the doubles, and a well inside the doubles at k = 4
        # reads V on the tower
        V = PowerLogWell(c=2.0, p=-3.0, q=0.0, a=1.0, b=math.inf)
        for k in (4, 5):
            s = 0.5
            jac = sum(iterated_exp(s, j) for j in range(k - 1))
            want = -2.0 * math.exp(2.0 * jac - iterated_exp(s, k - 1))
            assert transform_potential(V, k)(s) == pytest.approx(want, rel=1e-12)
        assert transform_potential(V, 5)(3.0) == 0.0  # exp^(4) 3 is past the doubles
        W = transform_potential(SquareWell(c=1.0, a=4.0e6, b=8.0e6), 4)
        s = safe_iterated_log(5.0e6, 4)
        jac = sum(iterated_exp(s, j) for j in range(4))
        assert W(s) == pytest.approx(-math.exp(2.0 * jac), rel=1e-9)

    def test_inverse_square_telescopes(self):
        # transform of -c/r^2 with k steps is -c e^{2s} ... e^{2 exp^(k-2) s}
        V = InverseSquareTail(c=3.0, a=0.0)
        W1 = transform_potential(V, 1)
        assert W1(5.0) == pytest.approx(-3.0, rel=1e-14)
        W2 = transform_potential(V, 2)
        assert W2(2.0) == pytest.approx(-3.0 * math.exp(4.0), rel=1e-13)

    def test_centrifugal_wall_instead_of_overflow(self):
        # positive centrifugal term saturates rather than raising
        W = channel_potential(ZeroPotential(), OperatorSpec(3, 2, "one"), 2)
        assert W(20.0) >= 1e299

    def test_unbounded_negative_overflow_raises(self):
        V = InverseSquareTail(c=1.0, a=0.0)
        W = transform_potential(V, 3)
        with pytest.raises(OverflowError):
            W(20.0)

    def test_overflow_names_the_node_of_a_panel_array(self):
        # quadrature passes one row of nodes per panel: the error names the
        # node, for a form and for a core read on the tower
        s = np.array([[0.0, 0.5], [1.0, 20.0]])
        for V in (InverseSquareTail(c=1.0, a=0.0), Formless()):
            with pytest.raises(OverflowError, match=r"at s=20\.0 exceeds"):
                transform_potential(V, 3)(s)

    def test_tabulated_end_images_read_zero(self):
        # W is 0 at the images of the end samples, as V is at the samples; the
        # last is -0.2489246107597271, whose exp^(3) rounds past the sample
        V = TabulatedPotential(r=(4.83833075057046, 8.852362261518687), v=(-1.0, -2.0))
        W = transform_potential(V, 3)
        assert W.kinks() == list(W.exterior()[:2])
        assert W(np.array(W.kinks())).tolist() == [0.0, 0.0]
        assert W(-0.2489246107597271 - 1e-9) < 0.0
        rng = np.random.default_rng(7)
        for _ in range(1000):
            r0 = math.exp(rng.uniform(-2.0, 7.0))
            V = TabulatedPotential(r=(r0, r0 * (1.0 + rng.uniform(1e-3, 3.0))),
                                   v=tuple(rng.uniform(-5.0, 5.0, 2)))
            for k in (1, 2, 3):
                W = transform_potential(V, k)
                a, b, _ = W.exterior()
                assert W(np.array([a, b])).tolist() == [0.0, 0.0]
                for s in W.kinks():
                    assert math.isfinite(W(s))

    def test_tower_values_past_e700_are_formed_in_logs(self):
        # at two steps W(s) = (ln y)^2 y^2 V(y) with y = exp^(2) s; at y = 1e150
        # it passes e^700, so the whole array is formed in logs
        V = TabulatedPotential(r=(2.0, 1e100, 1e200), v=(1.0, 2.0, 3.0))
        s = np.array([safe_iterated_log(1e50, 2), safe_iterated_log(1e150, 2)])
        got = transform_potential(V, 2)(s)
        assert got[0] == pytest.approx(math.log(1e50) ** 2 * 1e100, rel=1e-12)  # 1.3255e104
        assert got[1] == 1e300  # the positive wall
        negated = TabulatedPotential(r=V.r, v=tuple(-v for v in V.v))
        with pytest.raises(OverflowError, match="exceeds the double range"):
            transform_potential(negated, 2)(s)

    def test_tabulated_outside_the_end_images_reads_zero(self):
        V = TabulatedPotential(r=(2.0, 3.0), v=(-1.0, -2.0))
        W = transform_potential(V, 2)
        for s in (safe_iterated_log(1.999, 2), safe_iterated_log(3.001, 2), 1e6):
            assert W(s) == 0.0
        assert W(safe_iterated_log(2.5, 2)) < 0.0


class Formless(Potential):
    """V = -50 on (1, 2), given only by its formula."""

    family = "formless"

    def evaluate_array(self, r):
        return np.where((1.0 < r) & (r < 2.0), -50.0, 0.0)


class TestFormlessSubclass:
    """A subclass that implements only ``evaluate_array`` may be negative
    anywhere, and is read so, not as V = 0."""

    def test_supports_cover_every_r(self):
        assert Formless().support() == Formless().negative_support() == (0.0, math.inf)
        assert ZeroPotential().support() is None
        assert ZeroPotential().negative_support() is None

    def test_line_bound_is_vacuous(self):
        bv = bound_1d(Formless(), OperatorSpec(1, 0, "one"))
        assert bv.raw == math.inf
        assert bv.diagnostics.warnings == ("hypothesis not met at depth n = 0: undecided, "
                                           "the negative tail has no power-log form",)
        assert bv.diagnostics.notes == (
            "potential with unbounded negative support; tail decay unknown",)

    def test_line_count_reads_the_well(self):
        spec = OperatorSpec(1, 0, "one")
        well = count_negative(spec, SquareWell(c=50.0, a=1.0, b=2.0)).negative_count
        assert count_negative(spec, Formless()).negative_count == well == 2

    def test_central_count_is_refused(self):
        with pytest.raises(EvaluationError, match="must provide sup_r2_negative_part"):
            l_max(Formless(), 3, OperatorSpec(3, 0, "one").threshold)
        with pytest.raises(EvaluationError, match="must provide sup_r2_negative_part"):
            total_central_count(OperatorSpec(3, 0, "one"), Formless(), m=200)


class TestEffectiveRadial:
    """Channel l of a central operator, as ``channel_potential`` builds it:
    W_0(s) + l(l+d-2) C(s), with C(s) the transform of 1/r^2."""

    def test_l0_returns_same_object(self):
        V = SquareWell(c=1.0, a=1.0, b=2.0)
        W = channel_potential(V, OperatorSpec(3, 0, "one"), 0)
        assert W.base is V and W.coupling == 0.0
        assert W == transform_potential(V, 1)

    def test_exterior_is_what_w_reads_outside_its_interval(self):
        # a tabulated V's interval is the images of its end samples
        for V in (SquareWell(c=50.0, a=0.5, b=2.0),
                  TabulatedPotential(r=(0.5, 1.0, 2.0), v=(-3.0, -50.0, -1.0))):
            for d in (2, 3, 4, 5):
                for l in range(6):
                    W = channel_potential(V, OperatorSpec(d, 0, "one"), l)
                    a, b, w = W.exterior()
                    assert (a, b) == (math.log(0.5), math.log(2.0))
                    assert W(np.array([a - 1.0, a, b, b + 1.0])).tolist() == [w] * 4
        assert transform_potential(ZeroPotential(), 2).exterior() == (0.0, 0.0, 0.0)

    def test_one_step_adds_the_coupling_exactly(self):
        # C(s) = 1 at one step, so W is L itself outside the well; read as
        # exp(log L), L = 9 (d = 2, l = 3) came back 9.000000000000002
        V = SquareWell(c=50.0, a=0.5, b=2.0)
        outside = np.array([math.log(0.25), math.log(0.5), math.log(2.0), math.log(8.0)])
        for d in range(2, 8):
            for l in range(1, 300):
                W = channel_potential(V, OperatorSpec(d, 0, "one"), l)
                L = l * (l + d - 2)
                assert W.exterior()[2] == L
                assert W(outside).tolist() == [L] * 4

    def test_no_exterior_where_w_varies_outside_its_interval(self):
        V = SquareWell(c=50.0, a=0.5, b=2.0)
        assert channel_potential(V, OperatorSpec(3, 1, "one"), 1).exterior() is None

    def test_kinks_add_the_images_of_the_crossings(self):
        # L/r^2 = 2 on (1, 4) crosses at r = sqrt(L/2); r = 8 lies outside
        V = SquareWell(c=2.0, a=1.0, b=4.0)
        W = transform_potential(V, 1)
        assert W.kinks() == [0.0, math.log(4.0)]
        assert W.kinks([4.0, 128.0]) == pytest.approx(
            [0.0, math.log(4.0), math.log(math.sqrt(2.0))], rel=1e-15)

    def test_zeros_end_the_negative_stretches_of_w(self):
        # zero samples at 0.5 (negative above), 2 (both sides) and 5 (above);
        # a sign change at 3.5 (negative below); 5 is 0 between 1 and -2
        V = TabulatedPotential(r=(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                               v=(0.0, -1.0, 0.0, -1.0, 1.0, 0.0, -2.0))
        want = [(0.5, 1), (2.0, -1), (2.0, 1), (3.5, -1), (5.0, 1)]
        assert V.zeros() == tuple(want)
        assert transform_potential(V, 1).zeros() == [(math.log(r), side) for r, side in want]
        # ln 0.5 < 0 has no second log: that zero is dropped; the images equal the kinks
        W = transform_potential(V, 2)
        assert len(W.zeros()) == 4 and {s for s, _ in W.zeros()} <= set(W.kinks())
        assert TransformedPotential(V, 1, coupling=2.0).zeros() == []
        for other in (SquareWell(c=1.0, a=1.0, b=2.0), ZeroPotential(),
                      PowerLogWell(c=1.0, p=-3.0, q=1.0, a=1.0, b=math.inf)):
            assert transform_potential(other, 1).zeros() == []

    def test_negative_interval_is_clipped_to_the_threshold(self):
        W = transform_potential(SquareWell(c=2.0, a=0.5, b=4.0), 2)
        assert W.negative_interval(math.e) == (0.0, math.log(math.log(4.0)))
        assert W.negative_interval(0.0)[0] == -math.inf  # ln 0.5 < 0 has no log
        lo, hi = W.negative_interval(5.0)
        assert hi <= lo
        assert transform_potential(ZeroPotential(), 1).negative_interval(1.0) == (
            -math.inf, -math.inf)

    def test_centrifugal_of_zero(self):
        # 2/r^2 is the constant 2 after one step, and 2 e^{2s} after two
        W = channel_potential(ZeroPotential(), OperatorSpec(3, 0, "one"), 1)
        assert W(0.0) == pytest.approx(2.0, rel=1e-15)
        assert W(5.0) == pytest.approx(2.0, rel=1e-15)
        W = channel_potential(ZeroPotential(), OperatorSpec(3, 1, "one"), 1)
        assert W(0.5) == pytest.approx(2.0 * math.e, rel=1e-15)

    def test_well_with_centrifugal(self):
        # r^2 (2/r^2 - 4) at r = 1.5
        W = channel_potential(SquareWell(c=4.0, a=1.0, b=2.0), OperatorSpec(3, 0, "one"), 1)
        assert W(math.log(1.5)) == pytest.approx(2.0 - 4.0 * 2.25, rel=1e-14)

    def test_pointwise_nondecreasing_in_l(self):
        V = SquareWell(c=2.0, a=0.5, b=3.0)
        s = np.linspace(-4.0, 2.0, 50)
        for d in (2, 3, 5):
            for n in (0, 1):
                spec = OperatorSpec(d, n, "zero")
                vals = [channel_potential(V, spec, l)(s) for l in range(4)]
                assert all(np.all(x <= y) for x, y in zip(vals, vals[1:]))

    def test_negative_support_shrinks_with_l(self):
        # 2/r^2 - 1 < 0 on (sqrt 2, 2); 6/r^2 - 1 > 0 on the whole well
        V = SquareWell(c=1.0, a=1.0, b=2.0)
        spec = OperatorSpec(3, 0, "one")
        s = np.linspace(-1.0, 1.0, 2001)
        inside = (s > 0.5 * math.log(2.0)) & (s < math.log(2.0))
        assert np.array_equal(channel_potential(V, spec, 1)(s) < 0.0, inside)
        assert _centrifugal_crossings(V, [2.0]) == pytest.approx([math.sqrt(2.0)], rel=1e-14)
        assert np.all(channel_potential(V, spec, 2)(s) >= 0.0)
        assert _centrifugal_crossings(V, [6.0]) == []

    @pytest.mark.parametrize("V", [
        InverseSquareTail(c=1.0, a=0.0),
        PowerLogWell(c=1.0, p=-2.0, q=0.0, a=1e-300, b=2.0),
    ])
    def test_underflowing_r_squared_is_an_overflow_error(self, V):
        # r*r underflows to 0 at r = 1e-200, and r**-2 overflows: c / r^2 is
        # past the double range
        with pytest.raises(OverflowError):
            V(1e-200)
        with pytest.raises(OverflowError):
            V(np.array([1.0, 1e-200]))

    def test_zero_coupling_returns_the_base(self):
        # a zero coupling adds nothing, also at s = 20, where C(s) at three
        # steps is past the double range and a coupling of 6 is the wall
        base = SquareWell(c=3.0, a=0.0, b=1e6)
        s = np.array([-5.0, 0.0, 0.5, 20.0])
        got = TransformedPotential(base, 3, 0.0)(s)
        assert np.array_equal(got, transform_potential(base, 3)(s))
        assert np.all(got[:3] < 0.0) and got[3] == 0.0
        assert TransformedPotential(base, 3, 6.0)(20.0) == 1e300

    def test_power_log_crossings_on_both_sides_of_the_peak(self):
        # 10 r^-3 (ln r)^2 = 2 / r^2, i.e. -u + 2 ln u = ln(1/5) in u = ln r:
        # the left side peaks at u = 2, with one root on each side
        V = PowerLogWell(c=10.0, p=-3.0, q=2.0, a=1.0, b=math.inf)
        gap = lambda r: 10.0 * r**-3 * math.log(r) ** 2 - 2.0 / r**2
        left = scipy.optimize.brentq(gap, 1.01, math.exp(2.0), xtol=1e-14)
        right = scipy.optimize.brentq(gap, math.exp(2.0), 1e3, xtol=1e-14)
        assert _centrifugal_crossings(V, [2.0]) == pytest.approx([left, right], rel=1e-13)

    def test_tabulated_crossing_inside_a_sample_interval(self):
        # 20/r^2 + V changes sign between the samples 1.8 and 2.4
        r = np.linspace(1.2, 6.0, 9)
        V = TabulatedPotential(r=tuple(r), v=tuple(-30.0 * r**-2.5))
        cross = scipy.optimize.brentq(
            lambda x: 20.0 / x**2 + np.interp(x, r, V.v), 1.8, 2.4, xtol=1e-14
        )
        assert _centrifugal_crossings(V, [20.0]) == pytest.approx([cross], rel=1e-13)


class TestBoundedBelowCheck:
    def test_square_well_passes(self):
        chk, note = check_bounded_below_weighted(SquareWell(c=5.0, a=1.0, b=2.0), 0)
        assert chk == BoundedBelowCheck(True, "no negative tail")
        assert note is None

    def test_inverse_square_passes_at_depth_zero(self):
        # x^2 * (-c/x^2) = -c: bounded below by its infimum -c
        chk = check_bounded_below_weighted(InverseSquareTail(c=2.0, a=1.0), 0)[0]
        assert chk == BoundedBelowCheck(True, "tail r^-2: the weighted potential tends to -c")

    def test_inverse_square_flagged_at_depth_one(self):
        # x^2 (ln x)^2 * (-c/x^2) = -c (ln x)^2 sinks without bound
        chk = check_bounded_below_weighted(InverseSquareTail(c=2.0, a=2.0), 1)[0]
        assert chk == BoundedBelowCheck(
            False, "tail r^-2 makes the weighted potential unbounded below")

    def test_slow_negative_tail_flagged(self):
        # V = -1/x: weighted value -x at depth 0
        V = PowerLogWell(c=1.0, p=-1.0, q=0.0, a=1e-3, b=math.inf)
        chk = check_bounded_below_weighted(V, 0)[0]
        assert chk == BoundedBelowCheck(
            False, "tail r^-1 makes the weighted potential unbounded below")

    @pytest.mark.parametrize("p,q,n,passed", [
        (-3.0, 0.0, 0, True),
        (-3.0, 2.0, 1, True),
        (-2.0, 0.0, 0, True),
        (-2.0, 0.0, 1, False),
        (-2.0, 1.0, 0, False),
        (-1.0, 0.0, 0, False),
        (0.0, 0.0, 0, False),
    ])
    def test_decision_table(self, p, q, n, passed):
        # the weighted tail behaves like -c x^(p+2) (ln x)^(q+2) ... (ln^(n) x)^2
        tails = [PowerLogWell(c=3.0, p=p, q=q, a=2.0, b=math.inf)]
        if (p, q) == (-2.0, 0.0):
            tails.append(InverseSquareTail(c=3.0, a=2.0))
        for V in tails:
            chk = check_bounded_below_weighted(V, n)[0]
            assert chk.passed is passed
            assert chk.reason.startswith("tail r^")

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_no_family_is_evaluated(self, n, monkeypatch):
        def refuse(self, r):
            raise AssertionError(f"{self.family} evaluated")

        r = np.geomspace(0.5, 30.0, 12)
        families = [
            ZeroPotential(),
            SquareWell(c=3.0, a=0.5, b=2.0),
            InverseSquareTail(c=5.0, a=1.0),
            PowerLogWell(c=3.0, p=-1.0, q=1.0, a=1.0, b=50.0),
            PowerLogWell(c=30.0, p=-3.0, q=1.0, a=3.0, b=math.inf),
            PowerLogWell(c=5.0, p=-1.0, q=0.0, a=1.0, b=math.inf),
            PowerLogWell(c=-2.0, p=1.0, q=0.0, a=1.0, b=math.inf),
            TabulatedPotential(r=tuple(r), v=tuple(-20.0 * np.exp(-((r - 4.0) ** 2)))),
        ]
        for V in families:
            monkeypatch.setattr(type(V), "evaluate_array", refuse)
        for V in families:
            check_bounded_below_weighted(V, n)
        with pytest.raises(AssertionError, match="evaluated"):
            families[0](1.0)  # the patch is live


class TestFactory:
    @pytest.mark.parametrize("V, params", [
        (ZeroPotential(), {}),
        (SquareWell(c=1.0, a=0.5, b=2.0), {"c": 1.0, "a": 0.5, "b": 2.0}),
        (InverseSquareTail(c=2.0, a=1.0), {"c": 2.0, "a": 1.0}),
        (PowerLogWell(c=3.0, p=-3.0, q=1.0, a=2.0, b=math.inf),
         {"c": 3.0, "p": -3.0, "q": 1.0, "a": 2.0, "b": math.inf}),
        (TabulatedPotential(r=(1, 2), v=(-1, 0)), {"r": [1.0, 2.0], "v": [-1.0, 0.0]}),
    ], ids=["zero", "square", "inverse-square", "power-log", "tabulated"])
    def test_params_are_the_constructor_arguments(self, V, params):
        # the keys in order: reports and CSV rows print them so
        assert list(V.params().items()) == list(params.items())

    def test_round_trip_families(self):
        V = make_potential("square_well", {"c": 1.0, "a": 1.0, "b": 2.0})
        assert isinstance(V, SquareWell)
        assert make_potential("zero").family == "zero"
        W = make_potential("power_log_well", {"c": 1.0, "a": 1.0, "b": 2.0})
        assert (W.p, W.q) == (0.0, 0.0)

    def test_rejects_unknown(self):
        with pytest.raises(DomainError):
            make_potential("cubic_well", {})
        with pytest.raises(DomainError):
            make_potential("square_well", {"c": 1.0, "a": 1.0, "b": 2.0, "x": 5})
        with pytest.raises(DomainError):
            make_potential("square_well", {"c": 1.0})

    @pytest.mark.parametrize("family, params", [
        ("square_well", {"c": "x", "a": 1, "b": 2}),
        ("square_well", {"c": True, "a": 1, "b": 2}),
        ("inverse_square", {"c": None, "a": 1}),
        ("power_log_well", {"c": 1, "a": 1, "b": 2, "q": [0]}),
        ("tabulated", {"r": [1, 2], "v": ["a", 1]}),
        ("tabulated", {"r": [1, 2], "v": [0, False]}),
        ("tabulated", {"r": 3, "v": [0, 1]}),
        ("tabulated", {"r": "12", "v": [0, 1]}),
        ("square_well", {"c": math.nan, "a": 1, "b": 2}),
        ("square_well", {"c": math.inf, "a": 1, "b": 2}),
        ("inverse_square", {"c": 1, "a": math.nan}),
        ("power_log_well", {"c": 1, "a": 1, "b": math.nan}),
        ("power_log_well", {"c": 1, "a": 1, "b": 2, "p": -math.inf}),
        ("tabulated", {"r": [1, 2], "v": [0, math.inf]}),
        ("tabulated", {"r": [1, math.nan], "v": [0, 1]}),
    ])
    def test_rejects_non_real_parameters(self, family, params):
        with pytest.raises(DomainError, match="real number"):
            make_potential(family, params)

    def test_accepts_ints_and_numpy_samples(self):
        assert make_potential("square_well", {"c": 1, "a": 1, "b": 2}) == SquareWell(1.0, 1.0, 2.0)
        V = make_potential("tabulated", {"r": np.array([1.0, 2.0]), "v": (np.int64(-1), 0)})
        assert V.r == (1.0, 2.0) and V.v == (-1.0, 0.0)
