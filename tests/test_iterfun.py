import math

import mpmath
import pytest

from hardybounds.errors import DomainError
from hardybounds.iterfun import (
    DomainThreshold,
    degeneracy,
    hardy_weight_stack,
    iterated_exp,
    safe_iterated_log,
    sphere_area,
)

mpmath.mp.dps = 40


def mp_iterated_log(x, n):
    v = mpmath.mpf(x)
    for _ in range(n):
        v = mpmath.log(v)
    return float(v)


def mp_iterated_exp(x, n):
    v = mpmath.mpf(x)
    for _ in range(n):
        v = mpmath.exp(v)
    return float(v)


def harmonic_dim(d, l):
    """Dimension of degree-l harmonic polynomials: C(d+l-1,l) - C(d+l-3,l-2)."""
    first = math.comb(d + l - 1, l)
    second = math.comb(d + l - 3, l - 2) if l >= 2 else 0
    return first - second


class TestIteratedLog:
    def test_ln_e(self):
        assert safe_iterated_log(math.e, 1) == pytest.approx(1.0, rel=1e-15)

    def test_zero_factors_is_identity(self):
        assert safe_iterated_log(7.25, 0) == 7.25

    def test_double_log_of_ten(self):
        # extended-precision oracle: ln(ln 10)
        expected = mp_iterated_log(10.0, 2)
        assert expected == pytest.approx(0.8340324452479558, rel=1e-15)
        assert safe_iterated_log(10.0, 2) == pytest.approx(expected, rel=1e-14)

    def test_final_value_may_be_negative(self):
        assert safe_iterated_log(1.1, 2) < 0.0


class TestIteratedExp:
    def test_e_to_the_e_to_the_zero(self):
        assert iterated_exp(0.0, 2) == pytest.approx(math.e, rel=1e-15)

    def test_zero_factors_is_identity(self):
        assert iterated_exp(0.0, 0) == 0.0
        assert iterated_exp(-3.5, 0) == -3.5

    def test_e_to_the_e(self):
        expected = mp_iterated_exp(1.0, 2)
        assert expected == pytest.approx(15.154262241479262, rel=1e-15)
        assert iterated_exp(1.0, 2) == pytest.approx(expected, rel=1e-14)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            iterated_exp(1.0, 4)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 1.5])
    def test_round_trip(self, n, x):
        # x = 1.5 is near the edge of representability for n = 3
        y = iterated_exp(x, n)
        assert safe_iterated_log(y, n) == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_safe_iterated_log_bottoms_out(self):
        assert safe_iterated_log(1.0, 1) == 0.0
        assert safe_iterated_log(1.0, 2) == -math.inf
        assert safe_iterated_log(0.0, 1) == -math.inf
        assert safe_iterated_log(math.inf, 3) == math.inf


class TestHardyWeightStack:
    def test_d2_n0_vanishes(self):
        for x in (0.5, 1.0, 7.0):
            assert hardy_weight_stack(x, 2, 0) == 0.0

    def test_d3_n0(self):
        assert hardy_weight_stack(2.0, 3, 0) == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_d1_n1_at_e_squared(self):
        # 1/(4 e^4) + 1/(4 e^4 * (ln e^2)^2) = 5/(16 e^4); direct-sum oracle
        x = math.e**2
        direct = 1.0 / (4 * x * x) + 1.0 / (4 * x * x * math.log(x) ** 2)
        assert direct == pytest.approx(5.0 / (16.0 * math.e**4), rel=1e-14)
        assert hardy_weight_stack(x, 1, 1) == pytest.approx(direct, rel=1e-14)

    def test_domain_error_below_threshold(self):
        with pytest.raises(DomainError):
            hardy_weight_stack(0.9, 1, 1)  # needs x > 1

    @pytest.mark.parametrize("d,n", [(1, 0), (3, 0), (1, 1), (4, 2)])
    def test_strictly_decreasing(self, d, n):
        lo = iterated_exp(0.0, n)
        xs = [lo + 0.5 + 0.37 * i for i in range(40)]
        vals = [hardy_weight_stack(x, d, n) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDegeneracy:
    def test_d3_l2(self):
        assert harmonic_dim(3, 2) == 5
        assert degeneracy(3, 2) == 5

    def test_l0_always_one(self):
        for d in range(2, 11):
            assert degeneracy(d, 0) == 1

    def test_d4_l1(self):
        # formula: (2+2) Gamma(3) / (Gamma(3) Gamma(2)) = 4
        assert degeneracy(4, 1) == 4
        assert harmonic_dim(4, 1) == 4

    @pytest.mark.parametrize("d", range(2, 11))
    def test_matches_combinatorial_oracle(self, d):
        for l in range(0, 21):
            assert degeneracy(d, l) == harmonic_dim(d, l)

    def test_d3_is_2l_plus_1(self):
        for l in range(0, 21):
            assert degeneracy(3, l) == 2 * l + 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            degeneracy(1, 0)
        with pytest.raises(DomainError):
            degeneracy(3, -1)


class TestSphereArea:
    def test_circle(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_two_sphere(self):
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_d5_gamma_oracle(self):
        expected = float(2 * mpmath.pi ** mpmath.mpf("2.5") / mpmath.gamma(mpmath.mpf("2.5")))
        assert expected == pytest.approx(8 * math.pi**2 / 3, rel=1e-15)
        assert sphere_area(5) == pytest.approx(expected, rel=1e-14)

    def test_d1_is_two_points(self):
        assert sphere_area(1) == pytest.approx(2.0, rel=1e-14)


class TestDomainThreshold:
    def test_variant_zero_sequence(self):
        values = [DomainThreshold(k, "zero").value for k in range(4)]
        assert values[0] == 0.0
        assert values[1] == 1.0
        assert values[2] == pytest.approx(math.e, rel=1e-15)
        assert values[3] == pytest.approx(math.exp(math.e), rel=1e-15)

    def test_variant_one_increasing_and_above_zero_variant(self):
        ones = [DomainThreshold(k, "one").value for k in range(4)]
        assert all(a < b for a, b in zip(ones, ones[1:]))
        for k in range(4):
            assert ones[k] > DomainThreshold(k, "zero").value

    def test_depth_four_variant_one_overflows(self):
        with pytest.raises(OverflowError):
            DomainThreshold(4, "one")

    def test_rejects_bad_variant(self):
        with pytest.raises(DomainError):
            DomainThreshold(1, "two")
