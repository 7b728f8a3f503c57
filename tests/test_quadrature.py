import math

import numpy as np
import pytest
import scipy.integrate

from hardybounds.quadrature import (
    QuadratureError,
    graded_breakpoints,
    integrate,
    integrate_semiinfinite,
)


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda x: 1.0, 0.0, 1.0, tol=1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.evaluations >= 15

    def test_x_log_x(self):
        # antiderivative x^2/2 ln x - x^2/4
        exact = (2.0 * math.log(2.0) - 1.0) - (-0.25)
        assert exact == pytest.approx(0.6362943611198906, rel=1e-15)
        res = integrate(lambda x: x * np.log(x), 1.0, 2.0, tol=1e-12)
        assert res.value == pytest.approx(exact, rel=1e-12)
        assert res.error_estimate <= 1e-12 * max(1.0, abs(res.value))

    def test_endpoint_singularity(self):
        res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-8)
        assert res.value == pytest.approx(2.0, rel=1e-8)

    def test_nan_propagates_with_abscissa(self):
        def f(x):
            return np.where(x > 0.5, np.nan, 1.0)

        with pytest.raises(QuadratureError, match="NaN at x"):
            integrate(f, 0.0, 1.0, tol=1e-8)

    def test_budget_exhaustion_raises(self):
        # 1/x near 0 is not integrable
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-10, max_evals=20_000)

    def test_no_pass_runs_past_the_budget(self):
        # a pass can split many panels at once: it must be refused whole, not
        # run past max_evals (unbudgeted, this integral takes 3,825 nodes)
        f = lambda x: np.sin(40 * x) ** 2 + np.exp(x)
        full = integrate(f, 0.0, 10.0, tol=1e-12)
        for m in range(100, 2986, 15):
            try:
                res = integrate(f, 0.0, 10.0, tol=1e-12, max_evals=m)
            except QuadratureError as exc:
                assert f"no convergence within {m} evaluations" in str(exc)
            else:
                assert res.evaluations <= m, (m, res.evaluations)
        assert integrate(f, 0.0, 10.0, tol=1e-12, max_evals=full.evaluations) == full
        with pytest.raises(QuadratureError, match="the first pass needs 45"):
            integrate(f, 0.0, 10.0, max_evals=44, breakpoints=[1.0, 2.0])

    def test_breakpoints_resolve_jumps(self):
        step = lambda x: np.where(x < 0.3, 1.0, -2.0)
        res = integrate(step, 0.0, 1.0, tol=1e-12, breakpoints=[0.3])
        assert res.value == pytest.approx(0.3 - 2.0 * 0.7, abs=1e-12)

    def test_linearity_on_random_polynomials(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            pa = rng.uniform(-2, 2, size=4)
            pb = rng.uniform(-2, 2, size=4)
            alpha, beta = rng.uniform(-3, 3, size=2)
            f = lambda x: pa[0] + pa[1] * x + pa[2] * x**2 + pa[3] * x**3
            g = lambda x: pb[0] + pb[1] * x + pb[2] * x**2 + pb[3] * x**3
            h = lambda x: alpha * f(x) + beta * g(x)
            rf = integrate(f, -1.0, 2.0, tol=1e-12)
            rg = integrate(g, -1.0, 2.0, tol=1e-12)
            rh = integrate(h, -1.0, 2.0, tol=1e-12)
            budget = 3 * (rf.error_estimate + rg.error_estimate + rh.error_estimate)
            assert abs(rh.value - alpha * rf.value - beta * rg.value) <= max(budget, 1e-12)

    def test_interval_additivity(self):
        rng = np.random.default_rng(77)
        f = lambda x: np.sin(3 * x) * np.exp(-x / 2)
        for _ in range(10):
            split = float(rng.uniform(0.1, 1.9))
            whole = integrate(f, 0.0, 2.0, tol=1e-12)
            left = integrate(f, 0.0, split, tol=1e-12)
            right = integrate(f, split, 2.0, tol=1e-12)
            budget = whole.error_estimate + left.error_estimate + right.error_estimate
            assert abs(whole.value - left.value - right.value) <= max(budget, 1e-13)

    def test_against_scipy_on_oscillatory(self):
        f = lambda x: np.cos(7 * x) * np.exp(-x)
        ours = integrate(f, 0.0, 5.0, tol=1e-12)
        ref, _ = scipy.integrate.quad(f, 0.0, 5.0, epsabs=1e-13, epsrel=1e-13)
        assert ours.value == pytest.approx(ref, rel=1e-11)


class TestSemiInfinite:
    def test_the_dyadic_start_is_the_graded_points_toward_one(self):
        assert graded_breakpoints(0.0, 1.0, 4) == [0.5, 0.75, 0.875, 0.9375]
        assert graded_breakpoints(2.0, 3.0, 2) == [2.5, 2.75]

    def test_exponential(self):
        res = integrate_semiinfinite(lambda x: np.exp(-x), 0.0, tol=1e-10)
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_inverse_square(self):
        res = integrate_semiinfinite(lambda x: 1.0 / x**2, 1.0, tol=1e-10)
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_gaussian_moment(self):
        res = integrate_semiinfinite(lambda x: x * np.exp(-x * x), 0.0, tol=1e-10)
        assert res.value == pytest.approx(0.5, rel=1e-10)

    def test_compact_support_matches_finite_integral(self):
        f = lambda x: np.where((1.0 < x) & (x < 3.0), (x - 1.0) * (3.0 - x), 0.0)
        semi = integrate_semiinfinite(f, 0.0, tol=1e-11, breakpoints=[1.0, 3.0])
        fin = integrate(f, 1.0, 3.0, tol=1e-11)
        assert semi.value == pytest.approx(
            fin.value, abs=max(semi.error_estimate + fin.error_estimate, 1e-12)
        )
