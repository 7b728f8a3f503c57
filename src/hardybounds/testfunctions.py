"""Smooth compactly supported test functions and their images under the
log change of variables.

The basic shape is the scaled bump exp(-1/(1-t^2)).  One transformation step
maps a profile u on (lo, hi) to

    phi(s) = e^{(dim-2) s / 2} u(e^s)   on (ln lo, ln hi),

with dim equal to the ambient dimension on the first step and 1 on every
later step.  Derivatives are carried along analytically so quadratic forms
can be evaluated by quadrature of first derivatives only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .iterfun import float_or_array


@dataclass(frozen=True)
class TestFunction:
    """A profile on (lo, hi) with its derivative.  Both map a float to a
    float, and an ndarray to its values elementwise."""

    lo: float
    hi: float
    value: Callable
    derivative: Callable

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)


def bump(lo: float, hi: float) -> TestFunction:
    """exp(-1/(1-t^2)) squeezed onto (lo, hi), zero outside."""
    if not lo < hi:
        raise DomainError(f"bump needs lo < hi, got ({lo}, {hi})")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def parts(x):
        t = (x - mid) / half
        tt = t * t
        inside = tt < 1.0
        # 1 - t^2 off the support too, where it is replaced by 1: no division by 0
        return t, inside, np.where(inside, 1.0 - tt, 1.0)

    @float_or_array
    def value(x):
        _, inside, one = parts(x)
        return np.where(inside, np.exp(-1.0 / one), 0.0)

    @float_or_array
    def derivative(x):
        t, inside, one = parts(x)
        return np.where(inside, np.exp(-1.0 / one) * (-2.0 * t / (one * one)) / half, 0.0)

    return TestFunction(lo, hi, value, derivative)


def log_pushforward(f: TestFunction, dim: int) -> TestFunction:
    """phi(s) = e^{(dim-2)s/2} f(e^s) with the chain-rule derivative."""
    if f.lo <= 0.0:
        raise DomainError(f"pushforward needs support in (0, inf), got lo = {f.lo}")
    beta = (dim - 2) / 2.0
    lo = math.log(f.lo)
    hi = math.log(f.hi)

    def parts(s):
        inside = (lo < s) & (s < hi)
        s_in = np.where(inside, s, lo)  # keeps exp(s) finite off the support
        return inside, np.exp(beta * s_in), np.exp(s_in)

    @float_or_array
    def value(s):
        inside, scale, x = parts(s)
        return np.where(inside, scale * f.value(x), 0.0)

    @float_or_array
    def derivative(s):
        inside, scale, x = parts(s)
        return np.where(inside, scale * (beta * f.value(x) + x * f.derivative(x)), 0.0)

    return TestFunction(lo, hi, value, derivative)


def transform_test_function(u: TestFunction, d: int, steps: int) -> TestFunction:
    """Image of a radial profile after ``steps`` changes of variable: the
    first step uses the ambient dimension, the rest are one-dimensional."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    f = log_pushforward(u, d)
    for _ in range(steps - 1):
        f = log_pushforward(f, 1)
    return f


#: Relative spans (above the domain's left endpoint) for the standard suite.
_SUITE_SPANS = ((0.2, 1.1), (0.5, 2.3), (1.0, 4.0), (2.0, 7.0), (4.0, 12.0))


def bump_suite(domain_lo: float, count: int = 5) -> list[TestFunction]:
    """Deterministic placements of ``count`` bumps inside (domain_lo, inf)."""
    if count < 1 or count > len(_SUITE_SPANS):
        raise DomainError(f"suite size must be in [1, {len(_SUITE_SPANS)}], got {count}")
    return [bump(domain_lo + a, domain_lo + b) for a, b in _SUITE_SPANS[:count]]
