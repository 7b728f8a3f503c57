"""Iterated exponential/logarithm arithmetic and the weights built on it.

Depth 0 always means "no factors": ``iterated_log(x, 0) == x`` and
``iterated_exp(x, 0) == x``, so every depth-0 formula in the package reduces
to the classical critical-Hardy case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Largest composition depth accepted by exponential-tower paths.  A tower of
#: depth 4 applied to x >= 1 already exceeds the double-precision range.
DEPTH_CAP = 3

#: Valid domain-threshold variants: exp^(k)(0) and exp^(k)(1).
VARIANTS = ("zero", "one")


def _check_depth(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"composition depth must be a non-negative integer, got {n!r}")


def iterated_log(x: float, n: int) -> float:
    """Apply ``ln`` to ``x`` exactly ``n`` times.

    Requires every intermediate value to stay positive, i.e.
    x > iterated_exp(0, n-1) for n >= 1.  The final value may be negative.
    """
    _check_depth(n)
    v = float(x)
    for k in range(n):
        if v <= 0.0:
            raise DomainError(
                f"iterated_log({x}, {n}): argument of log #{k + 1} is {v} <= 0"
            )
        v = math.log(v)
    return v


def iterated_exp(x: float, n: int) -> float:
    """Apply ``exp`` to ``x`` exactly ``n`` times.

    Raises OverflowError when the tower leaves the double range (for x >= 1
    this happens at n = 4 already).
    """
    _check_depth(n)
    v = float(x)
    for k in range(n):
        try:
            v = math.exp(v)
        except OverflowError:
            raise OverflowError(
                f"iterated_exp({x}, {n}): exp #{k + 1} of {v} exceeds the double range"
            ) from None
    return v


def safe_iterated_log(x: float, n: int) -> float:
    """Like iterated_log but returns -inf once the chain hits a value <= 0.

    Used to map interval endpoints through log changes of variables, where
    "below the representable range" simply means "all the way down".
    """
    _check_depth(n)
    v = float(x)
    for _ in range(n):
        if v <= 0.0:
            return -math.inf
        v = math.log(v)
    return v


def hardy_weight_stack(x: float, d: int, n: int) -> float:
    """Full subtracted weight of the depth-n Hardy operator in dimension d:

        (d-2)^2/(4x^2) + sum_{k=1..n} 1 / (4 x^2 (ln x)^2 ... (ln^(k) x)^2)

    Defined for x > iterated_exp(0, n) so that all n log factors are positive.
    """
    _check_depth(n)
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if x <= 0.0:
        raise DomainError(f"hardy_weight_stack requires x > 0, got {x}")
    total = (d - 2) ** 2 / (4.0 * x * x)
    acc = 4.0 * x * x
    cur = x
    for k in range(1, n + 1):
        cur = math.log(cur) if cur > 0.0 else -math.inf
        if cur <= 0.0:
            raise DomainError(
                f"hardy_weight_stack({x}, d={d}, n={n}): log factor #{k} is not positive; "
                f"need x > exp^({n})(0)"
            )
        acc *= cur * cur
        total += 1.0 / acc
    return total


def squared_log_weight(x, count: int):
    """x^2 (ln x)^2 ... (ln^(count) x)^2, the denominator stack of the weights.

    Requires all ``count`` log factors to be defined (intermediates positive);
    the innermost factor may vanish, making the product zero.  An ndarray x is
    weighted elementwise with numpy's log.
    """
    _check_depth(count)
    if isinstance(x, np.ndarray):
        return _squared_log_weight_array(np.asarray(x, dtype=float), count)
    if x <= 0.0:
        raise DomainError(f"squared_log_weight requires x > 0, got {x}")
    acc = x * x
    cur = x
    for k in range(count):
        if cur <= 0.0:
            raise DomainError(
                f"squared_log_weight({x}, {count}): log #{k + 1} undefined (argument {cur})"
            )
        cur = math.log(cur)
        acc *= cur * cur
    return acc


def _squared_log_weight_array(x: np.ndarray, count: int) -> np.ndarray:
    bad = x <= 0.0
    if bad.any():
        raise DomainError(f"squared_log_weight requires x > 0, got {float(x[bad][0])}")
    acc = x * x
    cur = x
    for k in range(count):
        bad = cur <= 0.0
        if bad.any():
            raise DomainError(
                f"squared_log_weight({float(x[bad][0])}, {count}): log #{k + 1} undefined "
                f"(argument {float(cur[bad][0])})"
            )
        cur = np.log(cur)
        acc *= cur * cur
    return acc


def degeneracy(d: int, l: int) -> int:
    """Multiplicity of the sphere-Laplacian eigenvalue l(l+d-2) on S^(d-1):

        D(d, l) = (2l+d-2) Gamma(d+l-2) / (Gamma(d-1) Gamma(l+1))

    evaluated in exact integer arithmetic.  The closed form is indeterminate
    at (d=2, l=0); the dimension of the space of spherical harmonics is the
    ground truth, so l = 0 returns 1 and d = 2, l >= 1 returns 2.
    """
    if not isinstance(d, int) or d < 2:
        raise DomainError(f"degeneracy requires integer d >= 2, got {d!r}")
    if not isinstance(l, int) or l < 0:
        raise DomainError(f"degeneracy requires integer l >= 0, got {l!r}")
    if l == 0:
        return 1
    if d == 2:
        return 2
    num = (2 * l + d - 2) * math.factorial(d + l - 3)
    den = math.factorial(d - 2) * math.factorial(l)
    return num // den


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^(d-1): 2 pi^(d/2) / Gamma(d/2)."""
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"sphere_area requires integer d >= 1, got {d!r}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class DomainThreshold:
    """Left endpoint of an operator domain: exp^(depth)(0) or exp^(depth)(1)."""

    depth: int
    variant: str
    value: float = None  # type: ignore[assignment]  # filled in __post_init__

    def __post_init__(self):
        _check_depth(self.depth)
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        base = 0.0 if self.variant == "zero" else 1.0
        object.__setattr__(self, "value", iterated_exp(base, self.depth))
