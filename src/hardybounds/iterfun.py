"""Iterated exponential/logarithm arithmetic and the weights built on it.

Depth 0 always means "no factors": ``safe_iterated_log(x, 0) == x`` and
``iterated_exp(x, 0) == x``, so every depth-0 formula in the package reduces
to the classical critical-Hardy case.

The weights have one formula each, written for float ndarrays on the factors
of one ``log_chain``.  They also take a float and return a float, by
``call_on_array``: the float goes in as a one-element array.  The potentials,
the transformed potentials and the test functions follow the same rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Most transform steps a count takes (``spectra.channel_potential``): a tower
#: of depth 4 applied to x >= 1 already exceeds the double-precision range.
#: The t41 and t43 bounds take no cap; they reach n = 4 on variant zero.
DEPTH_CAP = 3

#: Valid domain-threshold variants: exp^(k)(0) and exp^(k)(1).
VARIANTS = ("zero", "one")


def _check_depth(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"composition depth must be a non-negative integer, got {n!r}")


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
    """Apply ``ln`` to ``x`` exactly ``n`` times; -inf once a log meets a value <= 0.

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


def call_on_array(f, x, *args):
    """f(x, *args) for an ``f`` written for float ndarrays: float in, float out.

    An array-like x is passed on as a float ndarray.  A scalar x is passed as
    the one-element array [x], and the element of the result comes back as a
    float."""
    if np.ndim(x):
        return f(np.asarray(x, dtype=float), *args)
    return float(f(np.array([x], dtype=float), *args)[0])


def float_or_array(f):
    """Decorator: the first argument of ``f`` may be a float or an ndarray,
    as ``call_on_array`` passes it."""

    @functools.wraps(f)
    def wrapper(x, *args):
        return call_on_array(f, x, *args)

    return wrapper


def log_chain(x: np.ndarray, count: int) -> list:
    """[x, ln x, ..., ln^(count) x] for a float ndarray x, the factors of every
    iterated-log weight.  DomainError where x or the argument of a log is not
    positive; the last factor may have any sign."""
    _check_depth(count)
    chain = [x]
    for k in range(max(count, 1)):
        bad = chain[k] <= 0.0
        if np.count_nonzero(bad):
            raise DomainError(f"x = {float(x[bad][0])} is outside the domain of ln^({count}): "
                              f"ln^({k}) x = {float(chain[k][bad][0])} is not positive")
        if k < count:
            chain.append(np.log(chain[k]))
    return chain


@float_or_array
def hardy_weight_stack(x, d: int, n: int):
    """Full subtracted weight of the depth-n Hardy operator in dimension d:

        (d-2)^2/(4x^2) + sum_{k=1..n} 1 / (4 x^2 (ln x)^2 ... (ln^(k) x)^2)

    Defined for x > iterated_exp(0, n) so that all n log factors are positive.
    """
    _check_depth(n)
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    chain = log_chain(x, n + 1)  # its first n log factors are positive
    total = (d - 2) ** 2 / (4.0 * x * x)
    acc = 4.0 * x * x
    for cur in chain[1:n + 1]:
        acc = acc * (cur * cur)
        total = total + 1.0 / acc
    return total


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
