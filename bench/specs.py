"""Potential specs and their closed forms in numpy.

A spec is a plain dict, ``{"family": ..., **params}``, the form that
``hardybounds.make_potential`` takes.  The functions here evaluate specs
without the library, so the input generator and the output checks share
one independent description of each potential.
"""

from __future__ import annotations

import math

import numpy as np


def threshold(depth: int, variant: str) -> float:
    """exp^(depth)(0) or exp^(depth)(1)."""
    x = 0.0 if variant == "zero" else 1.0
    for _ in range(depth):
        x = math.exp(x)
    return x


def support(pot: dict):
    """(lo, hi) outside which V vanishes; None for the zero potential."""
    fam = pot["family"]
    if fam == "zero":
        return None
    if fam == "tabulated":
        return (pot["r"][0], pot["r"][-1])
    return (pot["a"], pot["b"])


def breakpoints(pot: dict) -> list[float]:
    if pot["family"] == "tabulated":
        return list(pot["r"])
    sup = support(pot)
    return [] if sup is None else [x for x in sup if math.isfinite(x)]


def v_numpy(pot: dict, y: np.ndarray) -> np.ndarray:
    """V(y) on an array; zero outside the support (tabulated: NaN outside)."""
    fam = pot["family"]
    if fam == "zero":
        return np.zeros_like(y)
    if fam == "tabulated":
        r = np.asarray(pot["r"])
        out = np.interp(y, r, np.asarray(pot["v"]))
        return np.where((y >= r[0]) & (y <= r[-1]), out, np.nan)
    inside = (y > pot["a"]) & (y < pot["b"])
    if fam == "square_well":
        shape = np.ones_like(y)
    else:
        with np.errstate(all="ignore"):
            yy = np.where(inside, y, 2.0)
            shape = yy ** pot["p"] * (np.log(yy) ** pot["q"] if pot["q"] else 1.0)
    return np.where(inside, -pot["c"] * shape, 0.0)


def window(n: int, variant: str, threshold_depth: int, L: float) -> tuple[float, float]:
    """Dirichlet window in s = ln^(n+1) r: (-L, L) when the threshold maps to
    -inf, else (s0, s0 + L)."""
    x = threshold(threshold_depth, variant)
    for _ in range(n + 1):
        if x <= 0.0:
            return (-L, L)
        x = math.log(x)
    return (x, x + L)


def transformed_w(pot: dict, k: int, s: np.ndarray, coupling: float = 0.0) -> np.ndarray:
    """The k-step log transform of coupling / r^2 + V(r):

        W(s) = coupling * prod_{j<k-1} e^{2 exp^j s} + prod_{j<k} e^{2 exp^j s} V(exp^k s),

    which at k = 1 is coupling + e^{2s} V(e^s)."""
    with np.errstate(all="ignore"):
        y = s.copy()
        log_pref = np.zeros_like(s)
        for _ in range(k - 1):
            log_pref += 2.0 * y
            y = np.exp(y)
        cent = coupling * np.exp(log_pref) if coupling else 0.0
        log_pref += 2.0 * y
        y = np.exp(y)
        v = v_numpy(pot, y)
        w = np.where(v != 0.0, np.exp(log_pref) * v, 0.0)
    return w + cent


def sup_r2_negative_part(pot: dict, th: float, samples: int = 200_001) -> float:
    """sup over (th, inf) of r^2 max(-V(r), 0), by dense log-spaced sampling.

    A semi-infinite support is sampled up to max(1e7, 1e4 lo); the families
    used here with such a support decay faster than r^-2 beyond it."""
    sup = support(pot)
    if sup is None:
        return 0.0
    lo = max(sup[0], th)
    hi = sup[1] if math.isfinite(sup[1]) else max(1e7, lo * 1e4)
    if hi <= lo:
        return 0.0
    r = np.geomspace(lo, hi, samples)[1:-1]
    r = np.concatenate([r, [lo * (1 + 1e-13), hi * (1 - 1e-13)]])
    return float(np.max(r * r * np.maximum(-v_numpy(pot, r), 0.0)))
