"""The discrete side: Sturm-sequence counting on tridiagonal discretizations.

Negative-eigenvalue counts come from the signs of the LDL^T pivots of the
three-point stencil matrix; no eigenvector or full decomposition is needed.
Two closed-form spectra calibrate the machinery, then a window-escalation
run shows how a weakly bound state emerges once the Dirichlet box is large
enough to hold it.

Run:  PYTHONPATH=src python3 demos/spectral_counting.py
"""

import math

import numpy as np

from hardybounds import OperatorSpec, SquareWell
from hardybounds.spectra import (
    Grid,
    assemble,
    count_negative,
    inertia_negative_count,
    lowest_eigenvalues,
)

print("=" * 72)
print("1. Free stencil vs. the closed-form Toeplitz spectrum")
print("=" * 72)
m = 40
T = assemble(lambda s: 0.0, Grid(0.0, float(m + 1), m))
got = lowest_eigenvalues(T, 5, tol=1e-12)
print("    j   Sturm bracket    2(1 - cos(j pi/(m+1)))")
for j, val in enumerate(got, start=1):
    exact = 2.0 * (1.0 - math.cos(j * math.pi / (m + 1)))
    print(f"    {j}   {val:.12f}   {exact:.12f}")
print()

print("=" * 72)
print("2. The sech^2 well: one bound state at -1")
print("=" * 72)
Tpt = assemble(lambda s: -2.0 / np.cosh(s) ** 2, Grid(-20.0, 20.0, 8000))
print(f"negative count : {inertia_negative_count(Tpt, 0.0)}")
print(f"ground state   : {lowest_eigenvalues(Tpt, 1, tol=1e-9)[0]:.6f}")
print()

print("=" * 72)
print("3. Window escalation for a weakly coupled well")
print("=" * 72)
print()
print("V = -0.01 on (1, 2), variant zero.  The bound state exists but its")
print("tail is ~130 units long, so small Dirichlet boxes miss it:")
print()
spec = OperatorSpec(1, 0, "zero")
V = SquareWell(c=0.01, a=1.0, b=2.0)
print("      L       m    count")
for L in (20.0, 40.0, 80.0, 160.0, 320.0):
    m = int(200 * L)
    res = count_negative(spec, V, L=L, m=m)
    print(f"    {L:>5.0f}  {m:>6}    {res.negative_count}")
print()
print("Truncation only ever under-counts, so the first window that reports 1")
print("settles the existence question.")
