"""The CLR-type bound and its dimension dependence.

For d = 3 the factor (d-1)(d-3) vanishes, so a non-negative potential gives
a bound of exactly zero.  For every d >= 4 the factor is positive and the
variant-zero integrand decays only like 1/(r ln r ...), whose integral is
ln ln r: the bound is +inf even for V = 0.  The horizon-truncated values
below grow without limit, pinned to the ln ln law.

Run:  PYTHONPATH=src python3 demos/clr_dimensions.py
"""

import math

from hardybounds import OperatorSpec, SquareWell, ZeroPotential, clr_bound
from hardybounds.spectra import total_central_count

print("=" * 72)
print("d = 3, variant zero: V >= 0 gives exactly zero")
print("=" * 72)
spec3 = OperatorSpec(3, 0, "zero", threshold_depth=2)
bv = clr_bound(ZeroPotential(), spec3)
print(f"bound raw = {bv.raw}, cap = {bv.integer_cap}")
print()

print("=" * 72)
print("d = 5, variant zero: V = 0 already produces a positive (infinite) bound")
print("=" * 72)
spec5 = OperatorSpec(5, 0, "zero", threshold_depth=2)
bv5 = clr_bound(ZeroPotential(), spec5)
print(f"bound raw = {bv5.raw}  ({bv5.diagnostics.notes[0]})")
print()
print("horizon-truncated values, alongside ln ln(horizon) for the growth law:")
print("    horizon      truncated bound      ln ln horizon")
for h in (1e2, 1e4, 1e6, 1e9, 1e12):
    t = clr_bound(ZeroPotential(), spec5, horizon=h)
    print(f"    {h:>8.0e}   {t.raw:>16.6f}   {math.log(math.log(h)):>14.4f}")
print()

print("=" * 72)
print("d = 3 with a well at (3, 6): finite bound vs. channel-summed count")
print("=" * 72)
print()
print("    c   count   bound raw    floor")
for c in (1, 4, 16):
    V = SquareWell(c=float(c), a=3.0, b=6.0)
    bv = clr_bound(V, spec3)
    count_spec = OperatorSpec(d=3, n=0, variant="zero", threshold_depth=2)
    total, _ = total_central_count(count_spec, V, L=20.0, m=4000)
    print(f"  {c:>3}   {total:>5}   {bv.raw:>10.1f}   {bv.integer_cap:>5}")
print()
print("The variant-one bound stays finite for decaying potentials because the")
print("improvement term changes sign once ln^(n+2) r passes sqrt((d-1)(d-3)):")
spec4 = OperatorSpec(4, 0, "one", threshold_depth=2)
bv4 = clr_bound(ZeroPotential(), spec4)
print(f"d = 4, variant one, V = 0: raw = {bv4.raw:.8f} (cap {bv4.integer_cap})")
