"""Count bounds against actual discrete counts.

The half-line/line bounds say N <= [1 +] int |V_-| x |ln x| ... dx; this
script deepens a square well and watches the discrete negative-eigenvalue
count (computed by Sturm sequences on the transformed operator) stay below
the floored bound, with plenty of slack since the count grows like sqrt(depth)
while the bound grows linearly.

Run:  PYTHONPATH=src python3 demos/bounds_vs_counts.py
"""

from hardybounds import OperatorSpec, SquareWell, bound_1d, central_bound
from hardybounds.spectra import count_negative, total_central_count

print("=" * 72)
print("Line operator (variant zero), V = -c on (1, 2)")
print("=" * 72)
print()
print("    c   count   bound raw     floor   satisfied")
spec = OperatorSpec(1, 0, "zero")
for c in (1, 2, 4, 8, 16, 32, 64):
    V = SquareWell(c=float(c), a=1.0, b=2.0)
    bv = bound_1d(V, spec)
    res = count_negative(spec, V, L=20.0, m=4000)
    ok = "yes" if res.negative_count <= bv.integer_cap else "NO"
    print(f"  {c:>3}   {res.negative_count:>5}   {bv.raw:>10.4f}   {bv.integer_cap:>5}   {ok}")

print()
print("Every non-zero negative V binds at least one state on the variant-zero")
print("domain, so the count column starts at 1 and never decreases.")
print()

print("=" * 72)
print("Central operator, d = 3 (variant one), V = -1 on (1, 2)")
print("=" * 72)
print()
V = SquareWell(c=1.0, a=1.0, b=2.0)
spec3 = OperatorSpec(3, 0, "one")
bv = central_bound(V, spec3)
total, table = total_central_count(spec3, V, L=20.0, m=4000)
print("channel sum over angular momenta, each weighted by its degeneracy:")
for ch in bv.channels:
    print(f"    l = {ch.l}: degeneracy {ch.degeneracy}, integral {ch.integral:.9f}")
print(f"bound raw  = {bv.raw:.9f}  ->  cap {bv.integer_cap}")
print(f"count rows = {[(row['l'], row['count']) for row in table]}")
print(f"total count {total} <= cap {bv.integer_cap}: {total <= bv.integer_cap}")
