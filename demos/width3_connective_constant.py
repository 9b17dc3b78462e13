"""Walkthrough: the connective constant of the three-row strip.

Bridges on Z x {-1,0,1} decompose into an alphabet of irreducible pieces
(inner->outer, outer->outer, outer->inner).  Concatenating the alphabet
with Kleene stars gives a rational generating function whose series must
reproduce the enumerated bridge counts exactly; the reciprocal of the
smallest positive root of its denominator is the growth constant.
"""

from stripwalks import (
    StripGeometry,
    atoms_width3,
    compose_bridge_code,
    connective_constant_width3,
    count_bridges,
    count_irreducible,
    estimate_mu,
    important_part_denominator,
)
from stripwalks.genfunc import ONE_MINUS_T, W3_LOOP_POLYNOMIAL

strip = StripGeometry(-1, 1)
print("strip rows:", strip.y_min, "..", strip.y_max)

print("\n-- alphabet atoms (series up to t^8) --")
atoms = atoms_width3()
for label, gf in atoms.items():
    print(f"  {label}: {gf.pretty():45s} {gf.series(8)}")

print("\n-- enumerated cross-check of each atom --")
for label, line in (("OO", 1), ("OI", 1), ("IO", 0)):
    counted = count_irreducible(strip, label, 8, line)
    match = tuple(counted.counts) == atoms[label].series(8)
    print(f"  {label} counts from line {line}: {counted.counts}  match={match}")

print("\n-- composed bridge generating function --")
gf = compose_bridge_code(atoms, 3)
print("  ", gf.pretty())
bridges = count_bridges(strip, 14)
print("  series     :", gf.series(14))
print("  enumeration:", bridges.counts)
print("  exact match:", gf.series(14) == bridges.counts)

print("\n-- denominator root and growth constant --")
loop = important_part_denominator(atoms, 3)
print("  loop denominator:", loop.pretty())
core = ONE_MINUS_T * ONE_MINUS_T * W3_LOOP_POLYNOMIAL
print(f"  = (1 - t)^2 ({W3_LOOP_POLYNOMIAL.pretty()}):", loop == core)
res = connective_constant_width3()
print(f"  smallest positive root: {res.root:.9f}")
print(f"  mu (reciprocal)       : {res.mu:.9f}")

print("\n-- empirical convergence of bridge-count ratios --")
for n, nth_root, ratio in estimate_mu(bridges)[-4:]:
    print(f"  n={n:2d}  count^(1/n)={nth_root:.6f}  ratio={ratio:.6f}")
