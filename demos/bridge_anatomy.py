"""Walkthrough: the structural operations on individual walks.

Shows a bridge decomposing into irreducible factors with merged tails, the
span decomposition and reflection of a half-space walk, and the width-4
transformation that flattens a complicated irreducible bridge onto two rows.
"""

from stripwalks import (
    IrreducibleFactor,
    StripGeometry,
    Walk,
    classify_irreducible,
    decompose_bridge,
    hw_decompose,
    hw_reflect,
    transform_irreducible_w4,
)

w3 = StripGeometry(-1, 1)
w4 = StripGeometry(-1, 2)

print("-- bridge decomposition with tail merging --")
walk = Walk.from_steps("RRRUDRR".replace("UD", "URD"))  # RRRURDRR
print("  bridge:", walk.steps())
dec = decompose_bridge(walk, w3)
for f in dec.factors:
    print(f"    factor {f.walk.steps():8s} type={f.bridge_type} tail={f.tail_length}")
print(f"    trailing right-run: {dec.trailing_right_run}")
print("    reassembled:", dec.reassemble_steps())

print("\n-- span decomposition and reflection --")
half = Walk.from_steps("RRRULLU")
print("  half-space walk:", half.steps())
d = hw_decompose(half)
print(f"  spans {d.spans}, cut indices {d.cut_indices}")
image = hw_reflect(half, d)
print("  reflected walk :", image.steps())
print("  image spans    :", hw_decompose(image).spans)

print("\n-- width-4 irreducible transformation --")
factor = IrreducibleFactor(Walk.from_steps("RRRDRDLLULDDRRR"), 2, 0, None)
print("  factor from line 2:", factor.walk.steps())
print("  type:", classify_irreducible(factor, w4))
out = transform_irreducible_w4(factor, w4)
print("  transformed (two rows, no left steps):", out.steps())
print(f"  length {factor.walk.length} -> {out.length}")
