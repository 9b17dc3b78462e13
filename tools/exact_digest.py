"""Print the outputs of the exact layer (``genfunc`` and ``analysis``) for a
fixed set of inputs.

One line per output:

* for the atoms of each width (the three-row atoms and the four-row upper
  atoms) cut after t^L, L in {10, 20, ..., 60, 120}: the denominator
  ``important_part_denominator`` gives, the ``RootResult`` of its least
  root at each tolerance, and the reduced quotient of the composed bridge
  generating function, up to 242 coefficients a side;
* for the composed three-row, four-row lower and four-row upper bridge
  generating functions: the unreduced and the reduced quotient, and the
  first 1,520 series terms, as the first twelve and the SHA-256 of all;
* the degree-44 loop denominator as the four-row upper atoms compose it;
* ``connective_constant_width3`` and ``mu_bounds_width4`` at each
  tolerance.

The tolerances are 1e-12 and 1e-13, the band the ``algebra`` benchmark
draws from; 1e-14, which the CLI session's ``mu width3 --tol 1e-14`` asks
for; and 1e-300, far past float precision.  At 1e-13 and 1e-14 the float
guess that starts the root refinement is coarser than the grid on the
degree-44 denominator, so a secant step follows it.

Polynomials print as their coefficient tuples, lowest degree first, and
``RootResult`` as its repr, whose floats round-trip.  The script takes
under a second (2-core Xeon, Python 3.11).

The output is a digest of the exact layer: run it in two checkouts and diff,

    python3 tools/exact_digest.py > before.txt   # in the first checkout
    python3 tools/exact_digest.py > after.txt    # in the second
    diff before.txt after.txt

and no output from ``diff`` means every quotient, series and root is
unchanged.  Each checkout's own ``src`` is imported.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stripwalks import analysis, genfunc  # noqa: E402

LENGTHS = (10, 20, 30, 40, 50, 60, 120)
TOLERANCES = (1e-12, 1e-13, 1e-14, 1e-300)
SERIES_TERMS = 1520
ATOMS = {
    "w3": (genfunc.atoms_width3, 3),
    "w4_lower": (genfunc.atoms_width4_lower, 4),
    "w4_upper": (genfunc.atoms_width4_upper, 4),
}
TRUNCATED = ("w3", "w4_upper")


def truncated_atoms(name: str, length: int) -> dict[str, genfunc.RationalGF]:
    """The atoms' series cut after t^length, as polynomial generating functions."""
    return {
        t: genfunc.RationalGF.from_polynomial(
            genfunc.IntPolynomial.from_coefficients(gf.series(length))
        )
        for t, gf in ATOMS[name][0]().items()
    }


def quotient(gf: genfunc.RationalGF) -> str:
    return f"{gf.numerator.coefficients} / {gf.denominator.coefficients}"


def lines():
    """Every line of the digest, in order."""
    for name in TRUNCATED:
        width = ATOMS[name][1]
        for length in LENGTHS:
            truncated = truncated_atoms(name, length)
            den = genfunc.important_part_denominator(truncated, width)
            yield f"{name} L={length} denominator: {den.coefficients}"
            for tol in TOLERANCES:
                root = analysis.smallest_positive_root(den, tol)
                yield f"{name} L={length} root {tol}: {root!r}"
            reduced = genfunc.compose_bridge_code(truncated, width).reduced()
            yield f"{name} L={length} reduced: {quotient(reduced)}"
    for name, (atoms, width) in ATOMS.items():
        gf = genfunc.compose_bridge_code(atoms(), width)
        series = gf.series(SERIES_TERMS)
        yield f"{name} composed: {quotient(gf)}"
        yield f"{name} reduced: {quotient(gf.reduced())}"
        digest = hashlib.sha256(",".join(map(str, series)).encode()).hexdigest()
        yield f"{name} series {SERIES_TERMS}: {series[:12]} sha256 {digest}"
    loop = genfunc.important_part_denominator(genfunc.atoms_width4_upper(), 4)
    yield f"w4 loop denominator: {loop.coefficients}"
    for tol in TOLERANCES:
        yield f"connective_constant_width3 {tol}: {analysis.connective_constant_width3(tol)!r}"
        yield f"mu_bounds_width4 {tol}: {analysis.mu_bounds_width4(tol)!r}"


def main() -> int:
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
