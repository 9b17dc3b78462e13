"""``tools/exact_digest.py``, the digest that exact-kernel changes are
checked against.

The script is executed into a fresh module object, as
``tools/transfer_digest.py`` is in ``test_transfer_digest.py``; the path it
puts in front of ``sys.path`` is taken out again.
"""

import sys
import types
from pathlib import Path

import pytest

from stripwalks import IntPolynomial, atoms_width3
from stripwalks.genfunc import W4_LOOP_DENOMINATOR

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "exact_digest.py"


@pytest.fixture(scope="module")
def exact_digest():
    module = types.ModuleType("exact_digest")
    module.__file__ = str(DIGEST)
    path = sys.path[:]
    try:
        exec(compile(DIGEST.read_text(), str(DIGEST), "exec"), module.__dict__)
    finally:
        sys.path[:] = path
    return module


def test_lines_cover_every_input(exact_digest):
    # Two truncated alphabets at 7 lengths, a denominator, four roots and a
    # reduced quotient each; three compositions, three lines each; the
    # degree-44 denominator; two constants at four tolerances.
    lines = list(exact_digest.lines())
    assert len(lines) == 2 * 7 * 6 + 3 * 3 + 1 + 2 * 4
    assert f"w4 loop denominator: {W4_LOOP_DENOMINATOR.coefficients}" in lines
    assert lines[-1].startswith("mu_bounds_width4 1e-300: (RootResult(root=0.48764507")


def test_truncated_atoms_are_series_prefixes(exact_digest):
    atoms = exact_digest.truncated_atoms("w3", 10)
    for t, gf in atoms_width3().items():
        assert atoms[t].numerator == IntPolynomial.from_coefficients(gf.series(10))
        assert atoms[t].denominator == IntPolynomial.one()
