"""Numerical layer: real-root isolation of denominator polynomials, and
conversion of radii of convergence into connective constants.

Root finding locates the first sign change on the grid of 1024 cells of
(0, 1] and bisects that cell, with exact signs at the dyadic points a/2^k,
each from the integer homogeneous evaluation sum c_i a^i 2^(k(d-i)), so
brackets are rigorous.  The roots isolated at run time are those of the
published polynomials in :mod:`stripwalks.genfunc`: the three-row loop
polynomial (the paper's shorter way to the three-row constant; the degree-14
bridge denominator gives the same bracket, see
:func:`connective_constant_width3`), the four-row lower-bound denominator and
the degree-44 loop denominator.  The alphabet compositions reproduce each
published polynomial, which the test suite checks and ``stripwalks verify
tables`` checks for the three-row quotient and the degree-44 denominator.
Since every counting series here has non-negative coefficients, the smallest
positive real root of the denominator is the smallest-modulus singularity
(Pringsheim); a winding-number check over a circle just inside that radius
guards against an unexpected smaller complex root and fails loudly if one
exists.  The guard runs on every root; no caller can turn it off.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .genfunc import (
    IntPolynomial,
    W3_LOOP_POLYNOMIAL,
    W4_LOOP_DENOMINATOR,
    W4_LOWER_DENOMINATOR,
)
from .lattice import CountTable

DEFAULT_TOL = 1e-12
_SCAN_BITS = 10
_WINDING_SAMPLES = 2880


@dataclass(frozen=True)
class RootResult:
    """A bracketed root of a polynomial and the derived growth constant."""

    root: float
    mu: float
    tolerance: float
    bracket: tuple[float, float]

    def round6(self) -> tuple[float, float]:
        """(root, mu) rounded half-even to the conventional 6 decimals."""
        return (round(self.root, 6), round(self.mu, 6))


def _winding_number(p: IntPolynomial, radius: float) -> int:
    """Number of roots of p strictly inside |t| = radius, by argument principle.

    The sample count is far above the polynomial degree, so the argument
    cannot jump by more than pi between consecutive samples.  The
    coefficients are real, so p(conj z) = conj p(z) and the lower half circle
    turns the argument by as much as the upper one: only the upper half is
    sampled and its phase sum doubled.
    """
    total = 0.0
    prev = p.evaluate_complex(complex(radius, 0.0))
    for k in range(1, _WINDING_SAMPLES // 2 + 1):
        z = radius * cmath.exp(2j * cmath.pi * k / _WINDING_SAMPLES)
        cur = p.evaluate_complex(z)
        total += cmath.phase(cur / prev)
        prev = cur
    return round(total / cmath.pi)


def smallest_positive_root(p: IntPolynomial, tol: float = DEFAULT_TOL) -> RootResult:
    """Least t in (0, 1] with p(t) = 0, bracketed to tol by exact bisection.

    Requires p(0) = 1 and a sign change on (0, 1]; raises if no sign change
    is found, or if the winding check detects a complex root of smaller
    modulus.
    """
    if p.constant_term != 1:
        raise ValueError("expected a polynomial with constant term 1")
    if not tol > 0:  # also rejects nan
        raise ValueError("tolerance must be positive")

    # The bracket is [lo, lo + 1] / 2**scale, with p(lo / 2**scale) > 0: a
    # scan over the 2**_SCAN_BITS cells finds the first cell whose right end
    # is not positive, then each halving evaluates p at its midpoint only.
    # Whenever p vanishes, the zero is the right end lo + 1.
    scale, lo = _SCAN_BITS, 0
    while (v := p(Fraction(lo + 1, 1 << scale))) > 0:
        lo += 1
        if lo == 1 << scale:
            raise ValueError("no sign change on (0, 1]; cannot bracket a root")
    while v != 0 and 2.0**-scale > tol:
        scale += 1
        v = p(Fraction(2 * lo + 1, 1 << scale))
        lo = 2 * lo + (v > 0)
    hi = lo + 1
    if v == 0:
        lo = hi

    root = (lo + hi) / (2 << scale)
    bracket = (lo / (1 << scale), hi / (1 << scale))
    # The circle goes just inside lo, which lies below the root; the
    # midpoint can lie above it by tol/2, more than the 1e-6 margin.
    inside = _winding_number(p, bracket[0] * (1 - 1e-6))
    if inside != 0:
        raise ArithmeticError(
            f"{inside} root(s) of smaller modulus inside |t| = {root:.6f}"
        )
    return RootResult(root, 1.0 / root, tol, bracket)


def connective_constant_width3(tol: float = DEFAULT_TOL) -> RootResult:
    """Connective constant of the width-3 strip, from the degree-6 loop polynomial.

    The result is the reciprocal of the smallest positive root of
    ``W3_LOOP_POLYNOMIAL``, approximately 1.9146.  The degree-14 bridge
    denominator is that polynomial times a cofactor with no real root on
    [0, 53/100], and every point the root search evaluates lies in or below
    its first scan cell, which ends below 0.5225: the two polynomials agree
    in sign at each such point, so isolating the denominator would give the
    same bracket at every tolerance.  The test suite proves these facts
    exactly.
    """
    return smallest_positive_root(W3_LOOP_POLYNOMIAL, tol)


def mu_bounds_width4(tol: float = DEFAULT_TOL) -> tuple[RootResult, RootResult]:
    """(lower, upper) bounds for the width-4 connective constant.

    The lower bound comes from the left-step-free composition's denominator
    (root near 0.487645, mu_lower near 2.0507); the upper bound from the
    degree-44 loop-star denominator of the overcounting atoms (root near
    0.461722, mu_upper near 2.1658).  Both are read from their published
    forms, ``W4_LOWER_DENOMINATOR`` and ``W4_LOOP_DENOMINATOR``, which the
    compositions reproduce.
    """
    lower = smallest_positive_root(W4_LOWER_DENOMINATOR, tol)
    upper = smallest_positive_root(W4_LOOP_DENOMINATOR, tol)
    return lower, upper


def estimate_mu(counts: CountTable) -> list[tuple[int, float, float]]:
    """Per-length growth estimates (n, counts[n]**(1/n), counts[n]/counts[n-1]).

    The n-th-root column converges to the connective constant from below for
    bridge tables; the ratio column converges much faster for rational
    generating functions with a simple dominant pole.
    """
    out = []
    for n in range(1, counts.n_max + 1):
        c = counts[n]
        prev = counts[n - 1]
        # Through the logarithm: counts outgrow the float range.
        nth_root = math.exp(math.log(c) / n) if c else 0.0
        ratio = c / prev if prev else float("inf")
        out.append((n, nth_root, ratio))
    return out
