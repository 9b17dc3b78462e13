"""Numerical layer: real-root isolation of denominator polynomials, and
conversion of radii of convergence into connective constants.

The least positive root of a denominator p is isolated exactly, by the
Vincent-Collins-Akritas descent over the dyadic cells of (0, 1), left cell
first.  A cell's polynomial is p mapped onto (0, 1); Descartes' rule of
signs on its Moebius image counts the cell's roots: no sign variation
proves the open cell root-free, one proves it holds exactly one simple
root.  The isolating cell is then narrowed to the requested width by
quadratic interval refinement: secant guesses checked by exact values at
dyadic points a/2^k, each the integer polynomial sum c_i 2^(k(d-i)) t^i
evaluated at t = a by shifts and integer Horner, with no fraction and no
gcd, so brackets are rigorous and the number of evaluations grows like
log log(1/tol), not log(1/tol).  The Taylor shifts of the descent are
running sums.  A repeated root shows two or more sign variations in every
cell around it, so the descent and the refinement run on the square-free
part p / gcd(p, p'), which has the same roots, each simple.

The roots isolated at run time are those of the published polynomials in
:mod:`stripwalks.genfunc`: the three-row loop polynomial (the paper's
shorter way to the three-row constant; the degree-14 bridge denominator
gives the same bracket, see :func:`connective_constant_width3`), the
four-row lower-bound denominator and the degree-44 loop denominator.  The
alphabet compositions reproduce each published polynomial, which the test
suite checks and ``stripwalks verify tables`` checks for the three-row
quotient and the degree-44 denominator.  Each of these denominators p, and
that of each truncated alphabet composition, is, up to a cofactor with no
root of smaller modulus, one whose reciprocal 1/p has non-negative
coefficients.  So its least positive root is also its root of least
modulus (Pringsheim), and no complex root needs to be checked.  The test
suite checks this on the first terms of each 1/p.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .genfunc import (
    IntPolynomial,
    W3_LOOP_POLYNOMIAL,
    W4_LOOP_DENOMINATOR,
    W4_LOWER_DENOMINATOR,
    _poly_gcd,
)
from .lattice import CountTable, _Frozen, _set_field

DEFAULT_TOL = 1e-12
_MIN_SCALE = 10


class RootResult(_Frozen):
    """A bracketed root of a polynomial and the derived growth constant."""

    __slots__ = ("root", "mu", "tolerance", "bracket")

    def __init__(
        self, root: float, mu: float, tolerance: float, bracket: tuple[float, float]
    ) -> None:
        _set_field(self, "root", root)
        _set_field(self, "mu", mu)
        _set_field(self, "tolerance", tolerance)
        _set_field(self, "bracket", bracket)

    def round6(self) -> tuple[float, float]:
        """(root, mu) rounded half-even to the conventional 6 decimals."""
        return (round(self.root, 6), round(self.mu, 6))


def _taylor_shift_1(cs: list[int]) -> list[int]:
    """Coefficients of P(x + 1), by additions only.

    Pass i replaces cs[i:] by its suffix sums, which on the reversed list
    is one running sum over its first len(cs) - i entries.
    """
    r = cs[::-1]
    for m in range(len(r), 1, -1):
        r[:m] = accumulate(r[:m])
    return r[::-1]


def _sign_variations(cs: list[int]) -> int:
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _isolate(p: IntPolynomial) -> tuple[int, int, int, int, int]:
    """(k, lo, hi, v_lo, v_hi) such that the least root of p on (0, 1] is
    lo / 2^k = hi / 2^k, or is the only root of p in the open cell
    (lo, hi) / 2^k with hi = lo + 1; v_lo and v_hi are the exact scaled
    values 2^(kd) p(lo / 2^k) and 2^(kd) p(hi / 2^k), which :func:`_refine`
    starts from.

    Depth first over the dyadic cells, left child first.  A cell's list cs
    holds the coefficients of P(x) = 2^(kd) p((a + x) / 2^k) on the cell
    (a, a + 1) / 2^k; its roots in (0, 1) correspond to the positive roots of
    (x + 1)^d P(1 / (x + 1)), whose sign variations V bound their number and
    match its parity.  So V = 0 leaves only the right end, where P(1) is the
    coefficient sum, and V = 1 isolates one simple root.  P(0) = cs[0] and
    P(1) = sum(cs) are then the cell's scaled end values.  p must be
    square-free: a repeated root shows V >= 2 in every cell around it, and
    the descent would not end.
    """
    d = p.degree
    pending = [(0, 0, list(p.coefficients))]
    while pending:
        k, a, cs = pending.pop()
        v = _sign_variations(_taylor_shift_1(cs[::-1]))
        if v == 1:
            return k, a, a + 1, cs[0], sum(cs)
        if v == 0:
            if sum(cs) == 0:
                return k, a + 1, a + 1, 0, 0
            continue
        left = [c << (d - i) for i, c in enumerate(cs)]  # 2^d P(x / 2)
        pending += [(k + 1, 2 * a + 1, _taylor_shift_1(left)), (k + 1, 2 * a, left)]
    raise ValueError("no root on (0, 1]; cannot bracket a root")


def _square_free_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), with the sign of p at 0: the same roots, each simple."""
    derivative = IntPolynomial(tuple(i * c for i, c in enumerate(p.coefficients))[1:])
    return _poly_gcd(p, derivative)[1]


def _dyadic_value(p: IntPolynomial, x: int, k: int) -> int:
    """2^(kd) p(x / 2^k), an integer with the sign of p there: the integer
    polynomial sum c_i 2^(k(d-i)) t^i at t = x, shifts and Horner only."""
    d = p.degree
    return IntPolynomial(tuple(c << k * (d - i) for i, c in enumerate(p.coefficients)))(x)


def _refine(
    p: IntPolynomial, k: int, a: int, v_lo: int, v_hi: int, scale: int
) -> tuple[int, int, int]:
    """(k, lo, hi): the isolating cell (a, a + 1) / 2^k, k <= scale, narrowed
    to the cell of the given scale that holds its root, or to the root if a
    dyadic point between hits it (lo = hi).  v_lo and v_hi are the cell's
    exact scaled end values as :func:`_isolate` returns them, so the
    refinement evaluates p only inside the cell.

    Quadratic interval refinement (Abbott 2014) on exact values: p has one
    simple root inside the cell, p > 0 at its left end and p <= 0 at its
    right end, which may be a larger root.  A step splits the cell into 2^j
    subcells, guesses the root's one from the secant through the cell's
    ends, and evaluates that subcell's ends.  A hit keeps it and doubles j;
    a miss halves j and bisects.  Each hit squares the secant's error, so
    once the secant is accurate the cell narrows in O(log log(1 / tol))
    evaluations instead of one per bit.
    """
    d = p.degree
    j = 1
    while k < scale:
        j = min(j, scale - k)
        last = (1 << j) - 1
        # Integer secant: a float one loses the bits past 53 that large j needs.
        m = min((v_lo << j) // (v_lo - v_hi), last)
        x = (a << j) + m
        v_x = v_lo << (d * j) if m == 0 else _dyadic_value(p, x, k + j)
        v_y = v_hi << (d * j) if m == last else _dyadic_value(p, x + 1, k + j)
        if v_x == 0:
            return k + j, x, x
        if v_y == 0 and m < last:
            return k + j, x + 1, x + 1
        if v_x > 0 >= v_y:
            a, k, v_lo, v_hi, j = x, k + j, v_x, v_y, 2 * j
            continue
        # A miss: at j = 1 the fresh value is the midpoint's already.
        v_mid = (v_y if m == 0 else v_x) if j == 1 else _dyadic_value(p, 2 * a + 1, k + 1)
        if v_mid == 0:
            return k + 1, 2 * a + 1, 2 * a + 1
        if v_mid > 0:
            a, v_lo, v_hi = 2 * a + 1, v_mid, v_hi << d
        else:
            a, v_lo, v_hi = 2 * a, v_lo << d, v_mid
        k, j = k + 1, max(j // 2, 1)
    return k, a, a + 1


def smallest_positive_root(p: IntPolynomial, tol: float = DEFAULT_TOL) -> RootResult:
    """Least t in (0, 1] with p(t) = 0, bracketed to tol with an exact certificate.

    The bracket is the cell [lo, lo + 1] / 2^s of the first scale s >= 10
    with 2^-s <= tol that holds the root, or the root itself if it is a
    point of that grid.  The certificate is exact: on the square-free part
    of p, which has the roots of p, each simple, Descartes' rule finds no
    root in each dyadic cell left of the isolating one and exactly one in
    that one, so p has no root on (0, lo / 2^s).  Roots of any multiplicity
    are found, and other roots may share the bracket.  Only real roots are
    examined: a complex root of smaller modulus is not ruled out here, and
    cannot exist when 1/p is a series with non-negative coefficients, as
    for every caller in this package.  Requires p(0) = 1; raises if p has
    no root on (0, 1].
    """
    if p.constant_term != 1:
        raise ValueError("expected a polynomial with constant term 1")
    if not tol > 0:  # also rejects nan
        raise ValueError("tolerance must be positive")
    scale = _MIN_SCALE
    while 2.0**-scale > tol:
        scale += 1

    p = _square_free_part(p)
    k, lo, hi, v_lo, v_hi = _isolate(p)
    if k > scale:
        # The descent went below the grid: round out to it.  An exact root
        # stays exact if it is a grid point.
        lo, hi, k = lo >> (k - scale), -(-hi >> (k - scale)), scale
    elif lo != hi:
        k, lo, hi = _refine(p, k, lo, v_lo, v_hi, scale)

    root = (lo + hi) / (2 << k)
    bracket = (lo / (1 << k), hi / (1 << k))
    return RootResult(root, 1.0 / root, tol, bracket)


def connective_constant_width3(tol: float = DEFAULT_TOL) -> RootResult:
    """Connective constant of the width-3 strip, from the degree-6 loop polynomial.

    The result is the reciprocal of the smallest positive root of
    ``W3_LOOP_POLYNOMIAL``, approximately 1.9146.  The degree-14 bridge
    denominator is that polynomial times a cofactor with no real root on
    [0, 53/100], an interval that holds the loop's least positive root.  The
    bracket depends only on the least positive root, so isolating the
    denominator would give the same bracket at every tolerance.  The test
    suite proves these facts exactly.
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
