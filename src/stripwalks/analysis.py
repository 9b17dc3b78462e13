"""Numerical layer: real-root isolation of denominator polynomials, and
conversion of radii of convergence into connective constants.

The least positive root of a denominator p is isolated exactly, by the
Vincent-Collins-Akritas descent over the dyadic cells of (0, 1), left cell
first.  A cell's polynomial is p mapped onto (0, 1); Descartes' rule of
signs on its Moebius image counts the cell's roots with multiplicity: no
sign variation proves the open cell root-free, one proves it holds exactly
one simple root.  The isolating cell is then narrowed to the requested
width by quadratic interval refinement: guesses checked by exact values at
dyadic points a/2^k, each the integer polynomial sum c_i 2^(k(d-i)) t^i
evaluated at t = a by shifts and integer Horner, with no fraction and no
gcd, so brackets are rigorous.  The first guess comes from Newton's method
in floats, and it only picks the first two probe points: their exact signs
confirm its cell or count as a miss, so a well-conditioned root costs two
exact evaluations.  Later guesses are integer secants, and the number of
evaluations grows like log log(1/tol), not log(1/tol).  The Taylor shifts
of the descent are running sums, and it computes none it does not read
(Rouillier and Zimmermann, J. Comput. Appl. Math. 162, 2004): a right
child's shift waits until the child is popped, so none is made once a left
child isolates the root, and the Descartes test counts sign variations as
the shifted coefficients become final, lowest degree first, stopping at the
second.  A repeated root shows two or more sign variations in every cell
around it, so the descent would not end there.  When the top cell (0, 1)
shows at most one, p has at most one root in it and that root is simple,
so the descent and the refinement run on p itself.  Only when the top cell
splits do they need the square-free part p / gcd(p, p'), which has the
same roots, each simple, and even then the gcd is skipped when a value of
gcd(p, p') at a power of two above every root proves it constant.

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
from itertools import accumulate, repeat
from operator import lshift, mul

from .genfunc import (
    IntPolynomial,
    W3_LOOP_POLYNOMIAL,
    W4_LOOP_DENOMINATOR,
    W4_LOWER_DENOMINATOR,
    _poly_gcd,
    _trusted_poly,
)
from .lattice import CountTable, _Frozen

DEFAULT_TOL = 1e-12
_MIN_SCALE = 10
# Newton steps before the float guess gives up; the roots of the package's
# denominators and truncated compositions take 5 to 11.
_FLOAT_STEPS = 16
# A secant step from scale k aims at scale 2k - _SLACK at most, until a
# miss.  Summing (kd)^2, the cost of each exact evaluation, over 167 roots
# (the exact digest's and 150 random (1 - f) g), 6 cost least at tol 1e-300
# and 1e-100 (4 cost 0.7 % and 2.1 % more, 8 cost 0.2 % and 0.6 % more), 4
# cost 0.8 % less at 1e-30, and from 1e-14 up all three cost the same.
_SLACK = 6


class RootResult(_Frozen):
    """A bracketed root of a polynomial and the derived growth constant."""

    __slots__ = ("root", "mu", "tolerance", "bracket")

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


def _descartes_test(cs: list[int]) -> int:
    """min(2, V) for the sign variations V of (x + 1)^d P(1 / (x + 1)), where
    cs holds the coefficients of P.

    Those are the coefficients of P reversed and Taylor-shifted by 1, built
    as :func:`_taylor_shift_1` builds them: after its pass over the first m
    entries, entry m - 1 is final, and it is the coefficient of degree
    d + 1 - m.  So the coefficients become final lowest degree first, and the
    count stops at the second variation without computing the rest.
    """
    r, last, v = cs, 0, 0
    while r:
        *r, c = accumulate(r)
        if c:
            if last and (c > 0) != (last > 0):
                v += 1
                if v == 2:
                    return 2
            last = c
    return v


def _isolate(p: IntPolynomial) -> tuple[int, int, int, int, int, IntPolynomial]:
    """(k, lo, hi, v_lo, v_hi, q) such that the least root of p on (0, 1] is
    lo / 2^k = hi / 2^k, or is the only root of q in the open cell
    (lo, hi) / 2^k with hi = lo + 1; q, which has the roots of p, is the
    polynomial the descent ran on, and v_lo and v_hi are the exact scaled
    values 2^(kd) q(lo / 2^k) and 2^(kd) q(hi / 2^k), which
    :func:`_refine` starts from.

    Depth first over the dyadic cells, left child first.  A cell's list cs
    holds the coefficients of P(x) = 2^(kd) q((a + x) / 2^k) on the cell
    (a, a + 1) / 2^k; its roots in (0, 1) correspond to the positive roots of
    (x + 1)^d P(1 / (x + 1)), whose sign variations V bound their number,
    counted with multiplicity, and match its parity.  So V = 0 leaves only
    the right end, where P(1) is the coefficient sum, and V = 1 isolates one
    simple root; :func:`_descartes_test` stops counting at V = 2, which only
    splits the cell.  P(0) = cs[0] and P(1) = sum(cs) are then the cell's
    scaled end values.  The left child's list is 2^d P(x / 2) and the right
    child's its Taylor shift, computed when the right child is popped: if
    the left child holds the root, it is never computed.

    A repeated root shows V >= 2 in every cell around it, and the descent
    would not end.  The descent starts on q = p, and if the top cell
    (0, 1) splits, p may have one there: unless :func:`_proved_square_free`
    rules that out, q becomes p / gcd(p, p'), which has the same roots,
    each simple, and if that lowers the degree the descent restarts on it.
    If the top cell does not split, p has at most one root in (0, 1), and
    a simple one, so no gcd is needed.
    """
    d, checked = p.degree, False
    pending = [(0, 0, list(p.coefficients), False)]
    while pending:
        k, a, cs, shift = pending.pop()
        if shift:
            cs = _taylor_shift_1(cs)
        v = _descartes_test(cs)
        if v == 1:
            return k, a, a + 1, cs[0], sum(cs), p
        if v == 0:
            if sum(cs) == 0:
                return k, a + 1, a + 1, 0, 0, p
            continue
        if not checked:  # the top cell (0, 1) splits
            checked = True
            if not _proved_square_free(p):
                q = _square_free_part(p)
                if q.degree < d:
                    p, d = q, q.degree
                    pending.append((0, 0, list(p.coefficients), False))
                    continue
        left = [c << (d - i) for i, c in enumerate(cs)]  # 2^d P(x / 2)
        pending += [(k + 1, 2 * a + 1, left, True), (k + 1, 2 * a, left, False)]
    raise ValueError("no root on (0, 1]; cannot bracket a root")


def _proved_square_free(p: IntPolynomial) -> bool:
    """Whether g = gcd(p(X), p'(X)) < X / 2 at X = 2^e, every root of p
    having modulus below X / 2; True proves p square-free.  Requires
    p(0) != 0, as :func:`smallest_positive_root` does.

    The primitive gcd G of p and p' divides both in Z[t], so G(X) divides
    g, which is positive as X is no root of p.  If G had degree >= 1, then
    |G(X)| >= prod |X - r| over its roots r, each a root of p, and so
    |G(X)| >= X - |r| > X / 2 > g: impossible.  Fujiwara's bound gives e:
    every root has |r| <= 2 max_i |c_(d-i) / c_d|^(1/i), and with b the bit
    lengths |c_(d-i) / c_d| < 2^(b_(d-i) - b_d + 1), so |r| < 2^(m + 1) for
    the largest m_i = ceil((b_(d-i) - b_d + 1) / i), and e = m + 2 puts
    every root below X / 2.  False proves nothing: p may still be
    square-free, with an unlucky g.  The two values are sums of shifted
    coefficients, with no multiplication by X.
    """
    cs = p.coefficients
    d = len(cs) - 1
    top = abs(cs[-1]).bit_length()
    m = max(-((top - 1 - abs(c).bit_length()) // i) for i, c in zip(range(d, 0, -1), cs) if c)
    e = max(m + 2, 1)
    value = sum(map(lshift, cs, range(0, e * (d + 1), e)))
    slope = sum(map(lshift, map(mul, cs[1:], range(1, d + 1)), range(0, e * d, e)))
    return 2 * math.gcd(value, slope) < 1 << e


def _square_free_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), with the sign of p at 0: the same roots, each simple."""
    derivative = IntPolynomial(tuple(i * c for i, c in enumerate(p.coefficients))[1:])
    return _poly_gcd(p, derivative)[1]


def _dyadic_value(p: IntPolynomial, x: int, k: int) -> int:
    """2^(kd) p(x / 2^k), an integer with the sign of p there: the integer
    polynomial sum c_i 2^(k(d-i)) t^i at t = x, shifts and Horner only."""
    if k == 0:  # range() takes no step 0
        return p(x)
    shifts = range(k * p.degree, -1, -k)
    return _trusted_poly(tuple(map(lshift, p.coefficients, shifts)))(x)


def _float_root(p: IntPolynomial, lo: float, hi: float) -> tuple[float, float] | None:
    """(t, e): a float t near the root of p in the cell (lo, hi), where p
    changes sign from positive to non-positive, and an estimate e of its
    error; None if float arithmetic breaks down.

    Newton's method in floats from the midpoint, with a bisection step in
    place of any step that leaves the bracket, which the sign of each
    value narrows.  Each step makes the powers of t and two dot products,
    all in C loops.  While the method converges its steps shrink and bound
    t's error; once the rounding noise of the float values dominates they
    stop shrinking, and the first step that does not shrink measures that
    noise.  So it stops there, at a step within one unit in the last place
    of t, or after ``_FLOAT_STEPS`` steps, and e is the last step, at least
    that unit.  Nothing here is exact: :func:`_refine` only picks its first
    probe points with it.
    """
    try:
        cs = list(map(float, p.coefficients))
    except OverflowError:
        return None
    ds = list(map(mul, cs[1:], range(1, len(cs))))  # p'
    t, last = (lo + hi) / 2, math.inf
    for _ in range(_FLOAT_STEPS):
        powers = list(accumulate(repeat(t, len(ds)), mul, initial=1.0))
        v, dv = sum(map(mul, cs, powers)), sum(map(mul, ds, powers))
        step = abs(v / dv) if dv else math.inf
        if not step < last:  # also nan, from an overflow
            break
        if v > 0:
            lo = t
        else:
            hi = t
        new = t - v / dv
        t, last = new if lo <= new <= hi else (lo + hi) / 2, step
        if step <= math.ulp(t):
            break
    return (t, max(step, math.ulp(t))) if step < math.inf else None


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
    subcells, guesses the root's one, and evaluates that subcell's ends;
    their exact signs decide, whatever the guess.  A hit keeps the subcell
    and doubles the reach, the largest j a step may take.  A miss shows on
    which side the root lies, and the line through the two fresh values,
    which lie close to it, picks the next subcell on that side at the same
    j; a second miss in a row bisects and halves the reach.

    The first guess is :func:`_float_root`'s: j goes straight to the scale
    whose cells are 16 times its error estimate, or to the given scale if
    that is coarser, and the subcell is the one that holds the float.  A
    well-conditioned root then takes one step of two evaluations.  Every
    later guess is the secant through the cell's ends.  Its error from a
    cell of width w is at most C w^2, C = max |p''| / (8 min |p'|) on the
    cell, so each hit squares it and the cell narrows in O(log log(1 / tol))
    evaluations instead of one per bit.  A step from scale k reaches at
    most scale 2k - slack, where that error is C 2^-slack of a subcell; the
    slack starts at ``_SLACK`` and grows by one with each miss, so a large
    C costs a few misses, not one per step.  The step aims at the lowest
    scale from which as many such steps still reach the given one: an
    evaluation at scale k costs about k^2, so the dear last steps start as
    low as they can.
    """
    d = p.degree
    reach, m, slack = 1, None, _SLACK
    guess = _float_root(p, a / (1 << k), (a + 1) / (1 << k))
    if guess is not None:
        t, e = guess
        s = min(scale, -math.frexp(16 * e)[1])
        if s > k:
            j = reach = s - k
            extrapolate = True
            m = min(max(int(math.ldexp(t, s)) - (a << j), 0), (1 << j) - 1)
    while k < scale:
        if m is None:
            # The lowest scale from which steps to 2k - slack reach `scale`
            # in as many steps as from 2k - slack itself.
            s = scale
            if k > slack:
                while s > 2 * k - slack:
                    s = (s + slack + 1) // 2
            j = min(reach, s - k)
            # Integer secant: a float one loses the bits past 53 that large j needs.
            m = min((v_lo << j) // (v_lo - v_hi), (1 << j) - 1)
            extrapolate = True
        last = (1 << j) - 1
        x = (a << j) + m
        v_x = v_lo << (d * j) if m == 0 else _dyadic_value(p, x, k + j)
        v_y = v_hi << (d * j) if m == last else _dyadic_value(p, x + 1, k + j)
        if v_x == 0:
            return k + j, x, x
        if v_y == 0 and m < last:
            return k + j, x + 1, x + 1
        if v_x > 0 >= v_y:
            a, k, v_lo, v_hi = x, k + j, v_x, v_y
            reach, m = 2 * reach, None
            continue
        slack += 1
        if extrapolate and j > 1:
            # The root is right of x + 1 if v_y > 0, else left of x; the
            # line through the two values crosses zero m + step subcells in.
            step = v_x // (v_x - v_y) if v_x != v_y else 0
            m = min(max(m + step, m + 1), last) if v_y > 0 else max(min(m + step, m - 1), 0)
            extrapolate = False
            continue
        # A miss: at j = 1 the fresh value is the midpoint's already.
        v_mid = (v_y if m == 0 else v_x) if j == 1 else _dyadic_value(p, 2 * a + 1, k + 1)
        if v_mid == 0:
            return k + 1, 2 * a + 1, 2 * a + 1
        if v_mid > 0:
            a, v_lo, v_hi = 2 * a + 1, v_mid, v_hi << d
        else:
            a, v_lo, v_hi = 2 * a, v_lo << d, v_mid
        k, reach, m = k + 1, max(j // 2, 1), None
    return k, a, a + 1


def smallest_positive_root(p: IntPolynomial, tol: float = DEFAULT_TOL) -> RootResult:
    """Least t in (0, 1] with p(t) = 0, bracketed to tol with an exact certificate.

    The bracket is the cell [lo, lo + 1] / 2^s of the first scale s >= 10
    with 2^-s <= tol that holds the root, or the root itself if it is a
    point of that grid.  The certificate is exact: on a polynomial q with
    the roots of p, Descartes' rule finds no root in each dyadic cell left
    of the isolating one and exactly one, a simple one, in that one, so p
    has no root on (0, lo / 2^s), and the exact signs of q at the bracket's
    ends hold the root between them.  q is p itself when the top cell
    (0, 1) shows at most one sign variation, and otherwise the square-free
    part p / gcd(p, p'), unless a cheap test proves p square-free: the gcd
    runs only when the top cell splits.  A float guess only picks where the
    refinement probes first; it decides nothing.  Roots of any multiplicity
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

    k, lo, hi, v_lo, v_hi, p = _isolate(p)
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
