"""Exact integer polynomials, rational generating functions, and the
irreducible-bridge alphabet compositions for the width-3 and width-4 strips.

Everything here is exact over unbounded integers; no floating point is used.
Rational functions are *not* reduced to lowest terms automatically -- sums and
products simply multiply numerators and denominators -- and equality is tested
by cross-multiplication.  This keeps the composed functions in the same
unreduced shape as the published quotients they are checked against; an
explicit :meth:`RationalGF.reduced` is available where a cancelled form is
wanted.  Only :meth:`RationalGF.series` reduces on its own, internally: the
coefficients are the same, and the recurrence is shorter.  The gcd behind
both is the heuristic integer gcd of :func:`_poly_gcd`.  When its candidate
is the constant 1, that is the gcd by the function's own correctness
argument, and it returns the operands as their quotients with no division;
most gcds of the compositions are 1.

Large products and every exact quotient use Kronecker substitution
(Harvey, J. Symbolic Comput. 44, 2009): a polynomial with coefficients
below 2^(w - 1) in modulus is the integer a(2^w) in balanced base-2^w
digits, so one big-integer product or ``divmod`` replaces the schoolbook
loops.  Packing writes each coefficient plus 2^(w - 1) as one little-endian
slot of whole bytes and takes the offsets off at once; unpacking adds them
back and reads the slots, so both take linear time.  The slot widths are
proved, not guessed:

* a product a b has |c_k| <= min(len a, len b) max|a_i| max|b_j|, so
  w = bits(max|a_i|) + bits(max|b_j|) + bits(min(len a, len b)) + 1 holds it;
* an exact quotient q = a / b has |q_i| <= C(deg q, i) M(q) <= 2^(deg q)
  ||a||_1 < 2^m, m = bits(||a||_1) + deg q, by Mahler's measure, since
  M(q) = M(a) / M(b) and M(b) >= |lc(b)| >= 1.  With
  w = m + bits(max|b_j|) + bits(min(len q, len b)) + 1 the slots hold q and
  also b times any q with coefficients below 2^m, so a zero remainder whose
  quotient digits lie below 2^m proves q b = a digit by digit, with no
  multiplication; any other outcome proves the division inexact.  A slot too
  narrow for a true quotient cannot happen, which matters beyond speed:
  :func:`_poly_gcd` reads a refusal as a wrong candidate and tries a larger
  X.

Products whose shorter factor has fewer than ``_KRONECKER_MIN``
coefficients stay schoolbook, which is faster there, since packing costs a
few microseconds whatever the size; the constant's comment gives the
measurement.  Quotients have one path: they are few (a gcd of 1 divides
nothing), so a second loop for small ones would save too little to keep.
"""

from __future__ import annotations

from math import gcd
from operator import lshift, mul
from typing import Iterable, Mapping

from .lattice import BRIDGE_TYPES, _check_int, _Frozen, _new_instance, _set_field


class IntPolynomial(_Frozen):
    """A polynomial in t with exact integer coefficients, ascending powers.

    Normal form has no trailing zero coefficient; the zero polynomial is the
    empty coefficient tuple and has degree -1.  ``coefficients`` is stored as
    a tuple, whatever iterable it was given as.  Every coefficient must be an
    ``int`` (not a ``bool``); the kernels below, whose coefficients are ints
    by construction, build through :func:`_trusted_poly` without the check.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]) -> None:
        coefficients = _checked(coefficients)
        if coefficients and coefficients[-1] == 0:
            raise ValueError("coefficients must be in normal form (no trailing zeros)")
        _set_field(self, "coefficients", coefficients)

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        return _trusted_poly(_checked(coeffs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, power: int) -> int:
        _check_int("power", power)
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return 0

    @property
    def constant_term(self) -> int:
        return self.coefficient(0)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _trusted_poly(out)

    def __neg__(self) -> "IntPolynomial":
        return _trusted_poly([-c for c in self.coefficients])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial.zero()
        shorter = min(len(a), len(b))
        if shorter >= _KRONECKER_MIN:
            # |c_k| <= shorter max|a_i| max|b_j| < 2^(bits - 1), whole bytes.
            bits = (
                max(map(abs, a)).bit_length()
                + max(map(abs, b)).bit_length()
                + shorter.bit_length()
                + 1
            )
            nb = (bits + 7) // 8
            product = _packed(a, nb) * _packed(b, nb)
            return _trusted_poly(_unpacked(product, len(a) + len(b) - 1, nb))
        out = [0] * (len(a) + len(b) - 1)
        b_terms = [(j, cb) for j, cb in enumerate(b) if cb]
        for i, ca in enumerate(a):
            if ca:
                for j, cb in b_terms:
                    out[i + j] += ca * cb
        return _trusted_poly(out)

    def unshift(self, k: int) -> "IntPolynomial":
        """Divide exactly by t**k, for an ``int`` k >= 0."""
        _check_int("k", k, 0)
        if any(c != 0 for c in self.coefficients[:k]):
            raise ValueError(f"polynomial is not divisible by t^{k}")
        return _trusted_poly(self.coefficients[k:])

    def __call__(self, t):
        """p(t) by Horner in the arithmetic of t: an int gives an int, a
        ``Fraction`` a ``Fraction`` and a complex a complex, the zero
        polynomial included."""
        acc = 0 * t
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def evaluate_complex(self, z: complex) -> complex:
        # Nothing in the package calls this.  It goes through __call__, so
        # under bench/tracing.py a call would also count as an exact
        # evaluation; add no caller before ROADMAP item 2 deletes it.
        return self(complex(z))

    def pretty(self) -> str:
        """Render in the conventional ``a + b t + c t^2`` style."""
        if self.is_zero:
            return "0"
        parts = []
        for p, c in enumerate(self.coefficients):
            if c == 0:
                continue
            mag = abs(c)
            if p == 0:
                term = str(mag)
            else:
                t_part = "t" if p == 1 else f"t^{p}"
                term = t_part if mag == 1 else f"{mag}{t_part}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


_INT_ONLY = frozenset((int,))


def _checked(coefficients: Iterable[int]) -> tuple[int, ...]:
    """The coefficients as a tuple, each refused by ``_check_int`` unless an ``int``."""
    coefficients = tuple(coefficients)
    if not _INT_ONLY.issuperset(map(type, coefficients)):
        for i, c in enumerate(coefficients):
            _check_int(f"coefficient {i}", c)
    return coefficients


def _trusted_poly(coefficients: list[int] | tuple[int, ...]) -> IntPolynomial:
    """An ``IntPolynomial`` on ``coefficients`` without trailing zeros, built
    without ``__init__`` and its checks: only for ``int`` coefficients, as
    the kernels of this module produce from ``int`` operands."""
    end = len(coefficients)
    while end and coefficients[end - 1] == 0:
        end -= 1
    p = _new_instance(IntPolynomial)
    _set_field(p, "coefficients", tuple(coefficients[:end]))
    return p


def _poly(*coeffs: int) -> IntPolynomial:
    return IntPolynomial.from_coefficients(coeffs)


# --- Kronecker substitution ------------------------------------------------

# A product whose shorter factor has at least this many coefficients is one
# big-integer product; smaller ones stay schoolbook.  Square products with
# 20-bit coefficients, schoolbook against packed (best of 9 x 400 runs,
# 2-core Xeon, Python 3.11): at 8 coefficients 7.0 / 10.1 us, at 12 about
# even (13.7 / 13.1), at 16 23.5 / 16.8; with 4-bit coefficients packing
# wins from 16 on.  The algebra workload's products have shorter factors of
# 1-11 coefficients and of 18-61.
_KRONECKER_MIN = 16


def _offsets(n: int, nb: int) -> int:
    """2^(8 nb - 1) in each of n slots of nb bytes."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _packed(cs: tuple[int, ...], nb: int) -> int:
    """The value sum c_i 2^(8 nb i) for |c_i| < 2^(8 nb - 1): each c_i plus
    that offset is one nb-byte slot, and the offsets are taken off at once."""
    off = 1 << (8 * nb - 1)
    slots = b"".join([(c + off).to_bytes(nb, "little") for c in cs])
    return int.from_bytes(slots, "little") - _offsets(len(cs), nb)


def _unpacked(v: int, n: int, nb: int) -> list[int]:
    """The n balanced base-2^(8 nb) digits of v, each of modulus below
    2^(8 nb - 1), lowest first: the inverse of :func:`_packed`.  Raises
    OverflowError if v has no such digits."""
    off = 1 << (8 * nb - 1)
    slots = (v + _offsets(n, nb)).to_bytes(n * nb, "little")
    from_bytes = int.from_bytes
    return [from_bytes(slots[i : i + nb], "little") - off for i in range(0, n * nb, nb)]


# --- gcd reduction by the heuristic integer gcd ----------------------------


def _poly_gcd(
    a: IntPolynomial, b: IntPolynomial
) -> tuple[IntPolynomial, IntPolynomial, IntPolynomial]:
    """(g, a / g, b / g) for the greatest common divisor g of a and b, not
    both zero, as a primitive integer polynomial with a positive constant
    term; the exact quotients come from the final check.  Each caller
    passes one operand with constant term 1: a denominator, or a polynomial
    to make square-free.  The gcd divides it, so its constant term is 1 and
    so is that of the quotient.

    Heuristic integer gcd (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989; Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 7.7)
    at X = 2^e, with e = bits(2 min(|a|, |b|) + 1) over the non-zero
    operands' largest coefficients, so that X >= 2 min(|a|, |b|) + 2.  The
    values a(X) and b(X) are sums of shifted coefficients; the balanced
    base-X digits of their integer gcd, each in (-X / 2, X / 2], are read
    back with masks and shifts as a polynomial, and its primitive part is
    the gcd if it divides both a and b; otherwise e grows by 2 and the step
    repeats.

    Correct: by Cauchy's bound every root of the smaller operand has modulus
    below X / 2, so each non-constant integer factor q of it has
    |q(X)| > X / 2, more than the content of the digits, none of which
    exceeds X / 2.  If the primitive candidate c divides both operands,
    their gcd is c q with q(X) dividing that content, so q is constant and
    c is the gcd.
    Terminates: with a = g A and b = g B, gcd(a(X), b(X)) is |g(X)| times
    a divisor of a bound that does not depend on X -- the resultant of the
    cofactors A and B, or a constant cofactor -- so a large enough X reads
    g back exactly.
    """
    fa, fb = a.coefficients, b.coefficients
    e = (2 * min(max(map(abs, f)) for f in (fa, fb) if f) + 1).bit_length()
    while True:
        shifts = range(0, e * max(len(fa), len(fb)), e)
        g = gcd(sum(map(lshift, fa, shifts)), sum(map(lshift, fb, shifts)))
        x = 1 << e
        digits = []
        while g:
            d = g & (x - 1)
            g >>= e
            if 2 * d > x:
                d, g = d - x, g + 1
            digits.append(d)
        content = -gcd(*digits) if digits[0] < 0 else gcd(*digits)
        candidate = _trusted_poly([c // content for c in digits])
        if len(digits) == 1:
            # The candidate 1 divides both, so by the argument above it is
            # the gcd, and the quotients are a and b.
            return candidate, a, b
        try:
            return candidate, _poly_exact_div(a, candidate), _poly_exact_div(b, candidate)
        except ValueError:
            e += 2


def _poly_exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """a / b for an integer quotient; raises ValueError if it is not exact
    or b is zero.

    One integer divmod of a(2^w) by b(2^w) decides it, with w and its proof
    as in the module docstring: m bounds the bits of an exact quotient's
    coefficients, and w leaves room for b times such a quotient.  A divisor
    longer than the dividend divides only the zero polynomial.
    """
    r, bs = a.coefficients, b.coefficients
    if not bs:
        raise ValueError("division by the zero polynomial")
    n = len(r) - len(bs) + 1
    if n < 1:
        if r:
            raise ValueError("polynomial division is not exact")
        return a
    m = sum(map(abs, r)).bit_length() + n - 1
    bits = m + max(map(abs, bs)).bit_length() + min(n, len(bs)).bit_length() + 1
    nb = (bits + 7) // 8
    value, rem = divmod(_packed(r, nb), _packed(bs, nb))
    if not rem:
        try:
            q = _unpacked(value, n, nb)
        except OverflowError:
            pass
        else:
            if max(map(abs, q)).bit_length() <= m:
                return _trusted_poly(q)
    raise ValueError("polynomial division is not exact")


class RationalGF(_Frozen):
    """A ratio of integer polynomials with denominator constant term 1.

    The constant term of the denominator is normalized to +1 at construction
    (a constant term of -1 flips both signs; 0 is rejected, as every counting
    series here is an ordinary power series).
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: IntPolynomial, denominator: IntPolynomial) -> None:
        c = denominator.constant_term
        if c == 0:
            raise ValueError("denominator constant term must be non-zero")
        if c < 0:
            numerator, denominator = -numerator, -denominator
        if denominator.constant_term != 1:
            raise ValueError("denominator constant term must be +1 or -1")
        _set_field(self, "numerator", numerator)
        _set_field(self, "denominator", denominator)

    @classmethod
    def from_polynomial(cls, p: IntPolynomial) -> "RationalGF":
        return cls(p, IntPolynomial.one())

    @classmethod
    def zero(cls) -> "RationalGF":
        return cls(IntPolynomial.zero(), IntPolynomial.one())

    @classmethod
    def one(cls) -> "RationalGF":
        return cls(IntPolynomial.one(), IntPolynomial.one())

    def __add__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __sub__(self, other: "RationalGF") -> "RationalGF":
        return self + RationalGF(-other.numerator, other.denominator)

    def __mul__(self, other: "RationalGF") -> "RationalGF":
        return RationalGF(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __hash__(self) -> int:
        raise TypeError("RationalGF is not hashable (equality is by cross-multiplication)")

    def star(self) -> "RationalGF":
        """1/(1 - g), the generating function of arbitrary concatenations.

        Requires g(0) = 0; otherwise the geometric series diverges.
        """
        if self.numerator.constant_term != 0:
            raise ValueError("star requires a generating function with zero constant term")
        return RationalGF(self.denominator, self.denominator - self.numerator)

    def series(self, n_max: int) -> tuple[int, ...]:
        """The first n_max + 1 Taylor coefficients, exactly.

        Uses the linear recurrence a_n = num_n - sum_{k>=1} den_k a_{n-k}
        induced by the denominator of :meth:`reduced`: N/D and (N/g)/(D/g)
        are the same power series because g(0) = 1, and the recurrence is
        shorter.
        """
        _check_int("n_max", n_max, 0)
        gf = self.reduced()
        num, den = gf.numerator.coefficients, gf.denominator.coefficients
        d = len(den) - 1
        # -den_d, ..., -den_1 against a_{n-d}, ..., a_{n-1}; d leading zeros
        # stand for the terms before a_0.
        weights = [-c for c in reversed(den[1:])]
        out = [0] * d
        for n in range(n_max + 1):
            out.append((num[n] if n < len(num) else 0) + sum(map(mul, weights, out[n : n + d])))
        return tuple(out[d:])

    def reduced(self) -> "RationalGF":
        """The same function with the numerator/denominator gcd cancelled.

        A zero numerator has the denominator's primitive part as its gcd, so
        it comes out as 0 / 1; a constant gcd is 1 and leaves both as they are.
        """
        _, numerator, denominator = _poly_gcd(self.numerator, self.denominator)
        return RationalGF(numerator, denominator)

    def pretty(self) -> str:
        return f"({self.numerator.pretty()}) / ({self.denominator.pretty()})"


ONE_MINUS_T = _poly(1, -1)
TAIL_GF = RationalGF(IntPolynomial.one(), ONE_MINUS_T)  # 1 / (1 - t)


# ---------------------------------------------------------------------------
# Alphabet atoms
# ---------------------------------------------------------------------------


def atoms_width3() -> dict[str, RationalGF]:
    """Generating functions of the width-3 irreducible bridge types.

    OI counts the single outer-to-inner shape per length, IO the two
    inner-to-outer ones, and OO the outer-to-outer staircases, each with an
    arbitrary tail of leading right steps.
    """
    oi = RationalGF(_poly(0, 0, 1), ONE_MINUS_T)
    io = RationalGF(_poly(0, 0, 2), ONE_MINUS_T)
    # Tailless staircases have one shape per length divisible by 3.
    oo = RationalGF(_poly(0, 0, 0, 1), _poly(1, 0, 0, -1)) * TAIL_GF
    return {"OI": oi, "IO": io, "OO": oo}


def atoms_width4_lower() -> dict[str, RationalGF]:
    """Width-4 atoms restricted to bridges that never step left.

    These undercount every type, so the composed series is a lower bound for
    the bridge counts.
    """
    return {
        "II": RationalGF(_poly(0, 0, 1), ONE_MINUS_T),
        "OI": RationalGF(_poly(0, 0, 1, 1), ONE_MINUS_T),
        "IO": RationalGF(_poly(0, 0, 1, 1), ONE_MINUS_T),
        "OO": RationalGF(_poly(0, 0, 0, 0, 1), ONE_MINUS_T),
    }


# Common denominator (1 - 2t + t^2 - t^4)(1 - t) of the width-4 upper atoms.
TWO_ROW_DENOMINATOR = _poly(1, -2, 1, 0, -1)
UPPER_ATOM_DENOMINATOR = TWO_ROW_DENOMINATOR * ONE_MINUS_T

# Numerators of the width-4 upper-bound atoms over UPPER_ATOM_DENOMINATOR.
UPPER_ATOM_NUMERATORS = {
    "OO": _poly(0, 0, 0, 0, 1, -2, 1, 4, -9, 4, 7, -18, 11, 12, 756, -286, 301, 474),
    "IO": _poly(0, 0, 1, -1, -1, 1, 0, -3, 2, -1, -2, 6, -9, 9, 289, -113, 115, 180),
    "OI": _poly(0, 0, 1, -1, -1, 1, 0, -3, 2, -1, -2, 6, -9, 9, 289, -113, 115, 180),
    "II": _poly(0, 0, 1, -2, 1, 0, -1, 0, 0, 0, 0, 0, 1, 0, 302, -114, 115, 186),
}

# Generating functions of the transformed two-row walks, per type.
TRANSFORMED_WALK_GFS = {
    "OO": RationalGF(_poly(0, 0, 1), TWO_ROW_DENOMINATOR),
    "IO": RationalGF(_poly(0, 1, -1), TWO_ROW_DENOMINATOR),
    "OI": RationalGF(_poly(0, 1, -1), TWO_ROW_DENOMINATOR),
    "II": RationalGF(_poly(0, 0, 1), TWO_ROW_DENOMINATOR),
}

# Right steps added by the transformation, i.e. the power of t divided out.
ADDED_STEPS = {"OO": 2, "IO": 1, "OI": 1, "II": 0}

# Coefficient corrections subtracted from the transformed-walk series before
# the tail is restored; each is justified by exhaustive search over the
# tailless irreducible bridges of length <= 13.
CORRECTION_POLYNOMIALS = {
    "OO": _poly(1, 2, 3, 4, 5, 10, 17, 24, 45, 72, 109, 188, 301, 474),
    "IO": _poly(1, 1, 0, 0, 2, 4, 6, 11, 16, 26, 44, 67, 115, 180),
    "OI": _poly(1, 1, 0, 0, 2, 4, 6, 11, 16, 26, 44, 67, 115, 180),
    "II": _poly(0, 0, 0, 2, 3, 4, 6, 10, 17, 28, 45, 72, 115, 186),
}


def atoms_width4_upper() -> dict[str, RationalGF]:
    """Width-4 atoms that overcount every type (upper-bound composition)."""
    return {
        t: RationalGF(UPPER_ATOM_NUMERATORS[t], UPPER_ATOM_DENOMINATOR)
        for t in BRIDGE_TYPES
    }


def upper_atom_from_pipeline(bridge_type: str) -> RationalGF:
    """Rebuild one upper atom from the transformed-walk generating function.

    Pipeline: divide the transformed-walk function by t**added (undoing the
    inserted right steps), subtract the correction polynomial, and restore
    the tail by multiplying with 1/(1-t).
    """
    if bridge_type not in BRIDGE_TYPES:
        raise ValueError(f"unknown bridge type {bridge_type!r}")
    base = TRANSFORMED_WALK_GFS[bridge_type]
    unshifted = RationalGF(
        base.numerator.unshift(ADDED_STEPS[bridge_type]), base.denominator
    )
    corrected = unshifted - RationalGF.from_polynomial(
        CORRECTION_POLYNOMIALS[bridge_type]
    )
    return corrected * TAIL_GF


# ---------------------------------------------------------------------------
# Bridge-code compositions
# ---------------------------------------------------------------------------


def _require_atoms(atoms: Mapping[str, RationalGF], needed: tuple[str, ...]) -> None:
    missing = [t for t in needed if t not in atoms]
    if missing:
        raise ValueError(f"missing atoms for types {missing}")


def _bridge_code_parts(
    atoms: Mapping[str, RationalGF], width: int
) -> tuple[RationalGF, RationalGF, RationalGF]:
    """The loop body IO OO* OI II*, the prefix IO OO* and II* of the bridge code.

    Width 3 is width 4 over an alphabet with no inner-to-inner type: its II*
    is 1 and its loop body IO OO* OI.  A factor 1/1 leaves every coefficient
    tuple as it is, and exact polynomial products commute, so neither the
    extra factor nor the order of the factors changes a coefficient.
    """
    _check_int("width", width)
    if width not in (3, 4):
        raise ValueError(f"width must be 3 or 4, got {width}")
    _require_atoms(atoms, ("IO", "OO", "OI", "II")[:width])
    io_oo_star = atoms["IO"] * atoms["OO"].star()
    ii_star = atoms["II"].star() if width == 4 else RationalGF.one()
    return ii_star * (atoms["OI"] * io_oo_star), io_oo_star, ii_star


def compose_bridge_code(atoms: Mapping[str, RationalGF], width: int) -> RationalGF:
    """Generating function of all bridges, composed from the alphabet atoms.

    Width 4 realizes the code [II* IO OO* OI]* II* ~(IO OO*) r*; width 3 is
    the same word with II* = 1, [IO OO* OI]* ~(IO OO*) r*.  The tilde factor
    is (1 + IO OO*) and the trailing right-step run contributes 1/(1-t).
    """
    loop, io_oo_star, ii_star = _bridge_code_parts(atoms, width)
    return loop.star() * (RationalGF.one() + io_oo_star) * TAIL_GF * ii_star


def important_part_denominator(atoms: Mapping[str, RationalGF], width: int) -> IntPolynomial:
    """Denominator of the starred loop body of the bridge code, exactly as
    the star produces it from the atoms' unreduced product.

    The loop body is IO OO* OI II*, where width 3 has II* = 1.  The
    denominator keeps the factors it shares with the star's numerator;
    :meth:`RationalGF.reduced` of the starred loop body cancels them.  For
    the published atoms the smallest positive root is the same either way,
    but the shared factors do not only vanish at t = 1.  On width 3 they are
    (1 - t)^2, and the rest is the degree-6 core ``W3_LOOP_POLYNOMIAL``.  On
    the width-4 upper atoms they are ``UPPER_ATOM_DENOMINATOR**2``, whose
    factor 1 - t - t^2 vanishes at 1/phi ~ 0.618, above the loop root
    ~ 0.4617; so the degree-44 denominator is not square-free.
    """
    return _bridge_code_parts(atoms, width)[0].star().denominator


# ---------------------------------------------------------------------------
# Published reference forms reproduced by the compositions above
# ---------------------------------------------------------------------------

# Width-3 bridge generating function, displayed quotient.
W3_BRIDGE_NUMERATOR = _poly(1, -5, 12, -22, 35, -47, 56, -58, 49, -37, 25, -11, 2)
W3_BRIDGE_DENOMINATOR = _poly(
    1, -6, 15, -24, 35, -48, 53, -46, 31, -16, 4, 10, -17, 10, -2
)

# Reduced denominator of the width-3 loop star: 1 - t - 2t^3 - t^4 - 2t^5 - 2t^6.
W3_LOOP_POLYNOMIAL = _poly(1, -1, 0, -2, -1, -2, -2)

# Width-4 lower-bound generating function, displayed quotient.
W4_LOWER_NUMERATOR = _poly(1, -1, 1, 1, -1)
W4_LOWER_DENOMINATOR = _poly(1, -2, 0, 1, -2, -1)

# Width-4 loop-star denominator (degree 44), displayed expansion.
W4_LOOP_DENOMINATOR = IntPolynomial(
    (
        1, -12, 65, -209, 434, -568, 338, 305, -907, 770,
        292, -1462, 1406, 446, -3945, 13408, -42903, 101573, -158117, 136952,
        4507, -182921, 225943, -49787, -215357, 317489, -108470, -314100, 801774, -1620468,
        3204285, -4939210, 4697564, -1024682, -3939143, 5903640, -3220560, -980952, 2685716, -1510904,
        -162295, 605850, -239118, -42432, 55764,
    )
)
