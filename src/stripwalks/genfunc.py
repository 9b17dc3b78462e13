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
both is the heuristic integer gcd of :func:`_poly_gcd`.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Mapping

from .lattice import BRIDGE_TYPES, _check_int, _Frozen, _set_field


class IntPolynomial(_Frozen):
    """A polynomial in t with exact integer coefficients, ascending powers.

    Normal form has no trailing zero coefficient; the zero polynomial is the
    empty coefficient tuple and has degree -1.  ``coefficients`` is stored as
    a tuple, whatever iterable it was given as.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]) -> None:
        coefficients = tuple(coefficients)
        if coefficients and coefficients[-1] == 0:
            raise ValueError("coefficients must be in normal form (no trailing zeros)")
        _set_field(self, "coefficients", coefficients)

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

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
        return IntPolynomial.from_coefficients(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        b_terms = [(j, cb) for j, cb in enumerate(b) if cb]
        for i, ca in enumerate(a):
            if ca:
                for j, cb in b_terms:
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def unshift(self, k: int) -> "IntPolynomial":
        """Divide exactly by t**k, for an ``int`` k >= 0."""
        _check_int("k", k, 0)
        if any(c != 0 for c in self.coefficients[:k]):
            raise ValueError(f"polynomial is not divisible by t^{k}")
        return IntPolynomial(self.coefficients[k:])

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


def _poly(*coeffs: int) -> IntPolynomial:
    return IntPolynomial.from_coefficients(coeffs)


# --- gcd reduction by the heuristic integer gcd ----------------------------


def _value_at(cs: tuple[int, ...], xi: int) -> int:
    """The polynomial with coefficients cs at the integer xi, by Horner.  Not
    IntPolynomial.__call__: the bench tracer counts those calls as root
    refinement evaluations."""
    acc = 0
    for c in reversed(cs):
        acc = acc * xi + c
    return acc


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
    1989; Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 7.7):
    with xi = 2 min(|a|, |b|) + 2 over the non-zero operands' largest
    coefficients, the balanced base-xi digits of gcd(a(xi), b(xi)) are read
    back as a polynomial, and its primitive part is the gcd if it divides
    both a and b; otherwise xi grows and the step repeats.

    Correct: by Cauchy's bound every root of the smaller operand has modulus
    below xi / 2, so each non-constant integer factor q of it has
    |q(xi)| > xi / 2, more than the content of the digits, none of which
    exceeds xi / 2.  If the primitive candidate c divides both operands,
    their gcd is c q with q(xi) dividing that content, so q is constant and
    c is the gcd.
    Terminates: with a = g A and b = g B, gcd(a(xi), b(xi)) is |g(xi)| times
    a divisor of a bound that does not depend on xi -- the resultant of the
    cofactors A and B, or a constant cofactor -- so a large enough xi reads
    g back exactly.
    """
    fa, fb = a.coefficients, b.coefficients
    xi = 2 * min(max(map(abs, f)) for f in (fa, fb) if f) + 2
    while True:
        g = gcd(_value_at(fa, xi), _value_at(fb, xi))
        digits = []
        while g:
            g, d = divmod(g, xi)
            if 2 * d > xi:
                g, d = g + 1, d - xi
            digits.append(d)
        content = -gcd(*digits) if digits[0] < 0 else gcd(*digits)
        candidate = IntPolynomial(tuple(c // content for c in digits))
        try:
            return candidate, _poly_exact_div(a, candidate), _poly_exact_div(b, candidate)
        except ValueError:
            xi = xi * 73794 // 27011  # the growth rule of Char, Geddes and Gonnet


def _poly_exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """a / b for an integer quotient; raises ValueError if it is not exact."""
    r, bs = list(a.coefficients), b.coefficients
    q = [0] * max(len(r) - len(bs) + 1, 0)
    for deg in reversed(range(len(q))):
        coef, rem = divmod(r[deg + len(bs) - 1], bs[-1])
        if rem:
            raise ValueError("polynomial division is not exact")
        q[deg] = coef
        for i, cb in enumerate(bs):
            r[deg + i] -= coef * cb
    if any(r):
        raise ValueError("polynomial division is not exact")
    return IntPolynomial.from_coefficients(q)


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
