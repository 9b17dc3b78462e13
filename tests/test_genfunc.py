import hashlib
import re
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import W3, W4, seq_mul
from stripwalks import (
    IntPolynomial,
    RationalGF,
    atoms_width3,
    atoms_width4_lower,
    atoms_width4_upper,
    compose_bridge_code,
    count_bridges,
    count_irreducible,
    important_part_denominator,
    upper_atom_from_pipeline,
)
from stripwalks import genfunc
from stripwalks.genfunc import (
    ADDED_STEPS,
    CORRECTION_POLYNOMIALS,
    ONE_MINUS_T,
    TAIL_GF,
    TRANSFORMED_WALK_GFS,
    TWO_ROW_DENOMINATOR,
    UPPER_ATOM_DENOMINATOR,
    W3_BRIDGE_DENOMINATOR,
    W3_BRIDGE_NUMERATOR,
    W3_LOOP_POLYNOMIAL,
    W4_LOWER_DENOMINATOR,
    W4_LOWER_NUMERATOR,
    W4_LOOP_DENOMINATOR,
    _bridge_code_parts,
    _poly,
    _poly_exact_div,
    _poly_gcd,
)

# One row per refusal of a bad argument: the call, the error and its whole
# message.
UNSHIFT_REFUSALS = {
    "negative": (lambda: _poly(0, 0, 5).unshift(-1), ValueError, "k must be >= 0, got -1"),
    "float": (lambda: _poly(0, 0, 5).unshift(1.0), TypeError, "k must be an int, got 1.0"),
    "bool": (lambda: _poly(0, 0, 5).unshift(True), TypeError, "k must be an int, got True"),
}
COEFFICIENT_REFUSALS = {
    "bool": (lambda: _poly(1, 2, 3).coefficient(True), TypeError, "power must be an int, got True"),
    "float": (lambda: _poly(1, 2, 3).coefficient(1.0), TypeError, "power must be an int, got 1.0"),
}
CONSTRUCTOR_REFUSALS = {
    "float": (lambda: IntPolynomial((1, 2.5)), TypeError, "coefficient 1 must be an int, got 2.5"),
    "bool": (lambda: IntPolynomial((1, True)), TypeError, "coefficient 1 must be an int, got True"),
    "from_coefficients": (
        lambda: IntPolynomial.from_coefficients([1.0]),
        TypeError,
        "coefficient 0 must be an int, got 1.0",
    ),
}
WIDTH_REFUSALS = {
    "float": (
        lambda: compose_bridge_code(atoms_width3(), 3.0), TypeError, "width must be an int, got 3.0"
    ),
    "bool": (
        lambda: important_part_denominator(atoms_width4_upper(), True),
        TypeError,
        "width must be an int, got True",
    ),
}
SERIES_REFUSALS = {
    "negative": (lambda gf: gf.series(-1), ValueError, "n_max must be >= 0, got -1"),
    "bool": (lambda gf: gf.series(True), TypeError, "n_max must be an int, got True"),
    "float": (lambda gf: gf.series(2.0), TypeError, "n_max must be an int, got 2.0"),
}

polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPolynomial.from_coefficients)
denominators = st.lists(st.integers(-4, 4), max_size=5).map(
    lambda cs: IntPolynomial.from_coefficients([1] + cs)
)
gfs = st.builds(RationalGF, polys, denominators)
zero_constant_gfs = st.builds(
    RationalGF,
    st.lists(st.integers(-9, 9), max_size=5).map(
        lambda cs: IntPolynomial.from_coefficients([0] + cs)
    ),
    denominators,
)


wide_polys = st.lists(st.integers(-10**6, 10**6), max_size=12).map(
    IntPolynomial.from_coefficients
)
fractions = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**4))
# At most four non-zero terms spread over degrees 0..30.
sparse_polys = st.dictionaries(st.integers(0, 30), st.integers(-9, 9), max_size=4).map(
    lambda terms: IntPolynomial.from_coefficients(
        [terms.get(i, 0) for i in range(max(terms, default=-1) + 1)]
    )
)
unit_constant_polys = st.lists(st.integers(-9, 9), max_size=5).map(
    lambda cs: IntPolynomial.from_coefficients([1] + cs)
)


# Coefficients for the Kronecker kernels: zeros, small ones of either sign,
# and large ones up to 2^300, on both sides of the size cutoff.
kronecker_coefficients = st.one_of(
    st.just(0), st.integers(-9, 9), st.integers(-(2**300), 2**300)
)
kronecker_polys = st.lists(
    kronecker_coefficients, max_size=2 * genfunc._KRONECKER_MIN + 4
).map(IntPolynomial.from_coefficients)
nonzero_kronecker_polys = kronecker_polys.filter(lambda p: not p.is_zero)

# A 35-term prefix of the four-row upper bridge series: times the atoms'
# 6-coefficient denominator, a 40-over-6 quotient like those root isolation
# divides in the algebra workload.
SERIES_35 = IntPolynomial.from_coefficients(
    compose_bridge_code(atoms_width4_upper(), 4).series(34)
)

# (f, g, h, content, power) for test_gcd_matches_sympy whose first gcd
# candidate is wrong, found by counting the refused divisions of random draws.
RETRY_EXAMPLE = (_poly(3, 9), _poly(1, 3), _poly(1, 2), 4, 1)


@contextmanager
def _cutoff(size):
    """Products whose shorter factor has at least ``size`` coefficients take
    the Kronecker path, inside the block."""
    saved = genfunc._KRONECKER_MIN
    genfunc._KRONECKER_MIN = size
    try:
        yield
    finally:
        genfunc._KRONECKER_MIN = saved


def _on_both_paths(call):
    """(schoolbook, Kronecker) results of call(), None for a ValueError."""
    results = []
    for size in (10**9, 1):
        with _cutoff(size):
            try:
                results.append(call())
            except ValueError:
                results.append(None)
    return tuple(results)


def schoolbook_div(a, b):
    """a / b by long division from the top coefficient, None if it is not
    exact: the reference that the Kronecker ``divmod`` of ``_poly_exact_div``
    is checked against."""
    r, bs = list(a.coefficients), b.coefficients
    q = [0] * max(len(r) - len(bs) + 1, 0)
    for deg in reversed(range(len(q))):
        coef, rem = divmod(r[deg + len(bs) - 1], bs[-1])
        if rem:
            return None
        q[deg] = coef
        for i, cb in enumerate(bs):
            r[deg + i] -= coef * cb
    return None if any(r) else IntPolynomial.from_coefficients(q)


def _exact_div_or_none(a, b):
    try:
        return _poly_exact_div(a, b)
    except ValueError:
        return None


def naive_horner(p: IntPolynomial, t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * t + c
    return acc


def naive_series(gf: RationalGF, n_max: int) -> tuple[int, ...]:
    """a_n = num_n - sum_{k=1}^{n} den_k a_{n-k}, term by term, on gf as given."""
    num, den = gf.numerator, gf.denominator
    out: list[int] = []
    for n in range(n_max + 1):
        out.append(
            num.coefficient(n) - sum(den.coefficient(k) * out[n - k] for k in range(1, n + 1))
        )
    return tuple(out)


def _ascending(sympy_poly) -> tuple[int, ...]:
    return tuple(int(c) for c in reversed(sympy_poly.all_coeffs()))


def _reduced_loop_denominator(atoms, width):
    """The loop star's denominator with its gcd with the numerator cancelled."""
    return _bridge_code_parts(atoms, width)[0].star().reduced().denominator


class TestIntPolynomial:
    def test_normal_form(self):
        assert IntPolynomial.from_coefficients([1, 2, 0, 0]).coefficients == (1, 2)
        assert IntPolynomial.from_coefficients([]).is_zero
        with pytest.raises(ValueError):
            IntPolynomial((1, 0))

    def test_degree(self):
        assert IntPolynomial.zero().degree == -1
        assert IntPolynomial.one().degree == 0
        assert _poly(1, 0, 3).degree == 2

    def test_arithmetic(self):
        p, q = _poly(1, 2), _poly(0, 1, 1)
        assert (p + q).coefficients == (1, 3, 1)
        assert (p - p).is_zero
        assert (p * q).coefficients == (0, 1, 3, 2)

    def test_shift_unshift(self):
        p = _poly(0, 0, 1, -1)
        assert p.unshift(2).coefficients == (1, -1)
        assert IntPolynomial.zero().unshift(3).is_zero
        with pytest.raises(ValueError):
            _poly(1, 1).unshift(1)

    @pytest.mark.parametrize("case", UNSHIFT_REFUSALS)
    def test_unshift_refuses_a_bad_k(self, case):
        call, error, message = UNSHIFT_REFUSALS[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("case", CONSTRUCTOR_REFUSALS)
    def test_refuses_a_non_int_coefficient(self, case):
        call, error, message = CONSTRUCTOR_REFUSALS[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("case", COEFFICIENT_REFUSALS)
    def test_coefficient_refuses_a_non_int_power(self, case):
        call, error, message = COEFFICIENT_REFUSALS[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_evaluate(self):
        p = _poly(1, -1, 0, -2)
        assert p(Fraction(1, 2)) == Fraction(1, 4)
        assert p(1) == -2

    @given(wide_polys, fractions)
    @example(IntPolynomial.zero(), Fraction(3, 7))
    @example(_poly(5), Fraction(-3, 7))
    @example(_poly(1, -1, 0, -2), Fraction(-5, 2))
    @example(_poly(1, -1, 0, -2), Fraction(4))
    @example(W4_LOOP_DENOMINATOR, Fraction(473, 1024))
    def test_call_matches_fraction_horner(self, p, t):
        value = p(t)
        assert value == naive_horner(p, t)
        assert isinstance(value, Fraction)

    @given(wide_polys, st.integers(-100, 100))
    @example(IntPolynomial.zero(), 3)
    @example(_poly(-4), -2)
    def test_call_at_integers_stays_integer(self, p, k):
        value = p(k)
        assert type(value) is int
        assert value == naive_horner(p, k)

    @pytest.mark.parametrize("t", [3, -2, Fraction(-5, 2), Fraction(4), 0.5 - 2j, 3 + 0j])
    @pytest.mark.parametrize("p", [IntPolynomial.zero(), _poly(-4), _poly(1, -1, 0, -2)])
    def test_call_result_has_the_type_of_t(self, p, t):
        value = p(t)
        assert type(value) is type(t)
        assert value == naive_horner(p, t)

    @given(
        wide_polys,
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    )
    @example(IntPolynomial.zero(), 2 - 1j)
    @example(W4_LOOP_DENOMINATOR, 0.473 + 0.25j)
    def test_evaluate_complex_matches_complex_horner(self, p, z):
        acc = 0j
        for c in reversed(p.coefficients):
            acc = acc * z + c
        value = p.evaluate_complex(z)
        assert type(value) is complex
        assert value == acc

    def test_pretty(self):
        assert _poly(1, -1, 0, -2, -1).pretty() == "1 - t - 2t^3 - t^4"
        assert IntPolynomial.zero().pretty() == "0"
        assert _poly(0, 0, 2).pretty() == "2t^2"

    @given(polys, polys)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(sparse_polys, sparse_polys)
    @example(_poly(0, 0, 0, 5), _poly(1, 0, 0, 0, 0, 0, -2))
    def test_mul_commutes_on_sparse_polynomials(self, p, q):
        assert p * q == q * p
        n = p.degree + q.degree
        assert p * q == IntPolynomial.from_coefficients(
            seq_mul(p.coefficients, q.coefficients, max(n, 0))
        )

    @given(polys, polys, polys)
    def test_mul_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r


class TestRationalGF:
    def test_denominator_normalization(self):
        g = RationalGF(_poly(0, 1), _poly(-1, 1))
        assert g.denominator.constant_term == 1
        assert g.numerator.coefficients == (0, -1)
        with pytest.raises(ValueError):
            RationalGF(_poly(1), _poly(0, 1))
        with pytest.raises(ValueError):
            RationalGF(_poly(1), _poly(2, 1))

    def test_add_identity(self):
        f = RationalGF(_poly(0, 2), _poly(1, -1))
        assert f + RationalGF.zero() == f

    def test_mul_example(self):
        t2 = RationalGF(_poly(0, 0, 1), _poly(1, -1))
        one = RationalGF(_poly(1), _poly(1, -1))
        prod = t2 * one
        assert prod == RationalGF(_poly(0, 0, 1), _poly(1, -2, 1))

    def test_star_examples(self):
        assert RationalGF.zero().star() == RationalGF.one()
        t = RationalGF.from_polynomial(_poly(0, 1))
        assert t.star() == RationalGF(_poly(1), _poly(1, -1))
        oo = RationalGF(_poly(0, 0, 0, 1), _poly(1, -1, 0, -1, 1))
        starred = oo.star()
        assert starred.numerator == _poly(1, -1, 0, -1, 1)
        assert starred.denominator == _poly(1, -1, 0, -2, 1)

    def test_star_requires_zero_constant(self):
        with pytest.raises(ValueError):
            RationalGF.one().star()

    def test_series_examples(self):
        oo = RationalGF(_poly(0, 0, 0, 1), _poly(1, -1, 0, -1, 1))
        assert oo.series(6) == (0, 0, 0, 1, 1, 1, 2)
        lower_core = RationalGF(_poly(1), TWO_ROW_DENOMINATOR)
        assert lower_core.series(5) == (1, 2, 3, 4, 6, 10)
        lower_full = RationalGF(W4_LOWER_NUMERATOR, W4_LOWER_DENOMINATOR)
        assert lower_full.series(5) == (1, 1, 3, 6, 12, 24)

    @pytest.mark.parametrize("case", SERIES_REFUSALS)
    def test_series_refuses_a_bad_n_max(self, case):
        call, error, message = SERIES_REFUSALS[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(RationalGF(_poly(0, 0, 0, 1), _poly(1, -1, 0, -1, 1)))

    @given(polys, unit_constant_polys, unit_constant_polys, st.integers(0, 40))
    @example(_poly(0, 3), _poly(1, -1), _poly(1, 2, 1), 25)
    @example(_poly(2, 4), _poly(1, 0, -4), _poly(1, 1), 16)
    def test_series_matches_naive_recurrence(self, f, g, h, n_max):
        # g is a planted common factor, which series cancels before its
        # recurrence and the naive one keeps.
        gf = RationalGF(f * g, h * g)
        assert gf.series(n_max) == naive_series(gf, n_max)

    @pytest.mark.parametrize(
        "gf, n_max",
        [
            (RationalGF(_poly(3, 1), _poly(1, -2, 1)), 0),
            (RationalGF(IntPolynomial.zero(), _poly(1, -1, 1)), 0),
            (RationalGF(IntPolynomial.zero(), _poly(1, -1, 1)), 40),
            (RationalGF(IntPolynomial.zero(), IntPolynomial.one()), 5),
            (RationalGF.from_polynomial(_poly(1, -2, 0, 4)), 2),
            (RationalGF.from_polynomial(_poly(1, -2, 0, 4)), 30),
            (RationalGF.one(), 0),
        ],
        ids=["n0", "zero_n0", "zero_long", "zero_over_one", "poly_short", "poly_long", "one"],
    )
    def test_series_edge_cases(self, gf, n_max):
        assert gf.series(n_max) == naive_series(gf, n_max)

    def test_equality_is_cross_multiplication(self):
        a = RationalGF(_poly(0, 1), _poly(1, -1))
        b = RationalGF(_poly(0, 1, -1), _poly(1, -2, 1))
        assert a == b
        assert a != RationalGF(_poly(0, 1), _poly(1, 1))
        # No equality with other types, and no hash to go with it.
        assert not RationalGF.one() == 1
        with pytest.raises(TypeError):
            hash(RationalGF.one())

    def test_reduced(self):
        a = RationalGF(_poly(0, 1, -1), _poly(1, -2, 1))
        r = a.reduced()
        assert r.numerator == _poly(0, 1)
        assert r.denominator == _poly(1, -1)

    @settings(deadline=None)  # the first example imports sympy
    @given(polys, unit_constant_polys, unit_constant_polys)
    @example(_poly(0, 3), _poly(1, -1), _poly(1, 2, 1))
    @example(_poly(2, 4), _poly(1, 0, -4), _poly(1, 1))
    @example(IntPolynomial.zero(), _poly(1, -1), _poly(1, 2, 3))
    def test_reduced_matches_sympy_gcd(self, f, g, h):
        sympy = pytest.importorskip("sympy")
        num, den = f * g, h * g  # g is a planted common factor
        x = sympy.Symbol("x")
        s_num = sympy.Poly(list(reversed(num.coefficients)) or [0], x)
        s_den = sympy.Poly(list(reversed(den.coefficients)), x)
        _, common = sympy.gcd(s_num, s_den).primitive()
        q_num, r_num = sympy.div(s_num, common)
        q_den, r_den = sympy.div(s_den, common)
        assert r_num.is_zero and r_den.is_zero
        expected = RationalGF(
            IntPolynomial.from_coefficients(_ascending(q_num)),
            IntPolynomial.from_coefficients(_ascending(q_den)),
        )
        got = RationalGF(num, den).reduced()
        assert got.numerator == expected.numerator
        assert got.denominator == expected.denominator

    @settings(deadline=None)  # the first example imports sympy
    @given(polys, unit_constant_polys, unit_constant_polys, st.integers(1, 12), st.integers(1, 3))
    @example(_poly(0, 3), _poly(1, -1), _poly(1, 2, 1), 1, 1)
    @example(IntPolynomial.zero(), _poly(1, -1), _poly(1, 2, 3), 5, 2)
    @example(_poly(7), _poly(1), _poly(1), 3, 1)
    @example(W4_LOOP_DENOMINATOR, W4_LOOP_DENOMINATOR, W3_LOOP_POLYNOMIAL, 6, 4)
    @example(*RETRY_EXAMPLE)
    def test_gcd_matches_sympy(self, f, g, h, content, power):
        # a = content * f * g^power and b = h * g^power, where b has constant
        # term 1 as every caller's operand does: a planted, possibly
        # repeated factor, a content above 1 on a, and a zero or constant a.
        # The fourth example has degree 220; the last one's first candidate
        # is wrong (test_gcd_retries_a_wrong_first_candidate).
        sympy = pytest.importorskip("sympy")
        planted = IntPolynomial.one()
        for _ in range(power):
            planted = planted * g
        a, b = IntPolynomial.from_coefficients([content]) * f * planted, h * planted
        x = sympy.Symbol("x")
        _, common = sympy.gcd(
            sympy.Poly(list(reversed(a.coefficients)) or [0], x),
            sympy.Poly(list(reversed(b.coefficients)), x),
        ).primitive()
        expected = IntPolynomial.from_coefficients(_ascending(common))
        if expected.constant_term < 0:
            expected = -expected
        for u, v in ((a, b), (b, a)):
            gcd, u_over, v_over = _poly_gcd(u, v)
            assert gcd == expected
            assert gcd * u_over == u and gcd * v_over == v

    def test_gcd_retries_a_wrong_first_candidate(self, monkeypatch):
        # a = 4 (3 + 9t)(1 + 3t) = 12 (1 + 3t)^2 and b = (1 + 2t)(1 + 3t).
        # At X = 16 the values' gcd 147 has the balanced digits 3 - 7t + t^2,
        # which divides neither; at X = 64 the gcd 579 has the digits 3 + 9t,
        # whose primitive part 1 + 3t is the gcd.
        f, g, h, content, _ = RETRY_EXAMPLE
        a, b = _poly(content) * f * g, h * g
        refused = []

        def counted(u, v):
            try:
                return _poly_exact_div(u, v)
            except ValueError:
                refused.append(v)
                raise

        monkeypatch.setattr(genfunc, "_poly_exact_div", counted)
        for u, v in ((a, b), (b, a)):
            refused.clear()
            assert _poly_gcd(u, v)[0] == g
            assert len(refused) == 1 and refused[0] != g

    def test_coprime_operands_make_no_division(self, monkeypatch):
        # The candidate 1 is the gcd by the correctness argument alone.
        def refuse(u, v):
            raise AssertionError("no exact division by a gcd of 1")

        monkeypatch.setattr(genfunc, "_poly_exact_div", refuse)
        for u, v in (
            (W4_LOWER_NUMERATOR, W4_LOWER_DENOMINATOR),
            (W4_LOWER_DENOMINATOR, W4_LOWER_NUMERATOR),
            (IntPolynomial.zero(), IntPolynomial.one()),
        ):
            assert _poly_gcd(u, v) == (IntPolynomial.one(), u, v)

    def test_exact_division_rejects_remainders(self):
        assert _poly_exact_div(_poly(-2, 0, 2), _poly(1, 1)) == _poly(-2, 2)
        with pytest.raises(ValueError):
            _poly_exact_div(_poly(1, 0, 1), _poly(1, 1))
        with pytest.raises(ValueError):
            _poly_exact_div(_poly(1, 1), _poly(0, 2))
        with pytest.raises(ValueError):
            _poly_exact_div(_poly(1), _poly(1, 1))

    @pytest.mark.parametrize("dividend", [_poly(1, 2), IntPolynomial.zero(), _poly(*range(1, 40))])
    def test_exact_division_refuses_a_zero_divisor(self, dividend):
        with pytest.raises(ValueError, match="^division by the zero polynomial$"):
            _poly_exact_div(dividend, IntPolynomial.zero())

    @given(kronecker_polys, kronecker_polys)
    @example(_poly(*range(1, 17)), _poly(*[-(2**300)] * 16))
    @example(_poly(*[0] * 15, 1), _poly(*[3, 0] * 12, 1))
    def test_kronecker_product_matches_schoolbook(self, a, b):
        schoolbook, kronecker = _on_both_paths(lambda: a * b)
        assert kronecker == schoolbook == a * b
        assert schoolbook == IntPolynomial.from_coefficients(
            sum(a.coefficient(i) * b.coefficient(k - i) for i in range(k + 1))
            for k in range(a.degree + b.degree + 1)
        )

    @given(
        kronecker_polys,
        nonzero_kronecker_polys,
        st.integers(0, 80),
        st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**300), 2**300)),
    )
    @example(_poly(*range(1, 17)), _poly(*range(-16, 0)), 0, 0)
    @example(_poly(*range(1, 17)), _poly(*range(-16, 0)), 5, 1)
    @example(_poly(*[2**300] * 20), _poly(1, *[0] * 16, -1), 30, -1)
    def test_kronecker_quotient_matches_schoolbook(self, q, b, place, delta):
        # An exact product, the same with delta added at one place, and a
        # divisor longer than the dividend: the Kronecker divmod gives the
        # schoolbook quotient or refuses where it does.
        a = q * b
        perturbed = a + IntPolynomial.from_coefficients([0] * place + [delta])
        for dividend, divisor in ((a, b), (perturbed, b), (b, b * _poly(1, 1))):
            assert _exact_div_or_none(dividend, divisor) == schoolbook_div(dividend, divisor)
        assert _poly_exact_div(a, b) == schoolbook_div(a, b) == q

    @pytest.mark.parametrize(
        "dividend, divisor, quotient",
        [
            (IntPolynomial.zero(), _poly(1, -2, 1), IntPolynomial.zero()),
            (_poly(1, 1), _poly(1, -2, 1), None),
            (_poly(6, -9, 3), _poly(3), _poly(2, -3, 1)),
            (_poly(6, -9, 4), _poly(3), None),
            (_poly(0, 1), _poly(2), None),
            (_poly(0, 2), _poly(2), _poly(0, 1)),
            (SERIES_35 * UPPER_ATOM_DENOMINATOR, UPPER_ATOM_DENOMINATOR, SERIES_35),
            (SERIES_35 * UPPER_ATOM_DENOMINATOR + _poly(0, 1), UPPER_ATOM_DENOMINATOR, None),
        ],
        ids=[
            "longer-divisor-zero",
            "longer-divisor-nonzero",
            "constant-exact",
            "constant-inexact",
            "t-over-2",
            "2t-over-2",
            "40-over-6",
            "40-over-6-inexact",
        ],
    )
    def test_exact_division_cases(self, dividend, divisor, quotient):
        # t / 2: t(2^w) = 2^w is divisible by 2, but the quotient digits
        # 2^(w - 1) break the proved bound, so it is refused.
        assert schoolbook_div(dividend, divisor) == quotient
        if quotient is None:
            with pytest.raises(ValueError, match="^polynomial division is not exact$"):
                _poly_exact_div(dividend, divisor)
        else:
            assert _poly_exact_div(dividend, divisor) == quotient

    @given(gfs, gfs)
    def test_series_additive(self, f, g):
        n = 8
        fs, gs, hs = f.series(n), g.series(n), (f + g).series(n)
        assert hs == tuple(a + b for a, b in zip(fs, gs))

    @given(gfs, gfs)
    def test_series_multiplicative(self, f, g):
        n = 8
        assert (f * g).series(n) == seq_mul(f.series(n), g.series(n), n)

    @given(zero_constant_gfs)
    def test_star_fixed_point_identity(self, g):
        s = g.star()
        assert s == RationalGF.one() + g * s


class TestWidth3Composition:
    def test_atom_series(self):
        atoms = atoms_width3()
        assert atoms["OI"].series(5) == (0, 0, 1, 1, 1, 1)
        assert atoms["IO"].series(5) == (0, 0, 2, 2, 2, 2)
        assert atoms["OO"] == RationalGF(_poly(0, 0, 0, 1), _poly(1, -1, 0, -1, 1))

    def test_atoms_match_enumeration(self):
        atoms = atoms_width3()
        for t, line in (("OO", 1), ("OI", 1), ("IO", 0)):
            for n in (30, 60):
                assert atoms[t].series(n) == count_irreducible(W3, t, n, line).counts

    def test_composition_matches_displayed_quotient(self):
        composed = compose_bridge_code(atoms_width3(), 3)
        assert composed == RationalGF(W3_BRIDGE_NUMERATOR, W3_BRIDGE_DENOMINATOR)
        # Not just equal as functions: the same unreduced tuples.
        assert composed.numerator.coefficients == W3_BRIDGE_NUMERATOR.coefficients
        assert composed.denominator.coefficients == W3_BRIDGE_DENOMINATOR.coefficients

    def test_composition_series_counts_bridges(self):
        composed = compose_bridge_code(atoms_width3(), 3)
        assert composed.series(40) == count_bridges(W3, 40).counts
        assert composed.series(3) == (1, 1, 3, 5)

    def test_triple_product_counts_composite_bridges(self, bridges_w3_18):
        # Factor sequence IO, OO, OI (exactly one staircase) starts at 2t^7.
        atoms = atoms_width3()
        product = atoms["IO"] * atoms["OO"] * atoms["OI"]
        series = product.series(10)
        assert series[:8] == (0, 0, 0, 0, 0, 0, 0, 2)
        counted = [0] * 11
        from stripwalks import decompose_bridge, iter_walks

        for walk in iter_walks(W3, 10, kind="bridge"):
            d = decompose_bridge(walk, W3)
            if d.trailing_right_run == 0 and [f.bridge_type for f in d.factors] == [
                "IO",
                "OO",
                "OI",
            ]:
                counted[walk.length] += 1
        assert tuple(counted) == series

    def test_loop_denominator_reduced(self):
        assert _reduced_loop_denominator(atoms_width3(), 3) == W3_LOOP_POLYNOMIAL

    def test_reduced_bridge_function_keeps_loop_core(self):
        reduced = compose_bridge_code(atoms_width3(), 3).reduced()
        assert reduced.denominator == W3_LOOP_POLYNOMIAL * ONE_MINUS_T
        assert reduced == RationalGF(W3_BRIDGE_NUMERATOR, W3_BRIDGE_DENOMINATOR)

    def test_loop_denominator_mechanical_same_root_content(self):
        mech = important_part_denominator(atoms_width3(), 3)
        # The unreduced form carries an extra (1-t)^2 factor and nothing else.
        assert mech == W3_LOOP_POLYNOMIAL * _poly(1, -2, 1)

    def test_loop_denominator_degenerate_atoms(self):
        atoms = dict(atoms_width3())
        atoms["OO"] = RationalGF.zero()
        assert important_part_denominator(atoms, 3) == _poly(1, -2, 1, 0, -2)

    def test_missing_atom_rejected(self):
        with pytest.raises(ValueError):
            compose_bridge_code({"IO": atoms_width3()["IO"]}, 3)
        with pytest.raises(ValueError):
            compose_bridge_code(atoms_width3(), 4)
        with pytest.raises(ValueError):
            compose_bridge_code(atoms_width3(), 5)

    @pytest.mark.parametrize("case", WIDTH_REFUSALS)
    def test_refuses_a_non_int_width(self, case):
        call, error, message = WIDTH_REFUSALS[case]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


class TestWidth4Lower:
    def test_atom_series(self):
        atoms = atoms_width4_lower()
        assert atoms["II"].series(4) == (0, 0, 1, 1, 1)
        assert atoms["OI"].series(5) == (0, 0, 1, 2, 2, 2)
        assert atoms["OO"].series(5) == (0, 0, 0, 0, 1, 1)

    def test_atoms_undercount(self):
        atoms = atoms_width4_lower()
        for t, line in (("OO", 2), ("OI", 2), ("IO", 1), ("II", 1)):
            exact = count_irreducible(W4, t, 30, line).counts
            assert all(a <= e for a, e in zip(atoms[t].series(30), exact))

    def test_composition_matches_displayed_quotient(self):
        composed = compose_bridge_code(atoms_width4_lower(), 4)
        assert composed == RationalGF(W4_LOWER_NUMERATOR, W4_LOWER_DENOMINATOR)

    def test_series_is_lower_bound(self, bridges_w4_16):
        series = compose_bridge_code(atoms_width4_lower(), 4).series(16)
        assert all(s <= b for s, b in zip(series, bridges_w4_16.counts))
        assert series[:6] == (1, 1, 3, 6, 12, 24)


class TestWidth4Upper:
    def test_pipeline_matches_direct_atoms(self):
        atoms = atoms_width4_upper()
        for t in ("OO", "OI", "IO", "II"):
            assert upper_atom_from_pipeline(t) == atoms[t]
        with pytest.raises(ValueError):
            upper_atom_from_pipeline("XX")

    def test_oi_io_entries_identical(self):
        atoms = atoms_width4_upper()
        assert atoms["OI"] == atoms["IO"]

    def test_transformed_walk_gf_from_zigzag_composition(self):
        # Right-runs separated by alternating verticals on two rows:
        # (t^2/(1-t)) / (1 - t^4/(1-t)^2) * 1/(1-t) = t^2/(1-2t+t^2-t^4).
        r_runs_down = RationalGF(_poly(0, 0, 1), _poly(1, -1))
        loop = RationalGF(_poly(0, 0, 0, 0, 1), _poly(1, -2, 1))
        composed = r_runs_down * loop.star() * TAIL_GF
        assert composed == TRANSFORMED_WALK_GFS["OO"]

    def test_corrections_stay_legal(self):
        # Corrected coefficients must still dominate the exact tailless
        # counts: each correction is at most series - exact.  The published
        # corrections equal that difference up to length 10 and fall short
        # of it, which only loosens the bound, from the length in
        # first_short on (IO/OI 67 vs 68 at 11, OO 301 vs 302 at 12, II 186
        # vs 188 at 13).
        first_short = {"OO": 12, "OI": 11, "IO": 11, "II": 13}
        for t, line in (("OO", 2), ("OI", 2), ("IO", 1), ("II", 1)):
            base = TRANSFORMED_WALK_GFS[t]
            series = RationalGF(
                base.numerator.unshift(ADDED_STEPS[t]), base.denominator
            ).series(13)
            exact = count_irreducible(W4, t, 13, line, tailless=True).counts
            gap = [s - e for s, e in zip(series, exact)]
            corrections = [CORRECTION_POLYNOMIALS[t].coefficient(n) for n in range(14)]
            assert all(c <= g for c, g in zip(corrections, gap))
            n = first_short[t]
            assert corrections[:n] == gap[:n]
            assert corrections[n] < gap[n]

    def test_upper_atoms_exact_only_on_short_lengths(self):
        # The published atoms equal the tailed exact counts only below the
        # length where their corrections fall short, and exceed them there,
        # at both start lines of each type.  So an exact-prefix atom at
        # L = 13 is not UPPER_ATOM_NUMERATORS over its denominator.
        atoms = atoms_width4_upper()
        last_exact = {"OO": 11, "OI": 10, "IO": 10, "II": 12}
        next_pair = {"OO": (16, 15), "OI": (10, 9), "IO": (10, 9), "II": (4, 2)}
        for t, lines in (("OO", (2, -1)), ("OI", (2, -1)), ("IO", (1, 0)), ("II", (1, 0))):
            series = atoms[t].series(13)
            n = last_exact[t]
            for line in lines:
                exact = count_irreducible(W4, t, 13, line).counts
                assert series[: n + 1] == exact[: n + 1]
                assert (series[n + 1], exact[n + 1]) == next_pair[t]

    def test_atoms_overcount(self):
        atoms = atoms_width4_upper()
        for t, line in (("OO", 2), ("OI", 2), ("IO", 1), ("II", 1)):
            exact = count_irreducible(W4, t, 30, line).counts
            assert all(a >= e for a, e in zip(atoms[t].series(30), exact))

    def test_loop_denominator_is_degree_44(self):
        d44 = important_part_denominator(atoms_width4_upper(), 4)
        assert d44 == W4_LOOP_DENOMINATOR
        assert d44.degree == 44
        assert d44.coefficients[:4] == (1, -12, 65, -209)
        assert d44.coefficients[-1] == 55764

    def test_loop_reduction_cancels_squared_atom_denominator(self):
        # The cancelled factor vanishes at 1/phi as well as at 1, so the
        # unreduced d44 is not square-free.
        atoms = atoms_width4_upper()
        reduced = _reduced_loop_denominator(atoms, 4)
        assert important_part_denominator(atoms, 4) == (
            reduced * UPPER_ATOM_DENOMINATOR * UPPER_ATOM_DENOMINATOR
        )

    def test_reduced_composition_degrees(self):
        composed = compose_bridge_code(atoms_width4_upper(), 4)
        reduced = composed.reduced()
        assert (composed.numerator.degree, composed.denominator.degree) == (71, 84)
        assert (reduced.numerator.degree, reduced.denominator.degree) == (21, 34)
        assert reduced == composed

    def test_series_is_upper_bound(self):
        series = compose_bridge_code(atoms_width4_upper(), 4).series(30)
        assert all(s >= b for s, b in zip(series, count_bridges(W4, 30).counts))


# sha256 of the comma-separated decimal series of each composition, from the
# term-by-term recurrence on the unreduced quotient.  At 673 terms the
# four-row compositions are just past their cut-off (8 x degree 84 and 15).
COMPOSED_SERIES_DIGESTS = {
    ("w3", 600): "a164085ff99290806d0422810ebcd5ec20c41ce84f7d81dae5a80f51bff11aca",
    ("w3", 673): "48d2575d380df57445aed9caba2ea91b5f0c60f1bbc55a44ec1d99495c819955",
    ("w3", 1500): "7e4dd7b5ebc8e440c78600053c4525903b1d1e2315b52ab66902b4340ac23657",
    ("lower", 600): "23c78a976133709d7fd9e4f05620699f17c82d4ba3d29ff78490ccd441c8e479",
    ("lower", 673): "591305b8f03276743eef1d2336735a283070650dff75565d9d83e9d0b8b5dd1c",
    ("lower", 1500): "8dc13ccbb1feee66036944b095997a4219f0c8573a4d997934a299581540667d",
    ("upper", 600): "7adca309dee3b99e22dbcb036220e5350acf087759e254799cb135bc3cd43c05",
    ("upper", 673): "5fc7a920b6195699aab9d92d6f7c45033986d54f92c26966f13051d66b22e763",
    ("upper", 1500): "e69d8ca0aa489d2d291ef9e829e74ae49c72e3db295e53e8637714263b8e9daf",
}


@pytest.mark.parametrize("name, n", list(COMPOSED_SERIES_DIGESTS), ids=lambda v: str(v))
def test_long_composed_series_are_unchanged(name, n):
    atoms, width = {
        "w3": (atoms_width3, 3), "lower": (atoms_width4_lower, 4), "upper": (atoms_width4_upper, 4)
    }[name]
    series = compose_bridge_code(atoms(), width).series(n)
    digest = hashlib.sha256(",".join(map(str, series)).encode()).hexdigest()
    assert digest == COMPOSED_SERIES_DIGESTS[name, n]
