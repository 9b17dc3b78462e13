import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from stripwalks import (
    CountTable,
    RootResult,
    atoms_width3,
    compose_bridge_code,
    connective_constant_width3,
    estimate_mu,
    mu_bounds_width4,
    smallest_positive_root,
)
from stripwalks import analysis
from stripwalks.analysis import _dyadic_value, _isolate, _square_free_part, _taylor_shift_1
from stripwalks.genfunc import (
    UPPER_ATOM_DENOMINATOR,
    W3_BRIDGE_DENOMINATOR,
    W3_LOOP_POLYNOMIAL,
    W4_LOOP_DENOMINATOR,
    W4_LOWER_DENOMINATOR,
    IntPolynomial,
    RationalGF,
    _poly,
    _poly_exact_div,
    atoms_width4_upper,
    important_part_denominator,
)


def _product(*factors):
    out = IntPolynomial.one()
    for f in factors:
        out = out * f
    return out


# The degree-44 loop denominator over its cofactor UPPER_ATOM_DENOMINATOR**2.
W4_REDUCED_LOOP = _poly_exact_div(
    W4_LOOP_DENOMINATOR, UPPER_ATOM_DENOMINATOR * UPPER_ATOM_DENOMINATOR
)


def _nonnegative_reciprocal(p):
    """Whether the first 200 terms of the series of 1/p are non-negative."""
    return min(RationalGF(IntPolynomial.one(), p).series(200)) >= 0


def _truncated_atoms(atoms, length):
    """The atoms' series cut after t^length, as polynomials."""
    return {
        t: RationalGF.from_polynomial(IntPolynomial.from_coefficients(gf.series(length)))
        for t, gf in atoms.items()
    }


def _grid_width(tol):
    """2^-s for the first scale s >= 10 with 2^-s <= tol: every bracket's grid."""
    return min(2.0**-10, 2.0 ** (math.frexp(tol)[1] - 1))


class TestSmallestPositiveRoot:
    def test_width3_loop_polynomial(self):
        res = smallest_positive_root(W3_LOOP_POLYNOMIAL, tol=1e-12)
        assert abs(res.root - 0.522295) < 1e-5
        assert abs(res.mu - 1.914628) < 1e-5

    def test_width4_lower_denominator(self):
        res = smallest_positive_root(W4_LOWER_DENOMINATOR, tol=1e-12)
        assert abs(res.root - 0.487645) < 1e-5

    def test_exact_root_at_one(self):
        res = smallest_positive_root(_poly(1, -1))
        assert res.root == 1.0
        assert res.mu == 1.0

    def test_exact_root_found_by_bisection(self):
        # Descartes isolates the root in (0, 1); the refinement's secant is
        # exact on a line, lands on 1/2048 and collapses the bracket.
        res = smallest_positive_root(_poly(1, -2048))
        assert res.root == 1 / 2048
        assert res.bracket == (1 / 2048, 1 / 2048)

    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 2.0**-20, 1e-12, 1e-14])
    @pytest.mark.parametrize(
        "poly",
        [W3_LOOP_POLYNOMIAL, W3_BRIDGE_DENOMINATOR, W4_LOWER_DENOMINATOR, W4_LOOP_DENOMINATOR],
        ids=["w3_loop", "w3_bridge", "w4_lower", "w4_loop"],
    )
    def test_bracket_is_one_dyadic_cell(self, poly, tol):
        # The bracket is one cell of the grid 2^-s: the largest power of two
        # <= tol, and never coarser than 1/1024.
        lo, hi = smallest_positive_root(poly, tol).bracket
        width = _grid_width(tol)
        assert hi - lo == width
        assert (lo / width).is_integer()
        assert hi / width == lo / width + 1

    def test_bracket_invariants(self):
        res = smallest_positive_root(W3_LOOP_POLYNOMIAL, tol=1e-10)
        lo, hi = res.bracket
        assert lo <= res.root <= hi
        assert hi - lo <= res.tolerance
        assert abs(res.mu * res.root - 1.0) < 1e-12

    def test_bracket_endpoints_have_opposite_signs(self):
        res = smallest_positive_root(W3_LOOP_POLYNOMIAL, tol=1e-6)
        lo, hi = res.bracket
        assert W3_LOOP_POLYNOMIAL(Fraction(lo)) > 0
        assert W3_LOOP_POLYNOMIAL(Fraction(hi)) < 0

    def test_monotone_refinement(self):
        coarse = smallest_positive_root(W3_LOOP_POLYNOMIAL, tol=1e-6)
        fine = smallest_positive_root(W3_LOOP_POLYNOMIAL, tol=1e-12)
        assert coarse.bracket[0] <= fine.bracket[0]
        assert fine.bracket[1] <= coarse.bracket[1]

    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 2e-5, 1e-6])
    def test_coarse_tolerance_passes_the_guard(self, tol):
        # The certificate does not depend on the tolerance: a coarse bracket
        # is the cell of the fine one's grid ancestor.
        for p in (W3_LOOP_POLYNOMIAL, W4_LOWER_DENOMINATOR, W4_LOOP_DENOMINATOR):
            lo, hi = smallest_positive_root(p, tol).bracket
            fine_lo, fine_hi = smallest_positive_root(p, 1e-14).bracket
            assert 0 < hi - lo <= tol
            assert lo <= fine_lo < fine_hi <= hi

    def test_rejects_no_sign_change(self):
        with pytest.raises(ValueError):
            smallest_positive_root(_poly(1, 1))

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            smallest_positive_root(W3_LOOP_POLYNOMIAL, tol)

    def test_rejects_bad_constant_term(self):
        with pytest.raises(ValueError):
            smallest_positive_root(_poly(2, -1))

    def test_detects_smaller_modulus_complex_roots(self):
        # (1 - 2t + 2t^2)(1 - t) has complex roots of modulus ~0.707 inside
        # the circle through its only positive real root t = 1.  The search
        # does not look for them: by Pringsheim they cannot occur when 1/p
        # has non-negative coefficients, and the check every runtime
        # denominator passes (below) finds a negative one here.
        p = _poly(1, -2, 2) * _poly(1, -1)
        assert smallest_positive_root(p).root == 1.0
        assert not _nonnegative_reciprocal(p)

    @pytest.mark.parametrize(
        "p, root",
        [
            # A double root at 1/3: p does not change sign there.
            (_poly(1, -3) * _poly(1, -3) * _poly(1, -2), Fraction(1, 3)),
            # 1/46 and 1/45 share the cell (22/1024, 23/1024).
            (_poly(1, -45) * _poly(1, -46) * _poly(1, -2), Fraction(1, 46)),
            # p >= 0 on all of (0, 1].
            (_poly(1, -3) * _poly(1, -3), Fraction(1, 3)),
        ],
        ids=["double_root_first", "two_roots_in_one_cell", "only_a_double_root"],
    )
    def test_brackets_roots_a_sign_scan_skips(self, p, root):
        lo, hi = smallest_positive_root(p).bracket
        assert Fraction(lo) < root < Fraction(hi)
        assert hi - lo == 2.0**-40

    def test_separates_roots_below_the_grid(self):
        # 1/2048 and 1/1500 share the grid cell (0, 1/1024): at a coarse
        # tolerance the bracket is that cell, at a fine one the exact root.
        p = _poly(1, -2048) * _poly(1, -1500)
        assert smallest_positive_root(p, 1e-2).bracket == (0.0, 1 / 1024)
        assert smallest_positive_root(p, 1e-6).bracket == (1 / 2048, 1 / 2048)
        # Complex roots (65 +/- i) / 4226 just left of 1/64 keep two sign
        # variations in its grid cell; the descent finds 1/64 below the grid
        # and reports the grid point exactly.
        p = _poly(1, -64) * _poly(1, -130, 4226)
        assert smallest_positive_root(p, 2.0**-10).bracket == (1 / 64, 1 / 64)

    @pytest.mark.parametrize(
        "p, same_as",
        [
            # Repeated roots at 1/phi and 1, above the least root.
            (W4_LOOP_DENOMINATOR, W4_REDUCED_LOOP),
            (_product(*[_poly(1, -3)] * 3, _poly(1, -2)), _poly(1, -3)),
            (_product(*[_poly(1, -3)] * 2), _poly(1, -3)),
            (_product(*[W3_LOOP_POLYNOMIAL] * 2), W3_LOOP_POLYNOMIAL),
            (_product(*[_poly(1, -2)] * 3), _poly(1, -2)),
        ],
        ids=[
            "w4_loop", "triple_root_first", "double_root_only", "w3_loop_squared", "dyadic_triple"
        ],
    )
    @pytest.mark.parametrize("tol", [1.0, 1e-6, 1e-14])
    def test_terminates_on_repeated_roots(self, p, same_as, tol):
        # A repeated root keeps two sign variations in every cell around it,
        # so the descent runs on the square-free part, which has the same
        # roots.  The degree-44 denominator's repeated roots lie above its
        # least one.
        assert smallest_positive_root(p, tol) == smallest_positive_root(same_as, tol)

    @pytest.mark.parametrize("power", [2, 3])
    @pytest.mark.parametrize("tol", [1e-12, 1e-300])
    def test_repeated_root_costs_no_shift_per_bit(self, monkeypatch, power, tol):
        # The descent runs on the square-free part, so a repeated least root
        # costs no Taylor shift per bit asked for: descending the square
        # itself to the tolerance's scale made 95 shifts at 1e-12 and 2,499
        # at 1e-300.
        p = _product(*[W3_LOOP_POLYNOMIAL] * power)
        expected = smallest_positive_root(W3_LOOP_POLYNOMIAL, tol)
        shifts = []
        shift = analysis._taylor_shift_1
        monkeypatch.setattr(
            analysis, "_taylor_shift_1", lambda cs: shifts.append(cs) or shift(cs)
        )
        assert smallest_positive_root(p, tol) == expected
        assert len(shifts) <= 30

    @pytest.mark.parametrize("tol", [1e-12, 1e-300])
    def test_repeated_least_root_of_high_degree(self, tol):
        # The square of the four-row denominator truncated at L = 60, degree
        # 240: its square-free part is the unsquared denominator.
        p = important_part_denominator(_truncated_atoms(atoms_width4_upper(), 60), 4)
        assert smallest_positive_root(p * p, tol) == smallest_positive_root(p, tol)

    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-12, 1e-40, 1e-300, 5e-324])
    @pytest.mark.parametrize(
        "p",
        [_poly(1, -3) * _poly(1, -2), _product(_poly(1, -3), _poly(1, -3), _poly(1, -2))],
        ids=["simple", "double_root_first"],
    )
    def test_right_end_root_is_not_the_answer(self, p, tol):
        # The isolating cell is (0, 1/2) and its right end is the larger
        # root 1/2: p = 0 there marks the negative side, not the root.  Below
        # 2^-53 the float ends round to the same double, so they are
        # compared with 1/3 as floats.
        lo, hi = smallest_positive_root(p, tol).bracket
        assert lo <= 1 / 3 <= hi < 1 / 2
        assert hi - lo <= _grid_width(tol)

    @pytest.mark.parametrize(
        "p, root, tol",
        [
            # Secant steps land on the root from inside the isolating cell.
            (_poly(1, -2048), 1 / 2048, 1e-40),
            (_poly(1, -2048) * _poly(1, -3), 1 / 2048, 1e-40),
            (_poly(1, -4096) * _poly(1, -1, -1), 1 / 4096, 1e-40),
            # The descent lands on it (a cell's right end).
            (_poly(1, -64) * _poly(1, -130, 4226), 1 / 64, 1e-40),
            # A secant guess misses and the bisection midpoint is the root.
            (_poly(1, -256) * _poly(1, 7), 1 / 256, 1e-40),
            (_poly(1, -512) * _poly(1, 58, -58, -7), 1 / 512, 1e-40),
            # The right end of the secant's subcell is the root: with no
            # exit there, the bracket stays one cell wide at these scales.
            (_poly(1, -2) * _poly(1, -1, 2), 1 / 2, 1e-6),
            (_poly(1, -2) * _poly(1, -1, 2), 1 / 2, 1e-12),
        ],
        ids=[
            "line", "line_times_3", "line_times_fibonacci", "descent",
            "missed_secant", "missed_secant_cubic",
            "secant_right_end_1e-6", "secant_right_end_1e-12",
        ],
    )
    def test_exact_grid_roots_at_fine_tolerance(self, p, root, tol):
        assert smallest_positive_root(p, tol).bracket == (root, root)

    @pytest.mark.parametrize("tol, most", [(1e-12, 25), (1e-300, 40)])
    def test_refinement_converges_quadratically(self, monkeypatch, tol, most):
        # Bisection makes one exact evaluation per bit: 39 at 1e-12 and 996
        # at 1e-300 on the degree-44 denominator.  The isolating cell's end
        # values come from the descent, so every point evaluated lies inside
        # the cell.  The refinement runs on the square-free part p, of degree
        # 39.  Each call evaluates 2^(kd) p(t / 2^k) at an integer t = x;
        # its constant term 2^(kd) gives k, so x / 2^k is the point.
        p = _square_free_part(W4_LOOP_DENOMINATOR)
        d = p.degree
        k, lo, hi = _isolate(p)[:3]
        calls = []
        evaluate = IntPolynomial.__call__
        monkeypatch.setattr(
            IntPolynomial, "__call__", lambda q, t: calls.append((q, t)) or evaluate(q, t)
        )
        smallest_positive_root(W4_LOOP_DENOMINATOR, tol)
        assert 0 < len(calls) <= most
        points = []
        for q, x in calls:
            j, rest = divmod(q.constant_term.bit_length() - 1, d)
            assert rest == 0 and isinstance(x, int)
            assert q.coefficients == tuple(c << j * (d - i) for i, c in enumerate(p.coefficients))
            points.append(Fraction(x, 1 << j))
        assert all(Fraction(lo, 1 << k) < x < Fraction(hi, 1 << k) for x in points)


def _binomial_shift(cs):
    """Coefficients of P(x + 1) by the binomial theorem."""
    return [sum(c * math.comb(i, j) for i, c in enumerate(cs)) for j in range(len(cs))]


@given(st.lists(st.integers(-10**6, 10**6), max_size=16))
@example([])
@example([7])
@example(list(W4_LOOP_DENOMINATOR.coefficients))
def test_taylor_shift_matches_binomial_expansion(cs):
    before = list(cs)
    assert _taylor_shift_1(cs) == _binomial_shift(cs)
    assert cs == before


@given(
    p=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12)
    .map(IntPolynomial.from_coefficients)
    .filter(lambda p: not p.is_zero),
    x=st.integers(0, 2**14),
    k=st.integers(0, 14),
)
@example(W4_LOOP_DENOMINATOR, 0, 0)
@example(W4_LOOP_DENOMINATOR, 0, 9)
@example(W4_LOOP_DENOMINATOR, 6, 3)  # x / 2^k = 3/4 in lowest terms
@example(W4_LOOP_DENOMINATOR, 1 << 12, 12)  # x / 2^k = 1
@example(W3_LOOP_POLYNOMIAL, 946, 11)
@example(_poly(5), 3, 2)
def test_dyadic_value_is_the_scaled_value(p, x, k):
    # Even x make x / 2^k reduce as a fraction; the value does not care.
    v = _dyadic_value(p, x, k)
    assert type(v) is int
    assert v == 2 ** (k * p.degree) * p(Fraction(x, 2**k))


def test_runtime_denominators_have_nonnegative_reciprocal_series():
    # smallest_positive_root rules out no complex root: it relies on each
    # denominator p its callers pass being 1 / (a series with non-negative
    # coefficients), up to a cofactor with no root inside the least positive
    # root, so that root has the least modulus (Pringsheim).  The first 200
    # terms of each 1/p are checked.
    assert _nonnegative_reciprocal(W3_LOOP_POLYNOMIAL)
    assert _nonnegative_reciprocal(W4_LOWER_DENOMINATOR)
    # The degree-44 loop denominator is W4_REDUCED_LOOP times
    # UPPER_ATOM_DENOMINATOR**2, whose roots 1, (-1 +/- sqrt 5) / 2 and
    # e^(+/- i pi/3) have modulus >= 0.618 > 0.4617.
    assert UPPER_ATOM_DENOMINATOR == _poly(1, -1) * _poly(1, -1, -1) * _poly(1, -1, 1)
    assert _nonnegative_reciprocal(W4_REDUCED_LOOP)
    assert smallest_positive_root(W4_LOOP_DENOMINATOR).root < 0.618
    # The truncated compositions whose roots the algebra benchmark isolates.
    for atoms, width in ((atoms_width3(), 3), (atoms_width4_upper(), 4)):
        for length in range(10, 61, 10):
            truncated = _truncated_atoms(atoms, length)
            assert _nonnegative_reciprocal(important_part_denominator(truncated, width))


@st.composite
def _one_minus_f(draw):
    """1 - f, f >= 0 with f(0) = 0 and f(1) >= 1: a root on (0, 1]."""
    f = draw(st.lists(st.integers(0, 5), min_size=1, max_size=12).filter(any))
    return IntPolynomial.from_coefficients([1] + [-c for c in f])


@st.composite
def _linear_powers(draw):
    """(p, q): a product p of (1 - a t)^m with a >= 2 and m <= 3, and the
    factor q = 1 - a t of its least root."""
    a_values = st.one_of(st.integers(2, 60), st.integers(1, 12).map(lambda e: 2**e))
    factors = draw(st.lists(st.tuples(a_values, st.integers(1, 3)), min_size=1, max_size=3))
    p = _product(*[_poly(1, -a) for a, m in factors for _ in range(m)])
    return p, _poly(1, -max(a for a, _ in factors))


@settings(max_examples=60, deadline=None)
@given(
    p=st.one_of(_one_minus_f(), _linear_powers().map(lambda pq: pq[0])),
    tol=st.sampled_from([1.0, 1e-3, 2.0**-20, 1e-12, 1e-14]),
)
def test_bracket_is_certified_against_sympy(p, tol):
    sympy = pytest.importorskip("sympy")
    res = smallest_positive_root(p, tol)
    lo, hi = Fraction(res.bracket[0]), Fraction(res.bracket[1])
    poly = sympy.Poly(list(reversed(p.coefficients)), sympy.Symbol("t"))
    lo_q, hi_q = (sympy.Rational(x.numerator, x.denominator) for x in (lo, hi))
    if lo == hi:
        # An exact dyadic root on the grid: the least root itself.
        assert p(lo) == 0
        assert poly.sqf_part().count_roots(0, lo_q) == 1
        return
    assert hi - lo == _grid_width(tol)
    assert p(lo) > 0
    assert poly.count_roots(0, lo_q) == 0
    assert poly.count_roots(lo_q, hi_q) >= 1


def _bisection_reference(q, tol):
    """The RootResult of plain bisection of (0, 1] on q, which must have one
    simple root there and q(0) > 0: halve to the grid 2^-s of
    smallest_positive_root, or stop at a midpoint that is the root."""
    scale = 1 - math.frexp(_grid_width(tol))[1]
    k, lo, hi = 0, 1, 1
    if q(1) != 0:
        lo = 0
        while k < scale and lo != hi:
            k, mid = k + 1, 2 * lo + 1
            v = q(Fraction(mid, 1 << k))
            lo, hi = (mid, mid) if v == 0 else (mid, mid + 1) if v > 0 else (mid - 1, mid)
    root = (lo + hi) / (2 << k)
    return RootResult(root, 1.0 / root, tol, (lo / (1 << k), hi / (1 << k)))


@settings(max_examples=100, deadline=None)
@given(
    pq=st.one_of(_one_minus_f().map(lambda p: (p, p)), _linear_powers()),
    tol=st.sampled_from([1e-2, 1e-6, 1e-12, 1e-40, 5e-324]),
)
def test_refinement_matches_bisection(pq, tol):
    # Quadratic refinement returns the same cell, or the same exact root, as
    # halving (0, 1] one bit per evaluation on a q whose one root there is
    # the least root of p.  1 - f has one sign variation, so its positive
    # root is unique and simple, and q = p.
    p, q = pq
    assert smallest_positive_root(p, tol) == _bisection_reference(q, tol)


class TestConnectiveConstants:
    def test_width3_value(self):
        res = connective_constant_width3()
        assert 0.52228 <= res.root <= 0.52231
        assert abs(res.mu - 1.914628) < 1e-5

    @pytest.mark.parametrize("tol", [1e-2, 2**-20, 1e-12, 1e-14])
    def test_width3_polynomials_agree(self, tol):
        full = smallest_positive_root(W3_BRIDGE_DENOMINATOR, tol)
        assert connective_constant_width3(tol).bracket == full.bracket

    def test_width3_denominator_is_loop_times_rootless_cofactor(self):
        # connective_constant_width3 isolates only the loop polynomial.  The
        # bridge denominator is loop * c, and c has no real root on
        # [0, 53/100], which holds the loop's least positive root.  The
        # bracket depends only on the least positive root, so the two
        # brackets are equal at every tolerance.
        assert connective_constant_width3(1.0).bracket[1] < 53 / 100
        sympy = pytest.importorskip("sympy")
        c = _poly(1, -5, 10, -12, 14, -17, 14, -6, 1)
        assert W3_LOOP_POLYNOMIAL * c == W3_BRIDGE_DENOMINATOR
        t = sympy.Symbol("t")
        c_sympy = sympy.Poly(list(reversed(c.coefficients)), t)
        assert c_sympy.count_roots(0, sympy.Rational(53, 100)) == 0

    def test_width4_bracket(self):
        lower, upper = mu_bounds_width4()
        assert abs(lower.mu - 2.050672) < 1e-5
        assert abs(upper.mu - 2.165804) < 1e-5
        assert lower.mu < upper.mu
        assert abs(upper.root - 0.461722) < 1e-5

    def test_round6(self):
        res = connective_constant_width3()
        root6, mu6 = res.round6()
        assert root6 == 0.522295
        assert mu6 == 1.914627


class TestEstimateMu:
    def test_powers_of_two(self):
        table = CountTable(tuple(2**n for n in range(9)))
        for n, nth_root, ratio in estimate_mu(table):
            assert ratio == 2.0
            assert abs(nth_root - 2.0) < 1e-12

    def test_bridge_estimates_stay_below_mu(self, bridges_w3_18):
        mu = connective_constant_width3().mu
        for _, nth_root, _ in estimate_mu(bridges_w3_18):
            assert nth_root <= mu + 1e-9

    def test_ratio_convergence_width3(self, bridges_w3_18):
        n, _, ratio = estimate_mu(bridges_w3_18)[-1]
        assert n == 18
        assert abs(ratio - 1.914) < 0.02

    def test_ratio_bracket_width4(self, bridges_w4_16):
        n, _, ratio = estimate_mu(bridges_w4_16)[-1]
        assert n == 16
        assert 2.0 < ratio < 2.2

    def test_counts_beyond_float_range(self):
        # b_1500 on three rows has about 420 digits, past the float range.
        table = CountTable(compose_bridge_code(atoms_width3(), 3).series(1500))
        mu = connective_constant_width3().mu
        estimates = estimate_mu(table)
        assert abs(estimates[-1][2] - mu) < 1e-9
        assert all(nth_root <= mu for _, nth_root, _ in estimates)
