import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import W2, W3, W4
from stripwalks import (
    CountTable,
    StripGeometry,
    connective_constant_width3,
    count_bridges,
    count_half_space,
    count_saws,
    hw_polynomial,
    mu_bounds_width4,
    pf_bound,
    pf_exact,
    verify_bridge_corollary,
    verify_halfspace_proposition,
    verify_multiplicativity,
    verify_sandwich,
    zeilberger_count,
)
from stripwalks import bounds
from stripwalks.bounds import InequalityReport, SandwichReport, SandwichRow, fibonacci


def brute_force_partitions(a, k_max):
    """Count partitions of a into at most k_max distinct parts by enumeration."""
    if a == 0:
        return 1
    count = 0
    for k in range(1, k_max + 1):
        for combo in itertools.combinations(range(1, a + 1), k):
            if sum(combo) == a:
                count += 1
    return count


def recursive_partitions(a, k_max):
    """Same count by descending recursion over the largest part."""

    def rec(remaining, max_part, parts_left):
        if remaining == 0:
            return 1
        if parts_left == 0 or max_part == 0:
            return 0
        total = 0
        for p in range(min(remaining, max_part), 0, -1):
            total += rec(remaining - p, p - 1, parts_left - 1)
        return total

    return rec(a, a, k_max)


class TestPartitionCounts:
    def test_base_cases(self):
        assert pf_exact(0, 3) == 1
        assert pf_exact(3, 3) == 2  # 3; 2+1
        assert pf_exact(5, 3) == 3  # 5; 4+1; 3+2
        assert pf_exact(6, 3) == 4  # 6; 5+1; 4+2; 3+2+1

    def test_against_brute_force(self):
        for k_max in (3, 4):
            for a in range(0, 26):
                assert pf_exact(a, k_max) == brute_force_partitions(a, k_max)

    def test_against_recursive_oracle(self):
        for k_max in (3, 4):
            for a in range(0, 61):
                assert pf_exact(a, k_max) == recursive_partitions(a, k_max)

    def test_monotone_in_a_and_k(self):
        for a in range(1, 40):
            assert pf_exact(a, 3) <= pf_exact(a + 1, 3)
            assert pf_exact(a, 3) <= pf_exact(a, 4)

    def test_bound_dominates(self):
        assert pf_bound(0, 3) == 1
        assert pf_bound(5, 3) == 31
        for k_max in range(1, 9):
            for a in range(0, 61):
                assert pf_exact(a, k_max) <= pf_bound(a, k_max)

    def test_validation(self):
        with pytest.raises(ValueError):
            pf_exact(-1, 3)
        with pytest.raises(ValueError):
            pf_bound(-1, 3)
        with pytest.raises(ValueError):
            pf_bound(3, 0)
        # Every cap from 1 up is served.
        assert pf_bound(3, 5) == 1 + 3 + 9 + 27 + 81


class TestHWPolynomial:
    def test_values(self):
        assert hw_polynomial(1, 3) == 98
        assert hw_polynomial(1, 4) == 450

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            hw_polynomial(0, 3)
        with pytest.raises(ValueError):
            hw_polynomial(0, 5)
        with pytest.raises(ValueError):
            hw_polynomial(3, 0)
        # Every width from 1 up is served.
        assert hw_polynomial(3, 5) == 4 * (1 + 4 + 16 + 64 + 256) ** 2

    def test_published_coefficients(self):
        # The sandwich polynomials as published, in powers of (n + 1) from
        # the first: degree 5 on three rows, degree 7 on four.
        published = {3: (1, 2, 3, 2, 1), 4: (1, 2, 3, 4, 3, 2, 1)}
        for width, coeffs in published.items():
            for n in range(1, 60):
                expected = sum(c * (n + 1) ** i for i, c in enumerate(coeffs, start=1))
                assert hw_polynomial(n, width) == expected

    def test_dominates_partition_convolution(self):
        for width in range(1, 9):
            for n in range(1, 51):
                conv = sum(
                    pf_bound(m + 1, width) * pf_bound(n - m, width)
                    for m in range(n + 1)
                )
                assert conv <= hw_polynomial(n, width)


# One row per refusal: the call, the error and its whole message.
INTEGER_REFUSALS = {
    "pf_exact a<0": (lambda: pf_exact(-1, 3), ValueError, "a must be >= 0, got -1"),
    "pf_exact k_max<1": (lambda: pf_exact(3, 0), ValueError, "k_max must be >= 1, got 0"),
    "pf_exact bool k_max": (lambda: pf_exact(3, True), TypeError, "k_max must be an int, got True"),
    "pf_exact float a": (lambda: pf_exact(3.0, 3), TypeError, "a must be an int, got 3.0"),
    "pf_bound a<0": (lambda: pf_bound(-1, 3), ValueError, "a must be >= 0, got -1"),
    "pf_bound k_max<1": (lambda: pf_bound(3, 0), ValueError, "k_max must be >= 1, got 0"),
    "pf_bound float a": (lambda: pf_bound(2.5, 3), TypeError, "a must be an int, got 2.5"),
    "pf_bound bool a": (lambda: pf_bound(False, 3), TypeError, "a must be an int, got False"),
    "hw_polynomial n<1": (lambda: hw_polynomial(0, 3), ValueError, "n must be >= 1, got 0"),
    "hw_polynomial width<1": (
        lambda: hw_polynomial(3, 0), ValueError, "width must be >= 1, got 0"
    ),
    "hw_polynomial bool n": (
        lambda: hw_polynomial(True, 3), TypeError, "n must be an int, got True"
    ),
    "hw_polynomial float width": (
        lambda: hw_polynomial(3, 4.0), TypeError, "width must be an int, got 4.0"
    ),
    "fibonacci n<1": (lambda: fibonacci(0), ValueError, "n must be >= 1, got 0"),
    "fibonacci bool n": (lambda: fibonacci(True), TypeError, "n must be an int, got True"),
    "zeilberger_count n<2": (lambda: zeilberger_count(1), ValueError, "n must be >= 2, got 1"),
    "zeilberger_count str n": (
        lambda: zeilberger_count("5"), TypeError, "n must be an int, got '5'"
    ),
}


@pytest.mark.parametrize("case", INTEGER_REFUSALS)
def test_integer_arguments_refused(case):
    call, error, message = INTEGER_REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestZeilberger:
    def test_fibonacci_convention(self):
        assert [fibonacci(n) for n in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]
        with pytest.raises(ValueError):
            fibonacci(0)

    def test_values(self):
        assert zeilberger_count(2) == 6
        assert zeilberger_count(3) == 12
        assert zeilberger_count(10) == 430

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            zeilberger_count(1)

    def test_matches_enumeration(self):
        saws = count_saws(W2, 60)
        for n in range(2, 61):
            assert zeilberger_count(n) == saws[n]


class TestSandwich:
    def test_width3_passes(self, saws_w3_16):
        mu = connective_constant_width3().mu
        report = verify_sandwich(W3, saws_w3_16, mu, mu)
        assert report.passed
        assert report.rows[0].n == 1
        assert report.rows[-1].n == 16

    def test_width4_passes(self, saws_w4_14):
        lower, upper = mu_bounds_width4()
        report = verify_sandwich(W4, saws_w4_14, lower.mu, upper.mu)
        assert report.passed

    def test_perturbed_mu_fails(self, saws_w3_16):
        # The counts run ~4.6x above mu^n, so at enumerable lengths the lower
        # check only breaks for a perturbation of (4.6)^(1/16) ~ 10% or more.
        mu = connective_constant_width3().mu * 1.2
        report = verify_sandwich(W3, saws_w3_16, mu, mu)
        assert not report.passed
        assert any(not r.lower_ok for r in report.rows if r.n >= 10)

    def test_perturbed_mu_fails_bridge_upper(self, bridges_w3_18):
        mu = connective_constant_width3().mu * 0.95
        report = verify_bridge_corollary(W3, bridges_w3_18, mu)
        assert not report.passed

    def test_exact_lower_verdict(self):
        # mu^1 = 10000005 sits 5e-7 (relative) above the count 10^7: the
        # lower check fails, with no slack; at mu^1 = c_1 it holds.
        counts = CountTable((1, 10**7))
        row = verify_sandwich(W3, counts, 10000005.0, 10000005.0).rows[0]
        assert (row.lower_ok, row.upper_ok) == (False, True)
        assert verify_sandwich(W3, counts, 1e7, 1e7).passed

    def test_row_fields(self, saws_w3_16):
        mu = connective_constant_width3().mu
        row = verify_sandwich(W3, saws_w3_16, mu, mu).rows[2]
        assert row.n == 3
        assert row.count == saws_w3_16[3]
        assert row.lower <= row.count <= row.upper


def _fraction_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def fraction_sandwich(strip, counts, mu_lower, mu_upper) -> SandwichReport:
    """verify_sandwich's report, computed with exact ``Fraction`` powers."""
    lo, hi = Fraction(mu_lower), Fraction(mu_upper)
    rows = []
    for n in range(1, counts.n_max + 1):
        c = counts[n]
        lower = lo**n
        upper = hi ** (n + 1) * hw_polynomial(n, strip.width)
        floats = _fraction_float(lower), _fraction_float(upper)
        rows.append(SandwichRow(n, c, *floats, c >= lower, c <= upper))
    return SandwichReport(tuple(rows))


def fraction_corollary(strip, counts_b, mu) -> InequalityReport:
    """verify_bridge_corollary's report, computed with exact ``Fraction`` powers."""
    m = Fraction(mu)
    n_max = counts_b.n_max
    failures = []
    for n in range(2, n_max + 1):
        if counts_b[n] > m**n:
            failures.append(f"b_{n} > mu^{n}")
        if counts_b[n] < m ** (n - 1) / hw_polynomial(n, strip.width):
            failures.append(f"b_{n} < mu^{n-1}/P({n})")
    return InequalityReport(tuple(failures), 2 * max(n_max - 1, 0))


growth_constants = st.one_of(
    st.floats(1e-3, 1e3),
    st.integers(1, 1000),
    st.fractions(Fraction(1, 1000), Fraction(1000), max_denominator=10**6),
)
strips = st.integers(0, 5).map(lambda y_max: StripGeometry(0, y_max))


@st.composite
def near_bounds(draw):
    """A strip, a growth constant mu and a table whose every count is the
    floor or ceiling of one of the bounds mu^n, mu^(n+1) P(n) and
    mu^(n-1) / P(n), or one off it."""
    strip, mu = draw(strips), draw(growth_constants)
    m = Fraction(mu)
    counts = [1]
    for n in range(1, draw(st.integers(2, 24)) + 1):
        p = hw_polynomial(n, strip.width)
        bound = draw(st.sampled_from([m**n, m ** (n + 1) * p, m ** (n - 1) / p]))
        rounded = draw(st.sampled_from([math.floor, math.ceil]))(bound)
        counts.append(max(0, rounded + draw(st.sampled_from([-1, 0, 1]))))
    return strip, mu, CountTable(tuple(counts))


class TestIntegerVerdicts:
    """The integer cross-multiplied verdicts and report floats equal those of
    exact ``Fraction`` arithmetic, field for field."""

    @given(
        strips,
        st.lists(st.integers(0, 10**30), min_size=2, max_size=25).map(CountTable),
        growth_constants,
        growth_constants,
    )
    def test_drawn_tables(self, strip, counts, mu_lower, mu_upper):
        # An inverted bracket is refused (test_inverted_bracket_is_refused).
        mu_lower, mu_upper = sorted((mu_lower, mu_upper))
        got = verify_sandwich(strip, counts, mu_lower, mu_upper)
        assert got == fraction_sandwich(strip, counts, mu_lower, mu_upper)
        for mu in (mu_lower, mu_upper):
            got = verify_bridge_corollary(strip, counts, mu)
            assert got == fraction_corollary(strip, counts, mu)

    @given(near_bounds())
    @example((W3, 10000005.0, CountTable((1, 10**7, 10**14))))
    @example((W3, 1e7, CountTable((1, 10**7, 10**14))))
    @example((W3, 0.5, CountTable((1, 1, 0, 0))))
    # mu / P_3(2) = 1 = b_2: the corollary's lower bound is met exactly.
    @example((W3, 507, CountTable((1, 1, 1))))
    @example((W4, 1e-20, CountTable(tuple(10**7 * n for n in range(25)))))
    @example((W3, 2e12, CountTable(tuple(10**7 * n for n in range(25)))))
    @example((W4, 3, CountTable(tuple(10**7 * n for n in range(25)))))
    @example((W3, Fraction(23, 10), CountTable(tuple(10**7 * n for n in range(25)))))
    def test_counts_at_the_bounds(self, drawn):
        strip, mu, counts = drawn
        assert verify_sandwich(strip, counts, mu, mu) == fraction_sandwich(strip, counts, mu, mu)
        got = verify_bridge_corollary(strip, counts, mu)
        assert got == fraction_corollary(strip, counts, mu)

    def test_underflow_and_overflow_rows(self):
        counts = CountTable(tuple(range(25)))
        # 1e-20^n is below the least subnormal from n = 17 on.
        lower = [r.lower for r in verify_sandwich(W3, counts, 1e-20, 1e-20).rows]
        assert lower[15] > 0.0 and lower[16:] == [0.0] * 8
        # 2e12^25 P_3(24) is about 3.6e314: the upper bound overflows at n = 24 only.
        upper = [r.upper for r in verify_sandwich(W3, counts, 2e12, 2e12).rows]
        assert math.isfinite(upper[22]) and upper[23] == math.inf

    def test_every_number_type_gives_one_verdict(self):
        counts = CountTable((1, 4, 10, 22, 44))
        for equal in ((2, 2.0, Fraction(2), Decimal(2)), (2.5, Fraction(5, 2), Decimal("2.5"))):
            assert len({verify_sandwich(W3, counts, mu, mu) for mu in equal}) == 1
            assert len({verify_bridge_corollary(W3, counts, mu) for mu in equal}) == 1


@pytest.mark.parametrize(
    "mu, error, problem",
    [
        (-1.0, ValueError, "is not positive"),
        (0.0, ValueError, "is not positive"),
        (Fraction(-5, 2), ValueError, "is not positive"),
        (True, TypeError, "is not a number"),
        ("2", TypeError, "is not a number"),
        (None, TypeError, "is not a number"),
        (math.nan, ValueError, "is not finite"),
        (math.inf, ValueError, "is not finite"),
        (Decimal("NaN"), ValueError, "is not finite"),
        (Decimal("-Infinity"), ValueError, "is not finite"),
    ],
    ids=["negative", "zero", "negative_fraction", "bool", "str", "none", "nan", "inf",
         "decimal_nan", "decimal_minus_infinity"],
)
def test_bad_growth_constant_is_refused(mu, error, problem):
    # One line naming the value, not a verdict or another exception.
    counts = CountTable((1, 4, 10))

    def refused(name):
        message = f"growth constant {name}={mu!r} {problem}"
        return pytest.raises(error, match=f"^{re.escape(message)}$")

    with refused("mu_lower"):
        verify_sandwich(W3, counts, mu, 2.5)
    with refused("mu_upper"):
        verify_sandwich(W3, counts, 1.5, mu)
    with refused("mu"):
        verify_bridge_corollary(W3, counts, mu)


def test_inverted_bracket_is_refused():
    counts = CountTable((1, 4, 10))
    with pytest.raises(ValueError, match=r"^growth constant bracket \[2\.5, 1\.9\] is inverted$"):
        verify_sandwich(W3, counts, 2.5, 1.9)
    # Ends that are equal as numbers are a bracket of one constant.
    assert verify_sandwich(W3, counts, 2.5, Fraction(5, 2)).passed


class TestMultiplicativity:
    def test_passes_width3(self, saws_w3_14, bridges_w3_18):
        report = verify_multiplicativity(saws_w3_14, bridges_w3_18)
        assert report.passed
        assert report.checked == sum(t + 1 for t in range(15))

    def test_passes_width4(self, saws_w4_14, bridges_w4_16):
        assert verify_multiplicativity(saws_w4_14, bridges_w4_16).passed

    def test_spot_values(self, saws_w3_16, bridges_w3_18):
        c, b = saws_w3_16, bridges_w3_18
        assert c[4] <= c[2] * c[2]
        assert b[2] * b[2] <= b[4]

    def test_detects_violations(self):
        c = CountTable((1, 2, 5))  # 5 > 2*2
        b = CountTable((1, 1, 1))
        report = verify_multiplicativity(c, b)
        assert not report.passed
        report = verify_multiplicativity(c, CountTable((1, 2, 3)))
        assert "b_1 * b_1 > b_2" in report.failures


def test_two_tables_are_checked_over_their_common_range():
    # The longer table's last entry would break its check if it were read.
    for c, b in (((1, 2, 4, 100), (1, 1, 2)), ((1, 2, 4), (1, 1, 2, 0))):
        report = verify_multiplicativity(CountTable(c), CountTable(b))
        assert report == InequalityReport((), 1 + 2 + 3)
    report = verify_multiplicativity(CountTable((1, 2, 5)), CountTable((1, 1, 1, 1)))
    assert report == InequalityReport(("c_2 > c_1 * c_1",), 1 + 2 + 3)
    for h, b in (((1, 1, 2, 100), (1, 1, 3)), ((1, 1, 2), (1, 1, 3, 0))):
        report = verify_halfspace_proposition(W3, CountTable(h), CountTable(b))
        assert report == InequalityReport((), 3 * 3)


class TestHalfSpaceProposition:
    def test_width3(self, half_space_w3_14, bridges_w3_18):
        assert verify_halfspace_proposition(W3, half_space_w3_14, bridges_w3_18).passed

    def test_width4(self, half_space_w4_14, bridges_w4_16):
        assert verify_halfspace_proposition(W4, half_space_w4_14, bridges_w4_16).passed

    @pytest.mark.parametrize("y_max", [0, 1, 4, 5, 6])
    def test_other_widths(self, y_max):
        # Spans never outnumber the rows, so the cap is the width everywhere.
        strip = StripGeometry(0, y_max)
        h, b = count_half_space(strip, 24), count_bridges(strip, 24)
        assert verify_halfspace_proposition(strip, h, b).passed

    def test_spot_check_length3(self, half_space_w3_14, bridges_w3_18):
        h, b = half_space_w3_14[3], bridges_w3_18[3]
        assert (h, b) == (5, 5)
        assert h <= pf_exact(3, 3) * b == 10

    def test_computes_tables_when_missing(self):
        h, b = count_half_space(W3, 6), count_bridges(W3, 6)
        assert verify_halfspace_proposition(W3, h, b).passed

    def test_reports_each_violation(self, monkeypatch):
        # On W3, b = (1, 1, 3) and pf_exact(n, 3) = 1 for n <= 2; h_2 = 100
        # exceeds both products, and pf_bound(1) = 0 breaks both checks that
        # read it at n = 1.
        monkeypatch.setattr(bounds, "pf_bound", lambda a, k: 0 if a == 1 else pf_bound(a, k))
        report = verify_halfspace_proposition(W3, CountTable((1, 1, 100)), count_bridges(W3, 2))
        assert not report.passed
        assert report.checked == 9
        assert report.failures == (
            "h_1 > pf_bound(1) * b_1",
            "pf_exact(1) > pf_bound(1)",
            "h_2 > pf_exact(2) * b_2",
            "h_2 > pf_bound(2) * b_2",
        )


class TestBridgeCorollary:
    def test_width3(self, bridges_w3_18):
        mu = connective_constant_width3().mu
        report = verify_bridge_corollary(W3, bridges_w3_18, mu)
        assert report.passed

    def test_exact_upper_verdict(self):
        # b_2 = 100000050 lies 5e-7 (relative) above mu^2 = 10^8: the upper
        # check fails, with no slack; b_2 = mu^2 passes.
        report = verify_bridge_corollary(W3, CountTable((1, 1, 100000050)), 1e4)
        assert report.failures == ("b_2 > mu^2",)
        assert verify_bridge_corollary(W3, CountTable((1, 1, 10**8)), 1e4).passed

    def test_lower_verdict_and_table_check(self):
        # b_2 = 1 lies far below mu^1 / P(2) at mu = 10^4.
        report = verify_bridge_corollary(W3, CountTable((1, 1, 1)), 1e4)
        assert report.failures == ("b_2 < mu^1/P(2)",)
        # Every length of the table is checked: P_3(3) = 1764 < mu^2.
        report = verify_bridge_corollary(W3, CountTable((1, 1, 1, 1)), 1e4)
        assert report == InequalityReport(("b_2 < mu^1/P(2)", "b_3 < mu^2/P(3)"), 4)

    def test_uses_the_strips_width(self):
        # On 4 rows b_2 = 3 and P_4(2) = 4800, so mu = 3000 gives a lower
        # bound of 0.625; the 3-row P_3(2) = 507 would give 5.9 > b_2.
        b = count_bridges(W4, 2)
        assert (b[2], hw_polynomial(2, 4), hw_polynomial(2, 3)) == (3, 4800, 507)
        assert verify_bridge_corollary(W4, b, 3000.0).passed
        assert not verify_bridge_corollary(W3, b, 3000.0).passed

    def test_spot_values(self, bridges_w3_18):
        mu = connective_constant_width3().mu
        assert bridges_w3_18[2] == 3 <= mu**2
        assert bridges_w3_18[3] == 5 <= mu**3
        assert bridges_w3_18[3] >= mu**2 / hw_polynomial(3, 3)

    def test_nth_root_trend(self, bridges_w3_18):
        mu = connective_constant_width3().mu
        roots = [bridges_w3_18[n] ** (1.0 / n) for n in range(4, 19)]
        assert all(b > a - 0.05 for a, b in zip(roots, roots[1:]))
        assert mu - roots[-1] < 0.05


class TestInequalityChain:
    def test_full_chain_link_by_link(self, saws_w3_16, half_space_w3_14, bridges_w3_18):
        """The count bound holds through each intermediate inequality:
        c_n <= sum h h <= sum b b P_F P_F <= b_{n+1} * conv <= b_{n+1} P(n)."""
        c, h, b = saws_w3_16, half_space_w3_14, bridges_w3_18
        for n in range(1, 13):
            s1 = sum(h[n - m] * h[m + 1] for m in range(n + 1))
            assert c[n] <= s1
            s2 = sum(
                b[n - m] * b[m + 1] * pf_exact(m + 1, 3) * pf_exact(n - m, 3)
                for m in range(n + 1)
            )
            assert s1 <= s2
            s3 = sum(
                b[n - m] * b[m + 1] * pf_bound(m + 1, 3) * pf_bound(n - m, 3)
                for m in range(n + 1)
            )
            assert s2 <= s3
            conv = sum(
                pf_bound(m + 1, 3) * pf_bound(n - m, 3) for m in range(n + 1)
            )
            assert s3 <= b[n + 1] * conv
            assert conv <= hw_polynomial(n, 3)
