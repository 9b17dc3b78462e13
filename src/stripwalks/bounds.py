"""Inequality verification: Fekete-style bounds, the distinct-partition lemma,
the half-space/bridge proposition, the polynomial sandwich bounds on walk
counts, the bridge corollary, and the closed form for the two-row strip.

The count bounds mu^n <= c_n <= mu^(n+1) P_w(n) follow the span
decomposition of Hammersley and Welsh (Quart. J. Math. 13, 1962).  On a strip
of w rows a half-space walk has at most w spans, so the partition bound
``pf_bound(a, w)`` and the sandwich polynomial
P_w(n) = (n + 1) pf_bound(n + 1, w)^2 hold on every width; only the growth
constants the sandwich is checked against are known for 3 and 4 rows alone.

Each count is compared with the exact power of the ``Fraction`` of the
growth constant it is given, with no slack: a verdict says whether the
inequality holds for that constant.  With the constants of :mod:`analysis`,
bracketed to 1e-12, and with mu = 2.3, no count on the three- or four-row
strip up to n = 24 lies within 3 % of its bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .enumeration import count_bridges, count_half_space
from .lattice import CountTable, StripGeometry, _Frozen, _set_field


def _check_partition_args(a: int, k_max: int) -> None:
    if a < 0:
        raise ValueError("a must be non-negative")
    if k_max < 1:
        raise ValueError("k_max must be positive")


def pf_exact(a: int, k_max: int) -> int:
    """Number of partitions of ``a`` into at most ``k_max`` distinct parts.

    The empty partition counts for a = 0.
    """
    _check_partition_args(a, k_max)
    # dp[j][s] = number of partitions of s into j distinct parts
    dp = [[0] * (a + 1) for _ in range(k_max + 1)]
    dp[0][0] = 1
    for part in range(1, a + 1):
        for j in range(k_max, 0, -1):
            row, prev = dp[j], dp[j - 1]
            for s in range(a, part - 1, -1):
                row[s] += prev[s - part]
    return sum(dp[j][a] for j in range(k_max + 1))


def pf_bound(a: int, k_max: int) -> int:
    """The closed-form bound 1 + a + ... + a**(k_max - 1) on pf_exact.

    For a >= 1, listing the j distinct parts of a partition of ``a`` in
    decreasing order makes it a composition of ``a`` into j parts, and there
    are C(a - 1, j - 1) <= a**(j - 1) of those; summing over 1 <= j <= k_max
    gives the bound.  For a = 0 both sides are 1 (the empty partition).
    The bound is non-decreasing in ``a``.
    """
    _check_partition_args(a, k_max)
    return sum(a**i for i in range(k_max))


def hw_polynomial(n: int, width: int) -> int:
    """The polynomial factor P_w(n) = (n + 1) pf_bound(n + 1, w)^2 of the
    sandwich upper bound on a strip of ``width`` rows, evaluated exactly.

    The walk bound sums, over the n + 1 places m to split a walk, the
    product pf(m + 1, w) pf(n - m, w).  Both factors are at most
    pf(n + 1, w) because pf is non-decreasing, so
    sum_m pf(m + 1, w) pf(n - m, w) <= (n + 1) pf(n + 1, w)^2.  In powers of
    n + 1 from the first, this is (1, 2, 3, 2, 1) on 3 rows and
    (1, 2, 3, 4, 3, 2, 1) on 4.
    """
    if n < 1:
        raise ValueError("the bound is stated for n >= 1")
    return (n + 1) * pf_bound(n + 1, width) ** 2


def fibonacci(n: int) -> int:
    """Fibonacci numbers with F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def zeilberger_count(n: int) -> int:
    """Closed form 8 F_n - delta_n for n-step walks on the two-row strip.

    delta_n is 4 for odd n and n for even n; valid for n >= 2.  The
    Fibonacci convention F_1 = F_2 = 1 is fixed by matching the length-2
    count of 6, and is verified against exhaustive enumeration for all
    tested lengths.
    """
    if n < 2:
        raise ValueError("the closed form is stated for n >= 2")
    delta = 4 if n % 2 else n
    return 8 * fibonacci(n) - delta


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _float_or_inf(x: Fraction) -> float:
    """A positive bound as a float for the report, ``math.inf`` beyond the
    float range; the verdicts compare the exact values."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


class SandwichRow(_Frozen):
    """The count at one length, its two bounds as floats, and both verdicts."""

    __slots__ = ("n", "count", "lower", "upper", "lower_ok", "upper_ok")

    def __init__(
        self, n: int, count: int, lower: float, upper: float, lower_ok: bool, upper_ok: bool
    ) -> None:
        _set_field(self, "n", n)
        _set_field(self, "count", count)
        _set_field(self, "lower", lower)
        _set_field(self, "upper", upper)
        _set_field(self, "lower_ok", lower_ok)
        _set_field(self, "upper_ok", upper_ok)

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


class SandwichReport(_Frozen):
    """Per-length verdicts for mu_lower^n <= c_n <= mu_upper^(n+1) P(n)."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[SandwichRow, ...]) -> None:
        _set_field(self, "rows", rows)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_sandwich(
    strip: StripGeometry,
    counts: CountTable,
    mu_lower: float,
    mu_upper: float,
) -> SandwichReport:
    """Check the two-sided count bounds for 1 <= n <= counts.n_max.

    The constant is given as a bracket [mu_lower, mu_upper]: the lower check
    uses its lower end and the upper check its upper end.  A known constant,
    such as width 3's, is the bracket [mu, mu].
    """
    lo = Fraction(mu_lower)
    hi = Fraction(mu_upper)
    rows = []
    for n in range(1, counts.n_max + 1):
        c = counts[n]
        lower = lo**n
        upper = hi ** (n + 1) * hw_polynomial(n, strip.width)
        lower_ok = c >= lower
        upper_ok = c <= upper
        rows.append(
            SandwichRow(n, c, _float_or_inf(lower), _float_or_inf(upper), lower_ok, upper_ok)
        )
    return SandwichReport(tuple(rows))


class InequalityReport(_Frozen):
    """A flat list of named inequality checks with a global verdict."""

    __slots__ = ("failures", "checked")

    def __init__(self, failures: tuple[str, ...], checked: int) -> None:
        _set_field(self, "failures", failures)
        _set_field(self, "checked", checked)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_multiplicativity(
    counts_c: CountTable, counts_b: CountTable, n_max: int
) -> InequalityReport:
    """Submultiplicativity of walk counts, supermultiplicativity of bridges.

    Checks c_{n+m} <= c_n c_m and b_n b_m <= b_{n+m} for every split with
    n + m <= n_max.
    """
    if n_max > counts_c.n_max or n_max > counts_b.n_max:
        raise ValueError("count tables do not cover n_max")
    failures = []
    checked = 0
    for total in range(n_max + 1):
        for n in range(total + 1):
            m = total - n
            checked += 1
            if counts_c[total] > counts_c[n] * counts_c[m]:
                failures.append(f"c_{total} > c_{n} * c_{m}")
            if counts_b[n] * counts_b[m] > counts_b[total]:
                failures.append(f"b_{n} * b_{m} > b_{total}")
    return InequalityReport(tuple(failures), checked)


def verify_halfspace_proposition(strip: StripGeometry, n_max: int) -> InequalityReport:
    """h_n <= P_F(n) b_n for 0 <= n <= n_max, with both forms of P_F.

    The partition cap is the strip width w, which bounds the number of spans
    (see ``enumeration.HWDecomposition``).  Reflecting the spans maps a
    half-space walk of length n with spans A_1 > ... > A_k injectively to a
    bridge of length n and span A = A_1 + ... + A_k <= n, so
    h_n <= sum_A pf(A, w) b_(n,A) <= pf(n, w) b_n, since pf(., w) is
    non-decreasing.  The exact partition count and its polynomial bound must
    both satisfy the inequality.
    """
    k_max = strip.width
    h = count_half_space(strip, n_max)
    b = count_bridges(strip, n_max)
    failures = []
    for n in range(n_max + 1):
        exact = pf_exact(n, k_max)
        bound = pf_bound(n, k_max)
        if h[n] > exact * b[n]:
            failures.append(f"h_{n} > pf_exact({n}) * b_{n}")
        if h[n] > bound * b[n]:
            failures.append(f"h_{n} > pf_bound({n}) * b_{n}")
        if exact > bound:
            failures.append(f"pf_exact({n}) > pf_bound({n})")
    return InequalityReport(tuple(failures), 3 * (n_max + 1))


def verify_bridge_corollary(
    strip: StripGeometry, counts_b: CountTable, mu: float, n_max: int
) -> InequalityReport:
    """mu^(n-1)/P(n) <= b_n <= mu^n for 2 <= n <= n_max.

    P is the sandwich polynomial of the strip's width, as in
    :func:`verify_sandwich`.
    """
    if n_max > counts_b.n_max:
        raise ValueError("bridge table does not cover n_max")
    m = Fraction(mu)
    failures = []
    for n in range(2, n_max + 1):
        b = counts_b[n]
        upper = m**n
        lower = m ** (n - 1) / hw_polynomial(n, strip.width)
        if b > upper:
            failures.append(f"b_{n} > mu^{n}")
        if b < lower:
            failures.append(f"b_{n} < mu^{n-1}/P({n})")
    return InequalityReport(tuple(failures), 2 * max(n_max - 1, 0))
