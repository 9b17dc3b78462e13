"""Inequality verification: Fekete-style bounds, the distinct-partition lemma,
the half-space/bridge proposition, the polynomial sandwich bounds on walk
counts, the bridge corollary, and the closed form for the two-row strip.

The count bounds mu^n <= c_n <= mu^(n+1) P_w(n) follow the span
decomposition of Hammersley and Welsh (Quart. J. Math. 13, 1962).  On a strip
of w rows a half-space walk has at most w spans, so the partition bound
``pf_bound(a, w)`` and the sandwich polynomial
P_w(n) = (n + 1) pf_bound(n + 1, w)^2 hold on every width; only the growth
constants the sandwich is checked against are known for 3 and 4 rows alone.

Each verifier checks every length of the count tables it is given, and
builds none: with two tables it stops at the shorter one's ``n_max``.  So
this module needs nothing from :mod:`enumeration`, and its callers choose
the range by the tables they pass.

A growth constant is a positive, finite ``int``, ``float``, ``Fraction`` or
``Decimal`` (not a ``bool``), taken as the exact ratio num/den of its
``as_integer_ratio()``; anything else, and a bracket whose lower end exceeds
its upper end, is refused with a one-line error that names the value.  So
are a non-``int`` (``bool`` included) and an out-of-range value for an
integer parameter of ``pf_exact``, ``pf_bound``, ``hw_polynomial``,
``fibonacci`` and ``zeilberger_count``: the error names the parameter.  Each
count is compared with its bound by cross-multiplying integers, with no
slack: a verdict says whether the inequality holds for that constant.  With
the constants of :mod:`analysis`, bracketed to 1e-12, and with mu = 2.3, no
count on the three- or four-row strip up to n = 24 lies within 3 % of its
bound.
"""

from __future__ import annotations

import math

from .lattice import CountTable, StripGeometry, _Frozen


def _check_int(name: str, value: int, least: int) -> None:
    """Refuse a non-``int`` (``bool`` included) or a value below ``least``,
    naming the caller's parameter and the value."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def pf_exact(a: int, k_max: int) -> int:
    """Number of partitions of ``a`` into at most ``k_max`` distinct parts.

    The empty partition counts for a = 0.
    """
    _check_int("a", a, 0)
    _check_int("k_max", k_max, 1)
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
    _check_int("a", a, 0)
    _check_int("k_max", k_max, 1)
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
    _check_int("n", n, 1)
    _check_int("width", width, 1)
    return (n + 1) * pf_bound(n + 1, width) ** 2


def fibonacci(n: int) -> int:
    """Fibonacci numbers with F_1 = F_2 = 1."""
    _check_int("n", n, 1)
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
    _check_int("n", n, 2)
    delta = 4 if n % 2 else n
    return 8 * fibonacci(n) - delta


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _float_or_inf(num: int, den: int) -> float:
    """The positive bound num/den as a correctly rounded float for the
    report, ``math.inf`` beyond the float range; the verdicts compare the
    exact values."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _growth_ratio(name: str, mu: object) -> tuple[int, int]:
    """The exact ratio (num, den) of the growth constant passed as ``name``;
    see the module docstring for what is refused."""
    ratio = getattr(mu, "as_integer_ratio", None)
    if ratio is None or type(mu) is bool:
        raise TypeError(f"growth constant {name}={mu!r} is not a number")
    try:
        num, den = ratio()
    except (ValueError, OverflowError):  # NaN, infinities
        raise ValueError(f"growth constant {name}={mu!r} is not finite") from None
    if num <= 0:
        raise ValueError(f"growth constant {name}={mu!r} is not positive")
    return num, den


class SandwichRow(_Frozen):
    """The count at one length, its two bounds as floats, and both verdicts."""

    __slots__ = ("n", "count", "lower", "upper", "lower_ok", "upper_ok")

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


class SandwichReport(_Frozen):
    """Per-length verdicts for mu_lower^n <= c_n <= mu_upper^(n+1) P(n)."""

    __slots__ = ("rows",)

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
    lo_num, lo_den = _growth_ratio("mu_lower", mu_lower)
    hi_num, hi_den = _growth_ratio("mu_upper", mu_upper)
    if lo_num * hi_den > hi_num * lo_den:
        raise ValueError(f"growth constant bracket [{mu_lower!r}, {mu_upper!r}] is inverted")
    rows = []
    for n in range(1, counts.n_max + 1):
        c = counts[n]
        lower_num = lo_num**n
        lower_den = lo_den**n
        upper_num = hi_num ** (n + 1) * hw_polynomial(n, strip.width)
        upper_den = hi_den ** (n + 1)
        lower_ok = c * lower_den >= lower_num
        upper_ok = c * upper_den <= upper_num
        lower = _float_or_inf(lower_num, lower_den)
        upper = _float_or_inf(upper_num, upper_den)
        rows.append(SandwichRow(n, c, lower, upper, lower_ok, upper_ok))
    return SandwichReport(tuple(rows))


class InequalityReport(_Frozen):
    """A flat list of named inequality checks with a global verdict."""

    __slots__ = ("failures", "checked")

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_multiplicativity(counts_c: CountTable, counts_b: CountTable) -> InequalityReport:
    """Submultiplicativity of walk counts, supermultiplicativity of bridges.

    Checks c_{n+m} <= c_n c_m and b_n b_m <= b_{n+m} for every split with
    n + m up to the shorter table's ``n_max``.
    """
    n_max = min(counts_c.n_max, counts_b.n_max)
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


def verify_halfspace_proposition(
    strip: StripGeometry, counts_h: CountTable, counts_b: CountTable
) -> InequalityReport:
    """h_n <= P_F(n) b_n, with both forms of P_F, for the half-space counts
    ``counts_h`` and bridge counts ``counts_b`` of ``strip``, up to the
    shorter table's ``n_max``.

    The partition cap is the strip width w, which bounds the number of spans
    (see ``enumeration.HWDecomposition``).  Reflecting the spans maps a
    half-space walk of length n with spans A_1 > ... > A_k injectively to a
    bridge of length n and span A = A_1 + ... + A_k <= n, so
    h_n <= sum_A pf(A, w) b_(n,A) <= pf(n, w) b_n, since pf(., w) is
    non-decreasing.  The exact partition count and its polynomial bound must
    both satisfy the inequality.
    """
    k_max = strip.width
    n_max = min(counts_h.n_max, counts_b.n_max)
    failures = []
    for n in range(n_max + 1):
        exact = pf_exact(n, k_max)
        bound = pf_bound(n, k_max)
        if counts_h[n] > exact * counts_b[n]:
            failures.append(f"h_{n} > pf_exact({n}) * b_{n}")
        if counts_h[n] > bound * counts_b[n]:
            failures.append(f"h_{n} > pf_bound({n}) * b_{n}")
        if exact > bound:
            failures.append(f"pf_exact({n}) > pf_bound({n})")
    return InequalityReport(tuple(failures), 3 * (n_max + 1))


def verify_bridge_corollary(
    strip: StripGeometry, counts_b: CountTable, mu: float
) -> InequalityReport:
    """mu^(n-1)/P(n) <= b_n <= mu^n for 2 <= n <= counts_b.n_max.

    P is the sandwich polynomial of the strip's width, and mu a growth
    constant, as in :func:`verify_sandwich`.
    """
    num, den = _growth_ratio("mu", mu)
    failures = []
    for n in range(2, counts_b.n_max + 1):
        b = counts_b[n]
        if b * den**n > num**n:
            failures.append(f"b_{n} > mu^{n}")
        if b * den ** (n - 1) * hw_polynomial(n, strip.width) < num ** (n - 1):
            failures.append(f"b_{n} < mu^{n-1}/P({n})")
    return InequalityReport(tuple(failures), 2 * max(counts_b.n_max - 1, 0))
