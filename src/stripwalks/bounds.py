"""Inequality verification: Fekete-style bounds, the distinct-partition lemma,
the half-space/bridge proposition, the polynomial sandwich bounds on walk
counts, the bridge corollary, and the closed form for the two-row strip.

Comparisons between powers of the (approximately known) growth constant and
exact integer counts are done in exact rational arithmetic with a
conservative relative margin: a check only fails if it fails by more than
the fixed relative margin ``_MARGIN`` = 1e-6, since the constant itself is
known to ~6 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .enumeration import count_bridges, count_half_space
from .lattice import CountTable, StripGeometry

_MARGIN = Fraction(1e-6)

# Coefficients of the sandwich polynomials in powers of (n + 1), starting at
# the first power: width 3 uses degree 5, width 4 degree 7.
_HW_COEFFS = {3: (1, 2, 3, 2, 1), 4: (1, 2, 3, 4, 3, 2, 1)}


def pf_exact(a: int, k_max: int) -> int:
    """Number of partitions of ``a`` into at most ``k_max`` distinct parts.

    The empty partition counts for a = 0.
    """
    if a < 0:
        raise ValueError("a must be non-negative")
    if k_max < 1:
        raise ValueError("k_max must be positive")
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
    """The closed-form bound 1 + a + ... + a**(k_max - 1) on pf_exact."""
    if a < 0:
        raise ValueError("a must be non-negative")
    if k_max not in (3, 4):
        raise ValueError("the bound is stated for k_max in {3, 4}")
    return sum(a**i for i in range(k_max))


def hw_polynomial(n: int, width: int) -> int:
    """The polynomial factor of the sandwich upper bound, evaluated exactly.

    Width 3: (n+1) + 2(n+1)^2 + 3(n+1)^3 + 2(n+1)^4 + (n+1)^5.
    Width 4: (n+1) + 2(n+1)^2 + 3(n+1)^3 + 4(n+1)^4 + 3(n+1)^5 + 2(n+1)^6 + (n+1)^7.
    """
    if n < 1:
        raise ValueError("the bound is stated for n >= 1")
    if width not in _HW_COEFFS:
        raise ValueError(f"width must be 3 or 4, got {width}")
    m = n + 1
    return sum(c * m**i for i, c in enumerate(_HW_COEFFS[width], start=1))


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


@dataclass(frozen=True)
class SandwichRow:
    n: int
    count: int
    lower: float
    upper: float
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


@dataclass(frozen=True)
class SandwichReport:
    """Per-length verdicts for mu_lower^n <= c_n <= mu_upper^(n+1) P(n)."""

    mu_lower: float
    mu_upper: float
    rows: tuple[SandwichRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_sandwich(
    strip: StripGeometry,
    counts: CountTable,
    mu_lower: float,
    mu_upper: float | None = None,
) -> SandwichReport:
    """Check the two-sided count bounds for 1 <= n <= counts.n_max.

    For the width-3 strip the same constant serves both sides; for width 4
    only a bracket is known, so the lower check uses the lower bound of the
    bracket and the upper check its upper bound.
    """
    if mu_upper is None:
        mu_upper = mu_lower
    lo = Fraction(mu_lower)
    hi = Fraction(mu_upper)
    rows = []
    for n in range(1, counts.n_max + 1):
        c = counts[n]
        lower = lo**n
        upper = hi ** (n + 1) * hw_polynomial(n, strip.width)
        lower_ok = c >= lower * (1 - _MARGIN)
        upper_ok = c <= upper * (1 + _MARGIN)
        rows.append(
            SandwichRow(n, c, _float_or_inf(lower), _float_or_inf(upper), lower_ok, upper_ok)
        )
    return SandwichReport(mu_lower, mu_upper, tuple(rows))


@dataclass(frozen=True)
class InequalityReport:
    """A flat list of named inequality checks with a global verdict."""

    name: str
    failures: tuple[str, ...]
    checked: int

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
    return InequalityReport("multiplicativity", tuple(failures), checked)


def verify_halfspace_proposition(strip: StripGeometry, n_max: int) -> InequalityReport:
    """h_n <= P_F(n) b_n for 0 <= n <= n_max, with both forms of P_F.

    The partition cap is the strip width (3 on the width-3 strip, 4 on
    width 4); the exact partition count and its polynomial bound must both
    satisfy the inequality.
    """
    if strip.width not in (3, 4):
        raise ValueError(f"width must be 3 or 4, got {strip.width}")
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
    return InequalityReport("halfspace", tuple(failures), 3 * (n_max + 1))


def verify_bridge_corollary(counts_b: CountTable, mu: float, n_max: int) -> InequalityReport:
    """mu^(n-1)/P(n) <= b_n <= mu^n on the width-3 strip, for 2 <= n <= n_max."""
    if n_max > counts_b.n_max:
        raise ValueError("bridge table does not cover n_max")
    m = Fraction(mu)
    failures = []
    for n in range(2, n_max + 1):
        b = counts_b[n]
        upper = m**n
        lower = m ** (n - 1) / hw_polynomial(n, 3)
        if b > upper * (1 + _MARGIN):
            failures.append(f"b_{n} > mu^{n}")
        if b < lower * (1 - _MARGIN):
            failures.append(f"b_{n} < mu^{n-1}/P({n})")
    return InequalityReport("bridge-corollary", tuple(failures), 2 * max(n_max - 1, 0))
