"""Walkthrough: sandwiching walk counts between powers of the growth constant.

Submultiplicativity gives mu^n <= c_n outright.  For the other side, every
walk splits at its leftmost point into two half-space walks; the span
decomposition plus the reflection trick bounds half-space walks by bridges
times a distinct-partition count, and chaining the inequalities yields
c_n <= mu^(n+1) P(n) with an explicit polynomial P.
"""

from stripwalks import (
    StripGeometry,
    connective_constant_width3,
    count_bridges,
    count_half_space,
    count_saws,
    hw_polynomial,
    mu_bounds_width4,
    pf_bound,
    pf_exact,
    verify_halfspace_proposition,
    verify_multiplicativity,
    verify_sandwich,
    zeilberger_count,
)

print("-- warm-up: the two-row strip has a closed form --")
two_rows = StripGeometry(0, 1)
table = count_saws(two_rows, 12)
for n in (2, 5, 10, 12):
    print(f"  n={n:2d}: enumerated {table[n]:5d}  closed form {zeilberger_count(n):5d}")

print("\n-- distinct-partition counts and their polynomial bound --")
for a in (0, 3, 6, 12):
    print(f"  A={a:2d}: exact {pf_exact(a, 3):3d}  bound {pf_bound(a, 3):4d}")

for strip, label in ((StripGeometry(-1, 1), "three rows"), (StripGeometry(-1, 2), "four rows")):
    n_max = 14 if strip.width == 4 else 16
    print(f"\n-- {label} --")
    c = count_saws(strip, n_max)
    b = count_bridges(strip, n_max)
    if strip.width == 3:
        mu_lo = mu_hi = connective_constant_width3().mu
        print(f"  mu = {mu_lo:.6f}")
    else:
        lo, hi = mu_bounds_width4()
        mu_lo, mu_hi = lo.mu, hi.mu
        print(f"  mu bracket = [{mu_lo:.6f}, {mu_hi:.6f}]")
    sandwich = verify_sandwich(strip, c, mu_lo, mu_hi)
    print(f"  sandwich mu^n <= c_n <= mu^(n+1) P(n): passed={sandwich.passed}")
    row = sandwich.rows[-1]
    print(f"    n={row.n}: {row.lower:.3e} <= {row.count} <= {row.upper:.3e}")
    print(f"  P({row.n}) = {hw_polynomial(row.n, strip.width)}")
    half = verify_halfspace_proposition(strip, count_half_space(strip, n_max), b)
    print(f"  half-space h_n <= P_F(n) b_n: passed={half.passed}")
    mult = verify_multiplicativity(c, b)
    print(f"  multiplicativity of c and b:  passed={mult.passed}")
