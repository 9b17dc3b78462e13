import math

import pytest

from stripwalks import (
    CountTable,
    atoms_width3,
    compose_bridge_code,
    connective_constant_width3,
    estimate_mu,
    mu_bounds_width4,
    smallest_positive_root,
)
from stripwalks.analysis import _winding_number
from stripwalks.genfunc import (
    W3_BRIDGE_DENOMINATOR,
    W3_LOOP_POLYNOMIAL,
    W4_LOOP_DENOMINATOR,
    W4_LOWER_DENOMINATOR,
    _poly,
)


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
        # 1/2048 lies inside the first scan cell (0, 1/1024]; the first
        # halving lands on it and collapses the bracket.
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
        # <= tol, and never coarser than the 1/1024 cells of the scan.
        lo, hi = smallest_positive_root(poly, tol).bracket
        width = min(2.0**-10, 2.0 ** (math.frexp(tol)[1] - 1))
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
        from fractions import Fraction

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
        # A coarse bracket's midpoint can lie above the root by more than the
        # guard's 1e-6 margin; the guard's circle must still stay inside it.
        for p in (W3_LOOP_POLYNOMIAL, W4_LOWER_DENOMINATOR, W4_LOOP_DENOMINATOR):
            lo, hi = smallest_positive_root(p, tol).bracket
            assert 0 < hi - lo <= tol

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
        # the circle through its only positive real root t = 1.
        p = _poly(1, -2, 2) * _poly(1, -1)
        with pytest.raises(ArithmeticError):
            smallest_positive_root(p)

    @pytest.mark.parametrize(
        "p, error, match",
        [
            # A double root at 1/3: no sign change there, so the scan goes on
            # to 1/2 and the guard finds the two roots inside.
            (_poly(1, -3) * _poly(1, -3) * _poly(1, -2), ArithmeticError, "2 root"),
            # 1/46 and 1/45 share the scan cell (22/1024, 23/1024].
            (_poly(1, -45) * _poly(1, -46) * _poly(1, -2), ArithmeticError, "2 root"),
            (_poly(1, -3) * _poly(1, -3), ValueError, "no sign change"),
        ],
    )
    def test_refuses_roots_the_scan_skips(self, p, error, match):
        with pytest.raises(error, match=match):
            smallest_positive_root(p)


# Root moduli (from sympy's nroots): W3 loop 0.5223, 0.9024 (x2), ...;
# W3 bridge denominator 0.5223, 0.6415, 0.8580 (x2), ...; degree-44 loop
# denominator 0.4617, 0.5467 (x2), 0.5645, ...; (1-2t+2t^2)(1-t) 0.7071 (x2), 1.
@pytest.mark.parametrize(
    "poly, scale, radius, inside",
    [
        (W3_LOOP_POLYNOMIAL, 1 - 1e-6, None, 0),
        (W3_LOOP_POLYNOMIAL, 1 + 1e-6, None, 1),
        (W3_LOOP_POLYNOMIAL, 1.5, None, 1),
        (W3_BRIDGE_DENOMINATOR, 1.5, None, 2),
        (W4_LOOP_DENOMINATOR, 1 - 1e-6, None, 0),
        (W4_LOOP_DENOMINATOR, None, 0.55, 3),
        (_poly(1, -2, 2) * _poly(1, -1), None, 0.9, 2),
        (_poly(1, -2, 2) * _poly(1, -1), None, 1.1, 3),
    ],
)
def test_winding_number_counts_roots_inside(poly, scale, radius, inside):
    # The guard samples only the upper half circle and doubles its phase sum.
    if radius is None:
        radius = smallest_positive_root(poly).root * scale
    assert _winding_number(poly, radius) == inside


class TestConnectiveConstants:
    def test_width3_value(self):
        res = connective_constant_width3()
        assert 0.52228 <= res.root <= 0.52231
        assert abs(res.mu - 1.914628) < 1e-5

    def test_width3_polynomials_agree(self):
        full = smallest_positive_root(W3_BRIDGE_DENOMINATOR)
        loop = smallest_positive_root(W3_LOOP_POLYNOMIAL)
        assert abs(full.root - loop.root) <= 1e-9

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
