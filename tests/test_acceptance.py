"""Acceptance suite: the package's exit criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines even when everything passes).
"""

import collections
import time

from conftest import W2, W3, W4
from stripwalks import (
    IrreducibleFactor,
    RationalGF,
    atoms_width3,
    atoms_width4_lower,
    atoms_width4_upper,
    classify_irreducible,
    compose_bridge_code,
    connective_constant_width3,
    count_bridges,
    count_irreducible,
    count_saws,
    cut_points,
    estimate_mu,
    hw_decompose,
    hw_reflect,
    important_part_denominator,
    iter_walks,
    mu_bounds_width4,
    smallest_positive_root,
    transform_irreducible_w4,
    upper_atom_from_pipeline,
    verify_halfspace_proposition,
    verify_multiplicativity,
    verify_sandwich,
    zeilberger_count,
)
from stripwalks.genfunc import (
    ADDED_STEPS,
    CORRECTION_POLYNOMIALS,
    TRANSFORMED_WALK_GFS,
    W3_BRIDGE_DENOMINATOR,
    W3_BRIDGE_NUMERATOR,
    W3_LOOP_POLYNOMIAL,
    W4_LOWER_DENOMINATOR,
    W4_LOWER_NUMERATOR,
    W4_LOOP_DENOMINATOR,
)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    return ok


def test_criterion_1_two_row_closed_form():
    t0 = time.monotonic()
    table = count_saws(W2, 22)
    mismatches = [n for n in range(2, 23) if table[n] != zeilberger_count(n)]
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 10.0
    assert report("1", ok, f"closed form vs enumeration, n<=22 in {elapsed:.1f}s")
    assert not mismatches
    assert elapsed < 10.0


def test_criterion_2_width3_generating_function():
    t0 = time.monotonic()
    bridges = count_bridges(W3, 18)
    composed = compose_bridge_code(atoms_width3(), 3)
    series_ok = composed.series(18) == bridges.counts
    displayed = RationalGF(W3_BRIDGE_NUMERATOR, W3_BRIDGE_DENOMINATOR)
    quotient_ok = composed == displayed
    elapsed = time.monotonic() - t0
    ok = series_ok and quotient_ok and elapsed < 60.0
    assert report("2", ok, f"series 0..18 exact, quotient equal, {elapsed:.1f}s")
    assert series_ok
    assert quotient_ok
    assert elapsed < 60.0


def test_criterion_3_width3_root_agreement():
    full = smallest_positive_root(W3_BRIDGE_DENOMINATOR, tol=1e-12)
    loop = smallest_positive_root(W3_LOOP_POLYNOMIAL, tol=1e-12)
    agree = abs(full.root - loop.root) <= 1e-9
    root_ok = abs(loop.root - 0.522295) <= 1e-5
    ok = agree and root_ok
    assert report("3 (roots)", ok, f"roots agree and root={loop.root:.7f}")
    assert agree
    assert root_ok


def test_criterion_3_width3_mu_window():
    res = connective_constant_width3()
    ok = abs(res.mu - 1.914) <= 5e-4
    report("3 (mu)", ok, f"computed mu={res.mu:.7f}, asserted window 1.914 +/- 5e-4")
    assert ok, (
        f"mu = 1/{res.root:.7f} = {res.mu:.7f} lies outside [1.9135, 1.9145]; "
        "the 3-digit 1.914 is a truncation of 1.91463, so the +/-5e-4 window "
        "cannot contain the true value"
    )


def test_criterion_4_width4_lower_bound(bridges_w4_16):
    composed = compose_bridge_code(atoms_width4_lower(), 4)
    displayed = RationalGF(W4_LOWER_NUMERATOR, W4_LOWER_DENOMINATOR)
    quotient_ok = composed == displayed
    first_six_ok = composed.series(5) == (1, 1, 3, 6, 12, 24)
    res = smallest_positive_root(W4_LOWER_DENOMINATOR, tol=1e-12)
    root_ok = abs(res.root - 0.487645) <= 1e-5
    mu_ok = abs(res.mu - 2.050) <= 1e-3
    minorizes = all(
        s <= b for s, b in zip(composed.series(16), bridges_w4_16.counts)
    )
    ok = quotient_ok and first_six_ok and root_ok and mu_ok and minorizes
    assert report("4", ok, f"lower quotient, root={res.root:.6f}, mu={res.mu:.6f}")
    assert quotient_ok and first_six_ok and root_ok and mu_ok and minorizes


def test_criterion_5_width4_upper_bound(bridges_w4_16):
    d44 = important_part_denominator(atoms_width4_upper(), 4)
    coeffs_ok = d44 == W4_LOOP_DENOMINATOR
    res = smallest_positive_root(d44, tol=1e-12)
    root_ok = abs(res.root - 0.461722) <= 1e-5
    mu_ok = abs(res.mu - 2.166) <= 1e-3
    composed = compose_bridge_code(atoms_width4_upper(), 4)
    majorizes = all(
        s >= b for s, b in zip(composed.series(16), bridges_w4_16.counts)
    )
    ok = coeffs_ok and root_ok and mu_ok and majorizes
    assert report("5", ok, f"degree-44 exact, root={res.root:.6f}, mu={res.mu:.6f}")
    assert coeffs_ok and root_ok and mu_ok and majorizes


def test_criterion_6_correction_pipeline():
    atoms = atoms_width4_upper()
    pipeline_ok = all(
        upper_atom_from_pipeline(t) == atoms[t] for t in ("OO", "OI", "IO", "II")
    )
    legality_ok = True
    for t, line in (("OO", 2), ("OI", 2), ("IO", 1), ("II", 1)):
        base = TRANSFORMED_WALK_GFS[t]
        unshifted = RationalGF(
            base.numerator.unshift(ADDED_STEPS[t]), base.denominator
        )
        corrected = (
            unshifted - RationalGF.from_polynomial(CORRECTION_POLYNOMIALS[t])
        ).series(13)
        exact = count_irreducible(W4, t, 13, line, tailless=True).counts
        legality_ok &= all(c >= e for c, e in zip(corrected, exact))
    ok = pipeline_ok and legality_ok
    assert report("6", ok, "pipeline equalities and corrected >= exact, n<=13")
    assert pipeline_ok and legality_ok


def test_criterion_7_sandwich_suite(
    saws_w3_14, saws_w3_16, saws_w4_14, half_space_w3_14, half_space_w4_14,
    bridges_w3_18, bridges_w4_16,
):
    mu3 = connective_constant_width3().mu
    s3 = verify_sandwich(W3, saws_w3_16, mu3, mu3)
    lower, upper = mu_bounds_width4()
    s4 = verify_sandwich(W4, saws_w4_14, lower.mu, upper.mu)
    # Each verifier stops at its shorter table: n <= 14 throughout.
    h3 = verify_halfspace_proposition(W3, half_space_w3_14, bridges_w3_18)
    h4 = verify_halfspace_proposition(W4, half_space_w4_14, bridges_w4_16)
    m3 = verify_multiplicativity(saws_w3_14, bridges_w3_18)
    m4 = verify_multiplicativity(saws_w4_14, bridges_w4_16)
    ok = all(r.passed for r in (s3, s4, h3, h4, m3, m4))
    assert report("7", ok, "sandwich, half-space and multiplicativity inequalities")
    assert s3.passed and s4.passed
    assert h3.passed and h4.passed
    assert m3.passed and m4.passed


def test_criterion_8_structural_properties():
    # span-decomposition depth bound on all half-space walks of length <= 14
    k_ok = True
    for strip, cap in ((W3, 3), (W4, 4)):
        for walk in iter_walks(strip, 14, kind="half_space"):
            if walk.length and hw_decompose(walk).k > cap:
                k_ok = False

    # reflection injectivity within each span-signature class, length <= 12
    reflect_ok = True
    for strip in (W3, W4):
        classes = collections.defaultdict(set)
        for walk in iter_walks(strip, 12, kind="half_space"):
            if walk.length == 0:
                continue
            dec = hw_decompose(walk)
            if dec.k < 2:
                continue
            img = hw_reflect(walk, dec)
            key = (walk.length, dec.spans)
            if img.points in classes[key]:
                reflect_ok = False
            classes[key].add(img.points)

    # transformation injectivity per (type, start line), length <= 10
    transform_ok = True
    images = collections.defaultdict(set)
    for start in (2, 1, 0, -1):
        shifted = W4.shift_origin(start)
        for walk in iter_walks(shifted, 10, kind="bridge"):
            if walk.length < 2 or cut_points(walk):
                continue
            factor = IrreducibleFactor(walk, start, 0, None)
            try:
                img = transform_irreducible_w4(factor, W4)
            except ValueError:
                continue  # simple factors are outside the transformation domain
            key = (classify_irreducible(factor, W4), start)
            if img.points in images[key]:
                transform_ok = False
            images[key].add(img.points)

    ok = k_ok and reflect_ok and transform_ok
    assert report("8", ok, "depth bound, reflection and transformation injectivity")
    assert k_ok and reflect_ok and transform_ok


def test_criterion_9_empirical_convergence(bridges_w3_18, bridges_w4_16):
    n3, _, ratio3 = estimate_mu(bridges_w3_18)[-1]
    n4, _, ratio4 = estimate_mu(bridges_w4_16)[-1]
    ok3 = n3 == 18 and abs(ratio3 - 1.914) < 0.02
    ok4 = n4 == 16 and 2.0 < ratio4 < 2.2
    ok = ok3 and ok4
    assert report("9", ok, f"ratio estimates {ratio3:.4f} (w3), {ratio4:.4f} (w4)")
    assert ok3 and ok4
