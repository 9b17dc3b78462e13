import collections
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import W2, W3, W4, W5, seq_add, seq_geometric, seq_mul, seq_one, seq_star
from stripwalks import (
    BRIDGE_TYPES,
    IrreducibleFactor,
    RationalGF,
    StripGeometry,
    Walk,
    classify_irreducible,
    count_bridges,
    count_bridges_by_span,
    count_half_space,
    count_irreducible,
    count_saws,
    cut_points,
    decompose_bridge,
    hw_decompose,
    hw_reflect,
    is_bridge,
    is_half_space,
    iter_walks,
    transform_irreducible_w4,
    zeilberger_count,
)
from stripwalks import enumeration
from stripwalks.cli import MAX_STRIP_WIDTH
from stripwalks.enumeration import (
    _cell,
    _next_column,
    _packed_width,
    _transfer,
    _unpacked,
    bridge_span_table,
    is_simple_factor,
)
from stripwalks.genfunc import W3_BRIDGE_DENOMINATOR, W3_BRIDGE_NUMERATOR

COUNTS_BY_KIND = {
    "saw": count_saws,
    "half_space": count_half_space,
    "bridge": count_bridges,
}


# One row per refusal of a negative length: the call and the parameter it
# names.  iter_walks is a generator, so it is drained to reach its check.
NEGATIVE_N = {
    "count_saws": (lambda: count_saws(W3, -1), "n_max"),
    "count_half_space": (lambda: count_half_space(W3, -1), "n_max"),
    "count_bridges": (lambda: count_bridges(W3, -1), "n_max"),
    "bridge_span_table": (lambda: bridge_span_table(W3, -1), "n"),
    "count_bridges_by_span": (lambda: count_bridges_by_span(W3, -1, 0), "n"),
    "count_irreducible": (lambda: count_irreducible(W3, "OO", -1, 1), "n_max"),
    "iter_walks": (lambda: list(iter_walks(W3, -1)), "n_max"),
}

# One row per refusal of a non-int length or line: the call and the whole
# message.
NON_INT_LENGTHS = {
    "count_saws bool": (lambda: count_saws(W3, True), "n_max must be an int, got True"),
    "count_saws float": (lambda: count_saws(W3, 2.0), "n_max must be an int, got 2.0"),
    "count_half_space str": (lambda: count_half_space(W3, "3"), "n_max must be an int, got '3'"),
    "count_bridges bool": (lambda: count_bridges(W3, False), "n_max must be an int, got False"),
    "bridge_span_table float n": (lambda: bridge_span_table(W3, 2.5), "n must be an int, got 2.5"),
    "count_bridges_by_span bool n": (
        lambda: count_bridges_by_span(W3, True, 1), "n must be an int, got True"
    ),
    "count_bridges_by_span bool span": (
        lambda: count_bridges_by_span(W3, 4, True), "span must be an int, got True"
    ),
    "count_irreducible bool": (
        lambda: count_irreducible(W3, "OO", True, 1), "n_max must be an int, got True"
    ),
    "iter_walks float": (lambda: list(iter_walks(W3, 3.0)), "n_max must be an int, got 3.0"),
    "count_irreducible bool start_line": (
        lambda: count_irreducible(W3, "OO", 5, True), "line must be an int, got True"
    ),
}


def _lengths_from_iter_walks(strip, n_max, kind):
    """Per-length counts of one walk kind, grouped from the DFS oracle."""
    counts = [0] * (n_max + 1)
    for w in iter_walks(strip, n_max, kind=kind):
        counts[w.length] += 1
    return tuple(counts)


def _check_irreducible_against_iter_walks(strip, start, n_max):
    """Every count_irreducible table of one start line against the DFS
    oracle: every bridge from iter_walks, its cut points and the classifier.
    A merged irreducible factor has cuts exactly {1..k} (its tail) and at
    least two steps after them."""
    expected = {
        (t, tailless): [0] * (n_max + 1) for t in BRIDGE_TYPES for tailless in (False, True)
    }
    for walk in iter_walks(strip.shift_origin(start), n_max, kind="bridge"):
        cuts = cut_points(walk)
        k = len(cuts)
        if cuts != tuple(range(1, k + 1)) or walk.length - k < 2:
            continue
        t = classify_irreducible(IrreducibleFactor(walk, start, k, None), strip)
        expected[t, False][walk.length] += 1
        if k == 0:
            expected[t, True][walk.length] += 1
    starts_outer = start in strip.outer_lines
    for (t, tailless), counts in expected.items():
        if t.startswith("O") == starts_outer:
            got = count_irreducible(strip, t, n_max, start, tailless=tailless)
            assert got.counts == tuple(counts), (start, t, tailless)


def _decoded(state, w):
    """A sweep state of a w-row strip as (labels from slot 0 up, code), read
    off the int layout the sweep documents: slot i in bits 2 (w - i) and
    2 (w - i) + 1, the code from bit 2 (w + 1) up."""
    return tuple(state >> 2 * (w - i) & 3 for i in range(w + 1)), state >> 2 * (w + 1)


def _mirrored(labels):
    """A column-boundary frontier in the strip's up-down mirror, built
    independently of the sweep: slot 0 stays, slots 1..w reverse, and the
    lower and upper ends of a piece (labels 1 and 2) swap."""
    return labels[:1] + tuple({1: 2, 2: 1}.get(s, s) for s in reversed(labels[1:]))


class TestDeepTables:
    """Tables over many columns, beyond the reach of the DFS oracle."""

    def test_width3_bridges_match_the_published_gf(self):
        # n = 200 checks the packed width where the counts are largest.
        gf = RationalGF(W3_BRIDGE_NUMERATOR, W3_BRIDGE_DENOMINATOR)
        for n in (80, 200):
            assert count_bridges(W3, n).counts == gf.series(n)

    def test_two_row_saws_match_the_closed_form(self):
        counts = count_saws(StripGeometry(0, 1), 60).counts
        assert counts[2:] == tuple(zeilberger_count(n) for n in range(2, 61))


class TestCounts:
    def test_saw_counts_two_rows(self, saws_w2_22):
        # Hand enumeration: {RR,RU,LL,LU,UR,UL} at n=2; twice that at n=3.
        assert saws_w2_22.counts[:4] == (1, 3, 6, 12)

    def test_saw_counts_width3(self):
        assert count_saws(W3, 6).counts == (1, 4, 10, 22, 42, 90, 182)

    def test_bridge_counts_width3(self, bridges_w3_18):
        assert bridges_w3_18.counts[:8] == (1, 1, 3, 5, 9, 17, 33, 63)

    def test_half_space_counts_width3(self, half_space_w3_14):
        # At n=3 only RRR, RRU, RRD, RUR, RDR fit inside the strip.
        assert half_space_w3_14.counts[:6] == (1, 1, 3, 5, 11, 19)

    def test_bridge_counts_width4(self, bridges_w4_16):
        assert bridges_w4_16.counts[:8] == (1, 1, 3, 6, 12, 24, 50, 103)

    def test_half_space_counts_width4(self, half_space_w4_14):
        assert half_space_w4_14.counts[:6] == (1, 1, 3, 6, 14, 29)

    def test_empty_strip_cases(self):
        assert count_saws(W3, 0).counts == (1,)
        assert count_bridges(W4, 1).counts == (1, 1)

    @pytest.mark.parametrize("entry", NEGATIVE_N)
    def test_rejects_negative_n(self, entry):
        # Every public entry refuses a length of -1 before it counts or
        # yields, naming its own parameter.
        call, name = NEGATIVE_N[entry]
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
            call()

    @pytest.mark.parametrize("case", NON_INT_LENGTHS)
    def test_rejects_non_int_lengths(self, case):
        # A bool is refused even after the table for 1 is cached.
        count_saws(W3, 1)
        call, message = NON_INT_LENGTHS[case]
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    def test_rejects_negative_span(self):
        with pytest.raises(ValueError, match="^span must be >= 0, got -1$"):
            count_bridges_by_span(W3, 4, -1)

    def test_bridges_subset_of_half_space(self, bridges_w3_18, half_space_w3_14):
        assert all(
            b <= h for b, h in zip(bridges_w3_18.counts, half_space_w3_14.counts)
        )


class TestSpans:
    def test_span_zero_length(self):
        assert count_bridges_by_span(W3, 0, 0) == 1
        assert count_bridges_by_span(W3, 0, 1) == 0

    def test_span_length_two(self):
        assert count_bridges_by_span(W3, 2, 1) == 2  # RU, RD
        assert count_bridges_by_span(W3, 2, 2) == 1  # RR

    def test_span_sums_recover_bridge_counts(self, bridges_w3_18):
        for n in range(11):
            assert sum(bridge_span_table(W3, n).values()) == bridges_w3_18[n]

    @pytest.mark.parametrize(
        "strip", [W2, W3, W4, W5, StripGeometry(0, 0), StripGeometry(-3, 2)]
    )
    def test_span_tables_match_iter_walks(self, strip):
        n_max = 10
        spans = collections.defaultdict(collections.Counter)
        for w in iter_walks(strip, n_max, kind="bridge"):
            spans[w.length][w.span()] += 1
        for n in range(n_max + 1):
            assert bridge_span_table(strip, n) == dict(spans[n])

    def test_span_table_is_a_fresh_copy(self):
        table = bridge_span_table(W4, 8)
        expected = dict(table)
        table.clear()
        assert bridge_span_table(W4, 8) == expected

    def test_half_space_span_zero_note(self):
        # Only the single-point walk has span 0.
        for w in iter_walks(W3, 6, kind="half_space"):
            assert (w.span() == 0) == (w.length == 0)


class TestBridgeEntries:
    """Each entry of the sweep, unpacked, against the DFS: saw entries and
    half-space bridge entries by span, cut-free bridge entries by (span,
    end row).

    3- and 4-row types merge end rows, and on 5 or more rows an I type sums
    over the inner rows, so the type counts alone do not pin the end row.
    Lengths 0-2 leave the packed width the least headroom: the saw
    coefficient of t^1 is 2, the equality case of the width's bound.
    """

    @pytest.mark.parametrize(
        "y_min, y_max",
        [(0, 0), (0, 1), (-1, 0), (-1, 1), (0, 2), (-2, 0),
         (-1, 2), (-2, 1), (-2, 2), (-3, 1), (-2, 3), (0, 5)],
    )
    def test_entries_match_iter_walks_by_end_row(self, y_min, y_max):
        strip = StripGeometry(y_min, y_max)
        for n_max in (0, 1, 2, 10):
            saws = collections.Counter(
                (w.span(), None, w.length) for w in iter_walks(strip, n_max, kind="saw")
            )
            bridges = collections.Counter()
            cut_free = collections.Counter()
            for w in iter_walks(strip, n_max, kind="bridge"):
                bridges[w.span(), True, w.length] += 1
                if not cut_points(w):
                    cut_free[w.span(), w.end[1], w.length] += 1
            for mode, expected in (("saw", saws), ("half_space", bridges), ("cut_free", cut_free)):
                got = collections.Counter()
                for (span, end), packed in _transfer(strip, n_max, mode):
                    if mode == "half_space" and end is None:
                        continue  # a half-space walk that is not a bridge
                    assert (end is None) == (mode == "saw")
                    for n, c in enumerate(_unpacked((packed,), n_max)):
                        if c:
                            got[span, end, n] += c
                assert got == expected, (mode, n_max)

    @pytest.mark.parametrize("strip", [W3, StripGeometry(-2, 1), StripGeometry(0, 5)])
    def test_cached_moves_hold_no_pair_twice(self, strip, monkeypatch):
        # Weight 2 is one more bit of shift, not a repeated move.  On the top
        # row a saw or half-space successor is folded to the lesser of itself
        # and its mirror image, so the check runs on those canonical states:
        # a state must not reach a successor and its mirror with one shift.
        cells = []
        monkeypatch.setattr(enumeration, "_cell", lambda *a: cells.append(a) or _cell(*a))
        n_max = 12
        bits = _packed_width(n_max)
        for mode in ("saw", "half_space", "cut_free"):
            cells.clear()
            _transfer.__wrapped__(strip, n_max, mode)
            for state, w, r, place in cells:
                moves, ends = _cell(state, w, r, place)
                pairs = []
                for succ, k, d in moves:
                    if r == w - 1:
                        succ = _next_column(succ, w, mode == "cut_free")
                    key = None if succ is None else _decoded(succ, w)
                    if r == w - 1 and key is not None and mode != "cut_free":
                        key = min(key, (_mirrored(key[0]), key[1]))
                    pairs.append((k * bits + d, key))
                assert len(set(pairs)) == len(pairs)
                assert len(set(ends)) == len(ends)


class TestMirrorFold:
    """The saw and half-space sweeps keep one state of each mirror pair at a
    column boundary and count every path once per row of {origin row, its
    mirror row}, halving at the end."""

    @pytest.mark.parametrize(
        "strip",
        [StripGeometry(0, 0), W3, W5, W2, StripGeometry(-1, 0), W4, StripGeometry(-2, 1),
         StripGeometry(0, 3), StripGeometry(-1, 3)],
    )
    def test_no_boundary_state_meets_its_mirror_image(self, strip, monkeypatch):
        # The states reaching row 0 are the column-boundary states, each met
        # once there by the move cache.
        cells = []
        monkeypatch.setattr(enumeration, "_cell", lambda *a: cells.append(a) or _cell(*a))
        for mode in ("saw", "half_space"):
            cells.clear()
            _transfer.__wrapped__(strip, 10, mode)
            states = [_decoded(state, w) for state, w, r, _ in cells if r == 0]
            images = [(_mirrored(labels), code) for labels, code in states]
            # A state and its image make one pair, a self-mirror state a
            # pair of one; two states in one pair would be mirror images.
            assert len({frozenset(pair) for pair in zip(states, images)}) == len(states)
            # Not vacuous: some kept state differs from its mirror image.
            assert (states != images) == (strip.width > 1)

    @pytest.mark.parametrize("rows", range(1, 7))
    def test_tables_match_iter_walks_at_the_tightest_lengths(self, rows):
        # k = 1 leaves the packed width the least headroom before halving.
        for y_min in range(1 - rows, 1):
            strip = StripGeometry(y_min, y_min + rows - 1)
            for n_max in (0, 1, 2):
                for kind, count in COUNTS_BY_KIND.items():
                    expected = _lengths_from_iter_walks(strip, n_max, kind)
                    assert count(strip, n_max).counts == expected, (strip, n_max, kind)
                spans = collections.Counter(
                    w.span() for w in iter_walks(strip, n_max, kind="bridge") if w.length == n_max
                )
                assert bridge_span_table(strip, n_max) == dict(spans), (strip, n_max)
                for span in range(n_max + 2):
                    assert count_bridges_by_span(strip, n_max, span) == spans[span]


class TestStateLayout:
    """A sweep state is one int: 2 bits per frontier slot and the endpoint
    code above them.  The widest strip the CLI serves, unclamped at
    n_max = 10, holds the most slots, and its edge placements reach the
    largest code, _BOTH_HERE + 9, at an end row of a cut-free bridge: a
    field too narrow for either changes some table."""

    @pytest.mark.parametrize("start", range(MAX_STRIP_WIDTH))
    def test_widest_tables_match_iter_walks(self, start):
        # Every start line of the widest strip, as the placement of the
        # origin on it.
        n_max = 10
        base = StripGeometry(0, MAX_STRIP_WIDTH - 1)
        strip = base.shift_origin(start)
        for kind, count in COUNTS_BY_KIND.items():
            assert count(strip, n_max).counts == _lengths_from_iter_walks(strip, n_max, kind)
        spans = collections.defaultdict(collections.Counter)
        for walk in iter_walks(strip, n_max, kind="bridge"):
            spans[walk.length][walk.span()] += 1
        for n in range(n_max + 1):
            assert bridge_span_table(strip, n) == dict(spans[n]), n
        _check_irreducible_against_iter_walks(base, start, n_max)


class TestIterWalks:
    def test_kinds_are_consistent(self):
        # Widths 1-6, both orientations of widths 2 and 4; on four rows two
        # nested frontier pieces first join at length 11.
        strips = (
            StripGeometry(0, 0), W2, StripGeometry(-1, 0), W3, W4,
            StripGeometry(-2, 1), W5, StripGeometry(-3, 2),
        )
        for strip, n_max in [(strip, 8) for strip in strips] + [(W4, 12)]:
            for kind, count in COUNTS_BY_KIND.items():
                expected = _lengths_from_iter_walks(strip, n_max, kind)
                assert count(strip, n_max).counts == expected, (strip, kind)
            assert all(is_half_space(w) for w in iter_walks(strip, n_max, kind="half_space"))
            assert all(is_bridge(w) for w in iter_walks(strip, n_max, kind="bridge"))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-3, 0), st.integers(0, 3), st.integers(0, 8))
    @example(-2, 2, 8)
    @example(-3, 2, 8)
    @example(-2, 3, 8)
    def test_counts_match_iter_walks_on_any_strip(self, y_min, y_max, n_max):
        strip = StripGeometry(y_min, y_max)
        for kind, count in COUNTS_BY_KIND.items():
            assert count(strip, n_max).counts == _lengths_from_iter_walks(strip, n_max, kind)
        spans = collections.Counter(
            w.span() for w in iter_walks(strip, n_max, kind="bridge") if w.length == n_max
        )
        assert bridge_span_table(strip, n_max) == dict(spans)

    @pytest.mark.parametrize(
        "strip",
        [StripGeometry(0, 0), W2, StripGeometry(-1, 0), W3, W4, StripGeometry(-2, 1), W5],
    )
    def test_mirror_identity_gives_the_saw_counts(self, strip):
        # The identity the saw sweep counts, checked on paths alone: a and b
        # are a path's endpoints in sweep order (by column, then row), and
        # its mirror image in x swaps them when they lie in different
        # columns, so c_n = 2 #{a on row 0, b in a later column}
        # + sum over a, b in one column of [a on row 0] + [b on row 0].
        n_max = 10
        paths = set()
        for w in iter_walks(strip, n_max, kind="saw"):
            left = min(x for x, _ in w.points)
            path = tuple((x - left, y) for x, y in w.points)
            paths.add(min(path, path[::-1]))
        counts = [1] + [0] * n_max
        for path in paths:
            if len(path) > 1:
                (ax, ay), (bx, by) = sorted((path[0], path[-1]))
                counts[len(path) - 1] += 2 * (ay == 0) if ax < bx else (ay == 0) + (by == 0)
        assert tuple(counts) == count_saws(strip, n_max).counts

    def test_deterministic_visit_order(self):
        # Fixed step order R, U, D, L; prefixes come before extensions.
        got = [w.steps() for w in iter_walks(W3, 2, kind="saw")]
        assert got == [
            "", "R", "RR", "RU", "RD", "U", "UR", "UL",
            "D", "DR", "DL", "L", "LU", "LD", "LL",
        ]

    def test_every_bridge_is_half_space(self):
        for strip in (W3, W4):
            for w in iter_walks(strip, 12, kind="bridge"):
                assert is_half_space(w)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            next(iter_walks(W3, 2, kind="nope"))


class TestDecomposition:
    def test_pure_right_run(self):
        d = decompose_bridge(Walk.from_steps("RRR"), W3)
        assert d.factors == ()
        assert d.trailing_right_run == 3

    def test_single_factor_with_trailing_run(self):
        d = decompose_bridge(Walk.from_steps("RUR"), W3)
        assert len(d.factors) == 1
        f = d.factors[0]
        assert f.walk.steps() == "RU"
        assert f.tail_length == 0
        assert f.bridge_type == "IO"
        assert d.trailing_right_run == 1

    def test_tail_merging(self):
        # Two leading right steps merge into the staircase factor as its tail.
        staircase = "RRRRRR" + "U" + "LLLLL" + "U" + "RRRRR"
        walk = Walk.from_steps("RR" + staircase)
        d = decompose_bridge(walk, StripGeometry(0, 2))
        assert len(d.factors) == 1
        assert d.factors[0].tail_length == 2
        assert d.factors[0].bridge_type == "OO"
        assert d.trailing_right_run == 0

    def test_rejects_non_bridge(self):
        with pytest.raises(ValueError):
            decompose_bridge(Walk.from_steps("UR"), W3)

    @pytest.mark.parametrize("steps", ["RUUR", "RUURDDDR"])
    def test_rejects_factor_off_the_strip(self, steps):
        # RUU ends on line 2; RUURDDD starts and ends on the strip and
        # passes line 2 inside.
        with pytest.raises(ValueError, match="^line 2 is not a row of the strip$"):
            decompose_bridge(Walk.from_steps(steps), W3)

    def test_cut_points_example(self):
        assert cut_points(Walk.from_steps("RUR")) == (2,)
        assert cut_points(Walk.from_steps("RRR")) == (1, 2)
        assert cut_points(Walk.from_steps("RURD")) == (2,)
        assert cut_points(Walk.from_steps("")) == ()
        assert cut_points(Walk.from_steps("R")) == ()

    def test_reassembly_is_identity(self):
        for strip in (W3, W4):
            for walk in iter_walks(strip, 14, kind="bridge"):
                d = decompose_bridge(walk, strip)
                assert d.reassemble_steps() == walk.steps()

    def test_factors_are_irreducible_bridges(self):
        for walk in iter_walks(W3, 10, kind="bridge"):
            for f in decompose_bridge(walk, W3).factors:
                assert is_bridge(f.walk)
                inner = cut_points(f.walk)
                assert inner == tuple(range(1, f.tail_length + 1))
                assert f.walk.length - f.tail_length >= 2


class TestClassification:
    def test_classify_examples(self):
        io = IrreducibleFactor(Walk.from_steps("RU"), 0, 0, None)
        assert classify_irreducible(io, W3) == "IO"
        oo = IrreducibleFactor(Walk.from_steps("RDD"), 1, 0, None)
        assert classify_irreducible(oo, W3) == "OO"
        ii = IrreducibleFactor(Walk.from_steps("RU"), 0, 0, None)
        assert classify_irreducible(ii, W4) == "II"

    def test_classify_examples_on_other_widths(self):
        # Strips of one and two rows have no inner line, so every factor is
        # OO.  On five rows I covers the three inner rows alike.
        one, two, five = StripGeometry(0, 0), StripGeometry(0, 1), StripGeometry(-2, 2)
        for steps, start, strip, expected in (
            ("RR", 0, one, "OO"),
            ("RU", 0, two, "OO"),
            ("RDR", 1, two, "OO"),
            ("RUU", -2, five, "OI"),
            ("RUU", -1, five, "II"),
            ("RU", 1, five, "IO"),
            ("RDDDD", 2, five, "OO"),
        ):
            factor = IrreducibleFactor(Walk.from_steps(steps), start, 0, None)
            assert classify_irreducible(factor, strip) == expected

    def test_rejects_factor_leaving_the_strip(self):
        leaves = IrreducibleFactor(Walk.from_steps("RUR"), 1, 0, None)
        with pytest.raises(ValueError, match="line 2 is not a row"):
            classify_irreducible(leaves, W3)

    def test_mirror_symmetry_width3(self):
        # Bridge-ness, span and factor types are invariant under y -> -y.
        for walk in iter_walks(W3, 9, kind="bridge"):
            mirrored = Walk(tuple((x, -y) for x, y in walk.points))
            assert is_bridge(mirrored)
            assert mirrored.span() == walk.span()
            t1 = [f.bridge_type for f in decompose_bridge(walk, W3).factors]
            t2 = [f.bridge_type for f in decompose_bridge(mirrored, W3).factors]
            assert t1 == t2


class TestIrreducibleCounts:
    def test_width3_values(self):
        assert count_irreducible(W3, "OO", 6, 1).counts == (0, 0, 0, 1, 1, 1, 2)
        assert count_irreducible(W3, "IO", 4, 0).counts == (0, 0, 2, 2, 2)
        assert count_irreducible(W3, "OI", 4, 1).counts == (0, 0, 1, 1, 1)

    def test_start_line_symmetry(self):
        for t, lines in (("OO", (2, -1)), ("OI", (2, -1)), ("IO", (1, 0)), ("II", (1, 0))):
            a = count_irreducible(W4, t, 10, lines[0]).counts
            b = count_irreducible(W4, t, 10, lines[1]).counts
            assert a == b

    def test_rejects_inconsistent_start_line(self):
        with pytest.raises(ValueError):
            count_irreducible(W3, "OO", 6, 0)
        with pytest.raises(ValueError):
            count_irreducible(W3, "IO", 6, 1)
        with pytest.raises(ValueError):
            count_irreducible(W3, "XO", 5, 1)

    def test_rejects_off_strip_start_line(self):
        with pytest.raises(ValueError, match="not a row of the strip"):
            count_irreducible(W3, "OO", 6, 5)

    @pytest.mark.parametrize(
        "strip",
        [
            W3,
            StripGeometry(0, 2),
            StripGeometry(-2, 0),
            W4,
            StripGeometry(-2, 1),
            StripGeometry(0, 0),
            StripGeometry(0, 1),
            StripGeometry(-1, 0),
            StripGeometry(-2, 2),
            StripGeometry(-3, 1),
            StripGeometry(-2, 3),
        ],
    )
    def test_search_matches_dfs_oracle(self, strip):
        for start in range(strip.y_min, strip.y_max + 1):
            _check_irreducible_against_iter_walks(strip, start, 12)

    def test_type_swap_counts_equal_width4(self):
        for tailless in (False, True):
            oi = count_irreducible(W4, "OI", 12, 2, tailless=tailless).counts
            io = count_irreducible(W4, "IO", 12, 1, tailless=tailless).counts
            assert oi == io


def _compose_by_convolution(strip, n_max):
    """Independent series-level composition of the bridge code from
    enumerated irreducible-factor tables."""
    width = strip.width
    outer, inner = strip.y_max, strip.y_max - 1
    atom = lambda t, line: count_irreducible(strip, t, n_max, line).counts
    io = atom("IO", inner)
    oi = atom("OI", outer)
    oo_star = seq_star(atom("OO", outer), n_max)
    io_oo = seq_mul(io, oo_star, n_max)
    if width == 3:
        loop = seq_mul(io_oo, oi, n_max)
        head = seq_star(loop, n_max)
        tilde = seq_add(seq_one(n_max), io_oo, n_max)
        return seq_mul(seq_mul(head, tilde, n_max), seq_geometric(n_max), n_max)
    ii_star = seq_star(atom("II", inner), n_max)
    loop = seq_mul(seq_mul(ii_star, io_oo, n_max), oi, n_max)
    head = seq_star(loop, n_max)
    tilde = seq_add(seq_one(n_max), io_oo, n_max)
    out = seq_mul(seq_mul(head, ii_star, n_max), tilde, n_max)
    return seq_mul(out, seq_geometric(n_max), n_max)


class TestCodeRegeneratesBridges:
    def test_width3(self, bridges_w3_18):
        n = 14
        assert _compose_by_convolution(W3, n) == bridges_w3_18.counts[: n + 1]

    def test_width4(self, bridges_w4_16):
        n = 14
        assert _compose_by_convolution(W4, n) == bridges_w4_16.counts[: n + 1]


class TestHWDecomposition:
    def test_bridge_is_k1(self):
        d = hw_decompose(Walk.from_steps("RRU"))
        assert d.k == 1
        assert d.spans == (2,)
        assert d.cut_indices == (3,)

    def test_two_span_example(self):
        d = hw_decompose(Walk.from_steps("RRUL"))
        assert d.spans == (2, 1)
        assert d.cut_indices == (3, 4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hw_decompose(Walk.from_steps(""))
        with pytest.raises(ValueError):
            hw_decompose(Walk.from_steps("RUL"))

    def test_k_bound_and_subwalk_structure(self):
        # A strip of w rows allows at most w spans.
        for strip in (StripGeometry(0, 0), W2, W3, W4, W5, StripGeometry(-2, 3)):
            for walk in iter_walks(strip, 10, kind="half_space"):
                if walk.length == 0:
                    continue
                d = hw_decompose(walk)
                assert d.k <= strip.width
                assert len(d.spans) == len(d.cut_indices)
                assert all(a > b for a, b in zip(d.spans, d.spans[1:]))
                assert d.spans[-1] > 0
                assert all(a < b for a, b in zip(d.cut_indices, d.cut_indices[1:]))
                assert d.cut_indices[-1] == walk.length
                assert (d.k == 1) == is_bridge(walk)
                # each subwalk between cuts is a bridge or a reflected bridge
                bounds = (0,) + d.cut_indices
                for i in range(len(bounds) - 1):
                    seg = walk.points[bounds[i] : bounds[i + 1] + 1]
                    x0, y0 = seg[0]
                    fwd = Walk(tuple((x - x0, y - y0) for x, y in seg))
                    rev = Walk(tuple((x0 - x, y - y0) for x, y in seg))
                    assert is_bridge(fwd) or is_bridge(rev)

    def test_reflection_span_arithmetic(self):
        seen = 0
        for walk in iter_walks(W3, 10, kind="half_space"):
            if walk.length == 0:
                continue
            d = hw_decompose(walk)
            if d.k < 2:
                continue
            seen += 1
            img = hw_reflect(walk, d)
            assert is_half_space(img)
            di = hw_decompose(img)
            assert di.spans == (d.spans[0] + d.spans[1],) + d.spans[2:]
        assert seen > 0

    def test_reflection_injective_per_class(self):
        classes = collections.defaultdict(set)
        for walk in iter_walks(W3, 10, kind="half_space"):
            if walk.length == 0:
                continue
            d = hw_decompose(walk)
            if d.k < 2:
                continue
            img = hw_reflect(walk, d)
            key = (walk.length, d.spans)
            assert img.points not in classes[key]
            classes[key].add(img.points)

    def test_reflection_rejects_bridges(self):
        walk = Walk.from_steps("RRU")
        with pytest.raises(ValueError):
            hw_reflect(walk, hw_decompose(walk))


class TestTransformWidth4:
    def test_staircase_example(self):
        # An outer-to-outer factor without tail and its transformed walk.
        factor = IrreducibleFactor(Walk.from_steps("RRRDRDLLULDDRRR"), 2, 0, "OO")
        out = transform_irreducible_w4(factor, W4)
        assert out.steps() == "RRRDR" + "R" + "URRDRU" + "R" + "DRRR"

    def test_rejects_simple_and_tailed_factors(self):
        simple = IrreducibleFactor(Walk.from_steps("RDD"), 2, 0, "OI")
        with pytest.raises(ValueError):
            transform_irreducible_w4(simple, W4)
        tailed = IrreducibleFactor(Walk.from_steps("RRRDRDLLULDDRRR"), 2, 1, "OO")
        with pytest.raises(ValueError):
            transform_irreducible_w4(tailed, W4)
        with pytest.raises(ValueError):
            transform_irreducible_w4(
                IrreducibleFactor(Walk.from_steps("RU"), 0, 0, None), W3
            )
        # Neither simple nor of the complicated pattern.
        straight = IrreducibleFactor(Walk.from_steps("RRR"), 2, 0, None)
        assert not is_simple_factor(straight)
        with pytest.raises(ValueError, match="complicated pattern"):
            transform_irreducible_w4(straight, W4)

    def test_simple_factor_has_a_vertical_step(self):
        assert is_simple_factor(IrreducibleFactor(Walk.from_steps("RU"), 0, 0, None))
        assert not is_simple_factor(IrreducibleFactor(Walk.from_steps("R"), 0, 0, None))
        # The right step comes first: a vertical then a right step ends in
        # the next column too, but is not simple.
        assert not is_simple_factor(IrreducibleFactor(Walk.from_steps("UR"), 0, 0, None))

    @pytest.mark.parametrize(
        "strip, start",
        [(s, line) for s in (W3, W4) for line in range(s.y_min, s.y_max + 1)],
        ids=lambda v: f"w{v.width}" if isinstance(v, StripGeometry) else f"line{v}",
    )
    def test_simple_factor_matches_its_definition(self, strip, start):
        # The written definition: the body after the tail is R, then one to
        # three steps all up or all down.  Each factor is checked with its
        # tail and with the tail removed.
        simple_body = re.compile(r"R(U{1,3}|D{1,3})")
        seen = collections.Counter()
        shifted = strip.shift_origin(start)
        for walk in iter_walks(shifted, 11, kind="bridge"):
            for factor in decompose_bridge(walk, shifted).factors:
                body = factor.walk.steps()[factor.tail_length :]
                expected = simple_body.fullmatch(body) is not None
                tailless = IrreducibleFactor(Walk.from_steps(body), factor.start_line, 0, None)
                assert is_simple_factor(factor) == expected, factor
                assert is_simple_factor(tailless) == expected, tailless
                seen[expected, factor.tail_length > 0] += 1
        assert len(seen) == 4

    def test_codomain_and_injectivity(self):
        # End-line offset of the transformed walk relative to its start,
        # after normalizing to an upper start line.
        end_offset = {"OO": -1, "OI": 0, "IO": 0, "II": 1}
        added = {"OO": 2, "OI": 1, "IO": 1, "II": 0}
        images = collections.defaultdict(set)
        seen = collections.Counter()
        for start in (2, 1, 0, -1):
            shifted = W4.shift_origin(start)
            for walk in iter_walks(shifted, 12, kind="bridge"):
                if walk.length == 0:
                    continue
                cuts = cut_points(walk)
                if cuts or walk.length < 2:
                    continue
                factor = IrreducibleFactor(walk, start, 0, None)
                btype = classify_irreducible(factor, W4)
                if is_simple_factor(factor):
                    continue
                img = transform_irreducible_w4(factor, W4)
                seen[btype] += 1
                ys = [p[1] for p in img.points]
                assert max(ys) - min(ys) <= 1
                assert "L" not in img.steps()
                assert img.length == walk.length + added[btype]
                assert img.end[1] == end_offset[btype]
                key = (btype, start)
                assert img.points not in images[key]
                images[key].add(img.points)
        assert all(seen[t] > 0 for t in ("OO", "OI", "IO", "II"))

    def test_every_irreducible_is_simple_or_complicated(self):
        for start in (2, 1, 0, -1):
            shifted = W4.shift_origin(start)
            for walk in iter_walks(shifted, 12, kind="bridge"):
                if walk.length == 0 or cut_points(walk) or walk.length < 2:
                    continue
                factor = IrreducibleFactor(walk, start, 0, None)
                if not is_simple_factor(factor):
                    transform_irreducible_w4(factor, W4)  # must not raise
