"""The walk-level maps against their naive reference forms in ``naive_walks``.

``iter_walks`` is an explicit-stack search over a per-call table of lattice
points, ``cut_points`` and ``decompose_bridge`` share one right-to-left scan,
``hw_decompose`` finds each cut by a scan of the reversed x-sequence, and the
walks the search yields and the factors a decomposition returns skip
validation because they are valid by construction.  ``decompose_bridge``
interns its factors in a cache shared by every call, and takes its cuts from
a bounded cache keyed on the walk's x-sequence.  These tests pin all of that
to the naive forms walk by walk, with cold caches and after eviction.
"""

import pytest
from hypothesis import given, settings, strategies as st

from naive_walks import (
    DELTAS,
    naive_cut_points,
    naive_decompose_bridge,
    naive_hw_decompose,
    naive_iter_walks,
)
from stripwalks import (
    StripGeometry,
    Walk,
    cut_points,
    decompose_bridge,
    enumeration,
    hw_decompose,
    hw_reflect,
    iter_walks,
)
from stripwalks.enumeration import _cut_plan, _factor

KINDS = ("saw", "half_space", "bridge")

# Every placement of the origin row on strips of 1-5 rows, so each
# off-centre strip comes with its mirror image.
STRIPS = [StripGeometry(lo, lo + w - 1) for w in range(1, 6) for lo in range(1 - w, 1)]


def _strip_id(strip):
    return f"{strip.y_min},{strip.y_max}"


@pytest.mark.parametrize("strip", STRIPS, ids=_strip_id)
def test_maps_match_naive_forms_on_every_walk(strip):
    n_max = 9
    for kind in KINDS:
        walks = list(iter_walks(strip, n_max, kind))
        assert walks == list(naive_iter_walks(strip, n_max, kind)), kind
        for walk in walks:
            assert cut_points(walk) == naive_cut_points(walk)
            if kind == "bridge":
                assert decompose_bridge(walk, strip) == naive_decompose_bridge(walk, strip)
            if kind == "half_space" and walk.length:
                assert hw_decompose(walk) == naive_hw_decompose(walk)


@st.composite
def half_space_walks(draw, strip):
    """A random self-avoiding walk that stays right of column 0.

    Each drawn index picks one of the free moves; the walk stops when the
    draws run out or it is trapped.
    """
    points = [(0, 0)]
    visited = {(0, 0)}
    for choice in draw(st.lists(st.integers(0, 2), max_size=40)):
        x, y = points[-1]
        free = [
            (x + dx, y + dy)
            for dx, dy in DELTAS
            if x + dx > 0
            and strip.y_min <= y + dy <= strip.y_max
            and (x + dx, y + dy) not in visited
        ]
        if not free:
            break
        p = free[choice % len(free)]
        points.append(p)
        visited.add(p)
    return Walk(tuple(points))


def _longest_bridge_prefix(walk):
    """The longest prefix ending on a running maximum of x: a bridge."""
    end, top = 0, 0
    for j, (x, _) in enumerate(walk.points):
        if x >= top:
            end, top = j, x
    return Walk(walk.points[: end + 1])


@pytest.mark.parametrize("strip", [StripGeometry(-1, 1), StripGeometry(-1, 2)], ids=_strip_id)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_walks_match_naive_forms(strip, data):
    walk = data.draw(half_space_walks(strip))
    bridge = _longest_bridge_prefix(walk)
    for w in (walk, bridge):
        assert cut_points(w) == naive_cut_points(w)
    assert decompose_bridge(bridge, strip) == naive_decompose_bridge(bridge, strip)
    if walk.length:
        assert hw_decompose(walk) == naive_hw_decompose(walk)


@st.composite
def placed_bridges(draw):
    """A random bridge on a random placement of 1-4 rows, and a wider strip.

    The wider strip adds a row above or below, so it holds every segment of
    the bridge but may type a row as inner that the first strip types outer.
    """
    width = draw(st.integers(1, 4))
    lo = draw(st.integers(1 - width, 0))
    strip = StripGeometry(lo, lo + width - 1)
    wider = draw(st.sampled_from([StripGeometry(lo - 1, strip.y_max), StripGeometry(lo, strip.y_max + 1)]))
    return strip, wider, _longest_bridge_prefix(draw(half_space_walks(strip)))


def _left_of_end(walk, strip):
    """The walk extended to end one column left of its end, or None.

    The extension is L, UL or DL, whichever first stays on the strip and
    self-avoiding, so the result is not a bridge but its early segments are
    those of ``walk``.
    """
    x, y = walk.end
    for tail in ([(x - 1, y)], [(x, y + 1), (x - 1, y + 1)], [(x, y - 1), (x - 1, y - 1)]):
        if all(strip.y_min <= q[1] <= strip.y_max and q not in walk.points for q in tail):
            return Walk(walk.points + tuple(tail))
    return None


@settings(max_examples=200, deadline=None)
@given(placed=placed_bridges(), data=st.data())
def test_factor_cache_keys_on_segment_tail_and_outer_lines(placed, data):
    # Factors are shared between decompositions.  The same segment must come
    # back typed by whichever strip is asked for, in either order.
    strip, wider, bridge = placed
    for s in data.draw(st.permutations([strip, wider])):
        assert decompose_bridge(bridge, s) == naive_decompose_bridge(bridge, s)
    walk = _left_of_end(bridge, strip) if bridge.length else None
    if walk is not None:
        for s in (strip, wider):
            with pytest.raises(ValueError, match="^decompose_bridge requires a bridge$"):
                decompose_bridge(walk, s)


def _nested_zigzag(width):
    """A half-space walk on the strip (0, width - 1) with one span per row.

    It runs right along row 0, then up one row at a time, each row one
    column shorter than the one below and run the other way, so its spans
    are width, width - 1, ..., 1: the most a strip of that width allows.
    """
    steps = "R" * width
    for r in range(1, width):
        steps += "U" + ("L" if r % 2 else "R") * (width - r)
    return Walk.from_steps(steps)


@pytest.mark.parametrize("width", [3, 4, 5, 6])
def test_span_decomposition_at_one_span_per_row(width):
    # No walk the enumerating tests reach has more than 3 spans.
    walk = _nested_zigzag(width)
    assert {y for _, y in walk.points} == set(range(width))
    if width == 4:
        assert walk.steps() == "RRRRULLLURRUL"
    d = hw_decompose(walk)
    assert d == naive_hw_decompose(walk)
    assert d.spans == tuple(range(width, 0, -1))
    image = hw_reflect(walk, d)
    di = hw_decompose(image)
    assert di == naive_hw_decompose(image)
    assert di.spans == (d.spans[0] + d.spans[1],) + d.spans[2:]


@pytest.mark.parametrize("strip", STRIPS, ids=_strip_id)
def test_unvalidated_walks_pass_validation(strip):
    # iter_walks and decompose_bridge build walks without Walk.__post_init__;
    # rebuilding each one through the validating constructor must agree.
    # Factors are interned: one that two bridges share must still equal the
    # naive form of each.
    owner: dict = {}  # id of a factor -> (the factor, the first bridge with it)
    shared = 0
    for kind in KINDS:
        walks = list(iter_walks(strip, 8, kind))
        assert walks == list(naive_iter_walks(strip, 8, kind)), kind
        for walk in walks:
            assert Walk(walk.points) == walk
            if kind != "bridge":
                continue
            naive = naive_decompose_bridge(walk, strip).factors
            factors = decompose_bridge(walk, strip).factors
            assert len(factors) == len(naive)
            for factor, fresh in zip(factors, naive):
                assert Walk(factor.walk.points) == factor.walk
                assert factor == fresh
                first = owner.setdefault(id(factor), (factor, walk))[1]
                shared += first != walk
    # One row has no factor: every bridge is R^n, its trailing run.
    assert shared > 0 or strip.width == 1


def _structure_caches():
    """Every module-level ``lru_cache`` of ``enumeration`` but the count sweep."""
    return {
        name: f
        for name, f in vars(enumeration).items()
        if hasattr(f, "cache_info") and name != "_transfer"
    }


def _check_structure_maps(strip, n_max):
    """Both maps against their naive forms on every half-space walk.

    Returns the distinct x-sequences of the bridges, the walks whose cuts
    come from the plan cache.
    """
    bridge_xs = set()
    for walk in iter_walks(strip, n_max, "half_space"):
        if not walk.length:
            continue
        d = hw_decompose(walk)
        assert d == naive_hw_decompose(walk)
        if d.k == 1:
            bridge_xs.add(tuple(x for x, _ in walk.points))
            assert decompose_bridge(walk, strip) == naive_decompose_bridge(walk, strip)
    return bridge_xs


def test_cold_and_evicted_caches_match_naive_forms():
    for cache in (_cut_plan, _factor):
        cache.cache_clear()
    for strip in STRIPS:
        _check_structure_maps(strip, 9)
    # More distinct x-sequences than the plan cache holds: it evicts.
    bridge_xs = _check_structure_maps(StripGeometry(-1, 2), 12)
    maxsize = _cut_plan.cache_info().maxsize
    assert len(bridge_xs) > maxsize
    assert _cut_plan.cache_info().currsize == maxsize
    for strip in STRIPS:
        _check_structure_maps(strip, 9)
    for name, cache in _structure_caches().items():
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, name


def test_structure_caches_are_bounded():
    # A round's own memory growth can hide under the benchmark harness's
    # peak RSS, so an unbounded cache here would go unseen there.
    caches = _structure_caches()
    assert {"_cut_plan", "_factor"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name


HALF_SPACE_ONLY = "span decomposition requires a half-space walk"


def test_refused_walks_stay_refused_and_leave_no_entry():
    # Exceptions are not cached: each refused call raises again, adds no
    # plan, and later valid calls still give the naive records.
    strip = StripGeometry(-1, 2)
    not_bridges = [Walk.from_steps(s) for s in ("RUL", "RRUUL", "RURDDL", "RRUULLD")]
    not_half_space = [Walk.from_steps(s) for s in ("RUL", "RRULL", "RRUULLL", "L", "URDD")]
    valid = Walk.from_steps("RURRDRRU")
    _cut_plan.cache_clear()
    for _ in range(2):
        held = _cut_plan.cache_info().currsize
        for walk in not_bridges:
            with pytest.raises(ValueError, match="^decompose_bridge requires a bridge$"):
                decompose_bridge(walk, strip)
        for walk in not_half_space:
            with pytest.raises(ValueError, match=f"^{HALF_SPACE_ONLY}$"):
                hw_decompose(walk)
        assert _cut_plan.cache_info().currsize == held
        assert decompose_bridge(valid, strip) == naive_decompose_bridge(valid, strip)
        assert hw_decompose(valid) == naive_hw_decompose(valid)
        for walk in not_bridges[:2]:
            prefix = Walk(walk.points[:-1])
            assert decompose_bridge(prefix, strip) == naive_decompose_bridge(prefix, strip)
            assert hw_decompose(prefix) == naive_hw_decompose(prefix)


@pytest.mark.parametrize(
    "steps",
    ["R", "RRUR", "RURRDRRU", "RRULURR", "RRRULLURRR", "RRRRULLLURRUL", "RRRUULL", "RRRULLUU"],
)
def test_records_are_frozen_and_naive(steps):
    # The last two tie an extremum, and a cut is its last index: the first
    # would be the cut itself once a vertical tail holds x constant.
    walk = Walk.from_steps(steps)
    d = hw_decompose(walk)
    assert d == naive_hw_decompose(walk)
    assert type(d.spans) is tuple and type(d.cut_indices) is tuple
    with pytest.raises(AttributeError, match="^cannot assign to field 'spans'$"):
        d.spans = ()
    again = hw_decompose(Walk(walk.points))
    assert again == d and hash(again) == hash(d)
    if d.k == 1:
        strip = StripGeometry(-1, 2)
        b = decompose_bridge(walk, strip)
        assert b == naive_decompose_bridge(walk, strip)
        assert type(b.factors) is tuple
        with pytest.raises(AttributeError, match="^cannot assign to field 'factors'$"):
            b.factors = ()


def test_plan_is_shared_across_strips_but_factors_are_typed_per_strip():
    # R U R R D D R R on the strip (-1, 1) ends on row -1; the factors start
    # on rows 0 and 1, which the wider strip (-1, 2) types differently.
    bridge = Walk.from_steps("RURRDDRR")
    narrow, wide = StripGeometry(-1, 1), StripGeometry(-1, 2)
    _cut_plan.cache_clear()
    first = decompose_bridge(bridge, narrow)
    second = decompose_bridge(bridge, wide)
    info = _cut_plan.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert first == naive_decompose_bridge(bridge, narrow)
    assert second == naive_decompose_bridge(bridge, wide)
    assert [f.bridge_type for f in first.factors] != [f.bridge_type for f in second.factors]
    assert decompose_bridge(bridge, narrow) == first


class TestErrorPaths:
    @pytest.mark.parametrize("steps", ["RUL", "RDL", "RRULL", "RRUULL", "RRRULLL"])
    def test_hw_decompose_sees_the_last_point(self, steps):
        # Only the last point lies at x <= 0.
        walk = Walk.from_steps(steps)
        assert min(x for x, _ in walk.points[1:-1]) > 0 >= walk.end[0]
        with pytest.raises(ValueError, match="^span decomposition requires a half-space walk$"):
            hw_decompose(walk)

    def test_hw_decompose_rejects_length_zero(self):
        with pytest.raises(ValueError, match="^span decomposition requires length >= 1$"):
            hw_decompose(Walk(((0, 0),)))
        with pytest.raises(ValueError, match="^span decomposition requires length >= 1$"):
            hw_decompose(Walk.from_steps(""))

    @pytest.mark.parametrize("steps", ["RUL", "RRUL", "RRUUL", "RURDDL"])
    def test_decompose_bridge_sees_the_last_point(self, steps):
        # The walk stays in (0, x_{n-1}] until its last step leaves it.
        walk = Walk.from_steps(steps)
        xs = [x for x, _ in walk.points]
        assert all(0 < x <= xs[-2] for x in xs[1:-1])
        assert not all(0 < x <= xs[-1] for x in xs[1:])
        for strip in (StripGeometry(-1, 2), StripGeometry(-2, 3)):
            with pytest.raises(ValueError, match="^decompose_bridge requires a bridge$"):
                decompose_bridge(walk, strip)

    def test_decompose_bridge_length_zero(self):
        for strip in (StripGeometry(0, 0), StripGeometry(-1, 1)):
            d = decompose_bridge(Walk(((0, 0),)), strip)
            assert d.factors == () and d.trailing_right_run == 0
        assert cut_points(Walk(((0, 0),))) == ()
