import pytest
from hypothesis import given, strategies as st

from stripwalks import (
    CountTable,
    StripGeometry,
    Walk,
    is_bridge,
    is_half_space,
)


class TestStripGeometry:
    def test_width(self):
        assert StripGeometry(-1, 1).width == 3
        assert StripGeometry(-1, 2).width == 4
        assert StripGeometry(0, 1).width == 2

    def test_origin_row_required(self):
        with pytest.raises(ValueError):
            StripGeometry(1, 3)
        with pytest.raises(ValueError):
            StripGeometry(-3, -1)

    def test_lines(self):
        s = StripGeometry(-1, 2)
        assert s.outer_lines == (-1, 2)

    def test_shift_origin(self):
        s = StripGeometry(-1, 2).shift_origin(1)
        assert (s.y_min, s.y_max) == (-2, 1)
        with pytest.raises(ValueError):
            StripGeometry(-1, 1).shift_origin(2)

    def test_mirror_line(self):
        s = StripGeometry(-1, 2)
        assert [s.mirror_line(y) for y in (-1, 0, 1, 2)] == [2, 1, 0, -1]


class TestWalk:
    def test_roundtrip(self):
        w = Walk.from_steps("RRU")
        assert w.points == ((0, 0), (1, 0), (2, 0), (2, 1))
        assert w.steps() == "RRU"
        assert w.length == 3
        assert w.end == (2, 1)

    def test_empty_walk(self):
        w = Walk.from_steps("")
        assert w.length == 0
        assert w.span() == 0

    def test_rejects_revisit(self):
        with pytest.raises(ValueError):
            Walk.from_steps("RL")
        with pytest.raises(ValueError):
            Walk.from_steps("RULD")

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            Walk.from_steps("RX")

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            Walk(((1, 0), (2, 0)))
        with pytest.raises(ValueError):
            Walk(((0, 0), (2, 0)))
        with pytest.raises(ValueError):
            Walk(())

    @given(st.text(alphabet="RLUD", max_size=8))
    def test_step_string_roundtrip(self, steps):
        try:
            w = Walk.from_steps(steps)
        except ValueError:
            return
        assert w.steps() == steps
        assert Walk.from_steps(w.steps()).points == w.points


class TestPredicates:
    def test_is_bridge(self):
        assert is_bridge(Walk.from_steps("R"))
        assert not is_bridge(Walk.from_steps("U"))
        assert is_bridge(Walk.from_steps("RUR"))
        assert is_bridge(Walk.from_steps(""))

    def test_is_half_space(self):
        assert is_half_space(Walk.from_steps("RU"))
        assert is_half_space(Walk.from_steps("RURDD"))
        assert not is_half_space(Walk.from_steps("RUL"))
        assert is_half_space(Walk.from_steps(""))

    def test_bridge_implies_half_space(self):
        for steps in ("R", "RUR", "RRDRU", "RURDR"):
            w = Walk.from_steps(steps)
            assert is_bridge(w) and is_half_space(w)

    def test_span(self):
        assert Walk.from_steps("").span() == 0
        assert Walk.from_steps("RR").span() == 2
        assert Walk.from_steps("RUL").span() == 1
        assert Walk.from_steps("LL").span() == 2

    @given(st.text(alphabet="RLUD", max_size=8))
    def test_span_bounded_by_length(self, steps):
        try:
            w = Walk.from_steps(steps)
        except ValueError:
            return
        assert 0 <= w.span() <= w.length


class TestCountTable:
    def test_basic(self):
        t = CountTable((1, 1, 3, 5))
        assert t.n_max == 3
        assert t[2] == 3
        assert list(t.items()) == [(0, 1), (1, 1), (2, 3), (3, 5)]
        with pytest.raises(KeyError):
            t[4]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CountTable((1, -1))
        with pytest.raises(ValueError):
            CountTable(())

    def test_csv(self):
        assert CountTable((1, 2)).to_csv() == "n,count\n0,1\n1,2\n"
