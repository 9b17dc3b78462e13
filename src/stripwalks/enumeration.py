"""Exact counts of strip walks, and the structural operations on bridges.

Every count table comes from one cached frontier transfer matrix: the strip
is swept column by column and cell by cell, and each state of the frontier
carries a polynomial in the walk length.  For a fixed width the cost grows
polynomially in the length instead of like mu^n.  One half-space run gives
the half-space walks and the bridges by span; a second run that forbids
cut points gives the irreducible factors.  ``iter_walks`` is the package's
only depth-first search, an explicit-stack loop: it yields the walks
themselves and is the oracle the tests compare the transfer matrix against.
On top of the counts this module implements the structural operations on
bridges, each in one linear pass over the walk's x-coordinates:

* decomposition of a bridge into irreducible factors (with the convention
  that a run of leading unit right-steps is absorbed into the following
  factor as its *tail*, and a maximal trailing run of right steps is kept
  aside as an ``r*`` suffix);
* classification of irreducible factors by start/end line (OO, OI, IO, II);
* the span decomposition and the reflection map of half-space walks used by
  the Hammersley-Welsh argument;
* the injective transformation of width-4 irreducible factors into
  left-step-free walks on a two-row strip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Iterator

from .lattice import (
    BRIDGE_TYPES,
    CountTable,
    StripGeometry,
    Walk,
    _trusted_walk,
)

# DFS step order of ``iter_walks`` is R, U, D, L, fixed so that golden tests
# are stable.  The search pops its moves from the end of a list, so the list
# is built in the reverse order.
_DELTAS_LAST_FIRST = ((-1, 0), (0, -1), (0, 1), (1, 0))

# Labels of the frontier edges of the transfer matrix: empty; the lower and
# the upper end of a piece whose two ends both cross the frontier; a piece
# whose other end is an endpoint of the walk.
_EMPTY, _OPEN, _CLOSE, _SINGLE = 0, 1, 2, 3

# Endpoint codes of a state: nothing placed; one endpoint that is not the
# walk's start; the start alone; both placed, the second in an earlier
# column; both placed, the second in the current column.  Half-space runs add
# the second endpoint's row index to _BOTH_HERE, so a bridge's end row is
# known when it completes.
_NO_END, _OTHER_END, _START, _BOTH_EARLIER, _BOTH_HERE = range(5)


def _check_n_max(n_max: int) -> None:
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")


def _partner(labels: tuple, i: int) -> int:
    """Index of the other frontier end of the piece with an end at ``i``."""
    mine = labels[i]
    other = _OPEN + _CLOSE - mine
    step = 1 if mine == _OPEN else -1
    depth = 1
    while True:
        i += step
        if labels[i] == mine:
            depth += 1
        elif labels[i] == other:
            depth -= 1
            if depth == 0:
                return i


def _merge(labels: tuple, r: int, i: int, label: int) -> tuple:
    """Empty the slots r and r + 1 and relabel the piece end at ``i``."""
    out = list(labels)
    out[r] = out[r + 1] = _EMPTY
    out[i] = label
    return tuple(out)


def _alone(labels: tuple, r: int) -> bool:
    """True iff no frontier edge but those in slots r and r + 1 is occupied."""
    return not any(labels[:r]) and not any(labels[r + 2 :])


@lru_cache(maxsize=None)
def _transfer(strip: StripGeometry, n_max: int, mode: str) -> tuple:
    """Count walks of length <= n_max with a frontier transfer matrix.

    ``mode`` is ``"saw"``, ``"half_space"`` or ``"cut_free"``.  Returns
    ((span, end row), counts per length) pairs, where the end row is that of
    a bridge's endpoint and None for the other walks (and for every walk of
    a ``"saw"`` run).

    A walk of length n >= 1 is a path of n edges plus a choice of one of its
    endpoints as the start.  The sweep runs column by column and, inside a
    column, cell by cell from the lowest row up.  A state is the label of each
    of the w + 1 frontier edges (the horizontal edges leaving the cells done
    in this column, the vertical edge entering the current cell, the
    horizontal edges entering the cells still to do) and an endpoint code.
    Pieces whose two ends both cross the frontier never cross each other, so
    _OPEN/_CLOSE pair up like parentheses.  Each state carries its length
    polynomial, packed into one integer with ``bits`` bits per coefficient
    and truncated at n_max.

    * ``"saw"``: a walk is translated so that its leftmost column is 0; the
      start must lie on row 0.  Columns run from 0 to n_max.
    * ``"half_space"``: column 0 holds only the origin, the start, and its
      right edge.  A walk is a bridge iff its second endpoint lies in its
      last column, whose index is its span.
    * ``"cut_free"``: the half-space run, minus every state with exactly one
      edge crossing the line after a column >= 1: that edge is a cut of the
      bridge.  Only bridges with no cut point complete.
    """
    half = mode != "saw"
    cut_free = mode == "cut_free"
    lo, hi = max(strip.y_min, -n_max), min(strip.y_max, n_max)
    w = hi - lo + 1
    origin = -lo
    # A coefficient counts distinct sets of at most n_max edges of the swept
    # region, each at most twice (a path may start at either end).
    edges = n_max * w + (n_max + 1) * (w - 1)
    bits = (2 * sum(comb(edges, k) for k in range(n_max + 1))).bit_length()
    mask = (1 << bits * (n_max + 1)) - 1

    # placements[r][code]: the codes after one more endpoint on row index r.
    placements = []
    for r in range(w):
        if half:
            placements.append({_START: (_BOTH_HERE + r,)})
        elif r == origin:
            placements.append(
                {_NO_END: (_OTHER_END, _START), _OTHER_END: (_BOTH_HERE,), _START: (_BOTH_HERE,)}
            )
        else:
            placements.append({_NO_END: (_OTHER_END,), _START: (_BOTH_HERE,)})

    # The single-point walk: length 0, span 0, ending on the origin row.
    done = {(0, _BOTH_HERE + origin if half else _BOTH_HERE): 1}
    if half:
        first = [_EMPTY] * (w + 1)
        first[origin + 1] = _SINGLE
        states = {(tuple(first), _START): 1 << bits}
    else:
        states = {((_EMPTY,) * (w + 1), _NO_END): 1}

    for x in range(1 if half else 0, n_max + 1):
        right = x < n_max
        for r in range(w):
            up = r < w - 1
            place = placements[r]
            new: dict = {}
            get = new.get
            for (labels, code), poly in states.items():
                below, left = labels[r], labels[r + 1]
                if not below and not left:
                    # An empty cell, a new piece through it, or a new endpoint.
                    key = (labels, code)
                    new[key] = get(key, 0) + poly
                    if right and up:
                        p2 = (poly << 2 * bits) & mask
                        if p2:
                            key = (labels[:r] + (_OPEN, _CLOSE) + labels[r + 2 :], code)
                            new[key] = get(key, 0) + p2
                    codes = place.get(code)
                    p1 = (poly << bits) & mask if codes else 0
                    if p1:
                        for c in codes:
                            if right:
                                key = (labels[:r] + (_SINGLE, _EMPTY) + labels[r + 2 :], c)
                                new[key] = get(key, 0) + p1
                            if up:
                                key = (labels[:r] + (_EMPTY, _SINGLE) + labels[r + 2 :], c)
                                new[key] = get(key, 0) + p1
                elif not below or not left:
                    # One edge enters: go on right or up, or end the walk here.
                    label = below or left
                    p1 = (poly << bits) & mask
                    if p1:
                        if right:
                            key = (labels[:r] + (label, _EMPTY) + labels[r + 2 :], code)
                            new[key] = get(key, 0) + p1
                        if up:
                            key = (labels[:r] + (_EMPTY, label) + labels[r + 2 :], code)
                            new[key] = get(key, 0) + p1
                    for c in place.get(code, ()):
                        if label != _SINGLE:
                            i = _partner(labels, r if below else r + 1)
                            key = (_merge(labels, r, i, _SINGLE), c)
                            new[key] = get(key, 0) + poly
                        elif _alone(labels, r):
                            done[x, c] = done.get((x, c), 0) + poly
                elif below == _SINGLE and left == _SINGLE:
                    if _alone(labels, r):
                        done[x, code] = done.get((x, code), 0) + poly
                elif below != _OPEN or left != _CLOSE:  # else a closed loop
                    # Two edges enter: join their pieces.
                    if below == _SINGLE:
                        merged = _merge(labels, r, _partner(labels, r + 1), _SINGLE)
                    elif left == _SINGLE:
                        merged = _merge(labels, r, _partner(labels, r), _SINGLE)
                    elif below == left == _OPEN:
                        merged = _merge(labels, r, _partner(labels, r + 1), _OPEN)
                    elif below == left == _CLOSE:
                        merged = _merge(labels, r, _partner(labels, r), _CLOSE)
                    else:
                        merged = labels[:r] + (_EMPTY, _EMPTY) + labels[r + 2 :]
                    key = (merged, code)
                    new[key] = get(key, 0) + poly
            states = new

        # Move the frontier to the next column.  With no crossing edge the
        # walk has either completed or not started, and walks start in
        # column 0.
        states_next: dict = {}
        for (labels, code), poly in states.items():
            crossing = labels[:w]
            if not any(crossing):
                continue
            if half and code >= _BOTH_HERE:
                if cut_free:
                    continue
                code = _BOTH_EARLIER
            if cut_free and w - crossing.count(_EMPTY) == 1:
                continue
            key = ((_EMPTY,) + crossing, code)
            states_next[key] = states_next.get(key, 0) + poly
        states = states_next

    coefficient = (1 << bits) - 1
    entries = []
    for (span, code), poly in done.items():
        end = lo + code - _BOTH_HERE if half and code >= _BOTH_HERE else None
        counts = tuple((poly >> bits * k) & coefficient for k in range(n_max + 1))
        entries.append(((span, end), counts))
    return tuple(entries)


def _summed(tables) -> tuple[int, ...]:
    """Sum count tuples of equal length entry by entry."""
    return tuple(map(sum, zip(*tables)))


def count_saws(strip: StripGeometry, n_max: int) -> CountTable:
    """Exact number of n-step self-avoiding walks on the strip, n = 0..n_max."""
    _check_n_max(n_max)
    return CountTable(_summed(c for _, c in _transfer(strip, n_max, "saw")))


def count_half_space(strip: StripGeometry, n_max: int) -> CountTable:
    """Exact number of n-step half-space walks on the strip, n = 0..n_max."""
    _check_n_max(n_max)
    return CountTable(_summed(c for _, c in _transfer(strip, n_max, "half_space")))


def count_bridges(strip: StripGeometry, n_max: int) -> CountTable:
    """Exact number of n-step bridges on the strip, n = 0..n_max."""
    _check_n_max(n_max)
    entries = _transfer(strip, n_max, "half_space")
    return CountTable(_summed(c for (_, end), c in entries if end is not None))


def bridge_span_table(strip: StripGeometry, n: int) -> dict[int, int]:
    """Counts of n-step bridges grouped by span.

    Bridges start in column 0 and never return to it, so the span of a
    bridge is simply its maximal x-coordinate.
    """
    _check_n_max(n)
    table: dict[int, int] = {}
    for (span, end), counts in _transfer(strip, n, "half_space"):
        if end is not None and counts[n]:
            table[span] = table.get(span, 0) + counts[n]
    return table


def count_bridges_by_span(strip: StripGeometry, n: int, span: int) -> int:
    """Exact number of n-step bridges with the given span."""
    if span < 0:
        raise ValueError(f"span must be non-negative, got {span}")
    return bridge_span_table(strip, n).get(span, 0)


def iter_walks(strip: StripGeometry, n_max: int, kind: str = "saw") -> Iterator[Walk]:
    """Yield every walk of the given kind with length 0..n_max.

    ``kind`` is one of ``"saw"``, ``"half_space"``, ``"bridge"``.  Walks come
    out in depth-first order, prefixes before extensions.
    """
    _check_n_max(n_max)
    if kind not in ("saw", "half_space", "bridge"):
        raise ValueError(f"unknown walk kind {kind!r}")
    bridges_only = kind == "bridge"
    # Every point of a walk of length <= n_max has x >= -n_max.
    x_floor = 0 if kind != "saw" else -n_max - 1
    y_lo, y_hi = strip.y_min, strip.y_max
    path: list[tuple[int, int]] = []
    visited: set[tuple[int, int]] = set()
    # pending[d] holds the untried (point, max x) moves from path[d - 1], the
    # next one last; pending[0] holds the origin.  The points visited do not
    # change between entering a point and trying its moves, so the moves are
    # filtered once, on entry.
    pending = [[((0, 0), 0)]]
    while pending:
        moves = pending[-1]
        if not moves:
            pending.pop()
            if path:
                visited.remove(path.pop())
            continue
        p, m = moves.pop()
        path.append(p)
        if not bridges_only or p[0] == m:
            yield _trusted_walk(tuple(path))
        if len(path) > n_max:
            path.pop()
            continue
        visited.add(p)
        x, y = p
        ahead = []
        for dx, dy in _DELTAS_LAST_FIRST:
            nx = x + dx
            ny = y + dy
            if y_lo <= ny <= y_hi and nx > x_floor and (nx, ny) not in visited:
                ahead.append(((nx, ny), nx if nx > m else m))
        pending.append(ahead)


# ---------------------------------------------------------------------------
# Bridge decomposition into irreducible factors
# ---------------------------------------------------------------------------


def _scan_cuts(xs: list[int]) -> tuple[tuple[int, ...], int, int]:
    """Cut indices of a walk's x-coordinates, min(x_1..x_n) and max(x_0..x_n).

    One right-to-left scan that keeps the suffix minimum and reads the prefix
    maxima.  For unit steps, j is a cut iff max(x_0..x_j) < min(x_{j+1}..x_n):
    then x_{j+1} = x_j + 1, so x_j is the prefix maximum.  Needs n >= 1.
    """
    n = len(xs) - 1
    prefix_max = list(accumulate(xs, max))
    low = xs[n]  # min(x_{j+1}..x_n) while j is scanned
    cuts = []
    for j in range(n - 1, 0, -1):
        if prefix_max[j] < low:
            cuts.append(j)
        x = xs[j]
        if x < low:
            low = x
    cuts.reverse()
    return tuple(cuts), low, prefix_max[n]


def cut_points(walk: Walk) -> tuple[int, ...]:
    """Indices 0 < j < n where the bridge splits into two bridges.

    j is a cut iff the prefix ending at j and the suffix starting at j are
    both bridges after translation, i.e. x_j is a running maximum and the
    suffix never returns to column x_j or further left.
    """
    if walk.length <= 1:
        return ()
    return _scan_cuts([p[0] for p in walk.points])[0]


@dataclass(frozen=True)
class IrreducibleFactor:
    """One irreducible factor of a bridge, translated to start at the origin.

    ``start_line`` is the row of the strip on which the factor started before
    translation; ``tail_length`` is the number of leading unit right-steps
    merged into the factor.
    """

    walk: Walk
    start_line: int
    tail_length: int
    bridge_type: str | None = None

    @property
    def length(self) -> int:
        return self.walk.length

    @property
    def end_line(self) -> int:
        return self.start_line + self.walk.end[1]


@dataclass(frozen=True)
class BridgeDecomposition:
    """Irreducible factors of a bridge plus the trailing run of right steps."""

    factors: tuple[IrreducibleFactor, ...]
    trailing_right_run: int

    def reassemble_steps(self) -> str:
        return "".join(f.walk.steps() for f in self.factors) + "R" * self.trailing_right_run


def _bridge_type(strip: StripGeometry, start_line: int, end_line: int) -> str:
    """OO/OI/IO/II: O for an outer row of the strip, I for an inner one."""
    outer = strip.outer_lines
    return ("O" if start_line in outer else "I") + ("O" if end_line in outer else "I")


def decompose_bridge(walk: Walk, strip: StripGeometry | None = None) -> BridgeDecomposition:
    """Split a bridge into irreducible factors and a trailing right-step run.

    Runs of unit right-step factors are merged into the next non-trivial
    factor as its tail; a maximal trailing run of right steps is returned
    separately.  When ``strip`` is given (width 3 or 4), each factor is
    classified by its start and end lines.
    """
    points = walk.points
    n = len(points) - 1
    if n == 0:
        return BridgeDecomposition((), 0)
    xs = [p[0] for p in points]
    cuts, low, high = _scan_cuts(xs)
    # A bridge: 0 < x_j <= x_n for every j >= 1.
    if low <= 0 or high > xs[n]:
        raise ValueError("decompose_bridge requires a bridge")
    typed = strip is not None and strip.width in (3, 4)
    boundaries = (0,) + cuts + (n,)
    factors: list[IrreducibleFactor] = []
    pending_tail = 0
    for a, b in zip(boundaries, boundaries[1:]):
        if b - a == 1:
            pending_tail += 1
            continue
        seg_start = a - pending_tail
        # A contiguous slice of a valid walk, translated to the origin.
        x0, start_line = points[seg_start]
        sub = _trusted_walk(tuple([(x - x0, y - start_line) for x, y in points[seg_start : b + 1]]))
        bridge_type = _bridge_type(strip, start_line, points[b][1]) if typed else None
        factors.append(IrreducibleFactor(sub, start_line, pending_tail, bridge_type))
        pending_tail = 0
    return BridgeDecomposition(tuple(factors), pending_tail)


def classify_irreducible(factor: IrreducibleFactor, strip: StripGeometry) -> str:
    """Label an irreducible factor OO/OI/IO/II by its start and end lines."""
    if strip.width not in (3, 4):
        raise ValueError(f"classification requires width 3 or 4, got {strip.width}")
    start, end = factor.start_line, factor.end_line
    for line in (start, end):
        if not (strip.y_min <= line <= strip.y_max):
            raise ValueError(f"line {line} is not a row of the strip")
    return _bridge_type(strip, start, end)


def count_irreducible(
    strip: StripGeometry,
    bridge_type: str,
    n_max: int,
    start_line: int,
    tailless: bool = False,
) -> CountTable:
    """Exact counts of irreducible bridges of one type starting on a given line.

    Counts include the merged tail unless ``tailless`` is set, in which case
    only factors with no leading right-step run are counted.
    """
    _check_n_max(n_max)
    if bridge_type not in BRIDGE_TYPES:
        raise ValueError(f"unknown bridge type {bridge_type!r}")
    if strip.width not in (3, 4):
        raise ValueError(f"irreducible counting requires width 3 or 4, got {strip.width}")
    shifted = strip.shift_origin(start_line)  # rejects an off-strip line first
    starts_outer = start_line in strip.outer_lines
    if bridge_type.startswith("O") != starts_outer:
        raise ValueError(
            f"start line {start_line} is {'outer' if starts_outer else 'inner'}, "
            f"inconsistent with type {bridge_type}"
        )
    # A merged factor of length n with tail k is R^k followed by a bridge of
    # length n - k >= 2 with no cut point, so the tailed count at n is the
    # running sum of the cut-free counts at 2..n.
    counts = [0] * (n_max + 1)
    for (_, end), cut_free in _transfer(shifted, n_max, "cut_free"):
        if _bridge_type(shifted, 0, end) == bridge_type:
            per_length = cut_free[2:] if tailless else accumulate(cut_free[2:])
            for n, c in enumerate(per_length, 2):
                counts[n] += c
    return CountTable(tuple(counts))


# ---------------------------------------------------------------------------
# Hammersley-Welsh span decomposition and reflection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HWDecomposition:
    """Span decomposition (A_1..A_k, n_1..n_k) of a half-space walk.

    The spans decrease strictly, the cut indices increase, and n_k equals the
    walk length.  On a width-3 strip k never exceeds 3; on width 4 it never
    exceeds 4 (verified exhaustively by the test suite).
    """

    spans: tuple[int, ...]
    cut_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.spans) != len(self.cut_indices) or not self.spans:
            raise ValueError("spans and cut indices must be non-empty and aligned")
        if any(a <= b for a, b in zip(self.spans, self.spans[1:])) or self.spans[-1] <= 0:
            raise ValueError("spans must be strictly decreasing and positive")
        if any(a >= b for a, b in zip(self.cut_indices, self.cut_indices[1:])):
            raise ValueError("cut indices must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.spans)


def hw_decompose(walk: Walk) -> HWDecomposition:
    """Alternating span decomposition of a half-space walk.

    Starting from n_0 = 0, n_i is the last index of a maximum (i odd) or of a
    minimum (i even) of x over [n_{i-1}, n], and A_i = |x_{n_i} - x_{n_{i-1}}|;
    the recursion stops at the first n_i equal to the walk length.  One
    backward pass records, for every j, the last index of a maximum and of a
    minimum of x_j..x_n, so each span costs O(1).
    """
    points = walk.points
    n = len(points) - 1
    if n < 1:
        raise ValueError("span decomposition requires length >= 1")
    xs = [p[0] for p in points]
    # arg_max[j], arg_min[j]: the last index of a maximum, of a minimum, of
    # x_j..x_n.
    arg_max = [n] * (n + 1)
    arg_min = [n] * (n + 1)
    hi = lo = n
    top = bottom = xs[n]
    for j in range(n - 1, -1, -1):
        x = xs[j]
        if x > top:
            hi, top = j, x
        elif x < bottom:
            lo, bottom = j, x
        arg_max[j] = hi
        arg_min[j] = lo
    # min(x_1..x_n), the last point included.
    if xs[arg_min[1]] <= 0:
        raise ValueError("span decomposition requires a half-space walk")
    # The cuts alternate: a maximum, then a minimum, then a maximum, ...
    cut = arg_max[0]
    cuts = [cut]
    spans = [xs[cut]]  # x_0 = 0
    this, other = arg_min, arg_max
    while cut != n:
        nxt = this[cut]
        spans.append(abs(xs[nxt] - xs[cut]))
        cuts.append(nxt)
        cut = nxt
        this, other = other, this
    return HWDecomposition(tuple(spans), tuple(cuts))


def hw_reflect(walk: Walk, decomposition: HWDecomposition | None = None) -> Walk:
    """Reflect the part of a half-space walk beyond its first span maximum.

    Points up to n_1 are kept; points after n_1 are reflected across the
    column x = A_1.  The image is a half-space walk whose span decomposition
    is (A_1 + A_2, A_3, ..., A_k).  Requires k >= 2.
    """
    dec = decomposition if decomposition is not None else hw_decompose(walk)
    if dec.k < 2:
        raise ValueError("reflection requires a decomposition with k >= 2")
    a1 = dec.spans[0]
    n1 = dec.cut_indices[0]
    pts = list(walk.points[: n1 + 1])
    pts += [(2 * a1 - x, y) for x, y in walk.points[n1 + 1 :]]
    return Walk(tuple(pts))


# ---------------------------------------------------------------------------
# Width-4 irreducible-bridge transformation
# ---------------------------------------------------------------------------


# A half turn reverses every step; the strip's mirror swaps up and down.
_HALF_TURN = str.maketrans("RLUD", "LRDU")
_MIRROR = str.maketrans("UD", "DU")


def _split_complicated(steps: str, rows: list[int], y_min: int) -> tuple[str, str, str]:
    """Parse a tailless upper-start factor into its three two-row sub-walks.

    ``rows[k]`` is the strip row of the factor's k-th point.  The pattern is
    a left-step-free walk A on the top two rows, a right-step-free walk B on
    the middle two rows, and a left-step-free walk C on the bottom two rows;
    B starts on row ``y_min + 2`` and ends on row ``y_min + 1``.  A is the
    longest left-free prefix on the top band and C the longest left-free
    suffix on the bottom band; the factor matches iff what lies between them
    is a non-empty B.
    """
    n = len(steps)
    i = 0
    while i < n and steps[i] != "L" and y_min + 2 <= rows[i + 1] <= y_min + 3:
        i += 1
    j = n
    if y_min <= rows[n] <= y_min + 1:
        while j > 0 and steps[j - 1] != "L" and y_min <= rows[j - 1] <= y_min + 1:
            j -= 1
    # With i > 0, A ends on the top band, so B's band pins it to y_min + 2.
    if (
        i == 0
        or j <= i
        or "R" in steps[i:j]
        or rows[j] != y_min + 1
        or not all(y_min + 1 <= r <= y_min + 2 for r in rows[i : j + 1])
    ):
        raise ValueError("factor does not match the complicated pattern")
    return steps[:i], steps[i:j], steps[j:]


def is_simple_factor(factor: IrreducibleFactor) -> bool:
    """True for factors that are a tail, one right step, then 1-3 verticals."""
    steps = factor.walk.steps()
    k = factor.tail_length
    body = steps[k:]
    if len(body) < 2 or body[0] != "R":
        return False
    rest = body[1:]
    return len(rest) <= 3 and (set(rest) == {"U"} or set(rest) == {"D"})


def transform_irreducible_w4(factor: IrreducibleFactor, strip: StripGeometry) -> Walk:
    """Transform a tailless complicated width-4 factor into a two-row walk.

    The middle sub-walk is rotated half a turn about its start so that it
    runs rightward, and separating right steps are inserted after the top
    sub-walk and/or before the bottom one depending on the factor type (two
    for OO, one for OI or IO, none for II).  The image has no left steps,
    lives on two rows, and is longer by the number of inserted steps; the
    map is injective on each (type, start line) domain.

    The map reads the factor's step string and the strip row of each point.
    A factor starting on one of the two lower lines is first mirrored onto
    the upper lines, which changes neither its type nor its length, by
    swapping U and D in the string and mirroring the rows.  Its start and
    end lines must be rows of the strip; the image is validated by
    ``Walk.from_steps``.
    """
    if strip.width != 4:
        raise ValueError(f"transformation requires a width-4 strip, got width {strip.width}")
    if factor.tail_length != 0:
        raise ValueError("transformation applies to factors with the tail removed")
    if is_simple_factor(factor):
        raise ValueError("factor does not match the complicated pattern")

    steps = factor.walk.steps()
    rows = [factor.start_line + y for _, y in factor.walk.points]
    if factor.start_line <= strip.y_min + 1:
        # Mirror lower-start factors onto the upper lines.
        steps = steps.translate(_MIRROR)
        rows = [strip.mirror_line(r) for r in rows]
    for line in (rows[0], rows[-1]):
        if not (strip.y_min <= line <= strip.y_max):
            raise ValueError(f"line {line} is not a row of the strip")
    part_a, part_b, part_c = _split_complicated(steps, rows, strip.y_min)

    bridge_type = _bridge_type(strip, rows[0], rows[-1])
    out = part_a
    if bridge_type in ("OO", "IO"):
        out += "R"
    out += part_b.translate(_HALF_TURN)
    if bridge_type in ("OO", "OI"):
        out += "R"
    out += part_c
    return Walk.from_steps(out)
