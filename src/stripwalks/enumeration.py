"""Exact counts of strip walks, and the structural operations on bridges.

Every count table comes from one cached frontier transfer matrix: the strip
is swept column by column and cell by cell, and each state of the frontier
carries a polynomial in the walk length.  For a fixed width the cost grows
polynomially in the length instead of like mu^n.  A frontier state is one
int, 2 bits per frontier edge with the endpoint code above them, and is its
own key, so nothing is interned.  The sweep caches each state's moves
through each cell row at its first visit, worked out by shifts and masks;
the top row's moves already land in the next column.  So the label work is
done once per state and row, and each later column costs only the
polynomial arithmetic.  A polynomial is one integer with 2 n_max + 1 bits
per coefficient, a width ``_transfer`` proves enough, and a count table sums
its entries and unpacks them once: 4-row bridges to n = 200 take about
0.25 s (2-core Xeon, Python 3.11).
A saw run counts each path once per endpoint on the origin row and its
mirror row, and lets a path whose endpoints lie in different columns stand
for its mirror image in x too, so no state outlives a first endpoint off
those rows.  One half-space run gives the half-space walks and the bridges
by span, without their end rows; a second run that forbids cut points, and
keeps the end row, gives the irreducible factors.  The saw and half-space
runs also fold the strip's up-down mirror: at each column boundary a state
and its mirror image, which have the same future, become one state, and
the tables are halved at the end where the origin is off the middle row.
``iter_walks`` is the package's only depth-first search, an explicit-stack
loop over a table of lattice points that each call builds once: it yields the
walks themselves and is the oracle the tests compare the transfer matrix
against.
On top of the counts this module implements the structural operations on
bridges, each by linear scans over the walk's x-coordinates:

* decomposition of a bridge into irreducible factors (with the convention
  that a run of leading unit right-steps is absorbed into the following
  factor as its *tail*, and a maximal trailing run of right steps is kept
  aside as an ``r*`` suffix);
* classification of irreducible factors by start/end line (OO, OI, IO, II);
* the span decomposition and the reflection map of half-space walks used by
  the Hammersley-Welsh argument;
* the injective transformation of width-4 irreducible factors into
  left-step-free walks on a two-row strip.

Bridges share few distinct factors (the 3,389 bridges of the strip from -1
to 1 up to length 12 have 10,838 factors on 277 distinct segments), so
``decompose_bridge`` builds each factor once.  A module-wide ``lru_cache``
bounded at 4096 factors (about 3 MB) maps the untranslated segment, the tail
length and the strip's outer lines (a plain int pair) to the frozen,
classified factor.  The key holds no ``StripGeometry``: its field-wise hash
and equality run in Python on every lookup, while a key of tuples and ints
is hashed and compared in C.

Where a bridge's factors lie depends only on its x-sequence, and bridges
share few x-sequences: the 7,143 bridges of the benchmark's 3- and 4-row
requests have 2,055.  So a second cache, keyed on the x-sequence alone,
holds the bridge check with the factor slices (``_cut_plan``).  It is
bounded at 512 entries, about 0.2 MB when full; a flat plan keyed on the
unpacked x-sequence, rather than one tuple per factor keyed on a 1-tuple,
takes a full cache from about 0.3 MB to that.  Unbounded, it made the
benchmark's structure requests no faster and grew a round's memory, which
its peak RSS would show.  No cache keeps an exception, and the checks run
before any lookup.  The span decomposition of a half-space walk has no
cache: its cuts come from ``max``, ``min`` and ``index`` on the reversed
x-sequence, which run in C, and a cache keyed on the x-sequence made it no
faster.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterator

from .lattice import (
    BRIDGE_TYPES,
    CountTable,
    StripGeometry,
    Walk,
    _check_int,
    _Frozen,
    _new_instance,
    _set_field,
    _trusted_walk,
)

# DFS step order of ``iter_walks`` is R, U, D, L, fixed so that golden tests
# are stable.  The search pops its moves from the end of a list, so the list
# is built in the reverse order.
_DELTAS_LAST_FIRST = ((-1, 0), (0, -1), (0, 1), (1, 0))

# Labels of the frontier edges of the transfer matrix: empty; the lower and
# the upper end of a piece whose two ends both cross the frontier; a piece
# whose other end is an endpoint of the walk.  Each takes 2 bits of a state.
_EMPTY, _OPEN, _CLOSE, _SINGLE = 0, 1, 2, 3

# Endpoint codes of a state, a and b being a path's first and second endpoint
# in sweep order, and R the origin row with its mirror row: nothing placed; a
# off R, in the current column; a on R, in the current column; a on R, in an
# earlier column; both placed; both placed, b in the current column.  Only
# half-space runs use _BOTH_HERE, so that a bridge is known when it completes,
# and turn it into _BOTH_EARLIER at the next column; ``"cut_free"`` runs add
# b's row index to it.  ``_transfer`` gives the rules.
_NO_END, _OTHER_END, _START_HERE, _START, _BOTH_EARLIER, _BOTH_HERE = range(6)


def _packed_width(n_max: int) -> int:
    """Bits per coefficient of a packed :func:`_transfer` polynomial, which
    proves the width enough."""
    return 2 * n_max + 1


def _mirror_image(state: int, w: int) -> int:
    """A column-boundary state of a w-row strip reflected in its middle.

    Slot 0, the vertical edge into the lowest cell, stays empty, and the
    code stays.  The horizontal edges in slots 1..w, the low 2w bits,
    reverse their order, and the lower and upper ends of each piece trade
    labels, which reverses each slot's 2 bits: the 2w bits reverse.
    """
    low = 2 * w
    edges = state & ((1 << low) - 1)
    return state - edges + int(f"{edges:0{low}b}"[::-1], 2)


def _partner(state: int, s: int) -> int:
    """Bit offset of the other frontier end of the piece with an end at
    offset ``s``.  A slot one row further up sits 2 bits lower."""
    mine = state >> s & 3
    other = _OPEN + _CLOSE - mine
    step = -2 if mine == _OPEN else 2
    depth = 1
    while True:
        s += step
        label = state >> s & 3
        if label == mine:
            depth += 1
        elif label == other:
            depth -= 1
            if depth == 0:
                return s


def _relabel(state: int, s: int, label: int) -> int:
    """The state with ``label`` in the slot at bit offset ``s``."""
    return state & ~(3 << s) | label << s


def _cell(state: int, w: int, r: int, place: dict) -> tuple[list, list]:
    """The moves of one frontier state through the cell on row index r of
    a w-row strip.

    Returns the successor states as (state, edges added, d) triples, and
    the (d, code) pairs of the walks that complete in the cell, 2^d being
    the weight the move gives.  ``place`` maps a code to the (code, d) pair
    after one more endpoint on this row; a code it lacks places none.  The
    result depends on nothing but the arguments, so a sweep can work it out
    once per state and row.
    """
    # Bit offsets of slot r + 1 (the left edge in, the up edge out), of slot
    # r (the edge from below in, the right edge out) and of the code.  Only
    # the top row, which has no up edge, has slot r + 1 at offset 0.
    up = 2 * (w - 1 - r)
    low = up + 2
    top = 2 * w + 2
    below, left = state >> low & 3, state >> up & 3
    code = state >> top
    rest = state & ~(15 << up)  # slots r and r + 1 emptied
    bare = code << top  # rest, when no other frontier edge is occupied
    placed = place.get(code)
    moves: list = []
    ends: list = []
    if not below and not left:
        # An empty cell, a new piece through it, or a new endpoint.
        moves.append((state, 0, 0))
        if up:
            moves.append((rest | _OPEN << low | _CLOSE << up, 2, 0))
        if placed:
            c, d = placed
            moved = rest + (c - code << top)
            moves.append((moved | _SINGLE << low, 1, d))
            if up:
                moves.append((moved | _SINGLE << up, 1, d))
    elif not below or not left:
        # One edge enters: go on right or up, or end the walk here.
        label = below or left
        moves.append((rest | label << low, 1, 0))
        if up:
            moves.append((rest | label << up, 1, 0))
        if placed:
            c, d = placed
            if label != _SINGLE:
                s = _partner(state, low if below else up)
                moves.append((_relabel(rest, s, _SINGLE) + (c - code << top), 0, d))
            elif rest == bare:
                ends.append((d, c))
    elif below == _SINGLE and left == _SINGLE:
        if rest == bare:
            ends.append((0, code))
    elif below != _OPEN or left != _CLOSE:  # else a closed loop
        # Two edges enter: join their pieces.  The partner of one end takes
        # over the label of the other end.
        if below == _SINGLE or below == left == _OPEN:
            merged = _relabel(rest, _partner(state, up), below)
        elif left == _SINGLE or below == left == _CLOSE:
            merged = _relabel(rest, _partner(state, low), left)
        else:
            merged = rest
        moves.append((merged, 0, 0))
    return moves, ends


def _next_column(state: int, w: int, cut_free: bool) -> int | None:
    """A state moved to the next column, or None if it leaves the sweep.

    With no crossing edge the walk has either completed or not started, and
    walks start in column 0.  A saw run drops a state whose first endpoint
    is off the origin row and its mirror row: its second endpoint would lie
    in a later column, and :func:`_transfer` counts those walks through
    their mirror images in x.  A
    ``"cut_free"`` run also drops a walk whose second endpoint lies in this
    column, as the walk goes on past it, and a walk with one crossing edge,
    which is a cut.
    """
    top = 2 * w + 2
    code = state >> top
    crossing = state & ((1 << top) - 1)  # slot w, the top cell's up edge, is empty
    if not crossing or code == _OTHER_END:
        return None
    if cut_free:
        # One bit per occupied slot: (1 << top) // 3 is 0b0101...01.
        occupied = (crossing | crossing >> 1) & (1 << top) // 3
        if code >= _BOTH_HERE or not occupied & (occupied - 1):
            return None
    if code >= _BOTH_HERE:
        code = _BOTH_EARLIER
    elif code == _START_HERE:
        code = _START
    # Slot i + 1 of the next column is slot i of this one, 2 bits lower.
    return crossing >> 2 | code << top


@lru_cache(maxsize=None)
def _transfer(strip: StripGeometry, n_max: int, mode: str) -> tuple:
    """Count walks of length <= n_max with a frontier transfer matrix.

    ``mode`` is ``"saw"``, ``"half_space"`` or ``"cut_free"``.  Returns
    ((span, end), packed counts) pairs.  ``end`` is None for a walk that is
    not a bridge and for every walk of a ``"saw"`` run; for a bridge it is
    the end row in a ``"cut_free"`` run and True in a ``"half_space"`` run,
    which does not track the row.  The packed counts are the length
    polynomial in the sweep's layout below; :func:`_unpacked` sums entries
    and unpacks them.

    A walk of length n >= 1 is a path of n edges plus a choice of one of its
    endpoints as the start.  The sweep runs column by column and, inside a
    column, cell by cell from the lowest row up.  A state is the label of each
    of the w + 1 frontier edges (the horizontal edges leaving the cells done
    in this column, the vertical edge entering the current cell, the
    horizontal edges entering the cells still to do) and an endpoint code.
    Pieces whose two ends both cross the frontier never cross each other, so
    _OPEN/_CLOSE pair up like parentheses.  A state is one int: slot i, from
    the lowest row up, holds its label in bits 2 (w - i) and 2 (w - i) + 1,
    and the code sits above the slots, from bit 2 (w + 1) up, so no field
    limits the rows or the code.  For one code, ints order like the tuples
    of labels from slot 0 up.

    Let o be the origin's row index, o' = w - 1 - o its mirror row and R =
    {o, o'}, one row on a strip centred on the origin.  The code follows a
    path's endpoints a and b, first and second in sweep order, and each
    partial path lies in exactly one state:

    * ``"half_space"``: a is the start, in column 0 on a row of R, so every
      state has _START until b is placed.  b gives _BOTH_HERE, which becomes
      _BOTH_EARLIER at the next column.
    * ``"cut_free"``: a is the origin, and b adds its row index to
      _BOTH_HERE.
    * ``"saw"``: the start is either endpoint on the origin row, so
      c_n = Σ ([a on o] + [b on o]) over the paths of n edges, and the
      strip's up-down mirror, a bijection on those paths that maps o to o',
      gives |R| c_n = Σ ([a in R] + [b in R]).  Reflect a path in x and
      translate it back to column 0: the strip, every row, the span and the
      length stay, and two endpoints in different columns swap their sweep
      order.  So the paths with a and b in different columns give [b in R]
      as often as [a in R], and

          |R| c_n = 2 #{paths with a in R and b in a later column}
                    + Σ over paths with a, b in one column of
                      ([a in R] + [b in R]).

      An a on R gives _START_HERE, which becomes _START at the next column;
      an a on another row gives _OTHER_END, which :func:`_next_column`
      drops.  b gives _BOTH_EARLIER and weights the path by 2 after _START,
      by 1 + [b in R] after _START_HERE and by [b in R] after _OTHER_END.

    The fold: the saw and half-space weights are the same on a row and its
    mirror row, so the up-down mirror maps the partial paths of a
    column-boundary state onto those of its mirror image (slot 0 empty,
    slots 1..w reversed, _OPEN and _CLOSE swapped, the same code), and maps
    their completions onto each other with the same weights, span and code.
    The two states have the same future, so each is replaced by the lesser
    of the two ints once :func:`_next_column` has moved it; the move and
    the fold are memoised per top-row successor.
    Both half-space starts, on o and on o', fold into one state with
    polynomial |R| t.  Every ``done`` entry is thus |R| times the walks of
    its key, entry by entry, so with |R| = 2 each slot is even and one
    right shift halves every slot at once.  ``"cut_free"`` runs are not
    folded: their key holds b's row, which the mirror moves.

    Each state carries the weighted sum of its partial paths as a length
    polynomial, packed into one integer with ``bits = 2 * n_max + 1`` bits
    per coefficient (:func:`_packed_width`) and truncated at n_max.  No
    coefficient that is read needs more:

    * Every component of a live partial walk holds a frontier edge.  A
      completed component only ever goes to ``done``, through the check in
      :func:`_cell` that no other frontier edge is occupied.
    * Trace each of an unfolded state's p components from that frontier
      edge.  The first edge is fixed by the labels, and each later edge has
      at most 3 choices.  So its coefficient of t^k is at most
      2 * C(k - 1, p - 1) * 3^(k - p) <= 2 * 4^(k - 1), the factor 2 being
      the largest weight.
    * The fold stands a partial path of a dropped state in for its mirror
      image, so every state, at a column boundary or later in its column,
      holds each of its unfolded partial paths at most twice:
      2 * (2 * 4^(k - 1)) = 4^k < 2^(2k + 1) <= 2^bits.  A state with p = 0,
      the empty frontier of a saw run, holds only t^0 with coefficient 1.
    * A ``done`` entry before halving is at most |R| <= 2 times the walks of
      its key.  At k = 1 a key holds at most 2 walks (U and D, or R and L),
      so 4 < 2^3; at k >= 2, 2 c_k <= 8 * 3^(k - 1) < 2^(2k + 1); at k = 0
      it is |R| <= 2 < 2^bits, as n_max = 0 clamps the strip to one row.
    * Any sum of halved entries is at most c_k <= 4 * 3^(k - 1) < 2^(2k + 1)
      at k >= 1, and 1 at k = 0.
    * The mask drops every slot above n_max after a shift, and carries out
      of masked slots only move upward, so they never reach a slot that is
      read.

    A state in column x has a crossing edge at each of the x column
    boundaries to its left, so its polynomial has no coefficient below x.
    Hence in the last column, x = n_max, the truncation sends every move
    that adds an edge to 0, and every column runs the same cell step with
    no guard against a right edge past the sweep.

    The moves of a state do not depend on the column, and a sweep reaches
    few states (at the column boundaries of the strip from -1 to 2, 13 in a
    half-space run and 23 in a saw run, against 23 and 37 unfolded), so
    the sweep works out each state's moves once.  The state's int is its
    own key in the state dicts, the move cache and the fold memo, so
    nothing is interned, and :func:`_cell`, :func:`_next_column` and
    :func:`_mirror_image` shift and mask its bit fields.
    At a state's first visit to row r, :func:`_cell` gives its successors,
    which are cached for that row as one flat tuple of (k * bits + d,
    successor) pairs, k the number of edges the move adds and 2^d its
    weight, then a (~d, code) pair for each walk it completes: only those
    have a negative first item.  On the top row each successor is first
    moved to the next column by :func:`_next_column`, and dropped if it
    leaves the sweep, and folded, so a column is one cached pass per row.
    A visit then shifts and masks the polynomial for each pair and adds it
    to the successor's, or to the completed walks of its code.  The fold
    puts no pair twice in a cached tuple: on the top row a cell has no up
    edge, so its successors add distinct numbers of edges, and with
    n_max >= 1 distinct k give distinct shifts, so a successor and its
    mirror image are never reached with one shift.

    * ``"saw"``: a path is translated so that its leftmost column is 0.
      Columns run from 0 to n_max.
    * ``"half_space"``: column 0 holds only the start and its right edge.
      A walk is a bridge iff b lies in its last column, whose index is its
      span.
    * ``"cut_free"``: the half-space run, minus every state with exactly one
      edge crossing the line after a column >= 1: that edge is a cut of the
      bridge.  Only bridges with no cut point complete.

    The count entry points refuse a non-``int`` or negative length before
    the cache lookup, each by its own name, so this sweep checks nothing.
    """
    half = mode != "saw"
    cut_free = mode == "cut_free"
    lo, hi = max(strip.y_min, -n_max), min(strip.y_max, n_max)
    w = hi - lo + 1
    origin = -lo
    # R = {o, o'}: one row on a strip centred on the origin, else two.  A
    # saw or half-space run counts every path |R| times.
    rows = {origin, w - 1 - origin}
    copies = 1 if cut_free else len(rows)
    # Wide enough for every coefficient, by the bound in the docstring.
    bits = _packed_width(n_max)
    mask = (1 << bits * (n_max + 1)) - 1

    # placements[r][code]: the code after one more endpoint on row index r,
    # and d for the weight 2^d; a code with no entry, weight 0, places none.
    placements = []
    for r in range(w):
        if half:
            placements.append({_START: (_BOTH_HERE + r if cut_free else _BOTH_HERE, 0)})
            continue
        on_r = int(r in rows)
        place = {
            _NO_END: (_START_HERE if on_r else _OTHER_END, 0),
            _START_HERE: (_BOTH_EARLIER, on_r),
            _START: (_BOTH_EARLIER, 1),
        }
        if on_r:
            place[_OTHER_END] = (_BOTH_EARLIER, 0)
        placements.append(place)

    # steps[r][s] holds state s's successors through the cell on row index r
    # as (shift, successor) pairs, in the order _cell gives them, then the
    # (~d, code) pairs of the walks it completes there.  The top row's
    # successors are already moved to the next column, minus those that
    # leave the sweep, and folded unless the run is "cut_free".
    steps: list[dict] = [{} for _ in range(w)]
    top = 2 * w + 2  # the code's bit offset in a state

    # across[t]: a top-row successor t moved to the next column by
    # _next_column, and unless the run is "cut_free" folded to the lesser of
    # itself and its mirror image; None if it leaves the sweep.
    across: dict = {}

    def cross(t: int) -> int | None:
        if t not in across:
            u = _next_column(t, w, cut_free)
            across[t] = u if u is None or cut_free else min(u, _mirror_image(u, w))
        return across[t]

    # The single-point walk: length 0, span 0, its one point on the origin
    # row taken as a second endpoint after the start.
    done = {(0, placements[origin][_START][0]): copies}
    if half:
        first = _SINGLE << 2 * (w - 1 - origin) | _START << top
        if not cut_free:
            first = min(first, _mirror_image(first, w))
        states = {first: copies << bits}
    else:
        states = {_NO_END << top: 1}

    for x in range(1 if half else 0, n_max + 1):
        for r, place in enumerate(placements):
            step = steps[r]
            new: dict = {}
            get = new.get
            for s, poly in states.items():
                moves = step.get(s)
                if moves is None:
                    succ, ends = _cell(s, w, r, place)
                    if r < w - 1:
                        flat = [(k * bits + d, t) for t, k, d in succ]
                    else:
                        flat = [(k * bits + d, u) for t, k, d in succ if (u := cross(t)) is not None]
                    if ends:
                        flat += [(~d, c) for d, c in ends]
                    # A tuple, not a list: a saw run on 10 rows to n = 24
                    # caches 326,092 entries.
                    moves = step[s] = tuple(flat)
                for shift, t in moves:
                    if shift > 0:
                        p = (poly << shift) & mask
                        if p:
                            new[t] = get(t, 0) + p
                    elif shift == 0:
                        new[t] = get(t, 0) + poly
                    else:  # a walk completes: t is its code, and ~shift its d
                        done[x, t] = done.get((x, t), 0) + (poly << ~shift)
            states = new

    entries = []
    for (span, code), poly in done.items():
        if code < _BOTH_HERE:
            end = None
        else:
            end = lo + code - _BOTH_HERE if cut_free else True
        # Every slot is even when copies == 2, so the shift halves each one.
        entries.append(((span, end), poly >> (copies - 1)))
    return tuple(entries)


def _unpacked(polys, n_max: int) -> tuple[int, ...]:
    """The counts per length 0..n_max of the sum of packed entries of a
    :func:`_transfer` run to n_max; each sum fits its slot, by the bound
    there."""
    bits = _packed_width(n_max)
    total = sum(polys)
    coefficient = (1 << bits) - 1
    return tuple((total >> bits * k) & coefficient for k in range(n_max + 1))


def count_saws(strip: StripGeometry, n_max: int) -> CountTable:
    """Exact number of n-step self-avoiding walks on the strip, n = 0..n_max."""
    _check_int("n_max", n_max, 0)
    return CountTable(_unpacked((p for _, p in _transfer(strip, n_max, "saw")), n_max))


def count_half_space(strip: StripGeometry, n_max: int) -> CountTable:
    """Exact number of n-step half-space walks on the strip, n = 0..n_max."""
    _check_int("n_max", n_max, 0)
    return CountTable(_unpacked((p for _, p in _transfer(strip, n_max, "half_space")), n_max))


def count_bridges(strip: StripGeometry, n_max: int) -> CountTable:
    """Exact number of n-step bridges on the strip, n = 0..n_max."""
    _check_int("n_max", n_max, 0)
    entries = _transfer(strip, n_max, "half_space")
    return CountTable(_unpacked((p for (_, end), p in entries if end is not None), n_max))


def bridge_span_table(strip: StripGeometry, n: int) -> dict[int, int]:
    """Counts of n-step bridges grouped by span.

    Bridges start in column 0 and never return to it, so the span of a
    bridge is simply its maximal x-coordinate.
    """
    _check_int("n", n, 0)
    table: dict[int, int] = {}
    top = _packed_width(n) * n  # where the sweep's slot n, its highest, starts
    for (span, end), poly in _transfer(strip, n, "half_space"):
        if end is not None and (count := poly >> top):
            table[span] = table.get(span, 0) + count
    return table


def count_bridges_by_span(strip: StripGeometry, n: int, span: int) -> int:
    """Exact number of n-step bridges with the given span."""
    _check_int("span", span, 0)
    return bridge_span_table(strip, n).get(span, 0)


def iter_walks(strip: StripGeometry, n_max: int, kind: str = "saw") -> Iterator[Walk]:
    """Yield every walk of the given kind with length 0..n_max.

    ``kind`` is one of ``"saw"``, ``"half_space"``, ``"bridge"``.  Walks come
    out in depth-first order, prefixes before extensions.
    """
    _check_int("n_max", n_max, 0)
    if kind not in ("saw", "half_space", "bridge"):
        raise ValueError(f"unknown walk kind {kind!r}")
    bridges_only = kind == "bridge"
    # A walk of length <= n_max stays within n_max of the origin in x and y,
    # and a half-space walk stays right of column 0 after its start.  The
    # call makes each lattice point of that box on the strip once, with its
    # neighbours in the box in pop order, so the walks share point objects
    # and a move allocates no point.
    x_floor = 0 if kind != "saw" else -n_max - 1
    rows = range(max(strip.y_min, -n_max), min(strip.y_max, n_max) + 1)
    box = {(x, y): (x, y) for x in range(x_floor + 1, n_max + 1) for y in rows}
    origin = box.get((0, 0), (0, 0))
    near = {}
    for p in (origin, *box):
        x, y = p
        around = [(x + dx, y + dy) for dx, dy in _DELTAS_LAST_FIRST]
        near[p] = tuple([box[q] for q in around if q in box])
    path: list[tuple[int, int]] = []
    visited: set[tuple[int, int]] = set()
    # pending[d] holds the untried (point, max x) moves from path[d - 1], the
    # next one last; pending[0] holds the origin.  The points visited do not
    # change between entering a point and trying its moves, so the moves are
    # filtered once, on entry.
    pending = [[(origin, 0)]]
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
        pending.append([(q, q[0] if q[0] > m else m) for q in near[p] if q not in visited])


# ---------------------------------------------------------------------------
# Bridge decomposition into irreducible factors
# ---------------------------------------------------------------------------


def _scan_cuts(xs: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
    """Cut indices of a walk's x-coordinates, min(x_1..x_n) and max(x_0..x_n).

    One right-to-left scan that keeps the suffix minimum and reads the prefix
    maxima.  For unit steps, j is a cut iff max(x_0..x_j) < min(x_{j+1}..x_n):
    then x_{j+1} = x_j + 1, so x_j is the prefix maximum.  For n <= 1 there
    is no 0 < j < n, and the cut tuple is empty.
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
    return _scan_cuts(next(zip(*walk.points)))[0]


class IrreducibleFactor(_Frozen):
    """One irreducible factor of a bridge, translated to start at the origin.

    ``start_line`` is the row of the strip on which the factor started before
    translation; ``tail_length`` is the number of leading unit right-steps
    merged into the factor; ``bridge_type`` is its OO/OI/IO/II label, or None
    for a factor that no strip has classified.  A plain record: it takes one
    value per field, in order.
    """

    __slots__ = ("walk", "start_line", "tail_length", "bridge_type")

    @property
    def end_line(self) -> int:
        return self.start_line + self.walk.end[1]


class BridgeDecomposition(_Frozen):
    """Irreducible factors of a bridge plus the trailing run of right steps."""

    __slots__ = ("factors", "trailing_right_run")

    def reassemble_steps(self) -> str:
        return "".join(f.walk.steps() for f in self.factors) + "R" * self.trailing_right_run


def _bridge_type(outer: tuple[int, int], start_line: int, end_line: int) -> str:
    """OO/OI/IO/II: O for an outer row of the strip, I for an inner one.

    ``outer`` is the strip's ``outer_lines``.  The rule holds on every width.
    On 1 or 2 rows every row is outer, so every factor is OO.  On 5 or more
    rows I names any of the w - 2 inner rows, so a type no longer fixes, up
    to the strip's mirror symmetry, the row where the next factor starts.
    That is why the bridge code of :mod:`genfunc` stays on 3 and 4 rows.
    """
    return ("O" if start_line in outer else "I") + ("O" if end_line in outer else "I")


@lru_cache(maxsize=4096)
def _factor(segment: tuple, tail: int, outer: tuple[int, int]) -> IrreducibleFactor:
    """The factor on an untranslated segment of a bridge, built once.

    ``segment`` is a contiguous slice of a valid walk, so its translate to
    the origin is valid by construction.  ``outer`` is the strip's outer
    lines, which type the factor and bound its rows: a segment that leaves
    the strip is refused, as :func:`classify_irreducible` refuses its lines.
    """
    for _, y in segment:
        if not outer[0] <= y <= outer[1]:
            raise ValueError(f"line {y} is not a row of the strip")
    x0, start_line = segment[0]
    walk = _trusted_walk(tuple([(x - x0, y - start_line) for x, y in segment]))
    bridge_type = _bridge_type(outer, start_line, segment[-1][1])
    return IrreducibleFactor(walk, start_line, tail, bridge_type)


@lru_cache(maxsize=512)
def _cut_plan(*xs: int) -> tuple[int, ...]:
    """(start, stop, tail) of each factor of a bridge, then its trailing run.

    ``xs`` is the x-sequence of a walk of length >= 1.  Bridge-ness and the
    cuts depend on nothing else, so bridges that differ only in their rows,
    on any strip, share one plan.  A walk that is not a bridge raises
    ValueError, which the cache does not keep.

    Callers unpack the x-sequence, so the cache keys on that tuple itself
    rather than on a 1-tuple around it, and the plan is one flat tuple
    rather than one per factor.
    """
    n = len(xs) - 1
    cuts, low, high = _scan_cuts(xs)
    # A bridge: 0 < x_j <= x_n for every j >= 1.
    if low <= 0 or high > xs[n]:
        raise ValueError("decompose_bridge requires a bridge")
    boundaries = (0,) + cuts + (n,)
    plan: list[int] = []
    pending_tail = 0
    for a, b in zip(boundaries, boundaries[1:]):
        if b - a == 1:
            pending_tail += 1
            continue
        plan += (a - pending_tail, b + 1, pending_tail)
        pending_tail = 0
    plan.append(pending_tail)
    return tuple(plan)


def decompose_bridge(walk: Walk, strip: StripGeometry) -> BridgeDecomposition:
    """Split a bridge into irreducible factors and a trailing right-step run.

    Runs of unit right-step factors are merged into the next non-trivial
    factor as its tail; a maximal trailing run of right steps is returned
    separately.  Each factor is classified by its start and end lines on
    ``strip``; a factor with a row off ``strip`` raises ValueError.

    The bridge check and the factor slices come from :func:`_cut_plan`,
    cached on the x-sequence alone, and the frozen factors from
    :func:`_factor`, cached on the untranslated segment, the tail length and
    the outer lines; the module docstring gives the sizes.  The bridge check
    runs before any factor lookup.
    """
    points = walk.points
    if len(points) == 1:
        return BridgeDecomposition((), 0)
    plan = _cut_plan(*next(zip(*points)))
    outer = strip.outer_lines
    triples = iter(plan)  # zip stops at the trailing run, the odd one out
    factors = [_factor(points[a:b], tail, outer) for a, b, tail in zip(triples, triples, triples)]
    dec = _new_instance(BridgeDecomposition)
    _set_field(dec, "factors", tuple(factors))
    _set_field(dec, "trailing_right_run", plan[-1])
    return dec


def classify_irreducible(factor: IrreducibleFactor, strip: StripGeometry) -> str:
    """Label an irreducible factor OO/OI/IO/II by its start and end lines."""
    start, end = factor.start_line, factor.end_line
    for line in (start, end):
        if not (strip.y_min <= line <= strip.y_max):
            raise ValueError(f"line {line} is not a row of the strip")
    return _bridge_type(strip.outer_lines, start, end)


def count_irreducible(
    strip: StripGeometry,
    bridge_type: str,
    n_max: int,
    start_line: int,
    tailless: bool = False,
) -> CountTable:
    """Exact counts of irreducible bridges of one type starting on a given line.

    Counts include the merged tail unless ``tailless`` is set, in which case
    only factors with no leading right-step run are counted.  Any strip is
    served: the type is read off the start line and the end row by the
    outer/inner rule of :func:`_bridge_type`, so on 5 or more rows an I type
    sums over every inner end row.
    """
    _check_int("n_max", n_max, 0)
    if bridge_type not in BRIDGE_TYPES:
        raise ValueError(f"unknown bridge type {bridge_type!r}")
    shifted = strip.shift_origin(start_line)  # rejects a non-int or off-strip line first
    starts_outer = start_line in strip.outer_lines
    if bridge_type.startswith("O") != starts_outer:
        raise ValueError(
            f"start line {start_line} is {'outer' if starts_outer else 'inner'}, "
            f"inconsistent with type {bridge_type}"
        )
    # A merged factor of length n with tail k is R^k followed by a bridge of
    # length n - k >= 2 with no cut point, so the tailed count at n is the
    # running sum of the cut-free counts at 2..n.
    entries = _transfer(shifted, n_max, "cut_free")
    cut_free = _unpacked(
        (p for (_, end), p in entries if _bridge_type(shifted.outer_lines, 0, end) == bridge_type),
        n_max,
    )[2:]
    per_length = cut_free if tailless else tuple(accumulate(cut_free))
    return CountTable(((0, 0) + per_length)[: n_max + 1])


# ---------------------------------------------------------------------------
# Hammersley-Welsh span decomposition and reflection
# ---------------------------------------------------------------------------


class HWDecomposition(_Frozen):
    """Span decomposition (A_1..A_k, n_1..n_k) of a half-space walk.

    ``hw_decompose`` builds only records in which the spans are positive and
    decrease strictly, the cut indices increase strictly, there are as many
    of each, and n_k equals the walk length.  Segment i runs between
    x_{n_(i-1)} and x_{n_i}, and these x-intervals are strictly nested: a
    half-space walk never goes left of its start, and after a last maximum
    (minimum) the walk stays strictly below (above) it, so each cut comes
    after the one before and each segment ends strictly inside the previous
    one.  On a strip of w rows k never exceeds w.  The innermost
    interval has span A_k >= 1, so it holds a gap between two adjacent
    columns that every segment crosses, each time on its own horizontal edge
    because a self-avoiding walk uses no edge twice.  The strip has only w
    horizontal edges across that gap.
    """

    __slots__ = ("spans", "cut_indices")

    @property
    def k(self) -> int:
        return len(self.spans)


def hw_decompose(walk: Walk) -> HWDecomposition:
    """Alternating span decomposition of a half-space walk.

    Starting from n_0 = 0, n_i is the last index of a maximum (i odd) or of a
    minimum (i even) of x over [n_{i-1}, n], and A_i = |x_{n_i} - x_{n_{i-1}}|;
    the recursion stops at the first n_i equal to the walk length.

    A walk whose last maximum is its end has k = 1, spans (x_n,) and cuts
    (n,), and gets its record at once; that is most walks.  For the others
    each cut is found by ``index`` on a prefix of the reversed x-sequence,
    so each of the k <= w scans runs in C.  The checks run before any cut
    is built.
    """
    points = walk.points
    n = len(points) - 1
    if n < 1:
        raise ValueError("span decomposition requires length >= 1")
    xs = next(zip(*points))
    rest = xs[1:]
    if min(rest) <= 0:
        raise ValueError("span decomposition requires a half-space walk")
    dec = _new_instance(HWDecomposition)
    top = max(rest)
    if top <= xs[n]:
        _set_field(dec, "spans", (xs[n],))
        _set_field(dec, "cut_indices", (n,))
        return dec
    # The cuts alternate: a maximum, then a minimum, then a maximum, ...
    # Each is the last index of its extremum, so x stays strictly on one side
    # of it afterwards and the next cut lies further on.
    backward = xs[::-1]
    cut = n - backward.index(top)  # x_0 = 0 < top, so A_1 = top
    spans, cuts = [top], [cut]
    high = False
    while cut != n:
        tail = backward[: n + 1 - cut]  # x_n, ..., x_cut
        nxt = n - tail.index(max(tail) if high else min(tail))
        spans.append(abs(xs[nxt] - xs[cut]))
        cuts.append(nxt)
        cut, high = nxt, not high
    _set_field(dec, "spans", tuple(spans))
    _set_field(dec, "cut_indices", tuple(cuts))
    return dec


def hw_reflect(walk: Walk, decomposition: HWDecomposition) -> Walk:
    """Reflect the part of a half-space walk beyond its first span maximum.

    Points up to n_1 are kept; points after n_1 are reflected across the
    column x = A_1.  The image is a half-space walk whose span decomposition
    is (A_1 + A_2, A_3, ..., A_k).  ``decomposition`` is ``hw_decompose(walk)``
    and must have k >= 2.
    """
    if decomposition.k < 2:
        raise ValueError("reflection requires a decomposition with k >= 2")
    a1 = decomposition.spans[0]
    n1 = decomposition.cut_indices[0]
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
    """True for factors that are a tail, one right step, then 1-3 verticals.

    Read off the points: a self-avoiding walk that stays in one column is
    monotone in y, so its vertical steps are all up or all down.
    """
    points = factor.walk.points
    k = factor.tail_length
    if not 2 <= len(points) - 1 - k <= 4:
        return False
    x, y = points[k]
    return points[k + 1] == (x + 1, y) and all(p[0] == x + 1 for p in points[k + 2 :])


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
    # The mirror keeps the start and end lines in the strip and the type.
    bridge_type = classify_irreducible(factor, strip)
    part_a, part_b, part_c = _split_complicated(steps, rows, strip.y_min)

    out = part_a
    if bridge_type in ("OO", "IO"):
        out += "R"
    out += part_b.translate(_HALF_TURN)
    if bridge_type in ("OO", "OI"):
        out += "R"
    out += part_c
    return Walk.from_steps(out)
