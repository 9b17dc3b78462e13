"""Naive reference versions of the walk-level maps in ``stripwalks.enumeration``.

These are the plain forms of ``iter_walks`` (a recursive generator),
``cut_points`` (a suffix-minimum pass, then a running-maximum pass),
``decompose_bridge`` (a separate bridge check, then the cuts) and
``hw_decompose`` (a rescan of the rest of the walk for each span, O(n k)).
Every walk they build goes through the validating ``Walk`` constructor.  The
tests compare the library's one-pass scans and iterative search against them
walk by walk.
"""

from __future__ import annotations

from typing import Iterator

from stripwalks import (
    BridgeDecomposition,
    HWDecomposition,
    IrreducibleFactor,
    StripGeometry,
    Walk,
    is_bridge,
    is_half_space,
)

# Step order R, U, D, L: the order in which ``iter_walks`` visits neighbours.
DELTAS = ((1, 0), (0, 1), (0, -1), (-1, 0))


def naive_iter_walks(strip: StripGeometry, n_max: int, kind: str = "saw") -> Iterator[Walk]:
    """Every walk of the kind with length 0..n_max, by a recursive DFS."""
    half_space = kind in ("half_space", "bridge")
    bridges_only = kind == "bridge"
    y_lo, y_hi = strip.y_min, strip.y_max
    path = [(0, 0)]
    visited = {(0, 0)}

    def rec(x: int, y: int, depth: int, max_x: int) -> Iterator[Walk]:
        if depth == n_max:
            return
        d = depth + 1
        for dx, dy in DELTAS:
            nx = x + dx
            ny = y + dy
            if ny < y_lo or ny > y_hi:
                continue
            if half_space and nx <= 0:
                continue
            p = (nx, ny)
            if p in visited:
                continue
            visited.add(p)
            path.append(p)
            m = nx if nx > max_x else max_x
            if not bridges_only or nx == m:
                yield Walk(tuple(path))
            yield from rec(nx, ny, d, m)
            path.pop()
            visited.remove(p)

    yield Walk(((0, 0),))
    yield from rec(0, 0, 0, 0)


def naive_cut_points(walk: Walk) -> tuple[int, ...]:
    """Cuts 0 < j < n: x_j is a running maximum above every later x."""
    xs = [p[0] for p in walk.points]
    n = len(xs) - 1
    if n <= 1:
        return ()
    suffix_min = [0] * (n + 1)
    suffix_min[n] = xs[n]
    for j in range(n - 1, -1, -1):
        suffix_min[j] = min(xs[j], suffix_min[j + 1])
    cuts = []
    running_max = xs[0]
    for j in range(1, n):
        if xs[j] > running_max:
            running_max = xs[j]
        if xs[j] == running_max and suffix_min[j + 1] > xs[j]:
            cuts.append(j)
    return tuple(cuts)


def naive_decompose_bridge(walk: Walk, strip: StripGeometry) -> BridgeDecomposition:
    """Irreducible factors with merged tails, from the naive cut points,
    typed by the strip's outer lines."""
    if not is_bridge(walk):
        raise ValueError("decompose_bridge requires a bridge")
    n = walk.length
    if n == 0:
        return BridgeDecomposition((), 0)
    boundaries = (0,) + naive_cut_points(walk) + (n,)
    factors = []
    pending_tail = 0
    for a, b in zip(boundaries, boundaries[1:]):
        if b - a == 1:
            pending_tail += 1
            continue
        seg = walk.points[a - pending_tail : b + 1]
        x0, y0 = seg[0]
        sub = Walk(tuple((x - x0, y - y0) for x, y in seg))
        end_line = y0 + sub.end[1]
        bridge_type = "".join(
            "O" if line in strip.outer_lines else "I" for line in (y0, end_line)
        )
        factors.append(IrreducibleFactor(sub, y0, pending_tail, bridge_type))
        pending_tail = 0
    return BridgeDecomposition(tuple(factors), pending_tail)


def naive_hw_decompose(walk: Walk) -> HWDecomposition:
    """Span decomposition by rescanning the rest of the walk for each span."""
    if walk.length < 1:
        raise ValueError("span decomposition requires length >= 1")
    if not is_half_space(walk):
        raise ValueError("span decomposition requires a half-space walk")
    xs = [p[0] for p in walk.points]
    n = len(xs) - 1
    spans: list[int] = []
    cuts: list[int] = []
    prev = 0
    sign = 1  # +1 looks rightward, -1 leftward
    while True:
        best = None
        best_j = prev
        for j in range(prev, n + 1):
            v = sign * (xs[j] - xs[prev])
            if best is None or v >= best:
                best = v
                best_j = j
        spans.append(best)
        cuts.append(best_j)
        if best_j == n:
            break
        prev = best_j
        sign = -sign
    return HWDecomposition(tuple(spans), tuple(cuts))
