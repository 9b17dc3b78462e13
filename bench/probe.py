"""Machine-speed sampling: request time in units of a fixed reference kernel.

On a shared machine the same Python code runs up to 1.7 times slower for
seconds at a time (busy neighbours on the same physical core; process CPU
time slows down just as much as wall time).  The sampler therefore times a
small reference kernel every ``INTERVAL_S`` of wall time, from a SIGALRM
handler, and at every request boundary.  Between two consecutive samples
the machine's speed is taken as constant, so the work done in that gap is
the gap divided by the mean of the two samples' kernel times.  A request's
work in kernel units ("ref") is the sum over the gaps it spans.  Set-up
time, which happens before any sampling, is rescaled by the kernel's time
measured right after it.

The kernel uses none of the library: a depth-first search over a set of
visited points, like the enumeration layer, and Horner evaluation over
``Fraction`` with large coefficients, like the analysis layer.  It takes
about 0.75 ms on a 2-core Xeon, so sampling costs about 1.5 %.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Set-up time is reported at this kernel time, i.e. rescaled by
# NOMINAL_KERNEL_S / (kernel time measured right after set-up).  It is close
# to the kernel's time on an idle 2-core Xeon.
NOMINAL_KERNEL_S = 0.001

_STEPS = ((1, 0), (0, 1), (0, -1), (-1, 0))
_COEFFICIENTS = [(-1) ** k * (7**k % 1000003) * 10**12 + k for k in range(48)]


def _dfs(depth: int = 7) -> int:
    visited = {(0, 0)}
    nodes = 0

    def rec(x: int, y: int, d: int) -> None:
        nonlocal nodes
        nodes += 1
        if d == depth:
            return
        for dx, dy in _STEPS:
            p = (x + dx, y + dy)
            if -1 <= p[1] <= 1 and p not in visited:
                visited.add(p)
                rec(p[0], p[1], d + 1)
                visited.remove(p)

    rec(0, 0, 0)
    return nodes


def _horner(points: int = 2) -> Fraction:
    total = Fraction(0)
    for r in range(points):
        t = Fraction(2 * r + 1, 1 << 40)
        value = Fraction(0)
        for c in reversed(_COEFFICIENTS):
            value = value * t + c
        total += value
    return total


def kernel() -> None:
    _dfs()
    _horner()


def kernel_seconds(runs: int = 5) -> float:
    """Median wall seconds of the kernel now, after one warm-up run."""
    kernel()
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[runs // 2]


class SpeedSampler:
    """Kernel timings at request boundaries and every INTERVAL_S in between.

    Use as a context manager around the timed region; it owns SIGALRM and
    the real-time interval timer while active.
    """

    def __init__(self) -> None:
        # (wall start, wall seconds, CPU seconds) of each kernel run
        self.points: list[tuple[float, float, float]] = []
        self._busy = False
        self._previous_handler = None

    def sample(self) -> int:
        """Time the kernel once; return the index of the new point."""
        if self._busy:  # an alarm during a boundary sample: skip it
            return len(self.points) - 1
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            kernel()
            self.points.append((w0, time.perf_counter() - w0, time.process_time() - c0))
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        return len(self.points) - 1

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.sample()

    def __enter__(self) -> "SpeedSampler":
        for _ in range(3):  # warm up; these points are not used
            self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def work(self, first: int, last: int) -> tuple[float, float, float]:
        """Between points ``first`` and ``last``: wall seconds outside the
        kernel, that time in kernel units, and the kernel's CPU seconds at
        the points strictly inside."""
        pts = self.points[first : last + 1]
        wall = ref = 0.0
        for (s0, d0, _), (s1, d1, _) in zip(pts, pts[1:]):
            gap = s1 - (s0 + d0)
            wall += gap
            ref += gap / ((d0 + d1) / 2)
        inner_cpu = sum(c for _, _, c in pts[1:-1])
        return wall, ref, inner_cpu
