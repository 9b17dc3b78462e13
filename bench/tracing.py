"""Spans around the library's public calls, and per-layer metrics from them.

The tracer replaces public functions and methods of ``stripwalks`` with
wrappers for the duration of a traced round and restores them afterwards.
Each wrapped call is a span (name, start, end, parent span).  Calls made
once per walk (validation, decomposition, generator resumes) are too many
to keep one by one, so they are rolled up per enclosing span into a call
count and a self time.  Spans and roll-ups stay in memory and are written
to a JSON file when the round ends; :func:`layer_metrics` derives self
times from that file.

A span's name is ``<layer>.<part>``, where the layer is the package module
that owns the call.  Polynomial evaluations are counted but not timed.
Self times include the speed sampler's kernel runs (probe.py) that
interrupt a span, about 1.5 % spread evenly over all spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from stripwalks import analysis, bounds, cli, enumeration, genfunc, lattice

SPAN, ROLLUP, GENERATOR, COUNT = "span", "rollup", "generator", "count"


def _count_tables(tracer: "Tracer", result: Any) -> None:
    values = result.values() if isinstance(result, dict) else getattr(result, "counts", (result,))
    tracer.counters["enumeration.walks_counted"] += sum(values)


def _polys(result: Any) -> list:
    if isinstance(result, genfunc.IntPolynomial):
        return [result]
    if isinstance(result, genfunc.RationalGF):
        return [result.numerator, result.denominator]
    if isinstance(result, dict):
        return [p for v in result.values() for p in _polys(v)]
    return []


def _poly_sizes(tracer: "Tracer", result: Any) -> None:
    for p in _polys(result):
        tracer.raise_max("genfunc.max_degree", p.degree)
        bits = max((abs(c).bit_length() for c in p.coefficients), default=0)
        tracer.raise_max("genfunc.max_coeff_bits", bits)


def _count_root(tracer: "Tracer", result: Any) -> None:
    tracer.counters["analysis.roots"] += 1


def _count_checks(tracer: "Tracer", result: Any) -> None:
    checked = getattr(result, "checked", None)
    tracer.counters["bounds.checks"] += len(result.rows) if checked is None else checked


_DECOMPOSE = ("cut_points", "decompose_bridge", "classify_irreducible", "is_simple_factor",
              "hw_decompose", "hw_reflect", "transform_irreducible_w4")

# (owner, attribute, span name or counter, mode, observer of the result)
TARGETS: list[tuple[Any, str, str, str, Callable | None]] = [
    *[(enumeration, fn, "enumeration.count", SPAN, _count_tables)
      for fn in ("count_saws", "count_half_space", "count_bridges",
                 "bridge_span_table", "count_bridges_by_span")],
    (enumeration, "count_irreducible", "enumeration.irreducible", SPAN, None),
    (enumeration, "iter_walks", "enumeration.iter", GENERATOR, None),
    *[(enumeration, fn, "enumeration.decompose", ROLLUP, None) for fn in _DECOMPOSE],
    (lattice.Walk, "__post_init__", "lattice.validate", ROLLUP, None),
    *[(genfunc, fn, "genfunc.compose", SPAN, _poly_sizes)
      for fn in ("compose_bridge_code", "important_part_denominator", "upper_atom_from_pipeline",
                 "atoms_width3", "atoms_width4_lower", "atoms_width4_upper")],
    (genfunc.RationalGF, "series", "genfunc.series", SPAN, None),
    (genfunc.RationalGF, "reduced", "genfunc.reduce", SPAN, _poly_sizes),
    (genfunc.IntPolynomial, "__call__", "analysis.exact_evals", COUNT, None),
    (genfunc.IntPolynomial, "evaluate_complex", "analysis.float_evals", COUNT, None),
    (analysis, "smallest_positive_root", "analysis.root", SPAN, _count_root),
    *[(analysis, fn, "analysis.root", SPAN, None)
      for fn in ("connective_constant_width3", "mu_bounds_width4", "estimate_mu")],
    *[(bounds, fn, "bounds.verify", SPAN, _count_checks)
      for fn in ("verify_sandwich", "verify_multiplicativity",
                 "verify_halfspace_proposition", "verify_bridge_corollary")],
    *[(bounds, fn, "bounds.verify", SPAN, None)
      for fn in ("zeilberger_count", "fibonacci", "pf_exact", "pf_bound", "hw_polynomial")],
    (cli, "main", "cli.main", SPAN, None),
]

COUNTERS = ("enumeration.walks_counted", "enumeration.walks_yielded", "analysis.exact_evals",
            "analysis.float_evals", "analysis.roots", "bounds.checks", "cli.output_bytes")


class Tracer:
    """In-memory spans and roll-ups of one round."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.rollups: dict[tuple[int, str], list] = {}
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.maxima: dict[str, int] = {"genfunc.max_degree": 0, "genfunc.max_coeff_bits": 0}
        # frame: [name, start, child seconds, own span id or None, enclosing span id]
        self._stack: list[list] = []
        self._next_id = 1
        self._restore: list[tuple[Any, str, Any]] = []

    def raise_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def open(self, name: str, rollup: bool = False) -> list:
        stack = self._stack
        if stack:
            parent = stack[-1]
            enclosing = parent[3] if parent[3] is not None else parent[4]
        else:
            enclosing = 0
        span_id = None
        if not rollup:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, perf_counter(), 0.0, span_id, enclosing]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        duration = end - frame[1]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] is None:
            key = (frame[4], frame[0])
            entry = self.rollups.get(key)
            if entry is None:
                entry = self.rollups[key] = [0, 0.0]
            entry[0] += 1
            entry[1] += duration - frame[2]
        else:
            self.spans.append((frame[3], frame[0], frame[1], end, frame[4]))

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, mode: str, observe: Callable | None) -> Callable:
        tracer = self
        if mode == COUNT:
            counters = self.counters

            def counted(*args: Any, **kwargs: Any) -> Any:
                counters[name] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)
        if mode == GENERATOR:

            def generator(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)
                while True:
                    frame = tracer.open(name, rollup=True)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(frame)
                    tracer.counters["enumeration.walks_yielded"] += 1
                    yield item

            return functools.update_wrapper(generator, fn)
        rollup = mode == ROLLUP

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.open(name, rollup)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if observe is not None:
                observe(tracer, result)
            return result

        return functools.update_wrapper(timed, fn)

    def install(self) -> None:
        """Replace every target, wherever a ``stripwalks`` module binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "stripwalks" or n.startswith("stripwalks.")]
        for owner, attr, name, mode, observe in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, mode, observe)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "rollups": [[owner, name, count, self_s]
                        for (owner, name), (count, self_s) in self.rollups.items()],
            "counters": self.counters,
            "maxima": self.maxima,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def self_times(trace: dict) -> dict[str, float]:
    """Self seconds per span name: duration minus child spans and roll-ups."""
    covered: dict[int, float] = defaultdict(float)
    out: dict[str, float] = defaultdict(float)
    for _, _, start, end, parent in trace["spans"]:
        covered[parent] += end - start
    for owner, name, _, self_s in trace["rollups"]:
        covered[owner] += self_s
        out[name] += self_s
    for span_id, name, start, end, _ in trace["spans"]:
        out[name] += end - start - covered[span_id]
    return dict(out)


# Per-layer time metrics (seconds): metric -> span names whose self time it sums.
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "enumeration.count_s": ("enumeration.count",),
    "enumeration.irreducible_s": ("enumeration.irreducible",),
    "enumeration.iter_s": ("enumeration.iter",),
    "enumeration.decompose_s": ("enumeration.decompose",),
    "enumeration.self_s": ("enumeration.count", "enumeration.irreducible",
                           "enumeration.iter", "enumeration.decompose"),
    "lattice.validate_s": ("lattice.validate",),
    "genfunc.compose_s": ("genfunc.compose",),
    "genfunc.series_s": ("genfunc.series",),
    "genfunc.reduce_s": ("genfunc.reduce",),
    "genfunc.self_s": ("genfunc.compose", "genfunc.series", "genfunc.reduce"),
    "analysis.root_s": ("analysis.root",),
    "bounds.verify_s": ("bounds.verify",),
    "cli.self_s": ("cli.main",),
    "bench.self_s": ("bench.request",),
}

COUNT_METRICS: dict[str, str] = {
    "enumeration.walks_counted": "count",
    "enumeration.walks_yielded": "count",
    "lattice.walks_built": "count",
    "genfunc.max_degree": "degree",
    "genfunc.max_coeff_bits": "bits",
    "analysis.exact_evals": "count",
    "analysis.float_evals": "count",
    "analysis.roots": "count",
    "bounds.checks": "count",
    "cli.output_bytes": "B",
}

# Layers in report order; a span's layer is the prefix of its name.
LAYERS = ("enumeration", "lattice", "genfunc", "analysis", "bounds", "cli", "bench")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    selfs = self_times(trace)
    out: dict[str, float] = {
        metric: sum(selfs.get(n, 0.0) for n in names) for metric, names in TIME_METRICS.items()
    }
    out.update(trace["counters"])
    out.update(trace["maxima"])
    out["lattice.walks_built"] = sum(
        count for _, name, count, _ in trace["rollups"] if name == "lattice.validate"
    )
    return out


def layer_shares(trace: dict) -> dict[str, float]:
    """Share of the round's traced self time spent in each layer."""
    selfs = self_times(trace)
    total = sum(selfs.values()) or 1.0
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in selfs.items():
        shares[name.split(".", 1)[0]] += seconds / total
    return shares
