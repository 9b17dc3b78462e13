"""Regenerate reference.json and golden_cli.json from the library.

Usage: python3 bench/make_reference.py

The reference tables are the seed DFS's counts at every size the workloads
use, for one orientation of each strip; the other (mirror) orientation is
checked to give the same tables before anything is written.  Run this only
when a change to the library is meant to change its outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from stripwalks import (  # noqa: E402
    BRIDGE_TYPES, StripGeometry, analysis, count_irreducible, enumeration, genfunc,
)

# Canonical strip of each width, with the walks' origin row at offset 0 or 1.
CANONICAL = {2: (0, 1), 3: (-1, 1), 4: (-1, 2)}
MIRROR = {2: (-1, 0), 3: (-1, 1), 4: (-2, 1)}
PUBLISHED = {"w3": [0.522295, 1.914627], "w4_lower": [0.487645, 2.050672],
             "w4_upper": [0.461722, 2.165804]}


def _same(a, b, what: str):
    if a != b:
        raise SystemExit(f"mirror orientations disagree on {what}")
    return a


def tables() -> tuple[dict, dict]:
    sizes = workloads.SIZES.values()
    out, spans = {}, {}
    for width, strip in CANONICAL.items():
        key = oracle.strip_key(list(strip))
        n = max(s["count_n"][width] for s in sizes)
        both = [StripGeometry(*s) for s in (strip, MIRROR[width])]
        out[key] = {
            kind: _same(*(list(fn(s, n).counts) for s in both), f"{kind} w{width}")
            for kind, fn in (("saw", enumeration.count_saws),
                             ("half_space", enumeration.count_half_space),
                             ("bridge", enumeration.count_bridges))
        }
        for size in sizes:
            m = size["count_n"][width]
            spans[f"{key}/n{m}"] = _same(
                *({str(k): v for k, v in sorted(enumeration.bridge_span_table(s, m).items())}
                  for s in both), f"span table w{width}")
    return out, spans


def irreducible() -> dict:
    out = {}
    for width in (3, 4):
        n = max(s["irreducible_n"][width] for s in workloads.SIZES.values())
        strip = StripGeometry(*CANONICAL[width])
        for start in (strip.y_min, strip.y_min + 1):
            for tailless in (False, True):
                key = oracle.irreducible_key(list(CANONICAL[width]), start, tailless)
                out[key] = {t: list(count_irreducible(strip, t, n, start, tailless).counts)
                            for t in BRIDGE_TYPES
                            if t.startswith("O") == (start in strip.outer_lines)}
    return out


def structure() -> dict:
    out = {}
    for size in workloads.SIZES.values():
        for width, m in size["structure_m"].items():
            key = oracle.strip_key(list(CANONICAL[width]))
            for kind, run in (("decompose", workloads._run_decompose), ("hw", workloads._run_hw)):
                summaries = []
                for strip in (CANONICAL[width], MIRROR[width]):
                    summary, _ = run({"strip": list(strip), "m": m})
                    summary.pop("samples")
                    if kind == "decompose":
                        summary["transformed"] = {t: len(v) for t, v in summary["transformed"].items()}
                    summaries.append(json.loads(json.dumps(summary)))
                out[f"{kind}/{key}/m{m}"] = _same(*summaries, f"{kind} w{width} m{m}")
    return out


def polynomials() -> dict:
    return {
        "w3_loop": list(genfunc.W3_LOOP_POLYNOMIAL.coefficients),
        "w4_lower_den": list(genfunc.W4_LOWER_DENOMINATOR.coefficients),
        "w4_loop_den": list(genfunc.W4_LOOP_DENOMINATOR.coefficients),
        "upper_atom_numerators": {t: list(p.coefficients)
                                  for t, p in genfunc.UPPER_ATOM_NUMERATORS.items()},
        "upper_atom_denominator": list(genfunc.UPPER_ATOM_DENOMINATOR.coefficients),
    }


def check_published() -> None:
    lower, upper = analysis.mu_bounds_width4()
    found = {"w3": analysis.connective_constant_width3().round6(),
             "w4_lower": lower.round6(), "w4_upper": upper.round6()}
    for name, value in found.items():
        if list(value) != PUBLISHED[name]:
            raise SystemExit(f"{name}: library gives {value}, published {PUBLISHED[name]}")


def golden_cli() -> dict:
    out = {}
    for size in workloads.SIZES.values():
        for orientation in (0, 1):
            for argv in workloads.cli_argvs(size, orientation):
                result, _ = workloads._run_cli({"argv": argv})
                out[" ".join(argv)] = {"exit": result["exit"],
                                       "output": oracle.strip_runtime(result["stdout"])}
    return out


def main() -> int:
    check_published()
    counts, spans = tables()
    reference = {
        "tables": counts,
        "span_tables": spans,
        "irreducible": irreducible(),
        "structure": structure(),
        "polynomials": polynomials(),
        "constants": PUBLISHED,
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    golden = golden_cli()
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items()))
    (BENCH / "golden_cli.json").write_text("{\n" + lines + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
