"""Command-line front end producing reproducible JSON/CSV reports.

Subcommands: ``count`` (enumeration tables), ``gf`` (generating functions and
their series), ``mu`` (connective-constant roots), ``verify`` (inequality
suites).  JSON reports wrap results in an envelope with the command, its
parameters, a global pass flag and the runtime; exact integers are emitted as
strings because counts outgrow the 53-bit float mantissa, and floats are
rounded half-even to 6 decimals so identical inputs give identical output.
The process exits non-zero when a verify suite fails.  A command refuses, as
an input error, any optional flag that its target does not read.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Any, Callable, NamedTuple

from . import analysis, bounds, enumeration, genfunc
from .lattice import BRIDGE_TYPES, StripGeometry

DEFAULT_COUNT_N = 18
DEFAULT_VERIFY_N = 14
DEFAULT_SERIES = 10
# Longest `--n`.  With MAX_STRIP_WIDTH it bounds the largest table a command
# builds: `count_saws` at n=24 on 10 rows (below).
MAX_N = 24
# Longest `gf --series`: its largest coefficients (lower4) have about 3,100
# digits, below Python's 4,300-digit limit on int-to-str conversion.
MAX_SERIES = 10000
# Widest `--strip` for `count` and `verify`.  The transfer matrix's state
# count and memory grow with the number of rows: `count_saws` at n=24 takes
# 5.7-6.1 s and 166 MB on 10 rows (`verify all` 11-14 s and 175 MB), and
# 18-20 s and 400 MB on 11 (2-core Xeon, Python 3.11).
MAX_STRIP_WIDTH = 10


def _parse_strip(text: str) -> StripGeometry:
    try:
        y_min, y_max = (int(p) for p in text.split(","))
        return StripGeometry(y_min, y_max)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad strip {text!r}: {exc}") from None


def _jsonable(value: Any) -> Any:
    """Make a report JSON-ready: exact ints as strings, floats rounded."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # Strict JSON has no Infinity: a bound beyond the float range is null.
        if math.isinf(value):
            return None
        # 6-decimal half-even rounding for display-scale values; tolerances
        # and other tiny magnitudes keep 6 significant digits instead.
        if value == 0.0 or abs(value) >= 1e-6:
            return round(value, 6)
        return float(f"{value:.6e}")
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(command: str, parameters: dict, results: Any, passed: bool, t0: float) -> int:
    envelope = {
        "command": command,
        "parameters": _jsonable(parameters),
        "results": _jsonable(results),
        "pass": passed,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }
    print(json.dumps(envelope, indent=2))
    return 0 if passed else 1


def _default_start(strip: StripGeometry, bridge_type: str) -> int:
    """Start line of a type's irreducible counts unless one is given: the top
    line for O types, the inner line below it for I types."""
    if bridge_type.startswith("O"):
        return strip.y_max
    if strip.width < 3:
        raise ValueError(f"the {strip.width}-row strip has no inner line for type {bridge_type}")
    return strip.y_max - 1


def _root_report(polynomial: str, res: analysis.RootResult) -> dict:
    return {
        "polynomial": polynomial,
        "root": res.root,
        "mu": res.mu,
        "tol": res.tolerance,
        "bracket": list(res.bracket),
    }


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


# The classes `count` tabulates without a bridge type or start line.
_COUNTS = {
    "saw": lambda strip, n: enumeration.count_saws(strip, n),
    "bridge": lambda strip, n: enumeration.count_bridges(strip, n),
    "halfspace": lambda strip, n: enumeration.count_half_space(strip, n),
}


def _cmd_count(args: argparse.Namespace, t0: float) -> int:
    strip = args.strip
    bridge_type = args.type or "OO"
    if args.klass in _COUNTS:
        if (args.type, args.start_line) != (None, None):
            build_parser().error(f"count --class {args.klass} takes no --type or --start-line")
        table = _COUNTS[args.klass](strip, args.n)
    else:
        try:
            start = args.start_line
            if start is None:
                start = _default_start(strip, bridge_type)
            table = enumeration.count_irreducible(strip, bridge_type, args.n, start)
        except ValueError as exc:
            build_parser().error(str(exc))
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
        return 0
    params = {"strip": [strip.y_min, strip.y_max], "class": args.klass, "n": args.n}
    if args.klass == "irreducible":
        params["type"] = bridge_type
    return _emit("count", params, {"counts": table.counts}, True, t0)


_GF_BUILDERS = {
    "table1": lambda: dict(genfunc.atoms_width3()),
    "bridge3": lambda: {"bridge3": genfunc.compose_bridge_code(genfunc.atoms_width3(), 3)},
    "lower4": lambda: {
        "lower4": genfunc.compose_bridge_code(genfunc.atoms_width4_lower(), 4)
    },
    "table4": lambda: dict(genfunc.atoms_width4_upper()),
}


def _cmd_gf(args: argparse.Namespace, t0: float) -> int:
    terms = DEFAULT_SERIES if args.series is None else args.series
    results: dict[str, Any] = {}
    if args.name == "upper4":
        if args.series is not None:
            build_parser().error("gf upper4 prints a denominator and takes no --series")
        d44 = genfunc.important_part_denominator(genfunc.atoms_width4_upper(), 4)
        results["denominator"] = d44.pretty()
        results["denominator_coefficients"] = list(d44.coefficients)
    else:
        for label, gf in _GF_BUILDERS[args.name]().items():
            results[label] = {"function": gf.pretty(), "series": list(gf.series(terms))}
    return _emit("gf", {"name": args.name, "series": terms}, results, True, t0)


def _cmd_mu(args: argparse.Namespace, t0: float) -> int:
    if args.target == "width3":
        res = analysis.connective_constant_width3(args.tol)
        results = {"width3": _root_report(genfunc.W3_LOOP_POLYNOMIAL.pretty(), res)}
    else:
        lower, upper = analysis.mu_bounds_width4(args.tol)
        results = {
            "lower": _root_report(genfunc.W4_LOWER_DENOMINATOR.pretty(), lower),
            "upper": _root_report("degree-44 loop denominator", upper),
            "bracket_mu": [lower.mu, upper.mu],
        }
    return _emit("mu", {"target": args.target, "tol": args.tol}, results, True, t0)


def _verify_zeilberger(strip: None, args: argparse.Namespace) -> tuple[dict, bool]:
    table = enumeration.count_saws(StripGeometry(0, 1), args.n)
    rows = []
    ok = True
    for n in range(2, args.n + 1):
        formula = bounds.zeilberger_count(n)
        match = formula == table[n]
        ok &= match
        rows.append({"n": n, "formula": formula, "enumerated": table[n], "ok": match})
    return {"rows": rows}, ok


def _growth_constants(strip: StripGeometry, mu: float | None) -> tuple[float, float]:
    """The sandwich's (lower, upper) growth constant: ``--mu`` if given, else
    the three-row constant or the four-row bracket, the only widths where it
    is known."""
    if mu is not None:
        return mu, mu
    if strip.width == 3:
        mu = analysis.connective_constant_width3().mu
        return mu, mu
    if strip.width == 4:
        lower, upper = analysis.mu_bounds_width4()
        return lower.mu, upper.mu
    build_parser().error(f"--mu is needed on {strip.width} rows; the constant is known on 3 and 4")


def _verify_sandwich(strip: StripGeometry, args: argparse.Namespace) -> tuple[dict, bool]:
    mu_lo, mu_hi = _growth_constants(strip, args.mu)
    counts = enumeration.count_saws(strip, args.n)
    report = bounds.verify_sandwich(strip, counts, mu_lo, mu_hi)
    rows = [
        {
            "n": r.n,
            "count": r.count,
            "lower": r.lower,
            "upper": r.upper,
            "ok": r.ok,
        }
        for r in report.rows
    ]
    return {"mu_lower": mu_lo, "mu_upper": mu_hi, "rows": rows}, report.passed


def _inequalities(report: bounds.InequalityReport) -> tuple[dict, bool]:
    return {"checked": report.checked, "failures": list(report.failures)}, report.passed


def _verify_tables(strip: None, args: argparse.Namespace) -> tuple[dict, bool]:
    n = min(args.n, 12)
    failures: list[str] = []
    w3 = StripGeometry(-1, 1)
    w4 = StripGeometry(-1, 2)

    atoms3 = genfunc.atoms_width3()
    for t, gf in atoms3.items():
        series = gf.series(n)
        counted = enumeration.count_irreducible(w3, t, n, _default_start(w3, t)).counts
        if tuple(series) != counted:
            failures.append(f"width3 atom {t} series != enumerated counts")

    composed3 = genfunc.compose_bridge_code(atoms3, 3)
    displayed3 = genfunc.RationalGF(
        genfunc.W3_BRIDGE_NUMERATOR, genfunc.W3_BRIDGE_DENOMINATOR
    )
    if composed3 != displayed3:
        failures.append("width3 composed bridge function != displayed quotient")

    lower_atoms = genfunc.atoms_width4_lower()
    upper_atoms = genfunc.atoms_width4_upper()
    for t in BRIDGE_TYPES:
        exact = enumeration.count_irreducible(w4, t, n, _default_start(w4, t)).counts
        low = lower_atoms[t].series(n)
        up = upper_atoms[t].series(n)
        if any(l > e for l, e in zip(low, exact)):
            failures.append(f"width4 lower atom {t} exceeds exact counts")
        if any(u < e for u, e in zip(up, exact)):
            failures.append(f"width4 upper atom {t} below exact counts")
        if upper_atoms[t] != genfunc.upper_atom_from_pipeline(t):
            failures.append(f"width4 upper atom {t} != pipeline form")

    d44 = genfunc.important_part_denominator(upper_atoms, 4)
    if d44 != genfunc.W4_LOOP_DENOMINATOR:
        failures.append("width4 loop denominator != displayed coefficients")
    return {"n": n, "failures": failures}, not failures


class _Suite(NamedTuple):
    run: Callable[[Any, argparse.Namespace], tuple[Any, bool]]  # (strip, args) -> (payload, passed)
    per_strip: bool  # runs once per --strip; else on fixed strips of its own, given strip None
    reads_mu: bool


# Every verify suite, in the order `verify all` runs them.
_SUITES = {
    "zeilberger": _Suite(_verify_zeilberger, per_strip=False, reads_mu=False),
    "sandwich": _Suite(_verify_sandwich, per_strip=True, reads_mu=True),
    "halfspace": _Suite(
        lambda strip, args: _inequalities(bounds.verify_halfspace_proposition(strip, args.n)),
        per_strip=True, reads_mu=False,
    ),
    "multiplicativity": _Suite(
        lambda strip, args: _inequalities(bounds.verify_multiplicativity(
            enumeration.count_saws(strip, args.n), enumeration.count_bridges(strip, args.n), args.n
        )),
        per_strip=True, reads_mu=False,
    ),
    "tables": _Suite(_verify_tables, per_strip=False, reads_mu=False),
}


def _cmd_verify(args: argparse.Namespace, t0: float) -> int:
    suites = _SUITES if args.suite == "all" else {args.suite: _SUITES[args.suite]}
    if args.strip and not any(s.per_strip for s in suites.values()):
        build_parser().error(f"verify {args.suite} takes no --strip")
    if args.mu is not None and not any(s.reads_mu for s in suites.values()):
        build_parser().error(f"verify {args.suite} takes no --mu")
    strips = [args.strip] if args.strip else [StripGeometry(-1, 1), StripGeometry(-1, 2)]
    results: dict[str, Any] = {}
    passed = True
    for name, suite in suites.items():
        if suite.per_strip:
            results[name] = {}
            for strip in strips:
                results[name][f"{strip.y_min},{strip.y_max}"], ok = suite.run(strip, args)
                passed &= ok
        else:
            results[name], ok = suite.run(None, args)
            passed &= ok

    params = {"suite": args.suite, "n": args.n}
    if args.strip:
        params["strip"] = [args.strip.y_min, args.strip.y_max]
    if args.mu is not None:
        params["mu"] = args.mu
    return _emit("verify", params, results, passed, t0)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built at its first use rather than at
    import, so importing the module stays cheap."""
    parser = argparse.ArgumentParser(
        prog="stripwalks",
        description="Exact strip-walk enumeration, generating functions, and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="enumerate walks on a strip")
    p_count.add_argument("--strip", type=_parse_strip, default=StripGeometry(-1, 1))
    p_count.add_argument("--class", dest="klass", choices=[*_COUNTS, "irreducible"], default="saw")
    p_count.add_argument("--type", choices=list(BRIDGE_TYPES), default=None)
    p_count.add_argument("--start-line", type=int, default=None)
    p_count.add_argument("--n", type=int, default=DEFAULT_COUNT_N)
    p_count.add_argument("--format", choices=["json", "csv"], default="json")
    p_count.set_defaults(func=_cmd_count)

    p_gf = sub.add_parser("gf", help="print generating functions and series")
    p_gf.add_argument("name", choices=["table1", "bridge3", "lower4", "upper4", "table4"])
    p_gf.add_argument("--series", type=int, default=None)
    p_gf.set_defaults(func=_cmd_gf)

    p_mu = sub.add_parser("mu", help="connective-constant roots")
    p_mu.add_argument("target", choices=["width3", "width4"])
    p_mu.add_argument("--tol", type=float, default=analysis.DEFAULT_TOL)
    p_mu.set_defaults(func=_cmd_mu)

    p_verify = sub.add_parser("verify", help="run inequality suites")
    p_verify.add_argument("suite", choices=["all", *_SUITES])
    p_verify.add_argument("--n", type=int, default=DEFAULT_VERIFY_N)
    p_verify.add_argument("--strip", type=_parse_strip, default=None)
    p_verify.add_argument("--mu", type=float, default=None)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Turn ["--strip", "-1,1"] into ["--strip=-1,1"] so argparse accepts
    strip bounds with a leading minus sign."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--strip" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--strip={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_dash_values(list(argv)))
    for flag, ceiling, what in (
        ("n", MAX_N, "the enumeration ceiling"),
        ("series", MAX_SERIES, "the ceiling"),
    ):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            parser.error(f"--{flag} must be non-negative, got {value}")
        if value is not None and value > ceiling:
            parser.error(f"--{flag} {value} exceeds {what} {ceiling}")
    strip = getattr(args, "strip", None)
    if strip is not None and strip.width > MAX_STRIP_WIDTH:
        parser.error(
            f"--strip {strip.y_min},{strip.y_max} has {strip.width} rows, "
            f"more than the ceiling {MAX_STRIP_WIDTH}"
        )
    for flag in ("tol", "mu"):
        value = getattr(args, flag, None)
        if value is not None and not 0 < value < math.inf:
            parser.error(f"--{flag} must be positive and finite, got {value}")
    try:
        code = args.func(args, t0)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (e.g. `| head -1`).  Point stdout
        # at devnull so that the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code
