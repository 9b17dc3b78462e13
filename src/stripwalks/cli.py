"""Command-line front end producing reproducible JSON/CSV reports.

Subcommands: ``count`` (enumeration tables), ``gf`` (generating functions and
their series), ``mu`` (connective-constant roots), ``verify`` (inequality
suites).  JSON reports wrap results in an envelope with the command, its
parameters, a global pass flag and the runtime; exact integers are emitted as
strings because counts outgrow the 53-bit float mantissa, and floats are
rounded half-even to 6 decimals so identical inputs give identical output.
The process exits non-zero when a verify suite fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any

from . import analysis, bounds, enumeration, genfunc
from .lattice import BRIDGE_TYPES, StripGeometry

ENV_CEILING = "SAW_STRIPS_NMAX_CEILING"
DEFAULT_CEILING = 24
DEFAULT_COUNT_N = 18
DEFAULT_VERIFY_N = 14
# Longest `gf --series`: its largest coefficients (lower4) have about 3,100
# digits, below Python's 4,300-digit limit on int-to-str conversion.
MAX_SERIES = 10000
# Widest `--strip` for `count` and `verify`.  The transfer matrix's state
# count and memory grow with the number of rows: `count_saws` at n=24 takes
# 9-12 s and 91 MB on 10 rows, about 30 s and 200 MB on 11 (2-core Xeon).
MAX_STRIP_WIDTH = 10


def _ceiling(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get(ENV_CEILING)
    if raw is None:
        return DEFAULT_CEILING
    try:
        return int(raw)
    except ValueError:
        parser.error(f"invalid {ENV_CEILING}={raw!r}: not an integer")


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
    return strip.y_max if bridge_type.startswith("O") else strip.y_max - 1


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


def _cmd_count(args: argparse.Namespace, t0: float) -> int:
    strip = args.strip
    if args.klass == "saw":
        table = enumeration.count_saws(strip, args.n)
    elif args.klass == "bridge":
        table = enumeration.count_bridges(strip, args.n)
    elif args.klass == "halfspace":
        table = enumeration.count_half_space(strip, args.n)
    else:
        start = args.start_line
        if start is None:
            start = _default_start(strip, args.type)
        try:
            table = enumeration.count_irreducible(strip, args.type, args.n, start)
        except ValueError as exc:
            build_parser().error(str(exc))
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
        return 0
    params = {"strip": [strip.y_min, strip.y_max], "class": args.klass, "n": args.n}
    if args.klass == "irreducible":
        params["type"] = args.type
    return _emit("count", params, {"counts": table.to_json_list()}, True, t0)


_GF_BUILDERS = {
    "table1": lambda: dict(genfunc.atoms_width3()),
    "bridge3": lambda: {"bridge3": genfunc.compose_bridge_code(genfunc.atoms_width3(), 3)},
    "lower4": lambda: {
        "lower4": genfunc.compose_bridge_code(genfunc.atoms_width4_lower(), 4)
    },
    "table4": lambda: dict(genfunc.atoms_width4_upper()),
}


def _cmd_gf(args: argparse.Namespace, t0: float) -> int:
    results: dict[str, Any] = {}
    if args.name == "upper4":
        d44 = genfunc.important_part_denominator(genfunc.atoms_width4_upper(), 4)
        results["denominator"] = d44.pretty()
        results["denominator_coefficients"] = list(d44.coefficients)
    else:
        for label, gf in _GF_BUILDERS[args.name]().items():
            results[label] = {
                "function": gf.pretty(),
                "series": list(gf.series(args.series)),
            }
    return _emit("gf", {"name": args.name, "series": args.series}, results, True, t0)


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


def _verify_zeilberger(n_max: int) -> tuple[list, bool]:
    table = enumeration.count_saws(StripGeometry(0, 1), n_max)
    rows = []
    ok = True
    for n in range(2, n_max + 1):
        formula = bounds.zeilberger_count(n)
        match = formula == table[n]
        ok &= match
        rows.append({"n": n, "formula": formula, "enumerated": table[n], "ok": match})
    return rows, ok


def _verify_sandwich(strip: StripGeometry, n_max: int, mu_override: float | None) -> tuple[dict, bool]:
    counts = enumeration.count_saws(strip, n_max)
    if mu_override is not None:
        mu_lo = mu_hi = mu_override
    elif strip.width == 3:
        mu_lo = mu_hi = analysis.connective_constant_width3().mu
    else:
        lower, upper = analysis.mu_bounds_width4()
        mu_lo, mu_hi = lower.mu, upper.mu
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


def _verify_halfspace(strip: StripGeometry, n_max: int) -> tuple[dict, bool]:
    report = bounds.verify_halfspace_proposition(strip, n_max)
    return {"checked": report.checked, "failures": list(report.failures)}, report.passed


def _verify_multiplicativity(strip: StripGeometry, n_max: int) -> tuple[dict, bool]:
    counts_c = enumeration.count_saws(strip, n_max)
    counts_b = enumeration.count_bridges(strip, n_max)
    report = bounds.verify_multiplicativity(counts_c, counts_b, n_max)
    return {"checked": report.checked, "failures": list(report.failures)}, report.passed


def _verify_tables(n_max: int) -> tuple[dict, bool]:
    n = min(n_max, 12)
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


# Suites that run once per strip: suite -> (strip, args) -> (payload, passed).
_STRIP_SUITES = {
    "sandwich": lambda strip, args: _verify_sandwich(strip, args.n, args.mu),
    "halfspace": lambda strip, args: _verify_halfspace(strip, args.n),
    "multiplicativity": lambda strip, args: _verify_multiplicativity(strip, args.n),
}


def _cmd_verify(args: argparse.Namespace, t0: float) -> int:
    n_max = args.n
    results: dict[str, Any] = {}
    passed = True

    suites = (
        ["zeilberger", "sandwich", "halfspace", "multiplicativity", "tables"]
        if args.suite == "all"
        else [args.suite]
    )
    strips = [args.strip] if args.strip else [StripGeometry(-1, 1), StripGeometry(-1, 2)]
    width = strips[0].width
    if width not in (3, 4) and {"sandwich", "halfspace"} & set(suites):
        build_parser().error(f"verify {args.suite} needs a strip of width 3 or 4, got {width}")
    for suite in suites:
        if suite == "zeilberger":
            rows, ok = _verify_zeilberger(max(n_max, 2))
            results["zeilberger"] = {"rows": rows}
        elif suite == "tables":
            results["tables"], ok = _verify_tables(n_max)
        else:
            ok = True
            payload = {}
            for strip in strips:
                sub, sub_ok = _STRIP_SUITES[suite](strip, args)
                payload[f"{strip.y_min},{strip.y_max}"] = sub
                ok &= sub_ok
            results[suite] = payload
        passed &= ok

    params = {"suite": args.suite, "n": n_max}
    if args.strip:
        params["strip"] = [args.strip.y_min, args.strip.y_max]
    if args.mu is not None:
        params["mu"] = args.mu
    return _emit("verify", params, results, passed, t0)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripwalks",
        description="Exact strip-walk enumeration, generating functions, and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="enumerate walks on a strip")
    p_count.add_argument("--strip", type=_parse_strip, default=StripGeometry(-1, 1))
    p_count.add_argument(
        "--class",
        dest="klass",
        choices=["saw", "bridge", "halfspace", "irreducible"],
        default="saw",
    )
    p_count.add_argument("--type", choices=list(BRIDGE_TYPES), default="OO")
    p_count.add_argument("--start-line", type=int, default=None)
    p_count.add_argument("--n", type=int, default=DEFAULT_COUNT_N)
    p_count.add_argument("--format", choices=["json", "csv"], default="json")
    p_count.set_defaults(func=_cmd_count)

    p_gf = sub.add_parser("gf", help="print generating functions and series")
    p_gf.add_argument("name", choices=["table1", "bridge3", "lower4", "upper4", "table4"])
    p_gf.add_argument("--series", type=int, default=10)
    p_gf.set_defaults(func=_cmd_gf)

    p_mu = sub.add_parser("mu", help="connective-constant roots")
    p_mu.add_argument("target", choices=["width3", "width4"])
    p_mu.add_argument("--tol", type=float, default=analysis.DEFAULT_TOL)
    p_mu.set_defaults(func=_cmd_mu)

    p_verify = sub.add_parser("verify", help="run inequality suites")
    p_verify.add_argument(
        "suite",
        choices=["all", "sandwich", "halfspace", "multiplicativity", "zeilberger", "tables"],
    )
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
    n = getattr(args, "n", None)
    if n is not None:
        if n < 0:
            parser.error(f"--n must be non-negative, got {n}")
        ceiling = _ceiling(parser)
        if n > ceiling:
            parser.error(
                f"--n {n} exceeds the enumeration ceiling {ceiling} "
                f"(override with {ENV_CEILING})"
            )
    strip = getattr(args, "strip", None)
    if strip is not None and strip.width > MAX_STRIP_WIDTH:
        parser.error(
            f"--strip {strip.y_min},{strip.y_max} has {strip.width} rows, "
            f"more than the ceiling {MAX_STRIP_WIDTH}"
        )
    series = getattr(args, "series", None)
    if series is not None and series < 0:
        parser.error(f"--series must be non-negative, got {series}")
    if series is not None and series > MAX_SERIES:
        parser.error(f"--series {series} exceeds the ceiling {MAX_SERIES}")
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
