"""Command-line front end producing reproducible JSON/CSV reports.

Subcommands: ``count`` (enumeration tables), ``gf`` (generating functions and
their series), ``mu`` (connective-constant roots), ``verify`` (inequality
suites).  JSON reports wrap results in an envelope with the command, its
parameters, a global pass flag and the runtime; exact integers are emitted as
strings because counts outgrow the 53-bit float mantissa, and floats are
rounded half-even to 6 decimals so identical inputs give identical output.
The process exits non-zero when a verify suite fails.  A command refuses, as
an input error, any optional flag that its target does not read.

One table, ``_COMMANDS``, holds the grammar: each command's positional and
its choices, and each flag's converter, default and choices.  ``_parse``
reads ``argv`` against it in one loop.  It takes ``--flag value`` and
``--flag=value``, a unique prefix of a flag, values that start with a minus
sign (``--strip -1,1``), the positional anywhere among the flags, and the
last of a repeated flag; ``-h`` prints help.  An input error prints the
usage line and one error line, worded as argparse words it, and exits 2.
``_json`` writes a report in the layout of ``json.dumps(..., indent=2)``,
in one pass.
"""

from __future__ import annotations

import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple, NoReturn

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
# 4.8-6.2 s and 119 MB on 10 rows (`verify all` 7.6-8.9 s and 119 MB), and
# 12 s and 269 MB on 11 (2-core Xeon, Python 3.11).
MAX_STRIP_WIDTH = 10


def _parse_strip(text: str) -> StripGeometry:
    try:
        y_min, y_max = map(int, text.split(","))
    except ValueError:
        raise ValueError(f"bad strip {text!r}: expected two integers A,B") from None
    try:
        return StripGeometry(y_min, y_max)
    except ValueError as exc:
        raise ValueError(f"bad strip {text!r}: {exc}") from None


def _json(value: Any, indent: str = "\n") -> str:
    """A report as JSON text, in the layout of ``json.dumps(..., indent=2)``
    at the depth that ``indent`` (a newline and the enclosing spaces) gives.

    Exact ints are written as strings, floats rounded, and tuples as lists.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return f'"{value}"'
    if isinstance(value, float):
        # Strict JSON has no Infinity: a bound beyond the float range is null.
        if math.isinf(value):
            return "null"
        # 6-decimal half-even rounding for display-scale values; tolerances
        # and other tiny magnitudes keep 6 significant digits instead.
        if value == 0.0 or abs(value) >= 1e-6:
            value = round(value, 6)
        else:
            value = float(f"{value:.6e}")
        return "NaN" if value != value else repr(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + indent + closing


def _emit(command: str, parameters: dict, results: Any, passed: bool, t0: float) -> int:
    envelope = _json({"command": command, "parameters": parameters, "results": results,
                      "pass": passed})
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    # The runtime closes the envelope as a bare number, not a quoted int.
    print(f'{envelope[:-2]},\n  "runtime_ms": {runtime_ms}\n}}')
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


def _cmd_count(args: dict[str, Any], t0: float) -> int:
    strip = args["strip"]
    bridge_type = args["type"] or "OO"
    if args["class"] in _COUNTS:
        if (args["type"], args["start_line"]) != (None, None):
            _fail(f"count --class {args['class']} takes no --type or --start-line")
        table = _COUNTS[args["class"]](strip, args["n"])
    else:
        try:
            start = args["start_line"]
            if start is None:
                start = _default_start(strip, bridge_type)
            table = enumeration.count_irreducible(strip, bridge_type, args["n"], start)
        except ValueError as exc:
            _fail(str(exc))
    if args["format"] == "csv":
        sys.stdout.write(table.to_csv())
        return 0
    params = {"strip": [strip.y_min, strip.y_max], "class": args["class"], "n": args["n"]}
    if args["class"] == "irreducible":
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


def _cmd_gf(args: dict[str, Any], t0: float) -> int:
    terms = DEFAULT_SERIES if args["series"] is None else args["series"]
    results: dict[str, Any] = {}
    if args["name"] == "upper4":
        if args["series"] is not None:
            _fail("gf upper4 prints a denominator and takes no --series")
        d44 = genfunc.important_part_denominator(genfunc.atoms_width4_upper(), 4)
        results["denominator"] = d44.pretty()
        results["denominator_coefficients"] = list(d44.coefficients)
    else:
        for label, gf in _GF_BUILDERS[args["name"]]().items():
            results[label] = {"function": gf.pretty(), "series": list(gf.series(terms))}
    return _emit("gf", {"name": args["name"], "series": terms}, results, True, t0)


def _cmd_mu(args: dict[str, Any], t0: float) -> int:
    if args["target"] == "width3":
        res = analysis.connective_constant_width3(args["tol"])
        results = {"width3": _root_report(genfunc.W3_LOOP_POLYNOMIAL.pretty(), res)}
    else:
        lower, upper = analysis.mu_bounds_width4(args["tol"])
        results = {
            "lower": _root_report(genfunc.W4_LOWER_DENOMINATOR.pretty(), lower),
            "upper": _root_report("degree-44 loop denominator", upper),
            "bracket_mu": [lower.mu, upper.mu],
        }
    return _emit("mu", {"target": args["target"], "tol": args["tol"]}, results, True, t0)


def _verify_zeilberger(strip: None, args: dict[str, Any]) -> tuple[dict, bool]:
    table = enumeration.count_saws(StripGeometry(0, 1), args["n"])
    rows = []
    ok = True
    for n in range(2, args["n"] + 1):
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
    _fail(f"--mu is needed on {strip.width} rows; the constant is known on 3 and 4")


def _verify_sandwich(strip: StripGeometry, args: dict[str, Any]) -> tuple[dict, bool]:
    mu_lo, mu_hi = _growth_constants(strip, args["mu"])
    counts = enumeration.count_saws(strip, args["n"])
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


def _verify_tables(strip: None, args: dict[str, Any]) -> tuple[dict, bool]:
    n = min(args["n"], 12)
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
    run: Callable[[Any, dict[str, Any]], tuple[Any, bool]]  # (strip, args) -> (payload, passed)
    per_strip: bool  # runs once per --strip; else on fixed strips of its own, given strip None
    reads_mu: bool


# Every verify suite, in the order `verify all` runs them.
_SUITES = {
    "zeilberger": _Suite(_verify_zeilberger, per_strip=False, reads_mu=False),
    "sandwich": _Suite(_verify_sandwich, per_strip=True, reads_mu=True),
    "halfspace": _Suite(
        lambda strip, args: _inequalities(bounds.verify_halfspace_proposition(
            strip,
            enumeration.count_half_space(strip, args["n"]),
            enumeration.count_bridges(strip, args["n"]),
        )),
        per_strip=True, reads_mu=False,
    ),
    "multiplicativity": _Suite(
        lambda strip, args: _inequalities(bounds.verify_multiplicativity(
            enumeration.count_saws(strip, args["n"]), enumeration.count_bridges(strip, args["n"])
        )),
        per_strip=True, reads_mu=False,
    ),
    "tables": _Suite(_verify_tables, per_strip=False, reads_mu=False),
}


def _cmd_verify(args: dict[str, Any], t0: float) -> int:
    suites = _SUITES if args["suite"] == "all" else {args["suite"]: _SUITES[args["suite"]]}
    if args["strip"] and not any(s.per_strip for s in suites.values()):
        _fail(f"verify {args['suite']} takes no --strip")
    if args["mu"] is not None and not any(s.reads_mu for s in suites.values()):
        _fail(f"verify {args['suite']} takes no --mu")
    strips = [args["strip"]] if args["strip"] else [StripGeometry(-1, 1), StripGeometry(-1, 2)]
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

    params = {"suite": args["suite"], "n": args["n"]}
    if args["strip"]:
        params["strip"] = [args["strip"].y_min, args["strip"].y_max]
    if args["mu"] is not None:
        params["mu"] = args["mu"]
    return _emit("verify", params, results, passed, t0)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Arg(NamedTuple):
    """One flag or positional of a command: how its text becomes a value."""

    help: str
    convert: Callable[[str], Any] = str
    default: Any = None
    choices: tuple[str, ...] = ()


class _Command(NamedTuple):
    run: Callable[[dict[str, Any], float], int]  # (args, t0) -> exit code
    help: str
    # "--flag" keys are flags; the one other key, if any, is a required positional.
    args: dict[str, _Arg]


_STRIP_HELP = "rows A,B of the strip, which must contain row 0"
_COMMANDS = {
    "count": _Command(_cmd_count, "enumerate walks on a strip", {
        "--strip": _Arg(f"{_STRIP_HELP} (default -1,1)", _parse_strip, StripGeometry(-1, 1)),
        "--class": _Arg("what to count (default saw)", str, "saw", (*_COUNTS, "irreducible")),
        "--type": _Arg("bridge type of --class irreducible (default OO)", choices=BRIDGE_TYPES),
        "--start-line": _Arg("start line of --class irreducible (default: the top line for O "
                             "types, the one below it for I types)", int),
        "--n": _Arg(f"longest walk, at most {MAX_N} (default {DEFAULT_COUNT_N})", int,
                    DEFAULT_COUNT_N),
        "--format": _Arg("output format (default json)", str, "json", ("json", "csv")),
    }),
    "gf": _Command(_cmd_gf, "print generating functions and series", {
        "name": _Arg("the functions to print",
                     choices=("table1", "bridge3", "lower4", "upper4", "table4")),
        "--series": _Arg(f"terms after t^0, at most {MAX_SERIES} (default {DEFAULT_SERIES}); "
                         "not for upper4", int),
    }),
    "mu": _Command(_cmd_mu, "connective-constant roots", {
        "target": _Arg("the three-row constant or the four-row bracket",
                       choices=("width3", "width4")),
        "--tol": _Arg(f"root bracket width (default {analysis.DEFAULT_TOL:g})", float,
                      analysis.DEFAULT_TOL),
    }),
    "verify": _Command(_cmd_verify, "run inequality suites", {
        "suite": _Arg("the suite to run, or all of them", choices=("all", *_SUITES)),
        "--n": _Arg(f"longest length checked, at most {MAX_N} (default {DEFAULT_VERIFY_N})", int,
                    DEFAULT_VERIFY_N),
        "--strip": _Arg(f"{_STRIP_HELP} (default: -1,1 and -1,2)", _parse_strip),
        "--mu": _Arg("growth constant of the sandwich (default: known on 3 and 4 rows)", float),
    }),
}


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: stripwalks [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"usage: stripwalks {command} [-h]"]
    for key, arg in sorted(_COMMANDS[command].args.items(), key=lambda kv: kv[0][:2] != "--"):
        words.append(f"[{key} {_metavar(key, arg)}]" if key[:2] == "--" else _metavar(key, arg))
    return " ".join(words)


def _metavar(key: str, arg: _Arg) -> str:
    return f"{{{','.join(arg.choices)}}}" if arg.choices else _dest(key).upper()


def _help(command: str | None) -> NoReturn:
    """Print the usage and a line of help for each command or argument; exit 0."""
    if command is None:
        entries = [(name, c.help) for name, c in _COMMANDS.items()]
        head = ["Exact strip-walk enumeration, generating functions, and bounds.", "",
                "commands (stripwalks COMMAND -h lists a command's flags):"]
    else:
        entries = [(f"{key} {_metavar(key, arg)}", arg.help)
                   for key, arg in _COMMANDS[command].args.items()]
        head = [_COMMANDS[command].help, "", "arguments:"]
    lines = [_usage(command), "", *head]
    for name, text in [*entries, ("-h, --help", "print this help and exit")]:
        lines += [f"  {name}", f"      {text}"]
    print("\n".join(lines))
    sys.exit(0)


def _fail(message: str, command: str | None = None) -> NoReturn:
    """Refuse the input: the usage line and one error line on stderr, exit 2.

    Errors found while parsing a command's arguments name the command; the
    checks that follow the parse do not."""
    prog = "stripwalks" if command is None else f"stripwalks {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    sys.exit(2)


def _dest(key: str) -> str:
    """The name an argument's value goes under: --start-line -> start_line."""
    return key.lstrip("-").replace("-", "_")


def _is_flag(token: str) -> bool:
    """Whether a token names a flag (--n, -h) rather than being a value, as
    -1,1 and -0.5 are; a token that ``float`` reads, such as -inf, is a value."""
    if token[:2] == "--" != token:
        return True  # float reads no token with two leading minus signs
    if token[:1] == "-" and token[1:2].isalpha():
        try:
            float(token)
        except ValueError:
            return True
    return False


def _match(token: str, flags: list[str], command: str | None) -> str | None:
    """The flag that ``token`` names in full or as a unique prefix, if any."""
    if token == "-h":
        return "--help"
    if token in flags:
        return token
    found = [flag for flag in flags if flag.startswith(token)]
    if len(found) > 1:
        _fail(f"ambiguous option: {token} could match {', '.join(found)}", command)
    return found[0] if found else None


def _convert(key: str, arg: _Arg, text: str, command: str) -> Any:
    try:
        value = arg.convert(text)
    except ValueError as exc:
        reason = exc.args[0] if arg.convert is _parse_strip else (
            f"invalid {arg.convert.__name__} value: {text!r}")
        _fail(f"argument {key}: {reason}", command)
    if arg.choices and value not in arg.choices:
        choices = ", ".join(map(repr, arg.choices))
        _fail(f"argument {key}: invalid choice: {value!r} (choose from {choices})", command)
    return value


def _parse(argv: list[str]) -> tuple[_Command, dict[str, Any]]:
    """The command that ``argv`` names and its arguments, each under its
    ``_dest`` name, or exit: 0 after help, 2 on an input error."""
    tokens = iter(argv)
    unknown = []
    for token in tokens:
        if not _is_flag(token):
            break
        if _match(token.partition("=")[0], ["--help"], None):
            _help(None)
        unknown.append(token)
    else:
        _fail("the following arguments are required: command")
    if token not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(f"argument command: invalid choice: {token!r} (choose from {choices})")
    name, command = token, _COMMANDS[token]
    flags = ["--help", *(key for key in command.args if key[:2] == "--")]
    pending = next((key for key in command.args if key[:2] != "--"), None)  # the positional
    args = {_dest(key): arg.default for key, arg in command.args.items()}
    flags_ended = False
    for token in tokens:
        if token == "--" and not flags_ended:
            flags_ended = True
        elif flags_ended or not _is_flag(token):
            if pending is None:
                unknown.append(token)
            else:
                args[pending] = _convert(pending, command.args[pending], token, name)
                pending = None
        else:
            flag, equals, text = token.partition("=")
            key = _match(flag, flags, name)
            if key == "--help":
                _help(name)
            if key is None:
                unknown.append(token)
                continue
            if not equals:
                text = next(tokens, None)
                if text is None or _is_flag(text):
                    _fail(f"argument {key}: expected one argument", name)
            args[_dest(key)] = _convert(key, command.args[key], text, name)
    if pending is not None:
        _fail(f"the following arguments are required: {pending}", name)
    if unknown:
        _fail(f"unrecognized arguments: {' '.join(unknown)}")
    return command, args


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    for flag, ceiling, what in (
        ("n", MAX_N, "the enumeration ceiling"),
        ("series", MAX_SERIES, "the ceiling"),
    ):
        value = args.get(flag)
        if value is not None and value < 0:
            _fail(f"--{flag} must be non-negative, got {value}")
        if value is not None and value > ceiling:
            _fail(f"--{flag} {value} exceeds {what} {ceiling}")
    strip = args.get("strip")
    if strip is not None and strip.width > MAX_STRIP_WIDTH:
        _fail(
            f"--strip {strip.y_min},{strip.y_max} has {strip.width} rows, "
            f"more than the ceiling {MAX_STRIP_WIDTH}"
        )
    for flag in ("tol", "mu"):
        value = args.get(flag)
        if value is not None and not 0 < value < math.inf:
            _fail(f"--{flag} must be positive and finite, got {value}")
    try:
        code = command.run(args, t0)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (e.g. `| head -1`).  Point stdout
        # at devnull so that the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code
