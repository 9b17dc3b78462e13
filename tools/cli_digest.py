"""Print what the CLI writes for a fixed set of command lines.

For each command line, a header with the arguments and the exit code, then
the lines written to stdout, with the value of ``runtime_ms`` blanked, then
those written to stderr.  The command lines are:

* each golden command of ``bench/golden_cli.json``;
* each argv of the error tests in ``tests/test_cli.py``, those whose name
  contains ``error`` and whose first parameter is ``argv``;
* ``-h`` at the top level and for each command.

Each runs in this process through ``stripwalks.cli.main``, so the script
takes about a second (2-core Xeon, Python 3.11).  Reading the error tests
needs ``pytest``, which ``tests/test_cli.py`` imports.

The output is a digest of the CLI's text: run it in two checkouts and diff,

    python3 tools/cli_digest.py > before.txt   # in the first checkout
    python3 tools/cli_digest.py > after.txt    # in the second
    diff before.txt after.txt

and no output from ``diff`` means every report, error and help text is
unchanged.  Each checkout's own ``src`` and ``tests/test_cli.py`` are used.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import runpy
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from stripwalks import cli  # noqa: E402

COMMANDS = ("count", "gf", "mu", "verify")


def error_argvs() -> list[list[str]]:
    """The argv of each case of the error tests in ``tests/test_cli.py``."""
    argvs = []
    for name, test in runpy.run_path(str(ROOT / "tests" / "test_cli.py")).items():
        if "error" not in name:
            continue
        for mark in getattr(test, "pytestmark", []):
            argnames, cases = mark.args
            if argnames == "argv":
                argvs += cases
            elif argnames.startswith("argv,"):
                argvs += [case[0] for case in cases]
    return argvs


def argvs() -> list[list[str]]:
    """Every command line of the digest, in order."""
    golden = json.loads((ROOT / "bench" / "golden_cli.json").read_text())
    return [
        *(command.split() for command in sorted(golden)),
        *error_argvs(),
        ["-h"],
        *([command, "-h"] for command in COMMANDS),
    ]


def report(argv: list[str]) -> str:
    """The digest's block for one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    stdout = re.sub(r'("runtime_ms": )\d+', r"\1_", out.getvalue())
    return f"$ stripwalks {shlex.join(argv)}\nexit {code}\n{stdout}{err.getvalue()}"


def main() -> int:
    for argv in argvs():
        sys.stdout.write(report(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
