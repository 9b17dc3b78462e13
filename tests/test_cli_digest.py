"""``tools/cli_digest.py``, the digest that CLI changes are checked against.

The script is executed into a fresh module object, as
``tools/exact_digest.py`` is in ``test_exact_digest.py``; the path it puts in
front of ``sys.path`` is taken out again.
"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tools" / "cli_digest.py"


@pytest.fixture(scope="module")
def cli_digest():
    module = types.ModuleType("cli_digest")
    module.__file__ = str(DIGEST)
    path = sys.path[:]
    try:
        exec(compile(DIGEST.read_text(), str(DIGEST), "exec"), module.__dict__)
    finally:
        sys.path[:] = path
    return module


def test_argvs_cover_golden_commands_error_tests_and_help(cli_digest):
    argvs = cli_digest.argvs()
    golden = json.loads((ROOT / "bench" / "golden_cli.json").read_text())
    assert argvs[: len(golden)] == [command.split() for command in sorted(golden)]
    assert ["count", "--strip", "a,b"] in argvs  # test_parse_errors_exit_2_...
    assert ["foo"] in argvs  # test_top_level_parse_errors
    assert ["gf", "upper4", "--series", "5"] in argvs  # test_input_errors_exit_2
    assert argvs[-5:] == [["-h"], ["count", "-h"], ["gf", "-h"], ["mu", "-h"], ["verify", "-h"]]


def test_report_blanks_the_runtime(cli_digest):
    block = cli_digest.report(["verify", "zeilberger", "--n", "2"])
    assert block.startswith("$ stripwalks verify zeilberger --n 2\nexit 0\n{\n")
    assert block.endswith('  "runtime_ms": _\n}\n')


def test_report_shows_exit_code_and_stderr(cli_digest):
    block = cli_digest.report(["count", "--n", "abc"])
    assert block.startswith("$ stripwalks count --n abc\nexit 2\nusage: stripwalks count ")
    assert block.endswith("stripwalks count: error: argument --n: invalid int value: 'abc'\n")
