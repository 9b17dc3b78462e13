"""The CLI reproduces every golden command of the benchmark.

``bench/golden_cli.json`` maps each command line of the benchmark's CLI
session to its exit code and its JSON envelope without ``runtime_ms``.  Each
command is replayed in-process; the file is only read.
"""

import json
from pathlib import Path

import pytest

from stripwalks.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden_cli.json").read_text()
)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_command(capsys, command):
    code = main(command.split())
    envelope = json.loads(capsys.readouterr().out)
    del envelope["runtime_ms"]
    assert {"exit": code, "output": envelope} == GOLDEN[command]
