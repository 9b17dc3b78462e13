"""Every module in src/, demos/ and tools/ parses under the declared Python floor.

``requires-python`` in pyproject.toml names the oldest supported version.
The suite itself may run on a newer one, so syntax added after the floor
(``except*``, ``type`` aliases, PEP 695 generics, ...) would go unnoticed;
``ast.parse`` with ``feature_version`` set to the floor rejects it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "demos", "tools") for p in (ROOT / d).rglob("*.py"))
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$',
        (ROOT / "pyproject.toml").read_text(),
        re.MULTILINE,
    ).groups()
)


def test_floor_rejects_newer_syntax():
    # except* is 3.11 syntax, so on 3.11 and later only feature_version
    # can reject it.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
