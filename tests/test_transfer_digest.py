"""``tools/transfer_digest.py``, the digest that sweep changes are checked
against, on one small run.

The script is executed into a fresh module object, as ``tools/code_lines.py``
is in ``test_code_lines.py``; the path it puts in front of ``sys.path`` is
taken out again.
"""

import sys
import types
from pathlib import Path

import pytest

from stripwalks import StripGeometry, count_saws

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "transfer_digest.py"


@pytest.fixture(scope="module")
def transfer_digest():
    module = types.ModuleType("transfer_digest")
    module.__file__ = str(DIGEST)
    path = sys.path[:]
    try:
        exec(compile(DIGEST.read_text(), str(DIGEST), "exec"), module.__dict__)
    finally:
        sys.path[:] = path
    return module


def test_runs_cover_every_placement_length_and_mode(transfer_digest):
    # 55 placements on 1-10 rows, 9 lengths each, minus n_max = 13 on the 19
    # placements of 9 and 10 rows, times 3 modes.
    assert sum(1 for _ in transfer_digest.runs()) == 1428


def test_slots_sum_to_the_counts(transfer_digest):
    strip = StripGeometry(0, 1)
    head, entries = transfer_digest.digest(strip, 3, "saw").split(": ")
    assert head == "0,1 n=3 saw"
    totals = [0] * 4
    for entry in entries.split():
        slots = entry.split("=")[1].split(",")
        totals = [t + int(c) for t, c in zip(totals, slots, strict=True)]
    assert tuple(totals) == count_saws(strip, 3).counts == (1, 3, 6, 12)
