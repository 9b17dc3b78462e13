"""Print every entry of the frontier sweep, in order, for a fixed set of runs.

One line per (strip, n_max, mode) run of ``enumeration._transfer``: the
strip's rows, n_max, the mode, then each ((span, end), counts) entry in the
order the sweep returns it, its packed polynomial unpacked into the counts
per length 0..n_max.  The runs cover every placement of the origin on 1-10
rows, n_max in {0..6, 10, 13} and the modes ``"saw"``, ``"half_space"`` and
``"cut_free"``; n_max = 13 stops at 8 rows, so the script takes 9-15 s
(2-core Xeon, Python 3.11).

The output is a digest of the sweep: run it in two checkouts and diff,

    python3 tools/transfer_digest.py > before.txt   # in the first checkout
    python3 tools/transfer_digest.py > after.txt    # in the second
    diff before.txt after.txt

and no output from ``diff`` means every entry, its value and its place in
the order, is unchanged.  Each checkout's own ``src`` is imported.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stripwalks import StripGeometry  # noqa: E402
from stripwalks.enumeration import _transfer, _unpacked  # noqa: E402

MAX_ROWS = 10
LENGTHS = (0, 1, 2, 3, 4, 5, 6, 10, 13)
MODES = ("saw", "half_space", "cut_free")


def runs():
    """(strip, n_max, mode) of every run the digest prints, in order."""
    for rows in range(1, MAX_ROWS + 1):
        for y_min in range(1 - rows, 1):
            strip = StripGeometry(y_min, y_min + rows - 1)
            for n_max in LENGTHS:
                if n_max == 13 and rows > 8:
                    continue
                for mode in MODES:
                    yield strip, n_max, mode


def digest(strip: StripGeometry, n_max: int, mode: str) -> str:
    """One line: the run, then its entries in the sweep's order."""
    entries = " ".join(
        f"{span}/{end}=" + ",".join(map(str, _unpacked((packed,), n_max)))
        for (span, end), packed in _transfer(strip, n_max, mode)
    )
    return f"{strip.y_min},{strip.y_max} n={n_max} {mode}: {entries}"


def main() -> int:
    for strip, n_max, mode in runs():
        print(digest(strip, n_max, mode))
        _transfer.cache_clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
