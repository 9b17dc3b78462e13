"""Count the code lines of the package, module by module.

A code line holds a token other than a comment, a newline or an
indentation change, and is not part of a module, class or function
docstring.  Blank lines, comment lines and docstrings are not counted;
a string or bracket that spans lines counts every line it covers.

Run it from any directory:

    python3 tools/code_lines.py

It prints one line per ``*.py`` file of ``src/stripwalks`` and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from io import StringIO
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = {
        line
        for token in tokenize.generate_tokens(StringIO(source).readline)
        if token.type not in _LAYOUT
        for line in range(token.start[0], token.end[0] + 1)
    }
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stripwalks"


def main() -> int:
    total = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6,}  {path.name}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
