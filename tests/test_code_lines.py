"""``tools/code_lines.py``, the package's code-size count, on small sources.

The script is executed into a fresh module object, as the bench tracer is in
``test_bench_targets.py``.
"""

import types
from pathlib import Path

import pytest

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    module = types.ModuleType("code_lines")
    module.__file__ = str(CODE_LINES)
    exec(compile(CODE_LINES.read_text(), str(CODE_LINES), "exec"), module.__dict__)
    return module.code_lines


DOCSTRINGS = '''"""Module docstring
over two lines."""
import os


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return 1
'''

COMMENTS_AND_BLANKS = """# a comment

x = 1  # a trailing comment counts as code


    # an indented comment
y = 2
"""

MULTI_LINE_STRINGS = '''def f():
    return 1
    """not a docstring:
    a bare string after the first statement"""


s = """three
lines
"""
'''


@pytest.mark.parametrize(
    "source, lines",
    [
        (DOCSTRINGS, ["import os", "class A:", "def f(self):", "return 1"]),
        (COMMENTS_AND_BLANKS, ["x = 1", "y = 2"]),
        (MULTI_LINE_STRINGS, ["def f():", "return 1", '"""not', "a bare", "s =", "lines", '"""']),
    ],
    ids=["docstrings", "comments-and-blanks", "multi-line-strings"],
)
def test_code_lines(code_lines, source, lines):
    assert code_lines(source) == len(lines)
