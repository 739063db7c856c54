"""`tools/code_lines.py` counts the lines that hold code, docstrings left out."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


@pytest.mark.parametrize("source, lines", [
    ("x = 1\n\n\ny = 2\n", 2),  # blank lines
    ("# a comment\nx = 1  # and one after code\n", 1),
    ('"""A module docstring,\n\nover three lines."""\nx = 1\n', 1),
    ('class C:\n    """One line."""\n\n    def f(self):\n        """Two\n        lines."""\n'
     '        return 1\n', 3),
    ('def f(): """d"""\n', 1),  # a one-line def with its docstring
    ('def f():\n    """d"""; return 1\n', 2),  # code after a docstring, on its line
    ('def f(é): """dé"""; return 1\n', 1),  # a column before the docstring is two bytes
    ('x = """a string\nthat is no\ndocstring"""\n', 3),
    ('def f():\n    x = 1\n    """not the first statement"""\n', 3),
    ("x = f(1,\n      2,\n\n      # a comment\n      3)\n", 3),  # a bracket's lines with code
])
def test_code_lines(source, lines):
    assert tool.code_lines(source) == lines

