"""Count the code-only lines of each module of `src/mmlsh`.

A line counts when it holds part of a token other than a comment or a
docstring (a string that is the first statement of a module, class or
function): blank lines, comment lines and lines that hold nothing but a
docstring are left out, and a line that holds a docstring and code
counts. A string that spans several lines counts every line it spans;
inside a bracket that does, blank and comment lines are left out too.

Run from anywhere: `python3 tools/code_lines.py [package directory]`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mmlsh"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(tree: ast.AST) -> list[tuple]:
    """The (start, end) positions, as (line, byte column), of the docstrings of `tree`."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0].value
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """Lines of `source` that hold code: no blanks, comments or docstrings."""
    docstrings = docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        if tok.type == tokenize.STRING:
            # ast columns count UTF-8 bytes, tokenize's count characters
            start = (tok.start[0], len(tok.line[:tok.start[1]].encode()))
            if any(a <= start < b for a, b in docstrings):
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
