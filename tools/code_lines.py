"""Count the code lines of Python modules: the lines that hold a token other
than a comment, with blank lines and docstrings left out.

A docstring is the string-expression statement that opens a module, class or
function body (found with ``ast``); every line it spans is dropped.  Every
other line counts if ``tokenize`` finds a token on it that is not a comment,
an indent, a dedent or a line end; a string or expression spanning lines
counts every line it spans.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src/cvlab``).
Each path is a module or a directory of modules (``*.py``, not recursive);
prints each module's count, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path(__file__).resolve().parents[1] / "src" / "cvlab"]
    total = 0
    for path in paths:
        for module in sorted(path.glob("*.py")) if path.is_dir() else [path]:
            count = count_code_lines(module.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
