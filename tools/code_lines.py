#!/usr/bin/env python3
"""Count the code lines of every Python module under a directory.

Usage::

    python3 tools/code_lines.py [--src DIR]

A code line is a line that holds part of a token of code: docstrings
(the first statement of a module, class or function, when it is a string
literal), comments and blank lines do not count, and a statement that
spans several lines counts each of them.  Prints one ``<lines> <module>``
line per module under ``--src`` (default: this checkout's ``src``), by
path relative to it, then ``<lines> total``.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that are layout or commentary, never code
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, a Python module's text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory whose modules are counted, recursively",
    )
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.src.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.relative_to(args.src).as_posix()}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
