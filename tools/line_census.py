#!/usr/bin/env python3
"""Print every executable line of the package that no test runs.

Usage::

    python3 tools/line_census.py [PYTEST_ARGS ...]

Runs pytest in this process, over ``PYTEST_ARGS`` (default: this
checkout's ``tests``), with a ``sys.settrace`` hook that notes each line
run in ``src/edgeplace``.  A line is executable when it is in the
``co_lines`` of a code object compiled from its module.  Each executable
line that never ran prints as ``<module>:<line>: never ran: <source>``,
unless ``EXEMPT`` lists it, with its reason, when it prints as
``<module>:<line>: exempt: <reason>``.  Pytest's own report goes to
stderr.  Exits 0 when every line left is exempt, 1 when another is left
or an exemption names a line that is gone, and 2 when the tests did not
pass, which leaves the census incomplete.  Lines run only in a subprocess
a test starts are not seen.  Needs pytest.
"""

from __future__ import annotations

import contextlib
import os
import sys
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: (module, function holding the line, its source text) -> why it never runs
EXEMPT = {
    ("edgeplace/model.py", "<module>", "from .simnet import ActiveService"): (
        "import under TYPE_CHECKING, read by type checkers only"
    ),
    ("edgeplace/simnet.py", "<module>", "from .scenarios import Scenario"): (
        "import under TYPE_CHECKING, read by type checkers only"
    ),
    ("edgeplace/protocol.py", "log", "..."): (
        "body of the World.log protocol stub, which only declares the method"
    ),
}


def executable_lines(path: Path) -> dict[int, set[str]]:
    """Line number -> names of the code objects of ``path`` that hold it."""
    lines: dict[int, set[str]] = defaultdict(set)
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        for _, _, line in code.co_lines():
            if line:  # None, or 0 for a module's first instruction
                lines[line].add(code.co_name)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit code and, per real path of a package file, the lines run."""
    package = os.path.realpath(SRC / "edgeplace") + os.sep
    ran: dict[str, set[int]] = defaultdict(set)
    tracers: dict[str, Callable[..., Any] | None] = {}

    def tracer_for(filename: str) -> Callable[..., Any] | None:
        path = os.path.realpath(filename)
        if not path.startswith(package):
            return None
        lines = ran[path]

        def on_line(frame: types.FrameType, event: str, arg: object) -> Any:
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame: types.FrameType, event: str, arg: object) -> Any:
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    args = ["--rootdir", str(ROOT), "-c", str(ROOT / "pytest.ini")]
    args += ["-p", "no:cacheprovider", *(pytest_args or [str(ROOT / "tests")])]
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv: list[str] | None = None) -> int:
    code, ran = run_traced(sys.argv[1:] if argv is None else argv)
    if code != 0:
        print(f"error: pytest exited {code}: the census is incomplete", file=sys.stderr)
        return 2
    left = False
    unmatched = set(EXEMPT)
    for path in sorted((SRC / "edgeplace").rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        run = ran[os.path.realpath(path)]
        for line, names in sorted(executable_lines(path).items()):
            text = source[line - 1].strip()
            keys = {(module, name, text) for name in names} & set(EXEMPT)
            unmatched -= keys
            if line in run:
                continue
            if keys:
                print(f"{module}:{line}: exempt: {EXEMPT[min(keys)]}")
            else:
                print(f"{module}:{line}: never ran: {text}")
                left = True
    for key in sorted(unmatched):
        print(f"{key[0]}: exemption matches no line: {key[2]}")
    return 1 if left or unmatched else 0


if __name__ == "__main__":
    sys.exit(main())
