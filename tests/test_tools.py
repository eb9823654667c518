"""Smoke tests of the scripts under ``tools/``, which compare two checkouts
for byte-identical replays (``replay_digests.py``) and for CPU time, summed
and per run (``ab_cpu.py``), count code lines (``code_lines.py``) and list
the package lines no test runs (``line_census.py``)."""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgeplace

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _run_tool(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(TOOLS / args[0]), *args[1:]],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_the_readme_layout_names_every_tool() -> None:
    readme = (TOOLS.parent / "README.md").read_text()
    block = readme.split("\ntools/", 1)[1].split("```", 1)[0]
    missing = [
        path.name
        for path in sorted(TOOLS.glob("*.py"))
        if f"{path.name}:" not in block
    ]
    assert missing == []


def test_replay_digests_prints_its_help() -> None:
    proc = _run_tool("replay_digests.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--src" in proc.stdout


def test_ab_cpu_refuses_fewer_than_two_pairs() -> None:
    proc = _run_tool(
        "ab_cpu.py", "--a", ".", "--b", ".", "--workload", "churn", "--pairs", "1"
    )
    assert proc.returncode == 2
    assert "--pairs must be at least 2" in proc.stderr


def test_replay_digest_labels_are_unique(monkeypatch: pytest.MonkeyPatch) -> None:
    spec = importlib.util.spec_from_file_location(
        "replay_digests", TOOLS / "replay_digests.py"
    )
    assert spec is not None and spec.loader is not None
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "replay_digests", tool)
    spec.loader.exec_module(tool)
    labels = [label for label, _ in tool.scenarios(edgeplace)]
    assert len(labels) == len(set(labels)) > 0


def test_code_lines_counts_no_docstring_comment_or_blank_line(
    tmp_path: Path,
) -> None:
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '"""Module docstring,\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """One-line docstring."""\n'
        '    return """not a docstring,\n'
        '    but a value"""\n'
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "    y = 2\n"
    )
    (package / "empty.py").write_text("")
    proc = _run_tool("code_lines.py", "--src", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    # X, the def over two lines, the return over two, the class and y
    assert proc.stdout == "0 pkg/empty.py\n7 pkg/mod.py\n7 total\n"


def test_ab_cpu_prints_each_search_beside_the_sum() -> None:
    checkout = str(TOOLS.parent)
    proc = _run_tool(
        "ab_cpu.py", "--a", checkout, "--b", checkout,
        "--workload", "capacity", "--pairs", "2",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["a_s"]) == len(report["b_s"]) == 2
    # four algorithms at three tight shares
    runs = report["per_run"]
    assert len(runs) == 12 and "exact p_rt=0.5" in runs
    for run in runs.values():
        assert 0 < run["a_q1"] <= run["a_median"]
        assert 0 < run["b_q1"] <= run["b_median"]
        assert 0 <= run["b_wins"] <= 2 and run["median_ratio"] > 0


def test_line_census_lists_the_lines_one_test_module_leaves_unrun() -> None:
    proc = _run_tool("line_census.py", str(TOOLS.parent / "tests" / "test_api.py"))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    pattern = re.compile(r"edgeplace/\w+\.py:\d+: (never ran|exempt): \S.*")
    assert [line for line in lines if not pattern.fullmatch(line)] == []
    # no test of the module runs the package as a program
    assert "edgeplace/__main__.py:6: never ran: raise SystemExit(main())" in lines
    exempt = [line for line in lines if ": exempt: " in line]
    assert [line.split(":")[0] for line in exempt] == [
        "edgeplace/model.py",
        "edgeplace/protocol.py",
        "edgeplace/simnet.py",
    ]
