"""Smoke tests of the scripts under ``tools/``, which compare two checkouts
for byte-identical replays (``replay_digests.py``) and for CPU time, summed
and per run with its collection seconds (``ab_cpu.py``), time a run's
events by category (``event_costs.py``), count code lines
(``code_lines.py``) and list the package lines no test runs
(``line_census.py``)."""

from __future__ import annotations

import gc
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Any

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


def _load_tool(name: str, monkeypatch: pytest.MonkeyPatch) -> Any:
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    assert spec is not None and spec.loader is not None
    tool = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, tool)
    spec.loader.exec_module(tool)
    return tool


def test_replay_digest_labels_are_unique(monkeypatch: pytest.MonkeyPatch) -> None:
    tool = _load_tool("replay_digests", monkeypatch)
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
        assert 0 <= run["a_gc_s"] < run["a_median"]
        assert 0 <= run["b_gc_s"] < run["b_median"]
        for side in ("a_collections", "b_collections"):
            assert list(run[side]) == ["young", "gen1", "full"]
            assert all(n >= 0 for n in run[side].values())
    # a side's collections in a pass are those of its runs and searches
    for side in ("a", "b"):
        total = report[side]["collections"]
        assert list(total) == ["young", "gen1", "full"]
        for generation, n in total.items():
            by_run = sum(run[f"{side}_collections"][generation] for run in runs.values())
            assert n == pytest.approx(by_run)


class _Clock:
    """A stand-in for the benchmark's clock: it runs the call untimed."""

    def call(self, fn: Any, *args: Any) -> Any:
        return fn(*args)


def test_ab_cpu_charges_each_collection_to_the_timed_call_it_falls_in(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    tool = _load_tool("ab_cpu", monkeypatch)
    listeners = gc.callbacks[:]
    clock = _Clock()
    try:
        meter = tool.CollectionMeter(clock)
        garbage = [[[] for _ in range(20_000)]]

        def collect() -> str:
            garbage.append(garbage)  # a cycle the collection must walk
            gc.collect()
            return "collected"

        assert clock.call(lambda: "idle") == "idle"
        gc.collect()  # outside any timed call: charged to none
        assert clock.call(collect) == "collected"
    finally:
        gc.callbacks[:] = listeners
    assert len(meter.taken) == 2
    assert meter.taken[0] == 0.0 and meter.taken[1] > 0


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


def test_event_costs_charges_each_event_of_a_run_to_one_category(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    tool = _load_tool("event_costs", monkeypatch)
    topology, classes, costs, rtt = edgeplace.scenarios.default_profile(
        leaf_capacity=1200, levels=4
    )
    trace = edgeplace.scenarios.synthesize_trace(
        topology, seed=1, users=200, p_rt=0.5, burst=False, arrival_rate=400.0,
        hold_mean=2.0, move_period=0.5, horizon=2.0,
    )
    scenario = edgeplace.scenarios.Scenario(
        name="churn-1", topology=topology, classes=classes, costs=costs,
        rtt_by_level=rtt, trace=trace,
    )
    node = edgeplace.protocol.ProtocolNode
    handlers = (node.on_timer, node.on_message)
    meter, seconds, (result,) = tool.one_pass(edgeplace, [scenario])
    assert (node.on_timer, node.on_message) == handlers  # put back
    counts, counters = meter.counts, result.counters
    assert counters.push_downs > 0
    assert sum(counts.values()) == counters.events
    messages = {
        name.removeprefix("message "): n
        for name, n in counts.items()
        if name.startswith("message ")
    }
    assert messages == counters.messages
    for kind in ("arrive", "move", "depart"):
        assert counts[f"trace {kind}"] == sum(ev.kind == kind for ev in trace) > 0
    assert {name for name in counts if name.startswith("timer ")} == {
        "timer scan", "timer push_down"
    }
    assert set(meter.seconds) == set(counts)
    assert 0 < sum(meter.seconds.values()) <= seconds
