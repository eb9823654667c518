"""Tests for the experiment harness and the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace import golden_logs, harness, scenarios
from edgeplace.baselines import ExactSolverStats, exact_optimal
from edgeplace.cli import main
from edgeplace.golden_logs import GOLDEN_LOGS
from edgeplace.harness import (
    ALGO_CHOICES,
    METRIC_FIELDS,
    build_simulator,
    metrics_row,
    metrics_rows_for,
    min_cpu_for,
    render_rows,
    replay_fixture,
    run_scenario,
    sweep_overhead,
)
from edgeplace.scenarios import (
    Scenario,
    builtin_scenario,
    empty_scenario,
    fig_flat_scenario,
    jittered_scenario,
    rand_scenario,
)
from edgeplace.simnet import EpochDecision, EpochProblem, Simulator, load_trace


# ---------------------------------------------------------------------------
# simulator construction and runs


def test_algo_choices() -> None:
    assert ALGO_CHOICES == ("dapp", "bupu", "cpvnf", "exact", "ffit", "multiscaler")


def test_build_simulator_modes() -> None:
    scenario = fig_flat_scenario()
    assert build_simulator(scenario, "dapp").mode == "protocol"
    assert build_simulator(scenario, "ffit").mode == "centralized"
    with pytest.raises(ValueError):
        build_simulator(scenario, "psychic")


def test_run_scenario_protocol_and_centralized_agree_on_shape() -> None:
    scenario = fig_flat_scenario()
    protocol = run_scenario(scenario, "dapp")
    central = run_scenario(scenario, "exact")
    assert protocol.verdict == "ok" and central.verdict == "ok"
    assert protocol.request_count == central.request_count == 6
    assert set(central.placements) == {1, 2, 3, 4, 5, 6}


# ---------------------------------------------------------------------------
# metrics rows


def test_metrics_row_fields_and_normalization() -> None:
    result = run_scenario(fig_flat_scenario(), "dapp")
    row = metrics_row("fig3", "dapp", 7, result, reference_cost=18.0)
    assert tuple(row) == METRIC_FIELDS
    assert row["scenario"] == "fig3"
    assert row["algorithm"] == "dapp"
    assert row["seed"] == 7
    assert row["verdict"] == "ok"
    assert row["requests"] == 6
    assert row["placed"] == 6
    assert row["decision_cost"] == pytest.approx(36.0)
    assert row["normalized_cost"] == pytest.approx(2.0)
    assert row["migrations"] == 2
    assert row["push_downs"] == 1


def test_metrics_row_without_reference_is_unnormalized() -> None:
    result = run_scenario(fig_flat_scenario(), "dapp")
    assert math.isnan(metrics_row("fig3", "dapp", 1, result)["normalized_cost"])
    assert math.isnan(
        metrics_row("fig3", "dapp", 1, result, reference_cost=0.0)["normalized_cost"]
    )


def test_metrics_rows_for_reuses_the_reference_run() -> None:
    scenario = rand_scenario(seed=1, users=6, levels=3)
    rows, results = metrics_rows_for(scenario, ["exact", "ffit"], 1)
    assert [row["algorithm"] for row in rows] == ["exact", "ffit"]
    assert set(results) == {"exact", "ffit"}
    exact_row, ffit_row = rows
    assert exact_row["normalized_cost"] == pytest.approx(1.0)
    assert ffit_row["normalized_cost"] >= 1.0 - 1e-9
    assert all(row["seed"] == 1 for row in rows)


def test_metrics_rows_for_skips_empty_scenarios() -> None:
    rows, results = metrics_rows_for(empty_scenario(), ["dapp"], 1)
    assert rows == []
    assert results["dapp"].verdict == "ok"


def test_metrics_rows_for_can_skip_normalization() -> None:
    scenario = rand_scenario(seed=1, users=4, levels=3)
    rows, results = metrics_rows_for(scenario, ["ffit"], 1, normalize=False)
    assert set(results) == {"ffit"}
    assert math.isnan(rows[0]["normalized_cost"])


# ---------------------------------------------------------------------------
# report rendering


def _sample_rows() -> list[dict]:
    return [
        {"name": "a", "count": 2, "ratio": 1.5, "gap": float("nan")},
        {"name": "b", "count": 0, "ratio": 0.25, "gap": 3.0},
    ]


def test_render_rows_csv() -> None:
    text = render_rows(_sample_rows(), "csv")
    lines = text.splitlines()
    assert lines[0] == "name,count,ratio,gap"
    assert lines[1] == "a,2,1.500000,"  # NaN becomes an empty cell
    assert lines[2] == "b,0,0.250000,3.000000"


def test_render_rows_json() -> None:
    parsed = json.loads(render_rows(_sample_rows(), "json"))
    assert parsed[0]["gap"] is None
    assert parsed[1]["ratio"] == 0.25
    assert list(parsed[0]) == sorted(parsed[0])


def test_render_rows_empty_csv_keeps_the_header() -> None:
    text = render_rows([], "csv")
    assert text == ",".join(METRIC_FIELDS) + "\n"
    assert render_rows([], "json") == "[]\n"


def test_render_rows_unknown_format() -> None:
    with pytest.raises(ValueError):
        render_rows([], "xml")


def test_cli_out_writes_the_report_it_would_print(tmp_path: Path, capsys) -> None:
    target = tmp_path / "report.csv"
    argv = ["run", "--scenario", "fig3", "--algo", "dapp", "--no-normalize"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode()


def test_a_run_that_places_nothing_reports_a_float_placement_cost() -> None:
    scenario = rand_scenario(1, leaf_capacity=100)  # no room for its 24 users
    rows, results = metrics_rows_for(scenario, ["exact"], 1, normalize=False)
    assert results["exact"].placements == {}
    cost = rows[0]["placement_cost"]
    assert isinstance(cost, float) and cost == 0.0
    header, line = render_rows(rows, "csv").splitlines()
    assert dict(zip(header.split(","), line.split(",")))["placement_cost"] == "0.000000"
    (parsed,) = json.loads(render_rows(rows, "json"))
    assert isinstance(parsed["placement_cost"], float)


# ---------------------------------------------------------------------------
# golden replays


def test_replay_fixtures_match_their_frozen_logs() -> None:
    for name in ("fig2", "fig3"):
        outcome = replay_fixture(name)
        assert outcome.ok, outcome.diff
        assert outcome.diff == ()
        assert outcome.result.verdict == "ok"


def test_replay_reports_the_first_divergence(monkeypatch) -> None:
    lines = GOLDEN_LOGS["fig2"].splitlines()
    lines[4] = lines[4] + " (tampered)"
    monkeypatch.setitem(golden_logs.GOLDEN_LOGS, "fig2", "\n".join(lines) + "\n")
    outcome = replay_fixture("fig2")
    assert not outcome.ok
    assert outcome.diff[0] == "first difference at event 5:"
    assert "(tampered)" in outcome.diff[1]


def test_replay_reports_a_truncated_golden_log(monkeypatch) -> None:
    lines = GOLDEN_LOGS["fig3"].splitlines()[:10]
    monkeypatch.setitem(golden_logs.GOLDEN_LOGS, "fig3", "\n".join(lines) + "\n")
    outcome = replay_fixture("fig3")
    assert not outcome.ok
    assert outcome.diff[0] == "first difference at event 11:"
    assert "<end of log>" in outcome.diff[1]


def test_replay_reports_a_golden_log_longer_than_the_run(monkeypatch) -> None:
    events = len(GOLDEN_LOGS["fig2"].splitlines())
    text = GOLDEN_LOGS["fig2"] + "9.000000 s0 never happens\n"
    monkeypatch.setitem(golden_logs.GOLDEN_LOGS, "fig2", text)
    outcome = replay_fixture("fig2")
    assert not outcome.ok
    assert outcome.diff == (
        f"first difference at event {events + 1}:",
        "  expected: 9.000000 s0 never happens",
        "  actual:   <end of log>",
    )


def test_replay_unknown_fixture() -> None:
    with pytest.raises(ValueError):
        replay_fixture("fig9")


# ---------------------------------------------------------------------------
# capacity search and the signaling sweep


def test_min_cpu_for_finds_a_tight_threshold() -> None:
    value = min_cpu_for("ffit", seed=1, users=4, levels=3, family="rand")

    def clean(capacity: int) -> bool:
        scenario = rand_scenario(seed=1, users=4, leaf_capacity=capacity, levels=3)
        return run_scenario(scenario, "ffit").verdict == "ok"

    assert clean(value)
    assert value == 1 or not clean(value - 1)


# Recorded before the probes stopped the exact solver at its first feasible
# placement: the answers must not move.
@pytest.mark.parametrize(
    "algo, answers",
    [
        ("exact", [170, 170, 255]),
        ("bupu", [170, 170, 255]),
        ("ffit", [170, 254, 255]),
        ("dapp", [170, 170, 255]),
    ],
)
def test_min_cpu_for_answers_are_frozen(algo: str, answers: list[int]) -> None:
    assert [
        min_cpu_for(
            algo, seed=1, users=80, p_rt=p_rt, levels=4, arity=4, family="rand"
        )
        for p_rt in (0.0, 0.5, 1.0)
    ] == answers


# Recorded at the parent of the change that builds one trace per search.
@pytest.mark.parametrize(
    "seed, answers",
    [(1, [254, 254, 304, 255]), (2, [170, 170, 255, 170]), (3, [170, 170, 240, 170])],
)
def test_min_cpu_for_jitter_answers_are_frozen(seed: int, answers: list[int]) -> None:
    assert [
        min_cpu_for(algo, seed=seed, users=60, p_rt=0.5, levels=6, family="jitter")
        for algo in ("exact", "bupu", "ffit", "dapp")
    ] == answers


@pytest.mark.parametrize("family", ["rand", "jitter"])
def test_min_cpu_for_without_users_needs_no_capacity(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, family: str
) -> None:
    def no_probe(*args: object, **kwargs: object) -> None:
        raise AssertionError("a search without users ran a probe")

    monkeypatch.setattr(harness, "build_simulator", no_probe)
    monkeypatch.setattr(harness, "min_cpu_binary_search", no_probe)
    for algo in ALGO_CHOICES:
        assert min_cpu_for(algo, users=0, family=family) == 0
    argv = ["min-cpu", "--users", "0", "--family", family, "--format", "json"]
    assert main([*argv, "--algo", ",".join(ALGO_CHOICES)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert sorted(row["algorithm"] for row in rows) == sorted(ALGO_CHOICES)
    assert {row["min_cpu"] for row in rows} == {0}


def test_min_cpu_for_synthesizes_one_trace_per_search(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    traces: list[tuple] = []
    synthesize = scenarios.synthesize_trace

    def recording(topology: object, **kwargs: object) -> tuple:
        traces.append(synthesize(topology, **kwargs))
        return traces[-1]

    runs: list[tuple] = []
    run = Simulator.run

    def recording_run(sim: Simulator, trace: tuple, **kwargs: object) -> object:
        runs.append(trace)
        return run(sim, trace, **kwargs)

    monkeypatch.setattr(scenarios, "synthesize_trace", recording)
    monkeypatch.setattr(Simulator, "run", recording_run)
    verdicts = _recording_slot_count(monkeypatch)
    for family in ("rand", "jitter"):
        min_cpu_for("ffit", seed=1, users=12, levels=3, family=family)
    assert len(traces) == 2
    # one run per probe the slot count lets through, none for the others
    assert len(runs) == verdicts.count(True)
    assert False in verdicts
    assert {id(trace) for trace in runs} == {id(trace) for trace in traces}


def _recording_slot_count(monkeypatch: pytest.MonkeyPatch) -> list[bool]:
    """Record the slot count's verdict on every probe the harness gates."""
    verdicts: list[bool] = []
    prepare = harness._slot_count

    def recording(*args: object) -> Callable[..., bool] | None:
        suffices = prepare(*args)
        if suffices is None:
            return None

        def check(capacity: Callable[[int], int]) -> bool:
            verdicts.append(suffices(capacity))
            return verdicts[-1]

        return check

    monkeypatch.setattr(harness, "_slot_count", recording)
    return verdicts


def _recording_probes(
    monkeypatch: pytest.MonkeyPatch, work: list
) -> list[tuple[int, int]]:
    """Record every probe of the harness's capacity searches: the capacity,
    and how many entries the probe added to ``work``."""
    probes: list[tuple[int, int]] = []
    search = harness.min_cpu_binary_search

    def recording_search(succeeds: Callable[[int], bool], **kwargs: int) -> int:
        def probe(capacity: int) -> bool:
            before = len(work)
            fits = succeeds(capacity)
            probes.append((capacity, len(work) - before))
            return fits

        return search(probe, **kwargs)

    monkeypatch.setattr(harness, "min_cpu_binary_search", recording_search)
    return probes


@pytest.mark.parametrize(
    "family, make, users, levels, arity, shares, seeds",
    [
        ("rand", rand_scenario, 80, 4, 4, (0.0, 0.5, 1.0), (1, 2, 3, 4)),
        ("jitter", jittered_scenario, 60, 6, 2, (0.5,), (1, 2, 3)),
    ],
)
def test_min_cpu_for_skips_only_probes_no_run_passes(
    monkeypatch: pytest.MonkeyPatch,
    family: str,
    make: Callable[..., Scenario],
    users: int,
    levels: int,
    arity: int,
    shares: tuple[float, ...],
    seeds: tuple[int, ...],
) -> None:
    runs: list[tuple] = []
    run = Simulator.run

    def recording_run(sim: Simulator, trace: tuple, **kwargs: object) -> object:
        runs.append(trace)
        return run(sim, trace, **kwargs)

    monkeypatch.setattr(Simulator, "run", recording_run)
    probes = _recording_probes(monkeypatch, runs)
    skipped = 0
    for seed in seeds:
        for p_rt in shares:
            shape = dict(seed=seed, users=users, p_rt=p_rt, levels=levels, arity=arity)
            scenario = make(**shape)
            for algo in ALGO_CHOICES:
                probes.clear()
                min_cpu_for(algo, family=family, **shape)
                for capacity in [c for c, ran in probes if not ran]:
                    # the run the probe would have made without the slot count
                    topology, _, _, _ = scenarios.default_profile(
                        capacity, levels, arity
                    )
                    sim = build_simulator(
                        replace(scenario, topology=topology), algo, first_solution=True
                    )
                    verdict = sim.run(scenario.trace).verdict
                    assert verdict != "ok", (algo, seed, p_rt, capacity)
                    skipped += 1
    assert skipped > 100


def test_a_proven_infeasible_exact_run_reads_infeasible(capsys) -> None:
    # the search spends its whole budget here; the slot count proves that
    # no placement exists, so the run is infeasible, not diverged
    code = main(
        [
            "run",
            "--users",
            "24",
            "--p-rt",
            "1.0",
            "--leaf-capacity",
            "256",
            "--algo",
            "exact",
            "--format",
            "json",
        ]
    )
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(row["verdict"], row["placed"]) for row in rows] == [("infeasible", 0)]


def _recording_exact(
    monkeypatch: pytest.MonkeyPatch,
) -> list[tuple[EpochProblem, dict, EpochDecision]]:
    """Record every call the harness makes to the exact solver."""
    calls: list[tuple[EpochProblem, dict, EpochDecision]] = []
    solve = harness.exact_optimal

    def recording(problem: EpochProblem, **kwargs: object) -> EpochDecision:
        decision = solve(problem, **kwargs)
        calls.append((problem, kwargs, decision))
        return decision

    monkeypatch.setattr(harness, "exact_optimal", recording)
    return calls


def test_min_cpu_for_probes_exact_for_a_first_solution_only(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    calls = _recording_exact(monkeypatch)
    probes = _recording_probes(monkeypatch, calls)
    min_cpu_for("exact", seed=1, users=24, p_rt=0.5, levels=4, arity=2)
    assert len(probes) == 13
    assert len(calls) == 7
    kinds = set()
    for problem, kwargs, decision in calls:
        assert kwargs == {"node_budget": 200_000, "first_solution": True}
        full = exact_optimal(problem, node_budget=200_000)
        assert decision.solved == full.solved
        if decision.solved:
            assert not decision.exhausted_budget
        else:  # nothing found: the same search as the full one
            assert decision.exhausted_budget == full.exhausted_budget
        kinds.add((decision.solved, full.exhausted_budget))
    # placements the full search kept improving until its budget ran out,
    # and infeasibility proven within the budget
    assert kinds == {(True, True), (False, False)}
    # every probe reaching the solver asks once, about all 24 users; the
    # ones that never reach it are those the solver proves at 0 nodes
    assert {n for _capacity, n in probes} == {0, 1}
    problem = calls[0][0]
    assert len(problem.services) == 24
    skipped = [capacity for capacity, n in probes if n == 0]
    assert len(skipped) == 6
    for capacity in skipped:
        topology, _, _, _ = scenarios.default_profile(capacity, 4, 2)
        stats = ExactSolverStats()
        decision = exact_optimal(
            replace(problem, topology=topology), node_budget=200_000, stats=stats
        )
        assert not decision.solved
        assert not decision.exhausted_budget
        assert stats.nodes_expanded == 0


def test_runs_keep_the_full_exact_search(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _recording_exact(monkeypatch)
    run_scenario(rand_scenario(seed=1, users=8, levels=3), "exact")
    metrics_rows_for(rand_scenario(seed=2, users=8, levels=3), ["dapp"], 2)
    assert [kwargs for _problem, kwargs, _decision in calls] == [
        {"node_budget": 200_000, "first_solution": False}
    ] * 2


def test_min_cpu_for_rejects_unknown_family() -> None:
    with pytest.raises(ValueError):
        min_cpu_for("ffit", family="cosmic")


@pytest.mark.parametrize("algo, budget", [("dapp", 50), ("ffit", 0)])
def test_cli_min_cpu_names_the_verdict_when_the_event_budget_runs_out(
    capsys: pytest.CaptureFixture, algo: str, budget: int
) -> None:
    # a budget of 55 events is enough for dapp's answer of 170; a search
    # that gives up on a diverged run exits 2, as a diverged run does
    assert main(["min-cpu", "--algo", algo, "--budget", str(budget)]) == 2
    assert capsys.readouterr().err == (
        "error: the search gave up at leaf capacity 1048576, whose run read "
        f"diverged with an event budget of {budget}\n"
    )


def test_cli_sweep_overhead_exits_2_when_a_sizing_run_diverges(capsys) -> None:
    argv = ["sweep-overhead", "--budget", "10", "--p-rt", "0.5", "--t-ad", "1e-4"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the search gave up at leaf capacity 1048576, whose run read "
        "diverged with an event budget of 10\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--scenario", "fig2", "--no-normalize", "--budget", "-5"],
         "the event budget must be >= 0, not -5"),
        (["run", "--scenario", "fig2", "--algo", "exact", "--no-normalize",
          "--bnb-budget", "-3"], "the node budget must be >= 0, not -3"),
        (["min-cpu", "--algo", "dapp", "--budget", "-1"],
         "the event budget must be >= 0, not -1"),
        (["min-cpu", "--algo", "exact", "--bnb-budget", "-1"],
         "the node budget must be >= 0, not -1"),
        (["sweep-overhead", "--budget", "-1", "--p-rt", "0.5", "--t-ad", "1e-4"],
         "the event budget must be >= 0, not -1"),
    ],
    ids=["run-events", "run-nodes", "min-cpu-events", "min-cpu-nodes",
         "sweep-overhead-events"],
)
def test_cli_refuses_a_negative_budget(
    capsys: pytest.CaptureFixture, argv: list[str], message: str
) -> None:
    # once, a negative event budget read as a run that diverged at once and
    # a negative node budget as a budget of 0
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_cli_min_cpu_blames_capacity_when_the_slot_count_refused_the_last_probe(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    monkeypatch.setattr(harness, "_slot_count", lambda *args: lambda capacity: False)
    assert main(["min-cpu", "--algo", "dapp"]) == 1
    assert capsys.readouterr().err == (
        "error: no feasible capacity at or below 1048576\n"
    )


def test_sweep_overhead_with_fixed_capacity() -> None:
    rows = sweep_overhead(
        [0.5],
        [1e-4, 4e-4],
        [1],
        users=4,
        levels=3,
        leaf_capacity=600,
    )
    assert [(r["p_rt"], r["t_ad"]) for r in rows] == [(0.5, 1e-4), (0.5, 4e-4)]
    for row in rows:
        assert row["seed"] == 1
        assert row["leaf_capacity"] == 600
        assert row["verdict"] == "ok"
        assert row["messages"] > 0
        assert row["bytes_per_request"] > 0


def test_sweep_overhead_sizes_the_tree_when_unconstrained() -> None:
    base = min_cpu_for(
        "exact", seed=1, users=3, p_rt=1.0, levels=2, arity=2, family="jitter"
    )
    rows = sweep_overhead([1.0], [1e-4], [1], users=3, levels=2, arity=2)
    assert rows[0]["leaf_capacity"] == math.ceil(1.10 * base)


@pytest.mark.parametrize(
    "grids, message",
    [
        (([0.5, 0.5], [1e-4], [1]), "p_rt_grid lists 0.5 more than once"),
        (([0.5], [1e-4, 1e-4], [1]), "t_ad_grid lists 0.0001 more than once"),
        (([0.5], [1e-4], iter([1, 1])), "seeds lists 1 more than once"),
    ],
    ids=["p_rt_grid", "t_ad_grid", "seeds"],
)
def test_sweep_overhead_refuses_a_repeated_entry(grids, message) -> None:
    # A repeat would run again and report its rows twice.
    with pytest.raises(ValueError, match=message):
        sweep_overhead(*grids, users=2, levels=2, leaf_capacity=400)


# ---------------------------------------------------------------------------
# command line


def test_cli_run_walkthrough(capsys: pytest.CaptureFixture) -> None:
    code = main(["run", "--scenario", "fig3", "--algo", "dapp,exact"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == ",".join(METRIC_FIELDS)
    assert len(lines) == 3
    assert lines[1].startswith("fig3,dapp,1,ok,6,6,0,0,")
    assert lines[2].startswith("fig3,exact,1,ok,6,6,0,0,")


def test_cli_run_empty_scenario_emits_header_only(capsys) -> None:
    code = main(["run", "--scenario", "empty", "--algo", "dapp"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ",".join(METRIC_FIELDS) + "\n"


def test_cli_run_many_seeds_and_algos(capsys) -> None:
    code = main(
        [
            "run",
            "--scenario",
            "rand",
            "--users",
            "6",
            "--levels",
            "3",
            "--algo",
            "ffit,bupu,cpvnf",
            "--seeds",
            "3",
            "--format",
            "json",
        ]
    )
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(rows) == 9
    assert {row["algorithm"] for row in rows} == {"ffit", "bupu", "cpvnf"}
    assert {row["seed"] for row in rows} == {1, 2, 3}
    # sorted by (scenario, algorithm, seed)
    keys = [(row["scenario"], row["algorithm"], row["seed"]) for row in rows]
    assert keys == sorted(keys)


def test_cli_run_takes_an_explicit_seed_list(capsys) -> None:
    code = main(
        ["run", "--scenario", "rand", "--users", "4", "--levels", "3",
         "--algo", "ffit", "--seeds", "1,7", "--no-normalize", "--format", "json"]
    )
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(row["scenario"], row["seed"]) for row in rows] == [
        ("rand-1", 1),
        ("rand-7", 7),
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--seeds", "0"], "--seeds must be at least 1"),
        (["run", "--algo", ","], "no algorithm given"),
        (["min-cpu", "--p-rt", ","], "--p-rt needs at least one value"),
    ],
    ids=["no-seed-count", "no-algorithm", "no-share"],
)
def test_cli_refuses_an_empty_count_or_list(
    capsys, argv: list[str], message: str
) -> None:
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["run", "--scenario", "fig3", "--algo", "dapp,dapp", "--no-normalize"],
            "--algo lists dapp more than once",
        ),
        (["min-cpu", "--users", "2", "--seeds", "1,1"], "--seeds lists 1 more than once"),
        (
            ["sweep-overhead", "--users", "2", "--levels", "2", "--leaf-capacity",
             "400", "--t-ad", "1e-4", "--p-rt", "0.5,0.50"],
            "--p-rt lists 0.5 more than once",
        ),
    ],
    ids=["run", "min-cpu", "sweep-overhead"],
)
def test_cli_refuses_a_repeated_list_entry(
    capsys, argv: list[str], message: str
) -> None:
    # a repeat would run again and print its rows twice
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_cli_run_rejects_unknown_algorithm(capsys) -> None:
    code = main(["run", "--algo", "wizardry"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


def test_cli_run_rejects_unknown_scenario(capsys) -> None:
    code = main(["run", "--scenario", "atlantis"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_run_rejects_family_flags_on_fixtures(capsys) -> None:
    code = main(["run", "--scenario", "fig3", "--users", "9"])
    err = capsys.readouterr().err
    assert code == 1
    assert "only apply" in err


def test_cli_run_reports_divergence_with_exit_2(capsys) -> None:
    code = main(
        ["run", "--scenario", "fig3", "--algo", "dapp", "--no-normalize",
         "--budget", "5"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert ",diverged," in out


@pytest.mark.parametrize(
    "scenario, algo, budget",
    [("jitter", "ffit", "1"), ("synth", "bupu", "1"), ("fig3", "dapp", "0")],
)
def test_cli_run_reports_a_run_cut_before_its_first_arrival(
    capsys, scenario: str, algo: str, budget: str
) -> None:
    # the budget runs out before the first arrival is reached, so the run
    # counts no requests; its row must still show that it diverged
    code = main(
        ["run", "--scenario", scenario, "--algo", algo, "--budget", budget,
         "--no-normalize"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 2 and ",diverged," in lines[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--p-rt", "2"],
        ["run", "--p-rt", "nan"],
        ["run", "--users", "-3"],
        ["min-cpu", "--p-rt", "1.5", "--users", "4"],
    ],
    ids=["share-above-one", "nan-share", "negative-users", "min-cpu-share"],
)
def test_cli_rejects_out_of_range_family_inputs(capsys, argv: list[str]) -> None:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_run_writes_report_and_log(tmp_path: Path, capsys) -> None:
    report = tmp_path / "report.csv"
    log = tmp_path / "events.log"
    code = main(
        [
            "run",
            "--scenario",
            "fig2",
            "--algo",
            "dapp",
            "--out",
            str(report),
            "--log",
            str(log),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""  # everything went to files
    assert report.read_text().startswith(",".join(METRIC_FIELDS))
    assert log.read_text() == GOLDEN_LOGS["fig2"]


def test_cli_run_log_needs_a_single_run(capsys) -> None:
    code = main(["run", "--scenario", "fig2", "--algo", "dapp,ffit", "--log", "-"])
    assert code == 1
    assert "--log needs exactly one algorithm and one seed" in capsys.readouterr().err


def test_cli_run_writes_the_log_to_stdout(capsys) -> None:
    code = main(["run", "--scenario", "fig2", "--algo", "dapp", "--log", "-"])
    out = capsys.readouterr().out
    assert code == 0
    header, row, log = out.split("\n", 2)  # the report, then the log
    assert header == ",".join(METRIC_FIELDS)
    assert row.startswith("fig2,dapp,1,ok,")
    assert log == GOLDEN_LOGS["fig2"]


def _tiny_config() -> dict:
    return {
        "tree": {"levels": 2, "arity": 2, "leaf_capacity": 4},
        "classes": [
            {
                "class_id": 0,
                "max_delay": 0.05,
                "cpu_demand": {"0": 1, "1": 1},
                "migration_cost": 5,
                "placement_cost": {"0": 2, "1": 1},
            }
        ],
        "rtt_by_level": {"0": 0.001, "1": 0.002},
        "synth": {"users": 3, "p_rt": 1.0},
    }


def test_cli_run_with_config_and_trace(tmp_path: Path, capsys) -> None:
    config = _tiny_config()
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path), "--algo", "ffit"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].startswith("tiny,ffit,1,ok,3,3,")

    trace_path = tmp_path / "two.csv"
    trace_path.write_text("time,user,poa,class\n0.0,1,1,0\n0.0,2,2,0\n")
    code = main(
        ["run", "--config", str(cfg_path), "--trace", str(trace_path),
         "--algo", "ffit"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].startswith("tiny+two,ffit,1,ok,2,2,")


def test_cli_run_reads_a_trace_with_a_byte_order_mark(tmp_path: Path, capsys) -> None:
    # as spreadsheets export CSV
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    trace_path = tmp_path / "two.csv"
    trace_path.write_bytes(b"\xef\xbb\xbftime,user,poa,class\n0.0,1,1,0\n0.0,2,2,0\n")
    code = main(
        ["run", "--config", str(cfg_path), "--trace", str(trace_path),
         "--algo", "ffit"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].startswith("tiny+two,ffit,1,ok,2,2,")


def test_cli_run_refuses_a_trace_byte_that_is_not_utf_8(tmp_path: Path, capsys) -> None:
    # the error names the bad byte's line, also past the first chunk a text
    # layer decodes and behind a byte-order mark with CRLF line ends
    long_rows = [b"time,user,poa,class"]
    long_rows += [b"%d.0,%d,3,0" % (user, user) for user in range(1, 5001)]
    long_rows[3000] = b"3000.0,3000,\xff,0"
    cases = [
        (b"time,user,poa,class\n0.0,1,3,0\n0.5,1,\xff,\n", 3),
        (b"\n".join(long_rows) + b"\n", 3001),
        (b"\xef\xbb\xbftime,user,poa,class\r\n0.0,1,3,0\r\n0.5,1,\xff,\r\n", 3),
    ]
    trace_path = tmp_path / "latin.csv"
    for data, line in cases:
        trace_path.write_bytes(data)
        code = main(["run", "--scenario", "fig2", "--trace", str(trace_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: trace {trace_path} line {line}: "
            "'utf-8' codec can't decode byte 0xff"
        )


def test_cli_run_rejects_an_unknown_config_key(tmp_path: Path, capsys) -> None:
    config = _tiny_config()
    config["synth"] = {"users": 5, "hold": 2.0}
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path), "--algo", "ffit"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown key(s) hold in the 'synth' block" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--users", "50", "--leaf-capacity", "1"],
        ["--p-rt", "0.5"],
        ["--levels", "3"],
        ["--arity", "4"],
    ],
)
def test_cli_run_refuses_family_flags_beside_a_config(
    tmp_path: Path, capsys, flags: list[str]
) -> None:
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    code = main(["run", "--config", str(cfg_path), "--algo", "ffit", *flags])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    named = ", ".join(flag for flag in flags if flag.startswith("--"))
    assert err == f"error: {named} cannot be given with --config, which sets them\n"


def test_cli_run_refuses_a_scenario_beside_a_config(tmp_path: Path, capsys) -> None:
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    code = main(["run", "--config", str(cfg_path), "--scenario", "fig3", "--algo", "ffit"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --scenario cannot be given with --config, which sets them\n"


def test_cli_run_names_an_unknown_key_in_the_tree(tmp_path: Path, capsys) -> None:
    config = _tiny_config()
    config["tree"]["capacity_overides"] = {"0": 0}
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path), "--algo", "dapp,ffit,bupu,exact"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        f"error: config {cfg_path}: unknown key(s) capacity_overides in the "
        "'tree' block (allowed: levels, arity, leaf_capacity, capacity_overrides, "
        "prune)"
    )


def test_cli_run_refuses_a_negative_price(tmp_path: Path, capsys) -> None:
    config = _tiny_config()
    config["classes"][0]["placement_cost"] = {"0": -5, "1": 1}
    cfg_path = tmp_path / "cheap.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path), "--algo", "dapp,ffit,bupu,exact"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: class 0 placement_cost at level 0 must be finite and >= 0\n"


def test_cli_run_rejects_a_trace_with_an_undefined_class(
    tmp_path: Path, capsys
) -> None:
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    trace_path = tmp_path / "odd.csv"
    trace_path.write_text("time,user,poa,class\n0.0,1,1,7\n")
    code = main(
        ["run", "--config", str(cfg_path), "--trace", str(trace_path), "--algo", "ffit"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: --trace {trace_path}: trace uses class 7, which" in err
    assert "(classes: [0])" in err


@pytest.mark.parametrize("algo", [[], ["--algo", "dapp"], ["--algo", "ffit"]])
@pytest.mark.parametrize("time", ["inf", "-inf", "nan"])
def test_cli_run_rejects_a_non_finite_trace_time(
    tmp_path: Path, capsys, algo: list[str], time: str
) -> None:
    trace_path = tmp_path / "t.csv"
    trace_path.write_text(f"time,user,poa,class\n{time},1,3,0\n")
    code = main(["run", "--scenario", "fig2", "--trace", str(trace_path), *algo])
    assert code == 1
    err = capsys.readouterr().err
    assert (
        f"error: --trace {trace_path}: trace has an event at time {time}, "
        "which is not finite"
    ) in err
    assert "Traceback" not in err


def test_cli_run_refuses_a_trace_time_below_zero(tmp_path: Path, capsys) -> None:
    # the first epoch and every link start at time 0, so an earlier event
    # would meet neither
    trace_path = tmp_path / "neg.csv"
    trace_path.write_text("time,user,poa,class\n-5.0,1,3,0\n-4.5,2,4,0\n")
    argv = ["run", "--scenario", "fig2", "--trace", str(trace_path)]
    assert main([*argv, "--algo", "dapp,ffit,bupu,exact", "--no-normalize"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: --trace {trace_path}: trace has an event at time -5.0, "
        "before time 0\n"
    )


@pytest.mark.parametrize(
    "rows, line, message",
    [
        ("0.0,1,3,0\n0.5,1,OUT,\n1.0,1,4,\n", 4, "user 1 has an event after departing"),
        ("0.0,1,3,0\n0.5,2,OUT,\n", 3, "departure of user 2, who has not arrived"),
    ],
    ids=["row-after-departure", "departure-before-arrival"],
)
def test_cli_run_refuses_a_departure_out_of_place(
    tmp_path: Path, capsys, rows: str, line: int, message: str
) -> None:
    # the row would reach the engine as an event of an inactive user, which
    # it ignores, so the run would read ok
    trace_path = tmp_path / "back.csv"
    trace_path.write_text("time,user,poa,class\n" + rows)
    argv = ["run", "--scenario", "fig2", "--trace", str(trace_path)]
    assert main([*argv, "--algo", "dapp,ffit", "--no-normalize"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: trace {trace_path} line {line}: {message}\n"


#: A trace whose second arrival lies far in the future.
FAR_FUTURE_TRACE = "time,user,poa,class\n0,1,3,0\n1e308,2,4,0\n"


@pytest.mark.parametrize("algo", [a for a in ALGO_CHOICES if a != "dapp"])
def test_a_far_future_trace_time_runs_out_the_budget_one_epoch_at_a_time(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, algo: str
) -> None:
    # Each epoch schedules the next, so the heap never holds more than the
    # one epoch to come, and the budget ends the run.
    trace_path = tmp_path / "far.csv"
    trace_path.write_text(FAR_FUTURE_TRACE)
    scenario = replace(builtin_scenario("fig2"), trace=tuple(load_trace(trace_path)))
    run_epoch = Simulator._run_epoch
    epochs = 0

    def counted(self: Simulator, *args: int) -> None:
        nonlocal epochs
        run_epoch(self, *args)
        epochs += 1
        assert len(self._heap) <= 1

    monkeypatch.setattr(Simulator, "_run_epoch", counted)
    result = build_simulator(scenario, algo, event_budget=50).run(scenario.trace)
    assert result.verdict == "diverged"
    assert epochs == 50 - 1  # the first arrival is the other event


def test_cli_run_ends_a_far_future_trace_time_with_exit_2(
    tmp_path: Path, capsys
) -> None:
    trace_path = tmp_path / "far.csv"
    trace_path.write_text(FAR_FUTURE_TRACE)
    code = main(["run", "--scenario", "fig2", "--trace", str(trace_path),
                 "--algo", "ffit"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert ",ffit,1,diverged," in lines[1]


@pytest.mark.parametrize(
    "row, fields",
    [("0,0", 2), ("0", 1), ("0,1,3,0,9", 5)],
    ids=["short", "one", "long"],
)
def test_cli_run_names_the_line_of_a_row_of_the_wrong_width(
    tmp_path: Path, capsys, row: str, fields: int
) -> None:
    trace_path = tmp_path / "rows.csv"
    trace_path.write_text(f"time,user,poa,class\n0,1,3,0\n\n{row}\n")
    code = main(["run", "--scenario", "fig2", "--trace", str(trace_path),
                 "--algo", "dapp"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"error: trace {trace_path} line 4: {fields} fields, but the header has 4\n"
    )


def test_cli_rejects_a_tree_above_the_ceiling_at_once(
    tmp_path: Path, capsys
) -> None:
    config = _tiny_config()
    config["tree"] = {"levels": 40, "arity": 2, "leaf_capacity": 4}
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(config))
    for argv in (
        ["run", "--levels", "40", "--arity", "2"],
        ["run", "--config", str(cfg_path)],
    ):
        started = time.process_time()
        code = main(argv)
        assert time.process_time() - started < 1.0
        captured = capsys.readouterr()
        assert code == 1
        assert "error: a tree of 40 levels and arity 2 has more than 1048576 " in (
            captured.err
        )


@pytest.mark.parametrize("algo", [["dapp", "--no-normalize"], ["ffit"]])
def test_cli_run_rejects_a_class_without_a_price_for_a_usable_level(
    tmp_path: Path, capsys, algo: list[str]
) -> None:
    config = _tiny_config()
    config["classes"][0]["placement_cost"] = {"0": 2}  # level 1 can host it too
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path), "--algo", *algo])
    assert code == 1
    err = capsys.readouterr().err
    assert (
        f"error: config {cfg_path}: class 0 can be hosted at level 1, but its "
        "placement_cost has no price for that level"
    ) in err


@pytest.mark.parametrize("algo", ["dapp", "ffit"])
@pytest.mark.parametrize(
    "rows",
    ["0.0,1,99,0\n", "0.0,1,7,0\n0.5,1,99,\n"],
    ids=["arrival", "move"],
)
def test_cli_run_rejects_a_trace_poa_outside_the_tree(
    tmp_path: Path, capsys, algo: str, rows: str
) -> None:
    trace_path = tmp_path / "far.csv"
    trace_path.write_text("time,user,poa,class\n" + rows)
    code = main(
        ["run", "--scenario", "rand", "--trace", str(trace_path), "--algo", algo]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert (
        f"error: --trace {trace_path}: trace names PoA 99, which is not a leaf "
        "of the scenario's tree"
    ) in err


@pytest.mark.parametrize(
    "block, entry, message",
    [
        ("link", {"capacity_bps": 0}, "link capacity_bps must be finite and > 0"),
        ("link", {"capacity_bps": -5}, "link capacity_bps must be finite and > 0"),
        ("link", {"propagation": -1}, "link propagation must be finite and >= 0"),
        ("link", {"propagation": math.nan}, "link propagation must be finite"),
        ("timing", {"scan_window": math.nan}, "timing scan_window must be finite"),
        ("timing", {"push_down_window": -4e-4}, "timing push_down_window must"),
    ],
    ids=["zero-capacity", "negative-capacity", "negative-propagation",
         "nan-propagation", "nan-window", "negative-window"],
)
def test_cli_run_rejects_bad_link_and_timing_values(
    tmp_path: Path, capsys, block: str, entry: dict, message: str
) -> None:
    config = _tiny_config()
    config[block] = entry
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    if not all(map(math.isfinite, entry.values())):  # refused as the file is read
        message = f"config {cfg_path}: NaN is not a JSON number"
    code = main(["run", "--config", str(cfg_path), "--algo", "dapp"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def _class_edit(**fields: object) -> Callable[[dict], dict]:
    """A config edit that sets ``fields`` in the config's only class."""
    return lambda c: {**c, "classes": [{**c["classes"][0], **fields}]}


#: configs that crashed, hung or ran to a verdict they made up: a synth
#: block's edits, a whole-config edit or the file's text, and the message
#: each gets now ({path} is the config file's)
CRASH_OR_HANG = [
    ({"burst": False, "arrival_rate": 0}, "error: arrival_rate must be finite and > 0"),
    ({"hold_mean": 0}, "error: hold_mean must be finite and > 0, not 0.0"),
    ({"move_period": 0}, "error: move_period must be finite and > 0, not 0.0"),
    ({"move_period": -1}, "error: move_period must be finite and > 0, not -1.0"),
    ({"move_period": 0.001, "horizon": 1e308}, "may draw more than 4194304 trace"),
    (_class_edit(max_delay=math.nan), "error: config {path}: NaN is not a JSON number"),
    (
        _class_edit(placement_cost={"0": 2, "1": math.nan}),
        "error: config {path}: NaN is not a JSON number",
    ),
    (
        _class_edit(cpu_demand={"0": -3, "1": -3}),
        "error: class 0 cpu_demand at level 0 must be >= 0",
    ),
    ("{not json", "error: config {path}: Expecting property name enclosed"),
    (b"\xff\xfe{}", "error: config {path}: 'utf-8' codec can't decode byte 0xff"),
]


@pytest.mark.parametrize(
    "edit, message",
    CRASH_OR_HANG,
    ids=["rate-0", "hold-0", "period-0", "period-minus-1", "huge-horizon",
         "nan-delay", "nan-price", "negative-demand", "not-json", "not-utf-8"],
)
def test_cli_refuses_configs_that_crash_or_hang(
    tmp_path: Path, capsys, edit: object, message: str
) -> None:
    cfg_path = tmp_path / "bad.json"
    if isinstance(edit, dict):  # a synth block
        config = _tiny_config()
        config["synth"] = {**config["synth"], **edit}
        cfg_path.write_text(json.dumps(config))
    elif callable(edit):
        cfg_path.write_text(json.dumps(edit(_tiny_config())))
    else:
        cfg_path.write_bytes(edit.encode() if isinstance(edit, str) else edit)
    started = time.process_time()
    code = main(["run", "--config", str(cfg_path), "--algo", "dapp,exact"])
    assert time.process_time() - started < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert message.format(path=cfg_path) in err
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "fig2"],
        ["min-cpu", "--users", "4", "--levels", "3"],
        ["sweep-overhead", "--users", "4", "--levels", "3", "--p-rt", "0.5",
         "--t-ad", "1e-4"],
    ],
    ids=["run", "min-cpu", "sweep-overhead"],
)
def test_cli_refuses_an_empty_seed_list(capsys, argv: list[str]) -> None:
    assert main([*argv, "--seeds", ","]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --seeds lists no seed\n"


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: {**c, "tree": {**c["tree"], "levels": None}},
        lambda c: {**c, "link": {"capacity_bps": None}},
        lambda c: {**c, "synth": {**c["synth"], "users": None}},
        lambda c: {**c, "synth": {**c["synth"], "hold_mean": "x"}},
        lambda c: {**c, "classes": [{**c["classes"][0], "cpu_demand": [1, 1]}]},
        lambda c: {**c, "rtt_by_level": None},
        lambda c: {**c, "classes": {"a": 1}},
        lambda c: [c],
    ],
    ids=["null-levels", "null-capacity", "null-users", "text-hold-mean",
         "list-demand", "null-rtt", "classes-object", "top-level-list"],
)
def test_cli_run_rejects_config_values_of_the_wrong_type(
    tmp_path: Path, capsys, edit: Callable[[dict], object]
) -> None:
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(edit(_tiny_config())))
    code = main(["run", "--config", str(cfg_path), "--algo", "dapp"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg_path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "block, entry, message",
    [
        ("synth", {"burst": "no"}, 'synth.burst must be true or false, not "no"'),
        ("synth", {"users": 2.7}, "synth.users must be an integer, not 2.7"),
        ("tree", {"levels": "x"}, 'tree.levels must be an integer, not "x"'),
    ],
    ids=["text-burst", "fractional-users", "text-levels"],
)
def test_cli_run_names_the_file_and_key_of_a_loosely_typed_value(
    tmp_path: Path, capsys, block: str, entry: dict, message: str
) -> None:
    config = _tiny_config()
    config[block] = {**config[block], **entry}
    cfg_path = tmp_path / "loose.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg_path), "--algo", "dapp"])
    assert code == 1
    assert capsys.readouterr().err == f"error: config {cfg_path}: {message}\n"


def test_cli_sweep_overhead_rejects_a_negative_window(capsys) -> None:
    code = main(["sweep-overhead", "--t-ad=-1e-4"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: timing scan_window must be finite and >= 0\n"
    )


def test_cli_replay_passes_the_fixtures(capsys) -> None:
    for name in ("fig2", "fig3"):
        code = main(["replay", name])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(f"replay {name}: PASS")


@pytest.mark.parametrize("fixture", ["fig2", "fig3"])
def test_cli_replay_passes_under_optimized_python(fixture: str) -> None:
    # rendering the log and comparing it must not rest on ``assert``
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "edgeplace", "replay", fixture],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"replay {fixture}: PASS")


def test_cli_replay_fails_on_a_tampered_log(monkeypatch, capsys) -> None:
    lines = GOLDEN_LOGS["fig2"].splitlines()
    lines[0] = lines[0] + " oops"
    monkeypatch.setitem(golden_logs.GOLDEN_LOGS, "fig2", "\n".join(lines) + "\n")
    code = main(["replay", "fig2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "replay fig2: FAIL" in out
    assert "first difference at event 1:" in out


def test_cli_sweep_overhead(capsys) -> None:
    code = main(
        [
            "sweep-overhead",
            "--p-rt",
            "0.5",
            "--t-ad",
            "1e-4",
            "--seeds",
            "1",
            "--users",
            "4",
            "--levels",
            "3",
            "--leaf-capacity",
            "600",
        ]
    )
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "p_rt,t_ad,seed,leaf_capacity,verdict,messages,bytes_per_request"
    assert len(lines) == 2
    assert lines[1].startswith("0.500000,0.000100,1,600,ok,")


def test_cli_sweep_overhead_exits_2_when_a_point_fails(capsys) -> None:
    code = main(
        ["sweep-overhead", "--p-rt", "0.5", "--t-ad", "1e-4", "--users", "4",
         "--levels", "3", "--leaf-capacity", "1"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2
    assert len(lines) == 2
    assert lines[1].startswith("0.500000,0.000100,1,1,failure,")


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["replay", "fig2"], 0, "out", "replay fig2: PASS"),
        (["run", "--seeds", "0"], 1, "err", "error: --seeds must be at least 1"),
    ],
    ids=["success", "configuration-error"],
)
def test_python_m_edgeplace_exits_with_the_cli_code(
    monkeypatch: pytest.MonkeyPatch,
    capsys,
    argv: list[str],
    code: int,
    stream: str,
    text: str,
) -> None:
    monkeypatch.setattr(sys, "argv", ["edgeplace", *argv])
    # a module imported before would run again, which runpy warns about
    monkeypatch.delitem(sys.modules, "edgeplace.__main__", raising=False)
    with pytest.raises(SystemExit) as raised:
        runpy.run_module("edgeplace", run_name="__main__")
    assert raised.value.code == code
    assert getattr(capsys.readouterr(), stream).startswith(text)


def test_cli_min_cpu(capsys) -> None:
    code = main(
        [
            "min-cpu",
            "--algo",
            "ffit",
            "--users",
            "4",
            "--levels",
            "3",
            "--seeds",
            "1",
            "--format",
            "json",
        ]
    )
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rows[0]["algorithm"] == "ffit"
    assert rows[0]["min_cpu"] >= 1


def test_cli_reports_are_reproducible(capsys) -> None:
    argv = ["run", "--scenario", "rand", "--users", "8", "--levels", "3",
            "--algo", "dapp,exact", "--seeds", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_module_entry_point() -> None:
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "edgeplace", "run", "--scenario", "fig2",
         "--algo", "dapp"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("fig2,dapp,1,ok,")


# ---------------------------------------------------------------------------
# fuzzing the command line with trace files and tree flags

_HEADER = "time,user,poa,class"
_ODD_HEADERS = (
    "time,user,poa",
    "user,time,class,poa",
    "time,user,poa,class,note",
    "time,user",
    "Time,User,PoA,Class",
    "",
)
#: Per column of the header above: most fields are plausible, some odd (a
#: plausible PoA is a leaf of the tree, or OUT).
_FIELDS = (
    (
        st.sampled_from(["0", "0", "1", "1", "2", "2", "3", "4", "0.5", "1e308"]),
        st.sampled_from(
            ["0.25", "-3", "1e6", "1e308", "1.7976931348623157e308", "-1e308",
             "1e999", "nan", "inf", "-inf", "1_0", "0x1", "", "x"]
        ),
    ),
    (st.integers(0, 3).map(str), st.sampled_from(["-1", "", "x", "1.5", "9" * 30])),
    (None, st.sampled_from(["-1", "0", "99", " OUT", "", "x", "3.0", "9" * 30])),
    (st.integers(0, 1).map(str), st.sampled_from(["-1", "2", "", "x", "1.0"])),
)
_JUNK = st.text(max_size=6)


def _odds(draw: st.DrawFn, tenths: int) -> bool:
    """True with a chance of ``tenths`` in ten."""
    return draw(st.integers(0, 9)) < tenths


def _as_time(field: str) -> float:
    try:
        value = float(field)
    except ValueError:
        return 0.0
    return 0.0 if math.isnan(value) else value


@st.composite
def _trace_text(draw: st.DrawFn, leaves: range) -> str:
    """CSV text of a user trace: most often the usual header, then up to 6
    rows, most of them 4 fields wide (the others 0-6), each field most
    often plausible for its column; rows are put in time order in most
    traces."""
    poa = st.one_of(st.sampled_from(leaves).map(str), st.just("OUT"))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        width = 4 if _odds(draw, 8) else draw(st.integers(0, 6))
        row = []
        for column in range(width):
            plausible, odd = _FIELDS[column] if column < 4 else (_JUNK, _JUNK)
            plausible = poa if plausible is None else plausible
            row.append(draw(odd if _odds(draw, 1) else plausible))
        rows.append(row)
    if _odds(draw, 8):
        rows.sort(key=lambda row: _as_time(row[0]) if row else 0.0)
    lines = [",".join(row) for row in rows]
    if _odds(draw, 9):
        odd = draw(st.sampled_from(_ODD_HEADERS))
        lines.insert(0, _HEADER if _odds(draw, 8) else odd)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


#: (levels, arity, above the ceiling): every shape of at most 100 nodes,
#: and shapes far above the ceiling
_SMALL_TREES = st.sampled_from(
    [
        (levels, arity, False)
        for levels in range(1, 8)
        for arity in range(1, 5)
        if sum(arity**k for k in range(levels)) <= 100
    ]
)
_HUGE_TREES = st.one_of(
    st.tuples(st.integers(21, 10**12), st.integers(2, 8), st.just(True)),
    st.tuples(st.integers(2, 6), st.integers(1 << 20, 1 << 40), st.just(True)),
    st.tuples(st.integers((1 << 20) + 1, 1 << 60), st.just(1), st.just(True)),
)


@st.composite
def _cli_case(draw: st.DrawFn) -> tuple[int, int, bool, str]:
    """A tree shape, most often small, and a trace for it."""
    levels, arity, huge = draw(_HUGE_TREES if _odds(draw, 1) else _SMALL_TREES)
    nodes = 1 if huge else sum(arity**k for k in range(levels))
    leaves = range(nodes - (1 if huge else arity ** (levels - 1)), nodes)
    return levels, arity, huge, draw(_trace_text(leaves))


@pytest.fixture(scope="module")
def fuzz_trace(tmp_path_factory: pytest.TempPathFactory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "trace.csv"


def test_cli_survives_fuzzed_traces_and_trees(fuzz_trace: Path) -> None:
    # Every input ends in an exit code: 0, 1 (a rejected input, reported on
    # an "error:" line) or 2 (a diverged or failed run), never an exception.
    examples = 0

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_cli_case())
    def check(case: tuple[int, int, bool, str]) -> None:
        nonlocal examples
        examples += 1
        levels, arity, huge, text = case
        fuzz_trace.write_text(text, newline="")
        argv = [
            "run", "--scenario", "rand", "--levels", str(levels),
            "--arity", str(arity), "--users", "2", "--trace", str(fuzz_trace),
            "--algo", "dapp,ffit,bupu", "--no-normalize", "--budget", "2000",
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error: ")
        if huge:
            assert code == 1

    started = time.process_time()
    check()
    assert examples >= 500
    assert time.process_time() - started < 10.0


# ---------------------------------------------------------------------------
# fuzzing the command line with config files


def _fuzz_config() -> dict:
    """A valid config that sets every key a config may hold but ``trace``."""
    return {
        "name": "fuzz",
        "tree": {
            "levels": 2,
            "arity": 2,
            "leaf_capacity": 4,
            "capacity_overrides": {"0": 9},
            "prune": [2],
        },
        "classes": [
            {
                "class_id": 0,
                "name": "tight",
                "max_delay": 0.05,
                "cpu_demand": {"0": 1, "1": 1},
                "migration_cost": 5,
                "placement_cost": {"0": 2, "1": 1},
            },
            {
                "class_id": 1,
                "name": "bulk",
                "max_delay": 0.5,
                "cpu_demand": {"0": 2, "1": 1},
                "migration_cost": 3,
                "placement_cost": {"0": 3, "1": 1.5},
            },
        ],
        "per_bit_cost": 2.5,
        "rtt_by_level": {"0": 0.001, "1": 0.002},
        "timing": {"scan_window": 2e-4, "push_down_window": 4e-4, "fallback_period": 10},
        "link": {"propagation": 22e-6, "capacity_bps": 1e7},
        "synth": {
            "seed": 3,
            "users": 4,
            "p_rt": 0.5,
            "burst": False,
            "arrival_rate": 50,
            "hold_mean": 1.0,
            "move_period": 0.5,
            "horizon": 2.0,
        },
    }


#: Values put in place of a valid one: wrong JSON types, 0, negatives,
#: tiny and huge numbers, and the NaN and Infinity that JSON lacks
_ODD_VALUES = st.sampled_from(
    [None, True, "x", "", [], [1], {}, {"a": 1}, 0, -1, -2.5, 0.5, 5e-324,
     10**18, -(10**18), 10**400, 1e308, -1e308, math.nan, math.inf, -math.inf]
)


def _value_paths(value: object, path: tuple = ()) -> list[tuple]:
    """The key path of ``value`` and of everything inside it."""
    paths = [path]
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, inner in items:
        paths.extend(_value_paths(inner, (*path, key)))
    return paths


@st.composite
def _config_bytes(draw: st.DrawFn) -> bytes:
    """A valid config with one or two values replaced, dropped or added
    beside, and in one case of ten its text broken."""
    cfg: object = _fuzz_config()
    for _ in range(draw(st.integers(1, 2))):
        *where, key = draw(st.sampled_from(_value_paths(cfg))) or (None,)
        odd = draw(_ODD_VALUES)
        if key is None:  # the whole config
            cfg = odd
            continue
        parent = cfg
        for step in where:
            parent = parent[step]
        how = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
        if how == "drop":
            del parent[key]
        elif how == "add" and isinstance(parent, dict):
            parent[f"unknown_{key}"] = odd
        elif how == "add":
            parent.append(odd)
        else:
            parent[key] = odd
    text = json.dumps(cfg)  # NaN and Infinity are JSON extensions
    if _odds(draw, 9):
        return text.encode()
    cut = draw(st.integers(0, len(text)))
    return draw(
        st.sampled_from(
            [
                text[:cut].encode(),
                (text[:cut] + draw(_JUNK) + text[cut:]).encode(),
                draw(st.binary(max_size=12)),
                b"[" * 100_000,
                b"\xef\xbb\xbf" + text.encode(),
            ]
        )
    )


def test_cli_survives_fuzzed_configs(tmp_path: Path) -> None:
    # Every config ends in an exit code: 0, 1 (a rejected input, reported
    # on an "error:" line) or 2 (a diverged or failed run), never an
    # exception, also with the invariants checked after every event.
    cfg_path = tmp_path / "fuzz.json"
    examples = 0

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_config_bytes())
    def check(data: bytes) -> None:
        nonlocal examples
        examples += 1
        cfg_path.write_bytes(data)
        argv = [
            "run", "--config", str(cfg_path), "--algo", "dapp,ffit,bupu,exact",
            "--no-normalize", "--budget", "2000", "--bnb-budget", "2000",
            "--check-invariants",
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error: ")

    started = time.process_time()
    check()
    assert examples >= 400
    assert time.process_time() - started < 10.0
