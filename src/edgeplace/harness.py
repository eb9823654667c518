"""Experiment orchestration: runs, golden replays, sweeps, capacity search.

This is the layer the CLI is built on.  Everything here is deterministic:
given the same scenario parameters and seeds, every function returns the
same rows, so reports can be diffed byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from io import StringIO
from itertools import zip_longest
from typing import Any, Callable, Iterable, Mapping, Sequence

from . import golden_logs
from .baselines import (
    ALGORITHMS,
    NODE_BUDGET,
    NoUpperBoundError,
    _slot_count,
    exact_optimal,
    min_cpu_binary_search,
)
from .model import Request, demand_table, feasible_set_for, tree_capacity
from .protocol import ProtocolTiming
from .scenarios import (
    Scenario,
    builtin_scenario,
    jittered_scenario,
    rand_scenario,
)
from .simnet import EVENT_BUDGET, RunResult, Simulator, overhead_per_request

__all__ = [
    "ALGO_CHOICES",
    "build_simulator",
    "run_scenario",
    "metrics_row",
    "metrics_rows_for",
    "render_rows",
    "ReplayOutcome",
    "replay_fixture",
    "sweep_overhead",
    "min_cpu_for",
    "refuse_repeats",
    "METRIC_FIELDS",
]

#: Algorithms a run can use: the distributed protocol plus the centralized
#: per-epoch algorithms.
ALGO_CHOICES: tuple[str, ...] = ("dapp",) + tuple(sorted(ALGORITHMS))


def build_simulator(
    scenario: Scenario,
    algo: str,
    *,
    event_budget: int = EVENT_BUDGET,
    check_invariants: bool = False,
    bnb_budget: int = NODE_BUDGET,
    first_solution: bool = False,
) -> Simulator:
    """A fresh simulator for one run of ``algo`` over ``scenario``: the
    protocol lane for ``dapp``, else the centralized lane with that
    algorithm.

    ``first_solution`` makes the ``exact`` lane stop at its first feasible
    placement instead of optimising it (see ``exact_optimal``); the other
    lanes ignore it.
    """
    if algo == "dapp":
        algorithm = None
    elif algo == "exact":
        algorithm = lambda problem: exact_optimal(
            problem, node_budget=bnb_budget, first_solution=first_solution
        )
    elif algo in ALGORITHMS:
        algorithm = ALGORITHMS[algo]
    else:
        raise ValueError(f"unknown algorithm {algo!r}; pick one of {ALGO_CHOICES}")
    return Simulator(scenario, algorithm, event_budget, check_invariants)


def run_scenario(
    scenario: Scenario,
    algo: str,
    *,
    event_budget: int = EVENT_BUDGET,
    check_invariants: bool = False,
    bnb_budget: int = NODE_BUDGET,
) -> RunResult:
    """Run one algorithm over one scenario to quiescence."""
    sim = build_simulator(
        scenario,
        algo,
        event_budget=event_budget,
        check_invariants=check_invariants,
        bnb_budget=bnb_budget,
    )
    return sim.run(scenario.trace)


# ---------------------------------------------------------------------------
# metrics rows and report rendering

METRIC_FIELDS = (
    "scenario",
    "algorithm",
    "seed",
    "verdict",
    "requests",
    "placed",
    "failed",
    "unplaced",
    "migrations",
    "push_downs",
    "messages",
    "bytes_per_request",
    "decision_cost",
    "normalized_cost",
    "migration_cost",
    "placement_cost",
    "comm_cost",
    "end_time",
)


def metrics_row(
    scenario_name: str,
    algo: str,
    seed: int,
    result: RunResult,
    reference_cost: float | None = None,
) -> dict[str, Any]:
    """One flat report row; ``reference_cost`` normalizes the decision cost
    against the exact solver's run on the same inputs."""
    if (
        reference_cost is not None
        and reference_cost > 0
        and math.isfinite(result.decision_cost)
    ):
        normalized = result.decision_cost / reference_cost
    else:
        normalized = float("nan")
    return {
        "scenario": scenario_name,
        "algorithm": algo,
        "seed": seed,
        "verdict": result.verdict,
        "requests": result.request_count,
        "placed": len(result.placements),
        "failed": len(result.failed),
        "unplaced": len(result.unplaced),
        "migrations": result.counters.migrations,
        "push_downs": result.counters.push_downs,
        "messages": result.counters.total_messages(),
        "bytes_per_request": overhead_per_request(
            result.counters, result.request_count
        ),
        "decision_cost": result.decision_cost,
        "normalized_cost": normalized,
        "migration_cost": result.migration_cost,
        "placement_cost": result.final_placement_cost,
        "comm_cost": result.comm_cost,
        "end_time": result.end_time,
    }


def metrics_rows_for(
    scenario: Scenario,
    algos: Sequence[str],
    seed: int,
    *,
    event_budget: int = EVENT_BUDGET,
    bnb_budget: int = NODE_BUDGET,
    check_invariants: bool = False,
    normalize: bool = True,
) -> tuple[list[dict[str, Any]], dict[str, RunResult]]:
    """Run every requested algorithm once and build their report rows.

    Also runs the exact solver as the normalization reference when asked
    (reusing it if it is itself on the algorithm list).  A scenario whose
    trace has an arrival gets a row for every algorithm, also for a run
    that stopped before that arrival; one without gets no rows.
    """
    run = partial(
        run_scenario,
        scenario,
        event_budget=event_budget,
        bnb_budget=bnb_budget,
        check_invariants=check_invariants,
    )
    results: dict[str, RunResult] = {}
    reference_cost: float | None = None
    if normalize:
        reference = run("exact")
        if "exact" in algos:
            results["exact"] = reference
        if reference.verdict == "ok" and not reference.solver_exhausted:
            reference_cost = reference.decision_cost
    for algo in algos:
        if algo not in results:
            results[algo] = run(algo)
    has_arrival = any(ev.kind == "arrive" for ev in scenario.trace)
    rows = [
        metrics_row(scenario.name, algo, seed, results[algo], reference_cost)
        for algo in algos
        if has_arrival
    ]
    return rows, results


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.6f}"
    return str(value)


def render_rows(rows: Sequence[Mapping[str, Any]], fmt: str) -> str:
    """Serialize report rows deterministically as CSV or JSON."""
    if fmt == "json":
        cleaned = [
            {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in row.items()
            }
            for row in rows
        ]
        return json.dumps(cleaned, indent=2, sort_keys=True) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    columns: tuple[str, ...] = tuple(rows[0]) if rows else METRIC_FIELDS
    out = StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# golden replays


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of replaying a fixture against its frozen event log."""

    ok: bool
    diff: tuple[str, ...]
    result: RunResult


def _first_divergence(expected: Sequence[str], actual: Sequence[str]) -> list[str]:
    lines = zip_longest(expected, actual, fillvalue="<end of log>")
    for index, (exp, act) in enumerate(lines):
        if exp != act:
            return [
                f"first difference at event {index + 1}:",
                f"  expected: {exp}",
                f"  actual:   {act}",
            ]
    return []


def replay_fixture(name: str) -> ReplayOutcome:
    """Re-run a built-in fixture and compare its event log to the frozen
    one in ``golden_logs.GOLDEN_LOGS``."""
    golden_text = golden_logs.GOLDEN_LOGS.get(name)
    if golden_text is None:
        raise ValueError(
            f"no frozen log for {name!r}; choose one of "
            f"{sorted(golden_logs.GOLDEN_LOGS)}"
        )
    # the ``dapp`` run, invariants checked, that the golden log freezes
    result = run_scenario(builtin_scenario(name), "dapp", check_invariants=True)
    diff = _first_divergence(golden_text.splitlines(), result.event_log)
    return ReplayOutcome(ok=not diff, diff=tuple(diff), result=result)


# ---------------------------------------------------------------------------
# capacity search and signaling sweep


def min_cpu_for(
    algo: str,
    *,
    seed: int = 1,
    users: int = 12,
    p_rt: float = 0.5,
    levels: int = 4,
    arity: int = 2,
    family: str = "rand",
    event_budget: int = EVENT_BUDGET,
    bnb_budget: int = NODE_BUDGET,
) -> int:
    """Least leaf capacity at which ``algo`` serves the whole scenario; 0
    for a scenario without arrivals, which runs no probe.

    The search is :func:`min_cpu_binary_search` and its fixed bracket:
    doubling from 8 units, then bisecting to one unit; past 2**20 units it
    raises :class:`NoUpperBoundError`.  When the last probe ran, the error
    names that run's verdict and the event budget, since a run that read
    ``diverged`` ran out of events, not capacity.  The scenario, trace
    included, is built once per search at the family's default capacity.
    Both families build the profile tree (``scenarios.default_profile``),
    whose capacities follow ``model.tree_capacity``, so each probe runs the
    scenario on that same tree with the capacities of the probed leaf
    capacity (``Topology.with_capacities``): the workload is identical,
    only the capacities scale, and the tree's shape and path cache are
    shared by every probe.  A probe succeeds when the run's verdict is
    ``ok``: every request placed and none failed, which a search cut off by
    its budget can still reach when it holds a placement.

    A probe is answered without a run when the slot count (the exact
    solver's infeasibility certificate, prepared once per search) proves
    that no placement of the search's users fits at the probed capacity.
    That is sound because both families have arrivals only: an ``ok`` run
    ends with every user placed inside its reach, all at once, and any
    such placement also fits the slots.  So a rejected probe could never
    have read ``ok``, in any lane, and the probe sequence and the answer
    stay those of running every probe.

    A probe treats ``exact`` as a feasibility oracle: the solver stops at
    its first feasible placement instead of looking for the cheapest.  The
    verdict is the same as the full optimiser's only because both families
    hand every arrival to one epoch, so no later epoch starts from the
    placement chosen.
    """
    if family == "rand":
        make = rand_scenario
    elif family == "jitter":
        make = jittered_scenario
    else:
        raise ValueError(f"unknown scenario family {family!r}")
    scenario = make(seed=seed, users=users, p_rt=p_rt, levels=levels, arity=arity)
    if not any(ev.kind == "arrive" for ev in scenario.trace):
        return 0  # nobody to serve: no capacity needed, and no probe to run
    suffices = _arrival_slot_count(scenario)
    tree = scenario.topology
    last_run: tuple[int, str] | None = None  # None when the slot count answered

    def probe(leaf_capacity: int) -> bool:
        nonlocal last_run
        last_run = None
        topology = tree.with_capacities(
            {n: tree_capacity(tree.level(n), leaf_capacity) for n in tree.nodes}
        )
        if suffices is not None and not suffices(topology.capacity):
            return False
        simulator = build_simulator(
            replace(scenario, topology=topology),
            algo,
            event_budget=event_budget,
            bnb_budget=bnb_budget,
            first_solution=True,
        )
        verdict = simulator.run(scenario.trace).verdict
        last_run = (leaf_capacity, verdict)
        return verdict == "ok"

    try:
        return min_cpu_binary_search(probe)
    except NoUpperBoundError:
        if last_run is None:
            raise
        raise NoUpperBoundError(
            f"the search gave up at leaf capacity {last_run[0]}, whose run read "
            f"{last_run[1]} with an event budget of {event_budget}"
        ) from None


def _arrival_slot_count(scenario: Scenario) -> Callable[..., bool] | None:
    """The slot count of every user of an arrival-only trace, prepared once
    for all the probes of a search (see ``baselines._slot_count``).

    None when the trace has anything but arrivals, or when some user has no
    node that can host it: the runs then decide every probe.
    """
    topology, classes = scenario.topology, scenario.classes
    reaches: dict[tuple[int, int], tuple[int, ...]] = {}
    requests = []
    for ev in scenario.trace:
        if ev.kind != "arrive" or ev.poa is None or ev.class_id is None:
            return None
        key = (ev.poa, ev.class_id)
        if key not in reaches:
            reaches[key] = feasible_set_for(
                topology, ev.poa, classes[ev.class_id], scenario.rtt_by_level
            )
        requests.append(Request(ev.user, ev.class_id, ev.poa, reaches[key]))
    return _slot_count(topology, demand_table(topology, classes), requests)


def refuse_repeats(values: Iterable[Any], name: str) -> list[Any]:
    """``values`` as a list, refused with ``ValueError`` when an entry
    repeats: it would run again and report its rows twice."""
    values = list(values)
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{name} lists {value} more than once")
        seen.add(value)
    return values


def sweep_overhead(
    p_rt_grid: Sequence[float],
    t_ad_grid: Sequence[float],
    seeds: Iterable[int],
    *,
    users: int = 24,
    levels: int = 6,
    arity: int = 2,
    event_budget: int = EVENT_BUDGET,
    leaf_capacity: int | None = None,
) -> list[dict[str, Any]]:
    """Signaling cost of the protocol across class-mix and batching grids.

    Per seed, the tree is sized 10% above the least capacity the exact
    solver needs with every user in the tight class (the hardest mix), then
    each (share, window) grid point runs the protocol with the push-down
    window at four times the scan window.  ``leaf_capacity`` overrides the
    sizing step.  Rows are sorted, one per grid point and seed; a grid or
    ``seeds`` that repeats an entry is refused with ``ValueError``.
    """
    refuse_repeats(p_rt_grid, "p_rt_grid")
    refuse_repeats(t_ad_grid, "t_ad_grid")
    seeds = refuse_repeats(seeds, "seeds")
    # (window, timing) pairs, built first so a bad window fails before sizing
    windows = [(t, ProtocolTiming(t, push_down_window=4.0 * t)) for t in t_ad_grid]
    rows: list[dict[str, Any]] = []
    for seed in sorted(seeds):
        if leaf_capacity is None:
            base = min_cpu_for(
                "exact",
                seed=seed,
                users=users,
                p_rt=1.0,
                levels=levels,
                arity=arity,
                family="jitter",
                event_budget=event_budget,
            )
            capacity = max(1, math.ceil(1.10 * base))
        else:
            capacity = leaf_capacity
        for p_rt in p_rt_grid:
            for t_ad, timing in windows:
                scenario = jittered_scenario(
                    seed=seed,
                    users=users,
                    p_rt=p_rt,
                    leaf_capacity=capacity,
                    levels=levels,
                    arity=arity,
                    timing=timing,
                )
                result = run_scenario(
                    scenario, "dapp", event_budget=event_budget
                )
                rows.append(
                    {
                        "p_rt": p_rt,
                        "t_ad": t_ad,
                        "seed": seed,
                        "leaf_capacity": capacity,
                        "verdict": result.verdict,
                        "messages": result.counters.total_messages(),
                        "bytes_per_request": overhead_per_request(
                            result.counters, result.request_count
                        ),
                    }
                )
    rows.sort(key=lambda r: (r["p_rt"], r["t_ad"], r["seed"]))
    return rows
