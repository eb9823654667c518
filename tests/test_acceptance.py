"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with ``python3 -m pytest -s tests/test_acceptance.py`` to see the lines;
every test is also a normal pytest assertion, so the suite doubles as CI.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from typing import Iterator

from edgeplace.baselines import ALGORITHMS, exact_optimal
from edgeplace.harness import (
    build_simulator,
    metrics_rows_for,
    min_cpu_for,
    render_rows,
    replay_fixture,
    run_scenario,
    sweep_overhead,
)
from edgeplace.model import (
    CostModel,
    Request,
    ServiceClass,
    build_tree,
    check_feasible,
    feasible_set_for,
)
from edgeplace.scenarios import (
    builtin_scenario,
    fig_two_tier_scenario,
    rand_scenario,
    synth_scenario,
)
from edgeplace.simnet import ActiveService, EpochProblem

from .oracles import enumerate_optimal, mean, naive_highest_first


@contextmanager
def criterion(label: str) -> Iterator[None]:
    """Print the one-line verdict for an acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"FAIL: {label}")
        raise
    print(f"PASS: {label}")


# ---------------------------------------------------------------------------
# 1. flat-tree walkthrough: the push-down narrative replays exactly


def test_flat_walkthrough_replay() -> None:
    with criterion(
        "flat-tree walkthrough replays its frozen log, deficit 3 -> 1 -> -1"
    ):
        started = time.monotonic()
        outcome = replay_fixture("fig3")
        assert outcome.ok, outcome.diff
        result = outcome.result
        assert result.verdict == "ok"
        # the push-down resolves exactly as narrated: two services pushed
        # to their access leaves, the stuck pair hosted at the initiator
        assert result.placements[2] == 2
        assert result.placements[3] == 3
        assert result.placements[5] == 0
        assert result.placements[6] == 0
        # the deficit opening the push-down, then as each ack reports it
        deficits = [
            args[0] if template.startswith("pd start") else args[1]
            for _time, _node, template, args in result.event_log.events()
            if template.startswith(("pd start", "pd ack ->"))
        ]
        assert deficits == [3, 1, -1]
        # the first leaf holds its own tenant and is never asked to help
        assert not any(
            "pd" in line and "-> s1" in line for line in result.event_log
        )
        assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# 2. unit-capacity walkthrough: naive fails, the protocol does not oscillate


def test_two_tier_walkthrough_suite() -> None:
    with criterion(
        "unit-capacity walkthrough: naive placement fails, protocol places "
        "all, one relocation, no oscillation after churn"
    ):
        started = time.monotonic()
        scenario = fig_two_tier_scenario()

        # (a) placing each arrival as high as possible strands the fourth
        demand = {0: {0: 1, 1: 1, 2: 1}}
        arrivals = [
            (0, 0, (5, 2, 0)),
            (1, 0, (3, 1, 0)),
            (2, 0, (4, 1, 0)),
            (3, 0, (4, 1, 0)),
        ]
        naive = naive_highest_first(scenario.topology, demand, arrivals)
        assert naive[0] is not None and naive[1] is not None and naive[2] is not None
        assert naive[3] is None

        # (b) the protocol serves all four, relocating exactly one service
        early = build_simulator(scenario, "dapp").run(
            [ev for ev in scenario.trace if ev.time < 0.035]
        )
        assert early.end_time < 0.035
        assert early.placements == {0: 0, 1: 3, 2: 4, 3: 1}
        assert early.counters.push_downs == 1
        assert early.counters.migrations == 1

        # (d/e) after the departure and the late arrival, the newcomer is
        # absorbed directly: still one push-down, one relocation, and the
        # whole run matches the frozen log event for event
        outcome = replay_fixture("fig2")
        assert outcome.ok, outcome.diff
        result = outcome.result
        assert result.verdict == "ok"
        assert result.placements == {0: 0, 1: 3, 2: 4, 4: 1}
        assert result.counters.push_downs == 1
        assert result.counters.migrations == 1
        assert not result.failed
        assert len(result.event_log) == 90
        assert dict(result.counters.messages) == {
            "SfsMsg": 9,
            "PuMsg": 3,
            "PuAckMsg": 3,
            "PdRequestMsg": 2,
            "PdAckMsg": 2,
        }
        assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# 3. linear bound on protocol messages at quiescence


def test_message_count_bound() -> None:
    with criterion(
        "message count stays within 8 x (requests + relocations) x nodes "
        "over 100 random quiesced runs"
    ):
        rng = random.Random(2024)
        for index in range(100):
            levels = rng.choice((3, 4, 5, 6))
            users = rng.randint(8, 32)
            p_rt = rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
            seed = index + 1
            if index % 2 == 0:
                scenario = rand_scenario(
                    seed=seed, users=users, p_rt=p_rt, levels=levels,
                    leaf_capacity=600,
                )
            else:
                scenario = synth_scenario(
                    seed=seed, users=users, p_rt=p_rt, levels=levels,
                    leaf_capacity=600,
                )
            nodes = len(scenario.topology.nodes)
            assert nodes <= 63 and users <= 50
            result = run_scenario(scenario, "dapp")
            assert result.verdict == "ok", (index, result.verdict)
            triggers = result.request_count + result.counters.criticals
            bound = 8 * triggers * nodes
            assert result.counters.total_messages() <= bound, index


# ---------------------------------------------------------------------------
# 4. feasibility safety under randomized interleavings


def _final_requests(scenario) -> dict[int, Request]:
    """Replay the trace independently: each live user's final attachment."""
    live: dict[int, Request] = {}
    for event in scenario.trace:
        if event.kind == "arrive":
            live[event.user] = Request(
                request_id=event.user,
                class_id=event.class_id,
                poa=event.poa,
                feasible=feasible_set_for(
                    scenario.topology,
                    event.poa,
                    scenario.classes[event.class_id],
                    scenario.rtt_by_level,
                ),
            )
        elif event.kind == "move":
            old = live[event.user]
            live[event.user] = Request(
                request_id=old.request_id,
                class_id=old.class_id,
                poa=event.poa,
                feasible=feasible_set_for(
                    scenario.topology,
                    event.poa,
                    scenario.classes[old.class_id],
                    scenario.rtt_by_level,
                ),
            )
        else:
            del live[event.user]
    return live


def test_feasibility_safety() -> None:
    with criterion(
        "every reached placement is latency- and capacity-feasible across "
        "1000 randomized runs"
    ):
        checked = 0
        for seed in range(1, 501):
            for family in ("rand", "synth"):
                scenario = builtin_scenario(
                    family, seed=seed, users=14, leaf_capacity=400
                )
                # per-event bookkeeping assertions run inside the simulator
                result = run_scenario(scenario, "dapp", check_invariants=True)
                assert result.verdict in ("ok", "infeasible"), (family, seed)
                requests = _final_requests(scenario)
                assert set(result.placements) <= set(requests), (family, seed)
                # services still mid-relocation at the cut count as unplaced;
                # everything that settled must sit inside its final reach
                settled = {
                    rid: host
                    for rid, host in result.placements.items()
                    if rid not in set(result.unplaced)
                }
                report = check_feasible(
                    scenario.topology, scenario.classes, requests, settled
                )
                assert not report.violations, (family, seed, report)
                assert set(report.unplaced) <= set(result.unplaced)
                if result.verdict == "ok":
                    assert report.ok, (family, seed, report)
                checked += 1
        assert checked == 1000


# ---------------------------------------------------------------------------
# 5. the exact solver dominates every heuristic and matches enumeration


def test_exact_solver_dominance() -> None:
    with criterion(
        "exact solver equals exhaustive enumeration and lower-bounds every "
        "heuristic on 200 small problems"
    ):
        started = time.monotonic()
        rng = random.Random(99)
        heuristics = [n for n in sorted(ALGORITHMS) if n != "exact"]
        for index in range(200):
            levels = rng.randint(1, 3)
            topo = build_tree(levels=levels, arity=2, leaf_capacity=rng.randint(1, 5))
            assert len(topo.nodes) <= 7
            demand = {0: {lvl: rng.randint(1, 3) for lvl in range(levels)}}
            prices = {0: {lvl: float(rng.randint(1, 9)) for lvl in range(levels)}}
            migration = {0: float(rng.randint(0, 5))}
            klass = ServiceClass(0, "x", 1.0, demand[0])
            rtt = {lvl: 0.001 for lvl in range(levels)}
            services = []
            for rid in range(rng.randint(1, 8)):
                poa = rng.choice(topo.leaves)
                feas = feasible_set_for(topo, poa, klass, rtt)
                host = rng.choice(list(feas)) if rng.random() < 0.3 else None
                services.append(
                    ActiveService(
                        request_id=rid, class_id=0, poa=poa, feasible=feas,
                        current_host=host, movable=True,
                    )
                )
            problem = EpochProblem(
                topology=topo,
                classes={0: klass},
                costs=CostModel(migration_cost=migration, placement_cost=prices),
                services=tuple(services),
            )

            def cost_of(placement: dict[int, int]) -> float:
                total = 0.0
                for service in services:
                    node = placement[service.request_id]
                    total += prices[0][topo.level(node)]
                    if service.current_host is not None and service.current_host != node:
                        total += migration[0]
                return total

            best = enumerate_optimal(
                topo, demand, prices, migration,
                [(s.request_id, 0, s.feasible, s.current_host) for s in services],
            )
            decision = exact_optimal(problem)
            if best is None:
                assert not decision.solved, index
                continue
            assert decision.solved, index
            exact_cost = cost_of(dict(decision.placement))
            assert math.isclose(exact_cost, best[0]), index
            for name in heuristics:
                placement = dict(ALGORITHMS[name](problem).placement)
                if set(placement) == {s.request_id for s in services}:
                    assert cost_of(placement) >= exact_cost - 1e-9, (index, name)
        assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# 6. least-capacity ordering across algorithms


def test_capacity_ordering() -> None:
    with criterion(
        "least capacity: exact <= bottom-up <= first-fit, protocol within "
        "15% of bottom-up, on 20 scenarios"
    ):
        for seed in range(1, 21):
            needs = {
                algo: min_cpu_for(
                    algo, seed=seed, users=24, p_rt=0.5, levels=4, arity=2,
                    family="rand",
                )
                for algo in ("exact", "bupu", "ffit", "dapp")
            }
            assert needs["exact"] <= needs["bupu"] <= needs["ffit"], (seed, needs)
            assert needs["dapp"] <= 1.15 * needs["bupu"], (seed, needs)


# ---------------------------------------------------------------------------
# 7. least capacity grows with the tight-class share


def test_capacity_monotone_in_tight_share() -> None:
    with criterion(
        "least capacity is non-decreasing in the tight-class share for "
        "every algorithm"
    ):
        shares = (0.0, 0.25, 0.5, 0.75, 1.0)
        seeds = (1, 2, 3, 4, 5)
        for algo in ("dapp",) + tuple(sorted(ALGORITHMS)):
            curve = [
                mean(
                    [
                        min_cpu_for(
                            algo, seed=seed, users=80, p_rt=share,
                            levels=4, arity=4, family="rand",
                        )
                        for seed in seeds
                    ]
                )
                for share in shares
            ]
            assert all(
                earlier <= later for earlier, later in zip(curve, curve[1:])
            ), (algo, curve)


# ---------------------------------------------------------------------------
# 8. signaling overhead: bounded and monotone over both sweep grids


def test_signaling_overhead_envelope() -> None:
    with criterion(
        "per-request signaling lies in [10, 1000] bytes and shrinks with "
        "both the tight-class share and the batching window"
    ):
        shares = (0.0, 0.25, 0.5, 0.75, 1.0)
        windows = (1e-5, 5e-5, 1e-4, 4e-4)
        rows = sweep_overhead(
            shares, windows, seeds=(1, 2, 3), users=24, levels=6,
            leaf_capacity=600,
        )
        assert all(row["verdict"] == "ok" for row in rows)
        cells: dict[tuple[float, float], float] = {}
        for share in shares:
            for window in windows:
                cells[(share, window)] = mean(
                    [
                        row["bytes_per_request"]
                        for row in rows
                        if row["p_rt"] == share and row["t_ad"] == window
                    ]
                )
        for value in cells.values():
            assert 10.0 <= value <= 1000.0, cells
        for window in windows:
            for low, high in zip(shares, shares[1:]):
                assert cells[(high, window)] <= cells[(low, window)] + 1e-9
        for share in shares:
            for short, wide in zip(windows, windows[1:]):
                assert cells[(share, wide)] <= cells[(share, short)] + 1e-9


# ---------------------------------------------------------------------------
# 9. byte-identical reports on identical inputs


def test_deterministic_reports() -> None:
    with criterion("identical config and seed give byte-identical reports"):
        def run_report() -> str:
            rows = []
            for seed in (1, 2):
                scenario = rand_scenario(seed=seed, users=12, levels=3)
                seed_rows, _ = metrics_rows_for(
                    scenario, ["dapp", "exact", "ffit"], seed
                )
                rows.extend(seed_rows)
            return render_rows(rows, "csv")

        def run_sweep() -> str:
            rows = sweep_overhead(
                (0.5,), (1e-4,), seeds=(1,), users=6, levels=3,
                leaf_capacity=600,
            )
            return render_rows(rows, "csv")

        assert run_report() == run_report()
        assert run_sweep() == run_sweep()
