"""Tests for the discrete-event engine: traces, links, metering, verdicts."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import edgeplace

from edgeplace.model import CostModel, ServiceClass, build_tree
from edgeplace.protocol import (
    PdAckMsg,
    PdRequestMsg,
    PuAckMsg,
    PuMsg,
    Record,
    SfsMsg,
)
from edgeplace.simnet import (
    Counters,
    EpochDecision,
    InvariantError,
    LinkModel,
    Simulator,
    TraceEvent,
    load_trace,
    message_bits,
    overhead_per_request,
    save_trace,
)
from edgeplace.baselines import exact_optimal
from edgeplace.scenarios import builtin_scenario, fig_two_tier_scenario, rand_scenario
from edgeplace.harness import build_simulator, run_scenario

from .oracles import wire_bits


# ---------------------------------------------------------------------------
# trace files


def test_load_trace_parses_arrive_move_depart(tmp_path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text(
        "time,user,poa,class\n"
        "0.0,7,3,1\n"
        "0.5,7,4,\n"
        "1.0,7,OUT,\n"
    )
    events = load_trace(path)
    assert events == [
        TraceEvent(0.0, 7, "arrive", 3, 1),
        TraceEvent(0.5, 7, "move", 4),
        TraceEvent(1.0, 7, "depart"),
    ]


def test_load_trace_rejects_unsorted_rows(tmp_path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text("time,user,poa,class\n1.0,1,3,0\n0.5,2,3,0\n")
    with pytest.raises(ValueError):
        load_trace(path)


def test_load_trace_rejects_classless_arrival(tmp_path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text("time,user,poa,class\n0.0,1,3,\n")
    with pytest.raises(ValueError):
        load_trace(path)


def test_load_trace_rejects_missing_columns(tmp_path) -> None:
    path = tmp_path / "trace.csv"
    path.write_text("when,who\n0.0,1\n")
    with pytest.raises(ValueError):
        load_trace(path)


def test_trace_round_trips_through_csv(tmp_path) -> None:
    events = [
        TraceEvent(0.0, 1, "arrive", 5, 0),
        TraceEvent(0.25, 2, "arrive", 6, 1),
        TraceEvent(0.5, 1, "move", 6),
        TraceEvent(0.75, 1, "depart"),
    ]
    path = tmp_path / "trace.csv"
    save_trace(path, events)
    assert load_trace(path) == events


# ---------------------------------------------------------------------------
# wire sizes


def test_message_bits_frozen_values() -> None:
    def pu(rid: int, feasible: tuple[int, ...]) -> Record:
        return Record(
            request_id=rid, class_id=0, origin=None, feasible=feasible, is_new=True
        )

    assert message_bits(PuAckMsg(acks=())) == 80  # bare header
    one = pu(1, (3, 1))
    assert message_bits(SfsMsg((one,), ())) == 146
    assert message_bits(SfsMsg((pu(1, (3, 1, 0)),), ())) == 158
    assert message_bits(SfsMsg((one,), (pu(2, (4, 1)),))) == 212
    assert message_bits(PuMsg((one,))) == 146
    assert message_bits(PuAckMsg(((one, True),))) == 95
    pd = Record(
        request_id=1,
        class_id=0,
        origin=None,
        feasible=(3,),
        is_new=True,
        beta_at_initiator=2,
    )
    assert message_bits(PdRequestMsg(initiator=0, deficit=4, records=(pd,))) == 167
    assert message_bits(PdAckMsg(initiator=0, deficit=4, acks=((pd, True),))) == 123


def test_message_bits_matches_field_sum_oracle() -> None:
    rng = random.Random(3)

    def pu(rid: int) -> Record:
        size = rng.randint(1, 6)
        return Record(
            request_id=rid,
            class_id=rng.randint(0, 3),
            origin=rng.choice([None, 0, 5]),
            feasible=tuple(range(size)),
            is_new=rng.random() < 0.5,
        )

    def pd(rid: int) -> Record:
        size = rng.randint(1, 6)
        return Record(
            request_id=rid,
            class_id=rng.randint(0, 3),
            origin=rng.choice([None, 0]),
            feasible=tuple(range(size)),
            is_new=True,
            beta_at_initiator=rng.randint(1, 20),
        )

    for _ in range(100):
        msgs = [
            SfsMsg(
                tuple(pu(i) for i in range(rng.randint(0, 4))),
                tuple(pu(10 + i) for i in range(rng.randint(0, 4))),
            ),
            PuMsg(tuple(pu(i) for i in range(rng.randint(0, 4)))),
            PuAckMsg(
                tuple((pu(i), rng.random() < 0.5) for i in range(rng.randint(0, 4)))
            ),
            PdRequestMsg(
                initiator=rng.randint(0, 6),
                deficit=rng.randint(-5, 30),
                records=tuple(pd(i) for i in range(rng.randint(0, 4))),
            ),
            PdAckMsg(
                initiator=rng.randint(0, 6),
                deficit=rng.randint(-5, 30),
                acks=tuple(
                    (pd(i), rng.random() < 0.5) for i in range(rng.randint(0, 4))
                ),
            ),
        ]
        for msg in msgs:
            assert message_bits(msg) == wire_bits(msg)


def test_link_delay_is_propagation_plus_serialization() -> None:
    link = LinkModel()
    assert link.propagation == pytest.approx(22e-6)
    assert link.capacity_bps == pytest.approx(10e6)
    assert link.delay(1000) == pytest.approx(22e-6 + 1000 / 10e6)
    assert link.delay(0) == pytest.approx(22e-6)


# ---------------------------------------------------------------------------
# overhead accounting


def test_overhead_is_nan_without_triggers() -> None:
    assert math.isnan(overhead_per_request(Counters(), 0))


def test_overhead_counts_bytes_per_trigger() -> None:
    counters = Counters(bits={"SfsMsg": 158, "PuAckMsg": 95})
    assert overhead_per_request(counters, 1) == pytest.approx(253 / 8)
    counters.criticals = 1  # a forced relocation also counts as a trigger
    assert overhead_per_request(counters, 1) == pytest.approx(253 / 16)


def test_counters_totals() -> None:
    counters = Counters(
        messages={"SfsMsg": 2, "PuMsg": 1}, bits={"SfsMsg": 300, "PuMsg": 150}
    )
    assert counters.total_messages() == 3
    assert counters.total_bits() == 450


# ---------------------------------------------------------------------------
# small worlds used by the engine tests


def _unit_class() -> ServiceClass:
    return ServiceClass(
        class_id=0, name="unit", max_delay=1.0, cpu_demand={0: 1, 1: 1, 2: 1}
    )


def _world(capacity_overrides: dict[int, int]) -> Simulator:
    """Three-level binary tree with selected capacities zeroed out."""
    topology = build_tree(
        levels=3, arity=2, leaf_capacity=2, capacity_overrides=capacity_overrides
    )
    costs = CostModel(migration_cost={0: 5.0}, placement_cost={0: {0: 3.0, 1: 2.0, 2: 1.0}})
    return Simulator(
        topology,
        {0: _unit_class()},
        costs,
        {0: 0.001, 1: 0.002, 2: 0.003},
        check_invariants=True,
    )


def test_engine_rejects_bad_configuration() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    svc = _unit_class()
    costs = CostModel(migration_cost={0: 1.0}, placement_cost={0: {0: 1.0, 1: 1.0}})
    with pytest.raises(ValueError):
        Simulator(topo, {0: svc}, costs, {0: 0.001, 1: 0.002}, mode="psychic")
    with pytest.raises(ValueError):
        Simulator(topo, {0: svc}, costs, {0: 0.001, 1: 0.002}, mode="centralized")


def test_arrival_with_no_reachable_datacenter_raises() -> None:
    sim = _world({})
    hopeless = ServiceClass(class_id=1, name="nope", max_delay=0.0, cpu_demand={0: 1})
    sim.classes[1] = hopeless
    with pytest.raises(ValueError):
        sim.run([TraceEvent(0.0, 1, "arrive", 3, 1)])


def test_double_arrival_raises() -> None:
    sim = _world({})
    with pytest.raises(ValueError):
        sim.run(
            [TraceEvent(0.0, 1, "arrive", 3, 0), TraceEvent(0.1, 1, "arrive", 4, 0)]
        )


def test_unknown_trace_kind_raises() -> None:
    sim = _world({})
    with pytest.raises(ValueError):
        sim.run([TraceEvent(0.0, 1, "teleport", 3, 0)])


def test_empty_trace_runs_to_an_empty_ok_report() -> None:
    sim = _world({})
    result = sim.run([])
    assert result.verdict == "ok"
    assert result.placements == {}
    assert result.request_count == 0
    assert result.counters.total_messages() == 0
    assert result.decision_cost == 0.0
    assert math.isnan(result.overhead_bytes_per_request)


def test_in_reach_move_is_not_critical() -> None:
    # leaves have no capacity, so the service lands high in the tree and a
    # hop between sibling leaves keeps the host reachable
    sim = _world({3: 0, 4: 0, 5: 0, 6: 0})
    result = sim.run(
        [TraceEvent(0.0, 1, "arrive", 3, 0), TraceEvent(0.01, 1, "move", 4)]
    )
    assert result.verdict == "ok"
    assert result.counters.criticals == 0
    assert result.counters.migrations == 0
    host = result.placements[1]
    assert host in (0, 1)  # somewhere above both leaves


def test_out_of_reach_move_relocates_the_service() -> None:
    # only leaves have capacity: a hop to a sibling strands the old host
    sim = _world({0: 0, 1: 0, 2: 0})
    result = sim.run(
        [TraceEvent(0.0, 1, "arrive", 3, 0), TraceEvent(0.01, 1, "move", 4)]
    )
    assert result.verdict == "ok"
    assert result.placements == {1: 4}
    assert result.counters.criticals == 1
    assert result.counters.migrations == 1
    assert result.migration_cost == pytest.approx(5.0)
    # the old host's capacity came back
    assert sim._capacity_used[3] == 0


def test_move_back_cancels_inflight_relocation() -> None:
    sim = _world({0: 0, 1: 0, 2: 0})
    result = sim.run(
        [
            TraceEvent(0.0, 1, "arrive", 3, 0),
            TraceEvent(0.01, 1, "move", 4),
            # back before the re-placement decision lands (scan waits 100 us)
            TraceEvent(0.01005, 1, "move", 3),
        ]
    )
    assert result.verdict == "ok"
    assert result.placements == {1: 3}
    assert result.counters.migrations == 0
    assert result.counters.criticals == 1
    assert result.unplaced == ()


def test_stranded_relocation_ends_infeasible() -> None:
    # a centralized strategy that only ever places brand-new services: the
    # relocation never lands, so the run must not report success
    def new_only(problem):
        return EpochDecision(
            placement={
                svc.request_id: svc.poa
                for svc in problem.services
                if svc.movable and svc.is_new
            }
        )

    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    costs = CostModel(migration_cost={0: 1.0}, placement_cost={0: {0: 2.0, 1: 1.0}})
    sim = Simulator(
        topo,
        {0: _unit_class()},
        costs,
        {0: 0.001, 1: 0.002},
        mode="centralized",
        algorithm=new_only,
        check_invariants=True,
    )
    result = sim.run(
        [TraceEvent(0.0, 1, "arrive", 1, 0), TraceEvent(1.5, 1, "move", 2)]
    )
    assert result.verdict == "infeasible"
    assert result.unplaced == (1,)


def test_exhausted_budget_with_answer_keeps_run_alive() -> None:
    def cutoff_but_solved(problem):
        return EpochDecision(
            placement={svc.request_id: svc.poa for svc in problem.services},
            solved=True,
            exhausted_budget=True,
        )

    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    costs = CostModel(migration_cost={0: 1.0}, placement_cost={0: {0: 2.0, 1: 1.0}})
    sim = Simulator(
        topo,
        {0: _unit_class()},
        costs,
        {0: 0.001, 1: 0.002},
        mode="centralized",
        algorithm=cutoff_but_solved,
    )
    result = sim.run([TraceEvent(0.0, 1, "arrive", 1, 0)])
    assert result.verdict == "ok"
    assert result.solver_exhausted


def test_exhausted_budget_without_answer_diverges() -> None:
    def cutoff_empty(problem):
        return EpochDecision(placement={}, solved=False, exhausted_budget=True)

    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    costs = CostModel(migration_cost={0: 1.0}, placement_cost={0: {0: 2.0, 1: 1.0}})
    sim = Simulator(
        topo,
        {0: _unit_class()},
        costs,
        {0: 0.001, 1: 0.002},
        mode="centralized",
        algorithm=cutoff_empty,
    )
    result = sim.run([TraceEvent(0.0, 1, "arrive", 1, 0)])
    assert result.verdict == "diverged"
    assert not result.solver_exhausted


def test_epoch_moves_may_pass_through_a_node_the_decision_frees() -> None:
    # On these seeds first fit moves a service onto a node that a later
    # move of the same decision (in request-id order) frees.
    for seed in (3, 7, 13):
        scenario = builtin_scenario("synth", seed=seed)
        result = run_scenario(scenario, "ffit", check_invariants=True)
        assert result.verdict == "ok", seed


def test_epoch_decision_over_capacity_raises() -> None:
    def crowd_one_leaf(problem):
        return EpochDecision(placement={svc.request_id: 1 for svc in problem.services})

    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    costs = CostModel(migration_cost={0: 1.0}, placement_cost={0: {0: 2.0, 1: 1.0}})
    sim = Simulator(
        topo,
        {0: _unit_class()},
        costs,
        {0: 0.001, 1: 0.002},
        mode="centralized",
        algorithm=crowd_one_leaf,
    )
    trace = [TraceEvent(0.0, 1, "arrive", 1, 0), TraceEvent(0.0, 2, "arrive", 1, 0)]
    with pytest.raises(InvariantError, match="capacity breached at s1"):
        sim.run(trace)


def _counting_exact(scenario, calls: list[bool]) -> Simulator:
    """A centralized world whose solver notes each call's verdict."""

    def counting(problem):
        decision = exact_optimal(problem)
        calls.append(decision.solved)
        return decision

    return Simulator(
        scenario.topology,
        scenario.classes,
        scenario.costs,
        scenario.rtt_by_level,
        mode="centralized",
        algorithm=counting,
        check_invariants=True,
    )


def test_failed_epoch_is_not_solved_again_on_unchanged_inputs() -> None:
    # Every epoch (t = 0, 1, 2) has the same 24 requests and no room for
    # them: one solve answers all three.
    scenario = rand_scenario(1, leaf_capacity=100)
    calls: list[bool] = []
    result = _counting_exact(scenario, calls).run(scenario.trace)
    assert calls == [False]
    assert result.verdict == "infeasible"
    assert result.placements == {}
    assert len(result.event_log) == 24
    assert all(" arrive r" in line for line in result.event_log)


def test_failed_epoch_reuse_keeps_the_run_unchanged() -> None:
    # Half the users arrive at t=1.5: epoch 0 places the first half, epoch
    # 2 cannot place the rest, and epoch 3 sees the same problem again.
    base = rand_scenario(1, leaf_capacity=180)
    trace = tuple(
        dataclasses.replace(ev, time=1.5) if ev.user >= 12 else ev
        for ev in base.trace
    )
    calls: list[bool] = []
    result = _counting_exact(base, calls).run(trace)
    assert calls == [True, False]
    assert result.verdict == "infeasible"
    assert len(result.placements) == 12
    # the event log is the one a solver call at every epoch produces
    assert (
        hashlib.sha256("\n".join(result.event_log).encode()).hexdigest()
        == "8c406b0e059c8fdf83c7d3a7572d37158b097fe1dc861dde57f14d0752fba6da"
    )


def test_tiny_event_budget_diverges() -> None:
    sim = _world({})
    sim.event_budget = 2
    result = sim.run(
        [TraceEvent(0.0, 1, "arrive", 3, 0), TraceEvent(0.0, 2, "arrive", 4, 0)]
    )
    assert result.verdict == "diverged"


def test_run_honours_until_cutoff() -> None:
    scenario = fig_two_tier_scenario()
    sim = build_simulator(scenario, "dapp")
    result = sim.run(scenario.trace, until=0.005)
    assert result.end_time <= 0.005
    # later trace entries never executed
    assert 2 not in result.placements


# ---------------------------------------------------------------------------
# delivery order and delay


def test_link_serializes_and_delivers_in_order() -> None:
    sim = _world({})
    big = SfsMsg(
        tuple(
            Record(
                request_id=i, class_id=0, origin=None, feasible=(3, 1, 0), is_new=True
            )
            for i in range(3)
        ),
        (),
    )
    small = PuAckMsg(acks=())
    sim.send(3, 1, big)
    sim.send(3, 1, small)
    deliveries = sorted(
        (time, data[2]) for time, _seq, kind, data in sim._heap if kind == "deliver"
    )
    big_bits, small_bits = message_bits(big), message_bits(small)
    expected_first = big_bits / 10e6 + 22e-6
    expected_second = (big_bits + small_bits) / 10e6 + 22e-6
    assert deliveries[0][0] == pytest.approx(expected_first)
    assert deliveries[0][1] is big
    # the small message waited for the transmitter, so FIFO order holds
    assert deliveries[1][0] == pytest.approx(expected_second)
    assert deliveries[1][1] is small


def test_same_time_events_run_in_schedule_order() -> None:
    sim = _world({})
    result = sim.run(
        [TraceEvent(0.0, 1, "arrive", 3, 0), TraceEvent(0.0, 2, "arrive", 4, 0)]
    )
    first = next(line for line in result.event_log if "arrive" in line)
    assert "r1" in first


# ---------------------------------------------------------------------------
# invariant checking


def test_assert_invariants_catches_capacity_corruption() -> None:
    sim = _world({})
    sim.run([TraceEvent(0.0, 1, "arrive", 3, 0)])
    sim.assert_invariants()  # clean run passes
    sim._capacity_used[3] = sim.topology.capacity(3) + 1
    with pytest.raises(AssertionError):
        sim.assert_invariants()


_CORRUPT_CAPACITY = """
import sys
from edgeplace.harness import build_simulator
from edgeplace.scenarios import fig_two_tier_scenario
from edgeplace.simnet import InvariantError

print("debug", __debug__)
scenario = fig_two_tier_scenario()
sim = build_simulator(scenario, "dapp")
sim.run(scenario.trace)
sim.assert_invariants()
sim._capacity_used[3] = sim.topology.capacity(3) + 1
try:
    sim.assert_invariants()
except InvariantError as err:
    print("caught", err)
try:
    sim.commit_placement(2, 1, from_reservation=False)  # s1 is full
except InvariantError as err:
    print("caught", err)
"""


def test_assert_invariants_survives_optimized_python() -> None:
    src = str(Path(edgeplace.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_CAPACITY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        "caught capacity breached at s3",
        "caught capacity breach at s1 placing r2",
    ]


def test_assert_invariants_catches_availability_drift() -> None:
    sim = _world({})
    sim.run([TraceEvent(0.0, 1, "arrive", 3, 0)])
    sim.nodes[5].available -= 1
    with pytest.raises(AssertionError):
        sim.assert_invariants()


# ---------------------------------------------------------------------------
# the walkthrough scenarios, end to end


def test_two_tier_walkthrough_relocates_exactly_once() -> None:
    scenario = builtin_scenario("fig2")
    sim = build_simulator(scenario, "dapp", check_invariants=True)
    result = sim.run(scenario.trace)
    assert result.verdict == "ok"
    # r3 departed mid-run; everyone else is served
    assert result.placements == {0: 0, 1: 3, 2: 4, 4: 1}
    assert result.counters.migrations == 1
    assert result.counters.push_downs == 1
    assert result.counters.failures == 0
    assert result.migration_cost == pytest.approx(10.0)
    assert result.final_placement_cost == pytest.approx(9.0)
    # the push-down moved r1 from the middle node down to a leaf, once
    migrations = [line for line in result.event_log if "migrated" in line]
    assert len(migrations) == 1 and "place r1 (migrated from s1)" in migrations[0]
    # the late arrival was placed directly by the quarantine-mode scan
    assert any("f-scan place r4" in line for line in result.event_log)


def test_flat_walkthrough_pushes_two_tenants_down() -> None:
    scenario = builtin_scenario("fig3")
    sim = build_simulator(scenario, "dapp", check_invariants=True)
    result = sim.run(scenario.trace)
    assert result.verdict == "ok"
    assert result.placements == {1: 1, 2: 2, 3: 3, 4: 4, 5: 0, 6: 0}
    assert result.counters.migrations == 2
    assert result.counters.push_downs == 1
    assert result.counters.messages == {
        "SfsMsg": 5,
        "PuMsg": 2,
        "PuAckMsg": 2,
        "PdRequestMsg": 2,
        "PdAckMsg": 2,
    }
    assert result.decision_cost == pytest.approx(36.0)
    # deficit narrative: two stuck services, one spare unit, then relief
    deficits = [line for line in result.event_log if "deficit=" in line]
    assert "deficit=3" in deficits[0]


def test_runs_are_deterministic() -> None:
    scenario = builtin_scenario("fig3")
    results = []
    for _ in range(2):
        sim = build_simulator(scenario, "dapp")
        results.append(sim.run(scenario.trace))
    assert results[0].event_log == results[1].event_log
    assert results[0].placements == results[1].placements
    assert results[0].counters.messages == results[1].counters.messages
