"""Tests for the discrete-event engine: traces, links, metering, verdicts."""

from __future__ import annotations

import ast
import gc
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Callable, Collection, Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edgeplace

from edgeplace.model import (
    CostModel,
    Request,
    ServiceClass,
    build_tree,
    check_feasible,
    feasible_set_for,
)
from edgeplace.protocol import (
    ACTIVE_STATES,
    PdAckMsg,
    PdRequestMsg,
    ProtocolNode,
    PuAckMsg,
    PuMsg,
    Record,
    SfsMsg,
)
from edgeplace.simnet import (
    DEPARTED_POA,
    ActiveService,
    Counters,
    EpochDecision,
    EpochProblem,
    EventLog,
    InvariantError,
    LinkModel,
    Simulator,
    TraceEvent,
    load_trace,
    message_bits,
    overhead_per_request,
)
from edgeplace.baselines import exact_optimal, first_fit
from edgeplace.scenarios import (
    Scenario,
    builtin_scenario,
    default_profile,
    fig_two_tier_scenario,
    rand_scenario,
    synth_scenario,
    synthesize_trace,
)
from edgeplace.harness import ALGO_CHOICES, build_simulator, run_scenario

from .oracles import child_towards, subtree_count_order, wire_bits


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
    path.write_text(
        "time,user,poa,class\n"
        "0.000000,1,5,0\n"
        "0.250000,2,6,1\n"
        "0.500000,1,6,\n"
        "0.750000,1,OUT,\n"
    )
    assert load_trace(path) == events


# ---------------------------------------------------------------------------
# wire sizes


def test_message_bits_frozen_values() -> None:
    def pu(rid: int, feasible: tuple[int, ...]) -> Record:
        return Record(request_id=rid, class_id=0, origin=None, feasible=feasible)

    assert message_bits(PuAckMsg(acks=())) == 80  # bare header
    one = pu(1, (3, 1))
    assert message_bits(SfsMsg((one,))) == 146
    assert message_bits(SfsMsg((pu(1, (3, 1, 0)),))) == 158
    assert message_bits(SfsMsg((one, pu(2, (4, 1))))) == 212
    assert message_bits(PuMsg((one,))) == 146
    assert message_bits(PuAckMsg(((one, True),))) == 95
    pd = Record(
        request_id=1,
        class_id=0,
        origin=None,
        feasible=(3,),
        beta_at_initiator=2,
    )
    assert message_bits(PdRequestMsg(initiator=0, deficit=4, records=(pd,))) == 167
    assert message_bits(PdAckMsg(initiator=0, deficit=4, acks=((pd, True),))) == 123


@pytest.mark.parametrize(
    "value",
    [
        Request(1, 0, 3, (3, 1)),
        ActiveService(1, 0, 3, (3, 1), None, True),
        Record(1, 0, None, (3, 1)),
        TraceEvent(0.5, 1, "arrive", 3, 0),
    ],
    ids=lambda value: type(value).__name__,
)
def test_hot_values_are_frozen_hashable_and_replace_one_field(value) -> None:
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 99)
    assert {value: 1}[type(value)(*value)] == 1
    marker = object()
    for name in value._fields:
        changed = value._replace(**{name: marker})
        assert type(changed) is type(value)
        assert [getattr(changed, f) for f in value._fields] == [
            marker if f == name else getattr(value, f) for f in value._fields
        ]


def test_an_active_service_leads_with_its_request_fields() -> None:
    # an epoch's service carries its request's fields first, in order
    assert ActiveService._fields[: len(Request._fields)] == Request._fields


def test_message_bits_refuses_an_unknown_message() -> None:
    with pytest.raises(TypeError, match="^unknown message object$"):
        message_bits(object())


def test_message_bits_matches_field_sum_oracle() -> None:
    rng = random.Random(3)

    def pu(rid: int) -> Record:
        size = rng.randint(1, 6)
        return Record(
            request_id=rid,
            class_id=rng.randint(0, 3),
            origin=rng.choice([None, 0, 5]),
            feasible=tuple(range(size)),
            current_host=rng.choice([None, 0, 5]),
        )

    def pd(rid: int) -> Record:
        size = rng.randint(1, 6)
        return Record(
            request_id=rid,
            class_id=rng.randint(0, 3),
            origin=rng.choice([None, 0]),
            feasible=tuple(range(size)),
            beta_at_initiator=rng.randint(1, 20),
        )

    for _ in range(100):
        msgs = [
            SfsMsg(
                tuple(pu(i) for i in range(rng.randint(0, 4)))
                + tuple(pu(10 + i) for i in range(rng.randint(0, 4)))
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
    sim = _world({})
    msg = SfsMsg((Record(request_id=1, class_id=0, origin=None, feasible=(3, 1)),))
    sim.send(3, 1, msg)
    ((arrival, _seq, _handler, args),) = sim._heap
    assert args == (3, msg)
    assert arrival == pytest.approx(22e-6 + message_bits(msg) / 10e6)


def test_a_link_without_propagation_delay_serves_the_walkthrough() -> None:
    fig2 = builtin_scenario("fig2")
    scenario = replace(fig2, link=LinkModel(propagation=0.0))
    assert run_scenario(scenario, "dapp", check_invariants=True).verdict == "ok"


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


def _scenario(topology, classes, costs, rtt_by_level) -> Scenario:
    return Scenario("test", topology, classes, costs, rtt_by_level, trace=())


def _world(capacity_overrides: dict[int, int]) -> Simulator:
    """Three-level binary tree with selected capacities zeroed out."""
    topology = build_tree(
        levels=3, arity=2, leaf_capacity=2, capacity_overrides=capacity_overrides
    )
    costs = CostModel(migration_cost={0: 5.0}, placement_cost={0: {0: 3.0, 1: 2.0, 2: 1.0}})
    return Simulator(
        _scenario(topology, {0: _unit_class()}, costs, {0: 0.001, 1: 0.002, 2: 0.003}),
        check_invariants=True,
    )


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


@pytest.mark.parametrize(
    "event",
    [
        TraceEvent(0.0, 1, "arrive", None, 0),
        TraceEvent(0.0, 1, "arrive", 3, None),
        TraceEvent(0.0, 1, "move", None),
    ],
)
def test_trace_event_missing_a_field_raises(event: TraceEvent) -> None:
    with pytest.raises(ValueError, match="lacks a PoA"):
        _world({}).run([event])


#: fig2's users 0-4 renamed to ids at the signed 64-bit edges and beyond
_WIDE_IDS = (1 << 63, -(1 << 63) - 1, 1 << 70, -(1 << 70), -(1 << 63))


@pytest.mark.parametrize("lane", ALGO_CHOICES)
def test_user_ids_of_any_size_run_and_log_exactly(tmp_path, lane: str) -> None:
    scenario = fig_two_tier_scenario()
    # two units a node, so that every lane places every user
    topology = scenario.topology
    topology = topology.with_capacities(dict.fromkeys(topology.nodes, 2))
    trace = tuple(ev._replace(user=_WIDE_IDS[ev.user]) for ev in scenario.trace)
    path = tmp_path / "wide.csv"
    path.write_text(
        "time,user,poa,class\n"
        + "".join(
            f"{ev.time},{ev.user},{DEPARTED_POA if ev.poa is None else ev.poa},"
            f"{'' if ev.class_id is None else ev.class_id}\n"
            for ev in trace
        )
    )
    assert tuple(load_trace(path)) == trace
    result = run_scenario(replace(scenario, topology=topology, trace=trace), lane)
    assert result.verdict == "ok" and result.request_count == len(_WIDE_IDS)
    assert set(result.placements) == set(_WIDE_IDS) - {_WIDE_IDS[3]}  # departed
    log = "\n".join(result.event_log)
    assert all(f"arrive r{user} class=0" in log for user in _WIDE_IDS)
    logged: set[int] = set()
    listed: set[int] = set()
    for *_, args in result.event_log.events():
        for arg in args:
            if isinstance(arg, tuple):
                listed.update(arg)
            else:
                logged.add(arg)
    assert set(_WIDE_IDS) <= logged
    if lane == "dapp":  # the scan lines list every request by id
        assert set(_WIDE_IDS) <= listed
        assert all(f"r{user}]" in log or f"r{user}," in log for user in _WIDE_IDS)


@pytest.mark.parametrize("lane", ALGO_CHOICES)
@pytest.mark.parametrize(
    "bad, message",
    [
        (TraceEvent(0.06, 9, "arrive", 5, 9), "trace uses class 9, which the"),
        (TraceEvent(0.06, 9, "arrive", 1, 0), "trace names PoA 1, which is not a"),
        (TraceEvent(0.06, 0, "move", 2), "trace names PoA 2, which is not a leaf"),
        (TraceEvent(0.06, 0, "move", 99), "trace names PoA 99, which is not a"),
        (TraceEvent(math.inf, 9, "arrive", 3, 0), "at time inf, which is not finite"),
        (TraceEvent(-math.inf, 9, "arrive", 3, 0), "at time -inf, which is not"),
        (TraceEvent(math.nan, 0, "depart"), "at time nan, which is not finite"),
        (TraceEvent(-0.5, 0, "depart"), "at time -0.5, before time 0"),
        (TraceEvent(0.06, 2, "arrive", 3, 0), "user 2 arrived twice"),
        (
            TraceEvent(0.06, 9, "arrive", 3, 1),
            r"user 9 \(class 1\) has no feasible datacenter at s3",
        ),
        (TraceEvent(0.06, 3, "move", 4), "user 3 has an event after departing"),
        (TraceEvent(0.06, 9, "depart"), "departure of user 9, who has not arrived"),
        (TraceEvent(0.06, 9, "move", 3), "move of user 9, who has not arrived"),
    ],
    ids=[
        "undefined-class",
        "arrival-at-inner-node",
        "move-to-inner-node",
        "far-poa",
        "inf-time",
        "minus-inf-time",
        "nan-time",
        "negative-time",
        "duplicate-arrival",
        "class-no-poa-can-host",
        "move-after-departure",
        "departure-before-arrival",
        "move-before-arrival",
    ],
)
def test_a_bad_trace_field_stops_every_lane_before_it_runs(
    lane: str, bad: TraceEvent, message: str
) -> None:
    scenario = _with_unhostable_class()
    sim = build_simulator(scenario, lane)
    with pytest.raises(ValueError, match=message):
        sim.run([*scenario.trace, bad])
    assert sim.counters.events == 0


def _with_unhostable_class() -> Scenario:
    """fig2, plus class 1, whose delay bound is below every round trip."""
    scenario = fig_two_tier_scenario()
    unhostable = ServiceClass(1, "unhostable", 0.0005, {0: 1, 1: 1, 2: 1})
    return replace(scenario, classes={**scenario.classes, 1: unhostable})


@pytest.mark.parametrize("lane", ALGO_CHOICES)
def test_the_first_arrival_in_a_class_without_reach_is_named(lane: str) -> None:
    # class 0, whose reach is not empty, arrives first; the reach is checked
    # once per class, at its first arrival, and class 1's first user is named
    scenario = _with_unhostable_class()
    trace = [
        *scenario.trace,
        TraceEvent(0.06, 7, "arrive", 6, 0),
        TraceEvent(0.07, 8, "arrive", 5, 1),
        TraceEvent(0.08, 9, "arrive", 3, 1),
    ]
    sim = build_simulator(scenario, lane)
    with pytest.raises(
        ValueError, match=r"^user 8 \(class 1\) has no feasible datacenter at s5$"
    ):
        sim.run(trace)
    assert sim.counters.events == 0


@pytest.mark.parametrize("lane", ALGO_CHOICES)
def test_a_late_class_without_reach_stops_the_run_before_it_starts(lane: str) -> None:
    # class 1 first appears after class 0's moves and departures
    scenario = _with_unhostable_class()
    trace = [
        *scenario.trace,
        TraceEvent(0.06, 1, "move", 4),
        TraceEvent(0.07, 2, "move", 6),
        TraceEvent(0.08, 2, "depart"),
        TraceEvent(0.09, 9, "arrive", 3, 1),
    ]
    sim = build_simulator(scenario, lane)
    with pytest.raises(ValueError, match=r"^user 9 \(class 1\) has no feasible"):
        sim.run(trace)
    assert sim.counters.events == 0
    assert sim.requests == {}


@pytest.mark.parametrize("lane", ALGO_CHOICES)
@pytest.mark.parametrize("time", ["inf", "-inf", "nan"])
def test_a_non_finite_time_in_a_trace_file_stops_every_lane_before_it_runs(
    tmp_path: Path, lane: str, time: str
) -> None:
    path = tmp_path / "trace.csv"
    path.write_text(f"time,user,poa,class\n{time},1,3,0\n")
    sim = build_simulator(fig_two_tier_scenario(), lane)
    with pytest.raises(ValueError, match=f"at time {time}, which is not finite"):
        sim.run(load_trace(path))
    assert sim.counters.events == 0


def test_empty_trace_runs_to_an_empty_ok_report() -> None:
    sim = _world({})
    result = sim.run([])
    assert result.verdict == "ok"
    assert result.placements == {}
    assert result.request_count == 0
    assert result.counters.total_messages() == 0
    assert result.decision_cost == 0.0
    assert math.isnan(overhead_per_request(result.counters, result.request_count))


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


def test_a_move_sets_the_attachment_of_the_same_row_in_place() -> None:
    sim = _world({0: 0, 1: 0, 2: 0})
    seen = []
    move = sim._on_move

    def noting_move(user: int, poa: int, class_id: None) -> None:
        row = sim.requests[user]
        move(user, poa, class_id)
        seen.append((row, row.poa, row.feasible, row.reached))

    sim._on_move = noting_move
    result = sim.run(
        [
            TraceEvent(0.0, 1, "arrive", 3, 0),
            TraceEvent(0.01, 1, "move", 4),
            TraceEvent(0.02, 1, "move", 5),
        ]
    )
    assert result.verdict == "ok"
    row = sim.requests[1]
    assert [entry[0] is row for entry in seen] == [True, True]
    # the reach from each PoA up to the root; reached is their union, in
    # the order the nodes were first reached
    assert [entry[1:] for entry in seen] == [
        (4, (4, 1, 0), (3, 1, 0, 4)),
        (5, (5, 2, 0), (3, 1, 0, 4, 5, 2)),
    ]
    assert (row.request_id, row.class_id) == (1, 0)


@pytest.mark.parametrize("lane", ALGO_CHOICES)
def test_final_placement_cost_sums_the_placement_prices_in_order(lane: str) -> None:
    # the cost rule, summed over the placements in their order, the float
    # the run reports
    scenario = _churn_scenario(1)
    sim = build_simulator(scenario, lane)
    result = sim.run(scenario.trace)
    level = scenario.topology.level
    expected = sum(
        (
            scenario.costs.place_price(sim.requests[rid].class_id, level(node))
            for rid, node in result.placements.items()
        ),
        0.0,
    )
    assert result.placements
    assert result.final_placement_cost == expected


@pytest.mark.parametrize("lane", ALGO_CHOICES)
def test_unserved_requests_are_listed_by_id_whatever_their_arrival_order(
    lane: str,
) -> None:
    # no node has room: the protocol fails every request, and an epoch
    # leaves every one unplaced
    scenario = _world({node: 0 for node in range(7)}).scenario
    users = (5, 2, 9)
    trace = [TraceEvent(0.01 * i, user, "arrive", 3, 0) for i, user in enumerate(users)]
    result = build_simulator(scenario, lane).run(trace)
    unserved = result.failed if lane == "dapp" else result.unplaced
    assert result.placements == {} and unserved == (2, 5, 9)
    assert len(result.unplaced + result.failed) == 3


def test_an_epoch_sees_each_service_at_its_trace_attachment() -> None:
    scenario = _churn_scenario(1)
    sim = build_simulator(scenario, "ffit")
    algorithm = sim.algorithm
    problems = moved = 0

    def checked(problem: EpochProblem) -> EpochDecision:
        nonlocal problems, moved
        # each user's class and PoA after the trace events up to now
        attached: dict[int, tuple[int, int]] = {}
        for ev in sorted(scenario.trace, key=lambda ev: ev.time):
            if ev.time > sim.now():
                break
            if ev.kind == "arrive":
                attached[ev.user] = (ev.class_id, ev.poa)
            elif ev.kind == "move":
                attached[ev.user] = (attached[ev.user][0], ev.poa)
            else:
                del attached[ev.user]
        rebuilt = []
        for rid, (cid, poa) in sorted(attached.items()):
            reach = feasible_set_for(
                scenario.topology, poa, scenario.classes[cid], scenario.rtt_by_level
            )
            req = sim.requests[rid]
            movable = req.state in ("waiting", "relocating")
            rebuilt.append(ActiveService(rid, cid, poa, reach, req.host, movable))
            moved += req.reached != reach
        assert problem.services == tuple(rebuilt)
        problems += 1
        return algorithm(problem)

    sim.algorithm = checked
    assert sim.run(scenario.trace).verdict == "ok"
    assert problems > 1 and moved > 0


def test_stranded_relocation_ends_infeasible() -> None:
    # a centralized strategy that only ever places brand-new services: the
    # relocation never lands, so the run must not report success
    def new_only(problem):
        return EpochDecision(
            placement={
                svc.request_id: svc.poa
                for svc in problem.services
                if svc.movable and svc.current_host is None
            }
        )

    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    costs = CostModel(migration_cost={0: 1.0}, placement_cost={0: {0: 2.0, 1: 1.0}})
    sim = Simulator(
        _scenario(topo, {0: _unit_class()}, costs, {0: 0.001, 1: 0.002}),
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
        _scenario(topo, {0: _unit_class()}, costs, {0: 0.001, 1: 0.002}),
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
        _scenario(topo, {0: _unit_class()}, costs, {0: 0.001, 1: 0.002}),
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


@pytest.mark.parametrize("algo", ["ffit", "bupu", "cpvnf", "multiscaler"])
def test_epoch_keeps_room_for_relocations_it_leaves_unplaced(algo: str) -> None:
    # Epochs here leave relocating services unplaced (at t=2.0 bupu leaves
    # r22 and r26 on s2): they keep their hosts, whose room is not free.
    scenario = synth_scenario(3, users=120, leaf_capacity=200)
    result = run_scenario(scenario, algo, check_invariants=True)
    assert result.counters.criticals > 0
    assert result.verdict == "infeasible" and result.failed == ()


def test_epoch_decision_over_capacity_raises() -> None:
    def crowd_one_leaf(problem):
        return EpochDecision(placement={svc.request_id: 1 for svc in problem.services})

    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    costs = CostModel(migration_cost={0: 1.0}, placement_cost={0: {0: 2.0, 1: 1.0}})
    sim = Simulator(
        _scenario(topo, {0: _unit_class()}, costs, {0: 0.001, 1: 0.002}),
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

    return Simulator(scenario, algorithm=counting, check_invariants=True)


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
        ev._replace(time=1.5) if ev.user >= 12 else ev
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


# ---------------------------------------------------------------------------
# delivery order and delay


def test_link_serializes_and_delivers_in_order() -> None:
    sim = _world({})
    big = SfsMsg(
        tuple(
            Record(request_id=i, class_id=0, origin=None, feasible=(3, 1, 0))
            for i in range(3)
        )
    )
    small = PuAckMsg(acks=())
    sim.send(3, 1, big)
    sim.send(3, 1, small)
    deliver = sim.nodes[1].on_message
    deliveries = sorted(
        (time, args[1]) for time, _seq, handler, args in sim._heap if handler == deliver
    )
    big_bits, small_bits = message_bits(big), message_bits(small)
    expected_first = big_bits / 10e6 + 22e-6
    expected_second = (big_bits + small_bits) / 10e6 + 22e-6
    assert deliveries[0][0] == pytest.approx(expected_first)
    assert deliveries[0][1] is big
    # the small message waited for the transmitter, so FIFO order holds
    assert deliveries[1][0] == pytest.approx(expected_second)
    assert deliveries[1][1] is small


def test_messages_that_tie_on_a_link_arrive_in_send_order() -> None:
    # Far from time 0 a message's transmission time vanishes in rounding,
    # so two messages sent at one instant leave the link at one time.
    sim = _world({})
    sim.link = LinkModel(capacity_bps=1e300)
    sim._now = 1e6
    first = SfsMsg((Record(request_id=1, class_id=0, origin=None, feasible=(3, 1)),))
    second = PuAckMsg(acks=())
    delivered: list[tuple[float, object]] = []
    sim.nodes[1].on_message = lambda _sender, msg: delivered.append((sim.now(), msg))
    sim.send(3, 1, first)
    sim.send(3, 1, second)
    sim.run([])
    assert [msg for _time, msg in delivered] == [first, second]
    assert delivered[0][0] == delivered[1][0] == 1e6 + sim.link.propagation


@pytest.mark.parametrize("lane", ALGO_CHOICES)
def test_a_link_too_fast_to_order_by_time_still_runs_to_a_verdict(lane: str) -> None:
    scenario = replace(
        builtin_scenario("rand", seed=1), link=LinkModel(capacity_bps=1e300)
    )
    result = run_scenario(scenario, lane)
    assert result.verdict in ("ok", "failure", "infeasible")
    assert result.request_count == 24


def test_same_time_events_run_in_schedule_order() -> None:
    sim = _world({})
    result = sim.run(
        [TraceEvent(0.0, 1, "arrive", 3, 0), TraceEvent(0.0, 2, "arrive", 4, 0)]
    )
    first = next(line for line in result.event_log if "arrive" in line)
    assert "r1" in first


@pytest.mark.parametrize("algo", ["dapp", "bupu"])
def test_a_trace_out_of_time_order_runs_as_its_sorted_copy(algo: str) -> None:
    scenario = _churn_scenario(1)
    shuffled = list(scenario.trace)
    random.Random(7).shuffle(shuffled)
    in_order = sorted(shuffled, key=lambda ev: ev.time)  # stable: ties keep order
    assert in_order != shuffled
    logs = [
        list(run_scenario(replace(scenario, trace=tuple(trace)), algo).event_log)
        for trace in (shuffled, in_order)
    ]
    assert logs[0] == logs[1] and len(logs[0]) > len(scenario.trace)


def test_an_arrival_at_an_epoch_instant_is_decided_by_that_epoch() -> None:
    # Trace events run before the scheduled events of their instant, so the
    # epoch at t = 1.0 already sees the arrival at t = 1.0.
    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    costs = CostModel(migration_cost={0: 1.0}, placement_cost={0: {0: 2.0, 1: 1.0}})
    sim = Simulator(
        _scenario(topo, {0: _unit_class()}, costs, {0: 0.001, 1: 0.002}),
        algorithm=first_fit,
    )
    result = sim.run(
        [TraceEvent(0.5, 1, "arrive", 1, 0), TraceEvent(1.0, 2, "arrive", 2, 0)]
    )
    assert result.verdict == "ok"
    assert list(result.event_log) == [
        "0.500000 s1 arrive r1 class=0",
        "1.000000 s2 arrive r2 class=0",
        "1.000000 s1 place r1",
        "1.000000 s2 place r2",
    ]


def test_an_epoch_skips_a_placement_of_a_request_that_has_left() -> None:
    # An algorithm passed to Simulator may name any request: the epoch
    # commits only the active ones.
    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    costs = CostModel(migration_cost={0: 1.0}, placement_cost={0: {0: 2.0, 1: 1.0}})

    def stale(problem: EpochProblem) -> EpochDecision:
        placement = dict(first_fit(problem).placement)
        placement[1] = 1
        return EpochDecision(placement=placement)

    sim = Simulator(
        _scenario(topo, {0: _unit_class()}, costs, {0: 0.001, 1: 0.002}),
        algorithm=stale,
    )
    result = sim.run(
        [
            TraceEvent(0.25, 1, "arrive", 1, 0),
            TraceEvent(0.5, 1, "depart"),
            TraceEvent(1.0, 2, "arrive", 1, 0),
        ]
    )
    assert result.verdict == "ok"
    assert (sim.requests[1].state, sim.requests[1].host) == ("departed", None)
    assert (sim.requests[2].state, sim.requests[2].host) == ("placed", 1)


def test_trace_events_never_enter_the_heap() -> None:
    trace_handlers = {Simulator._on_arrive, Simulator._on_move, Simulator._on_depart}

    def check(sim: Simulator) -> None:
        handlers = {getattr(handler, "__func__", None) for *_, handler, _ in sim._heap}
        assert not handlers & trace_handlers

    scenario = _churn_scenario(1)
    # a small budget stops a run mid-way, with work still queued
    for algo, budget in (("dapp", 2_000), ("dapp", None), ("ffit", 500)):
        sim = build_simulator(scenario, algo)
        if budget is not None:
            sim.event_budget = budget
        arrivals = 0
        arrive = sim._on_arrive

        def checked_arrive(*args: int) -> None:
            nonlocal arrivals
            check(sim)  # mid-run, with messages, timers or epochs queued
            arrivals += 1
            arrive(*args)

        sim._on_arrive = checked_arrive
        sim.run(scenario.trace)
        check(sim)
        assert arrivals > 0
        assert bool(sim._heap) == (budget is not None)


# ---------------------------------------------------------------------------
# invariant checking


def test_assert_invariants_catches_capacity_corruption() -> None:
    sim = _world({})
    sim.run([TraceEvent(0.0, 1, "arrive", 3, 0)])
    sim.assert_invariants()  # clean run passes
    sim._capacity_used[3] = sim.topology.capacity(3) + 1
    with pytest.raises(AssertionError):
        sim.assert_invariants()


def _served_at_the_root() -> Simulator:
    """A protocol run whose one request, r1, is placed at the root, s0."""
    sim = _world({})
    sim.run([TraceEvent(0.0, 1, "arrive", 3, 0)])
    assert (sim.requests[1].state, sim.requests[1].host) == ("placed", 0)
    return sim


def _book_one_more(sim: Simulator) -> None:
    sim.nodes[0].placed[1] += 1
    sim.commit_placement(1, 3)


def _unhostable_leaf(sim: Simulator) -> None:
    sim._units[0][3] = None
    sim.commit_placement(1, 3)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_unhostable_leaf, "r1 placed at s3, a level that cannot host it"),
        (_book_one_more, "release mismatch at s0 for r1: 2 booked, 1 expected"),
    ],
    ids=["cannot-host", "release-mismatch"],
)
def test_a_transition_refuses_a_corrupt_host(corrupt, message: str) -> None:
    sim = _served_at_the_root()
    with pytest.raises(InvariantError) as raised:
        corrupt(sim)
    assert str(raised.value) == message


def _overbook(sim: Simulator) -> None:
    node = sim.nodes[0]
    node.capacity -= node.available + 1
    node.available = -1


def _place_twice(sim: Simulator) -> None:
    node = sim.nodes[3]
    node.placed[1] = 1
    node.available -= 1


def _drop_the_host(sim: Simulator) -> None:
    sim._transition(sim.requests[1], "placed", None)


def _leave_its_reach(sim: Simulator) -> None:
    req = sim.requests[1]
    req.feasible = (3,)


def _forget_the_placement(sim: Simulator) -> None:
    sim.requests[1].state = "departed"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_overbook, "negative availability at s0"),
        (_place_twice, "r1 placed twice"),
        (_drop_the_host, "r1 placed without a host"),
        (lambda sim: sim.nodes[0].release(1), "r1 host mismatch"),
        (_leave_its_reach, "r1 placed at s0, outside its reach"),
        (_forget_the_placement, "r1 placed but not recorded"),
    ],
    ids=["negative", "twice", "no-host", "mismatch", "reach", "not-recorded"],
)
def test_assert_invariants_names_each_corruption(corrupt, message: str) -> None:
    sim = _served_at_the_root()
    corrupt(sim)
    with pytest.raises(InvariantError) as raised:
        sim.assert_invariants()
    assert str(raised.value) == message


_CORRUPT_CAPACITY = """
import sys
from edgeplace.harness import build_simulator
from edgeplace.protocol import PdAckMsg, PdSession, Record
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
req = sim.requests[2]
try:  # s1 is full
    sim.nodes[1]._place(
        Record(2, req.class_id, None, req.feasible), reserved=False
    )
except InvariantError as err:
    print("caught", err)
try:  # s1 runs no push-down
    sim.nodes[1].handle_push_down_ack(3, PdAckMsg(initiator=1, deficit=0, acks=()))
except InvariantError as err:
    print("caught", err)
sim.nodes[1].pd_session = PdSession(1, None, 1, {}, [4], awaiting=3)
try:  # s1's offer to s3 is still unanswered
    sim.nodes[1]._continue_push_down()
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
        "caught unexpected push-down ack from s3 at s1",
        "caught push-down at s1 resumed while its offer to s3 is unanswered",
    ]


def test_the_package_has_no_assert_statements() -> None:
    # `python -O` strips `assert`; every guard raises InvariantError instead.
    package = Path(edgeplace.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _state_or_host_writes(tree: ast.AST, scope: str = "") -> Iterator[str]:
    """``<scope>:<line>`` of each assignment in ``tree`` to an attribute
    named ``state`` or ``host``, inside tuple, list and starred targets
    too, where ``scope`` is the dotted name of the enclosing classes and
    functions."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _state_or_host_writes(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute) and target.attr in ("state", "host"):
                yield f"{scope}:{node.lineno}"
        yield from _state_or_host_writes(node, scope)


def test_only_the_transition_assigns_a_request_state_or_host() -> None:
    # Every change of a request's status or host runs through
    # Simulator._transition, which keeps the capacity ledger with it; the
    # request's row starts out in _RequestState.__init__.
    package = Path(edgeplace.__file__).resolve().parent
    found = [
        f"{path.name}:{site}"
        for path in sorted(package.glob("*.py"))
        for site in _state_or_host_writes(ast.parse(path.read_text()))
        if site.split(":")[0] not in ("Simulator._transition", "_RequestState.__init__")
    ]
    assert found == []


def test_the_guard_sees_every_form_of_a_state_or_host_write() -> None:
    source = (
        "def f(req, a, b):\n"
        "    req.state = a\n"
        "    a.x, (b.host, c) = 1, (2, 3)\n"
        "    [*req.state, c] = 1, 2\n"
        "    req.host: int = 4\n"
        "    req.host += 1\n"
        "    req.hosts = req.state\n"
        "    d[req.host] += 1\n"
        "class C:\n"
        "    def g(self):\n"
        "        self.state = 0\n"
    )
    assert list(_state_or_host_writes(ast.parse(source))) == [
        "f:2", "f:3", "f:4", "f:5", "f:6", "C.g:11"
    ]


def test_assert_invariants_catches_availability_drift() -> None:
    sim = _world({})
    sim.run([TraceEvent(0.0, 1, "arrive", 3, 0)])
    sim.nodes[5].available -= 1
    with pytest.raises(AssertionError):
        sim.assert_invariants()


def test_assert_invariants_catches_a_load_its_requests_do_not_hold() -> None:
    # The centralized lanes keep no node books, so only the engine's load
    # ledger, checked against the request table, can catch a stray host.
    scenario = builtin_scenario("fig2")
    sim = build_simulator(scenario, "ffit")
    assert sim.run(scenario.trace).verdict == "ok"
    sim.assert_invariants()
    req = next(r for r in sim.requests.values() if r.state == "placed")
    req.host = next(n for n in req.feasible if n != req.host)
    with pytest.raises(InvariantError, match="load drift at s"):
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
    assert result.failed == ()
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
    assert list(results[0].event_log) == list(results[1].event_log)
    assert results[0].placements == results[1].placements
    assert results[0].counters.messages == results[1].counters.messages


@pytest.mark.parametrize("lane", ["dapp", "ffit"])
def test_a_simulator_refuses_a_second_run(lane: str) -> None:
    # the result shares the simulator's counters, and its log replays it
    scenario = builtin_scenario("fig3")
    sim = build_simulator(scenario, lane, check_invariants=True)
    result = sim.run(scenario.trace)
    events, placements = result.counters.events, dict(result.placements)
    with pytest.raises(RuntimeError, match="already run"):
        sim.run(scenario.trace)
    assert result.verdict == "ok"
    assert result.counters.events == events and result.placements == placements
    fresh = build_simulator(scenario, lane).run(scenario.trace)
    assert list(result.event_log) == list(fresh.event_log)


# ---------------------------------------------------------------------------
# the event record


@pytest.fixture(scope="module")
def churn_log() -> EventLog:
    return run_scenario(_churn_scenario(1), "dapp").event_log


def test_event_record_holds_nothing_the_collector_tracks(churn_log) -> None:
    len(churn_log)  # the first read replays the run, recording its events
    chunks = churn_log._chunks
    assert len(chunks) > 1 and sum(map(len, chunks)) >= 3 * len(churn_log)
    gc.collect()  # untracks each tuple of request ids, which holds ints alone
    assert not any(gc.is_tracked(atom) for chunk in chunks for atom in chunk)


def test_event_log_reads_alike_every_time(churn_log) -> None:
    first, second = list(churn_log), list(churn_log)
    assert first == second
    assert len(churn_log) == len(first) > 0
    assert "\n".join(churn_log) == "\n".join(first)


def test_decoded_events_are_the_text_lines_parts(churn_log) -> None:
    def text(template: str, args: tuple) -> str:
        return template % tuple(
            ",".join(f"r{rid}" for rid in a) if isinstance(a, tuple) else a
            for a in args
        )

    lines = list(churn_log)
    events = list(churn_log.events())
    assert len(events) == len(lines)
    assert any(isinstance(a, tuple) and len(a) > 1 for *_, args in events for a in args)
    for (time, node, template, args), line in zip(events, lines):
        assert line == f"{time:.6f} s{node} {text(template, args)}"


def _counting_scans(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Replace ``ProtocolNode.run_scan`` with a wrapper that lists the node
    of each call."""
    scans: list[int] = []
    run_scan = ProtocolNode.run_scan

    def counted(self: ProtocolNode, incoming) -> None:
        scans.append(self.node_id)
        run_scan(self, incoming)

    monkeypatch.setattr(ProtocolNode, "run_scan", counted)
    return scans


def test_two_reads_of_a_log_replay_the_run_once(monkeypatch) -> None:
    result = run_scenario(builtin_scenario("fig3"), "dapp")
    scans = _counting_scans(monkeypatch)
    first = list(result.event_log)
    replayed = len(scans)
    second = list(result.event_log)
    assert replayed > 0 and len(scans) == replayed
    assert first == second and len(result.event_log) == len(first) > 0


def test_a_replay_that_leaves_its_run_raises(monkeypatch) -> None:
    result = run_scenario(builtin_scenario("fig3"), "dapp")
    run_scan = ProtocolNode.run_scan

    def run_scan_noting_a_push_down(self: ProtocolNode, incoming) -> None:
        self.world.note_push_down()
        run_scan(self, incoming)

    monkeypatch.setattr(ProtocolNode, "run_scan", run_scan_noting_a_push_down)
    with pytest.raises(InvariantError, match="replay of a run did not end as the run"):
        list(result.event_log)


def test_a_log_replays_the_trace_its_run_ran() -> None:
    fig2 = builtin_scenario("fig2")
    result = build_simulator(fig2, "dapp").run(fig2.trace[:3])
    alone = run_scenario(replace(fig2, trace=fig2.trace[:3]), "dapp").event_log
    assert list(result.event_log) == list(alone)
    assert len(alone) < len(run_scenario(fig2, "dapp").event_log)


def test_a_log_ignores_edits_to_its_scenario_after_the_run() -> None:
    fig3 = builtin_scenario("fig3")
    expected = list(run_scenario(fig3, "dapp").event_log)
    scenario = replace(
        fig3, classes=dict(fig3.classes), rtt_by_level=dict(fig3.rtt_by_level)
    )
    results = [run_scenario(scenario, "dapp") for _ in range(2)]
    for cid, svc in scenario.classes.items():
        scenario.classes[cid] = replace(svc, cpu_demand={0: 10**6})
    scenario.rtt_by_level.update((level, 1.0) for level in scenario.rtt_by_level)
    assert list(results[0].event_log) == expected
    assert len(results[1].event_log) == len(expected)


def test_an_unread_run_keeps_no_event_record() -> None:
    scenario = _churn_scenario(1)
    tracemalloc.start()
    try:
        result = run_scenario(scenario, "dapp")
        unread_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        events = len(result.event_log)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the read replays the run and records its events: the record is most
    # of its peak, and the run alone holds none of it
    assert events > 10_000
    assert 2 * unread_peak < read_peak


# ---------------------------------------------------------------------------
# purges and push-down offers under churn


def _churn_scenario(seed: int) -> Scenario:
    """300 users with moves, departures and push-downs (4-level tree)."""
    topology, classes, costs, rtt = default_profile(leaf_capacity=1200, levels=4)
    trace = synthesize_trace(
        topology,
        seed=seed,
        users=300,
        p_rt=0.5,
        burst=False,
        arrival_rate=400.0,
        hold_mean=2.0,
        move_period=0.5,
        horizon=3.0,
    )
    return Scenario(
        name=f"churn-{seed}",
        topology=topology,
        classes=classes,
        costs=costs,
        rtt_by_level=rtt,
        trace=trace,
    )


def _holders(sim: Simulator, rid: int) -> list[str]:
    """Where any protocol node still holds a trace of ``rid``."""
    found = []
    for node_id, node in sim.nodes.items():
        session = node.pd_session
        places = {
            "not_assigned": rid in node.not_assigned,
            "push_up": rid in node.push_up,
            "scan_buf": any(r.request_id == rid for r in node.scan_buf),
            "outstanding_pu": rid in node.outstanding_pu,
            "pd_pending": rid in node.pd_pending,
            "assigned": rid in node.assigned,
            "pd_session.records": session is not None and rid in session.records,
        }
        found += [f"s{node_id}.{name}" for name, held in places.items() if held]
    return found


def _purge_sweep() -> Iterator[Scenario]:
    for users, capacity in ((60, 250), (60, 400), (120, 400), (120, 600)):
        for seed in range(1, 41):
            yield synth_scenario(seed, users=users, leaf_capacity=capacity)
    for seed in (1, 2, 3):
        yield _churn_scenario(seed)


def test_purge_leaves_no_trace_on_any_node(monkeypatch) -> None:
    # A purge visits only the nodes of the reaches the request has had;
    # check every node of the tree after each one.
    purge = Simulator._purge
    purges = 0

    def checked(self: Simulator, request_id: int) -> None:
        nonlocal purges
        purge(self, request_id)
        purges += 1
        assert _holders(self, request_id) == [], (self._now, request_id)

    monkeypatch.setattr(Simulator, "_purge", checked)
    for scenario in _purge_sweep():
        run_scenario(scenario, "dapp")
    assert purges > 10_000


def test_a_queued_push_down_record_tops_out_at_its_node(monkeypatch) -> None:
    # run_fallback_scan forwards every unassigned record whose reach holds
    # the parent, and skips no id queued in pd_pending: that is safe only
    # while each queued record tops out at its node, so its reach ends here.
    checks = 0

    def checked(handler: Callable[..., None]) -> Callable[..., None]:
        def run(self: ProtocolNode, *args: object) -> None:
            nonlocal checks
            handler(self, *args)
            for rid in self.pd_pending:
                rec = self.not_assigned.get(rid)
                if rec is not None:
                    checks += 1
                    assert rec.top_feasible == self.node_id, (self.node_id, rid)

        return run

    for name in ("on_timer", "on_message", "notify_gone"):
        monkeypatch.setattr(ProtocolNode, name, checked(getattr(ProtocolNode, name)))
    for scenario in _purge_sweep():
        run_scenario(scenario, "dapp")
    assert checks > 1_000, checks


def test_push_down_and_fallback_push_up_meet_only_active_requests(monkeypatch) -> None:
    # start_push_down and run_fallback_push_up test for no departed or
    # failed request: the backlogs they read hold none, as the purge
    # empties them (see the test above).
    start, refuse = ProtocolNode.start_push_down, ProtocolNode.run_fallback_push_up
    calls = {"start": 0, "refuse": 0}

    def inactive(node: ProtocolNode, ids: Collection[int]) -> list[int]:
        return [rid for rid in ids if node.requests[rid].state not in ACTIVE_STATES]

    def checked_start(self: ProtocolNode) -> None:
        calls["start"] += 1
        assert inactive(self, self.pd_pending) == [], self.node_id
        start(self)

    def checked_refuse(self: ProtocolNode, incoming) -> None:
        calls["refuse"] += bool(self.push_up or incoming)
        assert inactive(self, self.push_up) == [], self.node_id
        refuse(self, incoming)

    monkeypatch.setattr(ProtocolNode, "start_push_down", checked_start)
    monkeypatch.setattr(ProtocolNode, "run_fallback_push_up", checked_refuse)
    for seed in (1, 2, 3, 4, 5):
        run_scenario(synth_scenario(seed, users=120, leaf_capacity=400), "dapp")
    run_scenario(_churn_scenario(1), "dapp")
    assert calls["start"] > 0 and calls["refuse"] > 0, calls


def _offers_built_afresh(node: ProtocolNode) -> list[Record]:
    """A node's push-down offer records, each built anew from the world."""
    requests = node.world.requests
    offers = [
        rec._replace(generation=0, beta_at_initiator=node.assigned[rid])
        for rid, rec in node.push_up.items()
        if rec.origin == node.node_id and rid not in node.outstanding_pu
    ]
    for rid in sorted(node.placed):
        if requests[rid].state == "placed":
            req = requests[rid]
            offers.append(
                Record(
                    request_id=rid,
                    class_id=req.class_id,
                    origin=node.node_id,
                    feasible=req.feasible,
                    current_host=node.node_id,
                    beta_at_initiator=node.placed[rid],
                )
            )
    return offers


def test_cached_offers_equal_offers_built_afresh(monkeypatch) -> None:
    open_push_down = ProtocolNode._open_push_down
    hosted = reused = 0

    def checked(self: ProtocolNode, *args: object) -> tuple[int, ...]:
        nonlocal hosted, reused
        before = dict(self.hosted_offers)
        afresh = _offers_built_afresh(self)
        ids = open_push_down(self, *args)
        records = self.pd_session.records
        assert [records[r.request_id] for r in afresh] == afresh
        for rec in afresh:
            if rec.current_host == self.node_id:
                hosted += 1
                reused += before.get(rec.request_id) is records[rec.request_id]
        return ids

    monkeypatch.setattr(ProtocolNode, "_open_push_down", checked)
    for seed in (1, 2, 3):
        run_scenario(_churn_scenario(seed), "dapp")
    assert 0 < reused < hosted


# ---------------------------------------------------------------------------
# invariants on random worlds


@st.composite
def _random_world(draw: st.DrawFn, moves: bool) -> Scenario:
    """A pruned tree of arity 1-4 and 2-5 levels with up to 4 capacity
    overrides, 1-4 classes each hostable from level 0 up to a drawn level,
    and up to 30 users who arrive and may depart; with ``moves``, each user
    also moves 1-3 times."""
    arity = draw(st.integers(1, 4))
    levels = draw(st.integers(2, 5))
    leaf_capacity = draw(st.integers(0, 4))
    full = build_tree(levels=levels, arity=arity, leaf_capacity=leaf_capacity)
    # a node always keeps its first child, so every leaf stays at level 0
    prune = tuple(
        child
        for parent in full.nodes
        for child in full.children(parent)[1:]
        if draw(st.booleans())
    )
    kept = build_tree(levels, arity, leaf_capacity, prune=prune).nodes
    overrides = draw(
        st.dictionaries(st.sampled_from(kept), st.integers(0, 8), max_size=4)
    )
    topology = build_tree(levels, arity, leaf_capacity, overrides, prune)
    classes: dict[int, ServiceClass] = {}
    migration: dict[int, float] = {}
    placement: dict[int, dict[int, float]] = {}
    for cid in range(draw(st.integers(1, 4))):
        top = draw(st.integers(0, levels - 1))
        demand = {lvl: draw(st.integers(1, 3)) for lvl in range(top + 1)}
        classes[cid] = ServiceClass(cid, f"c{cid}", 1.0, demand)
        migration[cid] = float(draw(st.integers(0, 5)))
        placement[cid] = {lvl: float(draw(st.integers(1, 9))) for lvl in demand}
    ticks = st.integers(0, 300)  # event times on a 10 ms grid, up to 3 s
    trace: list[tuple[int, int, int, TraceEvent]] = []
    for user in range(draw(st.integers(0, 30))):
        hops = draw(st.integers(1, 3)) if moves else 0
        kinds = ["arrive"] + ["move"] * hops + ["depart"] * draw(st.booleans())
        count = len(kinds)
        times = draw(st.lists(ticks, min_size=count, max_size=count, unique=True))
        cid = draw(st.sampled_from(sorted(classes)))
        for step, (tick, kind) in enumerate(zip(sorted(times), kinds)):
            if kind == "depart":
                event = TraceEvent(tick / 100, user, kind)
            else:
                poa = draw(st.sampled_from(topology.leaves))
                arriving = cid if kind == "arrive" else None
                event = TraceEvent(tick / 100, user, kind, poa, arriving)
            trace.append((tick, user, step, event))
    return Scenario(
        name="random",
        topology=topology,
        classes=classes,
        costs=CostModel(migration_cost=migration, placement_cost=placement),
        rtt_by_level={lvl: 0.001 * (lvl + 1) for lvl in range(levels)},
        trace=tuple(event for *_, event in sorted(trace, key=lambda t: t[:3])),
    )


def _check_random_world(scenario: Scenario, algo: str) -> None:
    """Invariants after every event, equal logs on a rerun, and a feasible
    final placement for every attached user not failed or unplaced."""
    result = run_scenario(scenario, algo, check_invariants=True)
    again = run_scenario(scenario, algo)
    assert list(again.event_log) == list(result.event_log)
    attached: dict[int, Request] = {}
    for ev in scenario.trace:
        if ev.kind == "depart":
            del attached[ev.user]
            continue
        cid = ev.class_id if ev.kind == "arrive" else attached[ev.user].class_id
        reach = feasible_set_for(
            scenario.topology, ev.poa, scenario.classes[cid], scenario.rtt_by_level
        )
        attached[ev.user] = Request(ev.user, cid, ev.poa, reach)
    dropped = set(result.failed) | set(result.unplaced)
    requests = {user: req for user, req in attached.items() if user not in dropped}
    report = check_feasible(
        scenario.topology, scenario.classes, requests, result.placements
    )
    assert report.ok, report


@settings(max_examples=100, deadline=None)
@given(_random_world(moves=False))
def test_dapp_keeps_its_invariants_on_random_worlds(scenario: Scenario) -> None:
    # Moves wait for the fix of push-down records that carry generation 0
    # (ROADMAP item 1): with them, dapp breaks "placed but not recorded".
    _check_random_world(scenario, "dapp")


@settings(max_examples=100, deadline=None)
@given(_random_world(moves=True))
@example(_churn_scenario(1))
def test_the_scan_backlog_stays_in_placement_order(scenario: Scenario) -> None:
    # The scan prelude re-sorts its backlog only after a merge added to it,
    # so the order must survive every removal between scans.  Small random
    # worlds seldom merge into a backlog that is not empty; the churn
    # example does so on 28 of its 2,505 scans.
    take = ProtocolNode._take_scan_input
    checked = 0

    def checked_take(self: ProtocolNode, incoming) -> None:
        nonlocal checked
        take(self, incoming)
        backlog = list(self.not_assigned.values())
        assert backlog == self._sorted(backlog)
        assert list(self.not_assigned) == [rec.request_id for rec in backlog]
        checked += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProtocolNode, "_take_scan_input", checked_take)
        run_scenario(scenario, "dapp")
    assert checked > 0 or not scenario.trace


@settings(max_examples=100, deadline=None)
@given(_random_world(moves=True))
@example(_churn_scenario(1))
def test_reach_length_ranks_like_the_subtree_count(scenario: Scenario) -> None:
    # A node ranks records by reach length; the reference counts each
    # record's reach nodes outside the node's subtree.
    ranked = ProtocolNode._sorted

    def checked(node: ProtocolNode, records: Collection[Record]) -> list[Record]:
        records = list(records)
        assert all(node.node_id in rec.feasible for rec in records)
        order = ranked(node, records)
        topology = scenario.topology
        assert order == subtree_count_order(topology, node.node_id, records, node.demand)
        return order

    ProtocolNode._sorted = checked  # type: ignore[method-assign]
    try:
        run_scenario(scenario, "dapp")
    finally:
        ProtocolNode._sorted = ranked  # type: ignore[method-assign]


def _check_routing(scenario: Scenario) -> tuple[int, int]:
    """Run ``dapp`` with every routing step checked against the oracle,
    which walks the target's path to the root; returns how many records
    ``_child_towards`` routed and how many push-down session records had
    their PoA below the session's node."""
    topology = scenario.topology
    towards, open_push_down = ProtocolNode._child_towards, ProtocolNode._open_push_down
    routed = below = 0

    def checked_towards(node: ProtocolNode, rec: Record) -> int:
        nonlocal routed
        child = towards(node, rec)
        assert child == child_towards(topology, node.node_id, rec.origin)
        routed += 1
        return child

    def checked_open(node: ProtocolNode, *args: object) -> tuple[int, ...]:
        nonlocal below
        ids = open_push_down(node, *args)
        session = node.pd_session
        here = node.node_id
        expected: dict[int, list[int]] = {}
        for rid, rec in session.records.items():
            poa = rec.feasible[0]
            if poa != here and here in topology.path_to_root(poa):
                assert here in rec.feasible
                child = child_towards(topology, here, poa)
                expected.setdefault(child, []).append(rid)
                below += 1
        routed_ids = {
            child: [rec.request_id for rec in records]
            for child, records in session.by_child.items()
        }
        assert routed_ids == expected
        return ids

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProtocolNode, "_child_towards", checked_towards)
        patch.setattr(ProtocolNode, "_open_push_down", checked_open)
        run_scenario(scenario, "dapp")
    return routed, below


@settings(max_examples=100, deadline=None)
@given(_random_world(moves=True))
def test_records_route_down_their_own_reach(scenario: Scenario) -> None:
    # A node routes a record by its reach alone; the oracle finds the
    # child from the tree, and every session record whose PoA lies below
    # the node has the node on its reach.
    _check_routing(scenario)


def test_records_route_down_their_own_reach_under_churn() -> None:
    routed, below = _check_routing(_churn_scenario(1))
    assert routed > 0 and below > 0


@settings(max_examples=100, deadline=None)
@given(_random_world(moves=False))
def test_prepared_demand_agrees_with_the_class_rule(scenario: Scenario) -> None:
    # The direct rule, a class's demand at the node's level, is the
    # reference for the engine's, the epoch's and each node's prepared table.
    topology, classes = scenario.topology, scenario.classes
    sim = build_simulator(scenario, "dapp")
    problem = EpochProblem(topology, classes, scenario.costs, ())
    for cid, klass in classes.items():
        for node in topology.nodes:
            units = klass.demand_at(topology.level(node))
            assert sim._units[cid][node] == units
            assert problem.units[cid][node] == units
            assert sim.nodes[node].demand.get(cid) == units


@settings(max_examples=100, deadline=None)
@given(_random_world(moves=False))
def test_prepared_prices_agree_with_the_cost_rule(scenario: Scenario) -> None:
    # The cost model's rule, a class's price at the node's level, is the
    # reference for the engine's and the epoch's price tables, which hold
    # an entry exactly where the class can run.
    topology, classes, costs = scenario.topology, scenario.classes, scenario.costs
    sim = build_simulator(scenario, "ffit")
    problem = EpochProblem(topology, classes, costs, ())
    for table in (sim._prices, problem.prices):
        assert sorted(table) == sorted(classes)
        for cid, klass in classes.items():
            hosts = [
                node
                for node in topology.nodes
                if klass.demand_at(topology.level(node)) is not None
            ]
            assert table[cid] == {
                node: costs.place_price(cid, topology.level(node)) for node in hosts
            }


@pytest.mark.parametrize("lane", ALGO_CHOICES)
def test_a_class_without_prices_leaves_an_empty_row_and_the_run_whole(
    lane: str,
) -> None:
    # fig2's costs price class 0 only: class 1 can run at every level but
    # has no price, which a run that places none of it never reads: it
    # runs as fig2 alone does
    plain = fig_two_tier_scenario()
    unpriced = ServiceClass(1, "unpriced", 1.0, {0: 1, 1: 1, 2: 1})
    scenario = replace(plain, classes={**plain.classes, 1: unpriced})
    sim = build_simulator(scenario, lane)
    assert sim._prices[1] == {}
    assert len(sim._prices[0]) == len(scenario.topology.nodes)
    result, alone = sim.run(scenario.trace), run_scenario(plain, lane)
    assert (result.verdict, result.placements) == (alone.verdict, alone.placements)
    assert result.final_placement_cost == alone.final_placement_cost


@settings(max_examples=150, deadline=None)
@given(
    _random_world(moves=True),
    st.sampled_from(["ffit", "bupu", "cpvnf", "multiscaler", "exact"]),
)
def test_epoch_lanes_keep_their_invariants_on_random_worlds(
    scenario: Scenario, algo: str
) -> None:
    _check_random_world(scenario, algo)
