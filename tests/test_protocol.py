"""Unit tests for the distributed placement protocol's node state machine.

Each test drives a single :class:`ProtocolNode` (or a tiny cluster of them)
through a scripted :class:`FakeWorld`, so stage behaviour is pinned without
the event loop, link model, or timers getting involved.
"""

from __future__ import annotations

import inspect
import random
from typing import Callable, Iterator, Mapping, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.model import InvariantError, Request, Topology, build_tree
from edgeplace.protocol import (
    PdAckMsg,
    PdRequestMsg,
    PdSession,
    ProtocolNode,
    ProtocolTiming,
    PuAckMsg,
    PuMsg,
    Record,
    SfsMsg,
    World,
    sort_requests,
)
from edgeplace.harness import build_simulator
from edgeplace.scenarios import fig_two_tier_scenario
from edgeplace.simnet import Simulator, _rids, _snapshot

from .oracles import full_push_down_open, passes_origin, push_down_offer


class _FakeView(NamedTuple):
    class_id: int | None
    feasible: tuple[int, ...] | None
    state: str
    generation: int


class _FakeRequests(Mapping[int, _FakeView]):
    """``FakeWorld.requests``: a view of every request id, served over the
    world's scripted sets; an id nobody scripted is a waiting request."""

    def __init__(self, world: FakeWorld) -> None:
        self.world = world

    def __getitem__(self, request_id: int) -> _FakeView:
        world = self.world
        if request_id in world.gone:
            state = "departed"
        elif request_id in world.relocating_set:
            state = "relocating"
        elif request_id in world.placed_set:
            state = "placed"
        else:
            state = "waiting"
        req = world.views.get(request_id)
        return _FakeView(
            None if req is None else req.class_id,
            None if req is None else req.feasible,
            state,
            world.generations.get(request_id, 0),
        )

    def __iter__(self) -> Iterator[int]:
        raise TypeError("the fake request table holds every id")

    def __len__(self) -> int:
        raise TypeError("the fake request table holds every id")


class FakeWorld:
    """Scripted engine stand-in: records every side effect for assertions."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.time = 0.0
        self.sent: list[tuple[int, int, object]] = []
        self.placements: list[tuple[int, int]] = []
        self.failures: list[tuple[int, int]] = []
        self.timers: list[tuple[int, str, float]] = []
        self.gone: set[int] = set()
        self.placed_set: set[int] = set()
        self.relocating_set: set[int] = set()
        self.generations: dict[int, int] = {}
        self.views: dict[int, Request] = {}
        self.requests = _FakeRequests(self)
        self.push_down_count = 0
        self.lines: list[tuple[int, str]] = []

    # --- World protocol ---------------------------------------------------

    def now(self) -> float:
        return self.time

    def send(self, src: int, dst: int, msg: object) -> None:
        self.sent.append((src, dst, msg))

    def commit_placement(self, request_id: int, node: int) -> None:
        self.placements.append((request_id, node))
        self.placed_set.add(request_id)

    def report_failure(self, request_id: int, node: int) -> None:
        self.failures.append((request_id, node))
        self.gone.add(request_id)

    def arm_timer(self, node: int, kind: str, deadline: float) -> None:
        self.timers.append((node, kind, deadline))

    def note_push_down(self) -> None:
        self.push_down_count += 1

    def log(self, node: int, template: str, *args: object) -> None:
        # an id list arrives live: snapshot it as the engine's recorder does
        args = tuple(map(_snapshot, args))
        text = template % tuple(_rids(a) if type(a) is tuple else a for a in args)
        self.lines.append((node, text))


def rec(
    rid: int,
    feasible: tuple[int, ...],
    *,
    class_id: int = 0,
    origin: int | None = None,
    current_host: int | None = None,
) -> Record:
    return Record(
        request_id=rid,
        class_id=class_id,
        origin=origin,
        feasible=feasible,
        current_host=current_host,
    )


def pd_rec(
    rid: int,
    feasible: tuple[int, ...],
    beta: int,
    *,
    class_id: int = 0,
    origin: int | None = None,
    current_host: int | None = None,
) -> Record:
    return Record(
        request_id=rid,
        class_id=class_id,
        origin=origin,
        feasible=feasible,
        beta_at_initiator=beta,
        current_host=current_host,
    )


def two_level() -> Topology:
    # node 0 (cap 8) over leaves 1, 2 (cap 4 each)
    return build_tree(levels=2, arity=2, leaf_capacity=4)


def three_level() -> Topology:
    # 0 (cap 12); 1, 2 (cap 8); leaves 3..6 (cap 4)
    return build_tree(levels=3, arity=2, leaf_capacity=4)


def keyed(*records: Record) -> dict[int, Record]:
    """Records as a node's id-keyed backlog holds them."""
    return {r.request_id: r for r in records}


def make_node(
    world: FakeWorld, node_id: int, demand: dict[int, int] | None = None
) -> ProtocolNode:
    """A node whose level hosts class 0 at two units, unless ``demand`` says
    otherwise."""
    return ProtocolNode(
        world, world.topology, node_id, ProtocolTiming(), demand or {0: 2}
    )


def idle_session(node_id: int) -> PdSession:
    """A push-down session this node started, with nothing left to do."""
    return PdSession(
        initiator=node_id, caller=None, deficit=0, records={}, pending_children=[]
    )


def sent_of(world: FakeWorld, kind: type) -> list[tuple[int, int, object]]:
    return [entry for entry in world.sent if isinstance(entry[2], kind)]


# ---------------------------------------------------------------------------
# request ordering


def test_sort_requests_prefers_fewest_outside_options() -> None:
    trapped = rec(9, (1,))  # nowhere to go if node 1's subtree refuses
    flexible = rec(2, (1, 0))
    assert sort_requests([flexible, trapped], {0: 2}) == [trapped, flexible]


def test_sort_requests_breaks_ties_by_demand_then_age_then_id() -> None:
    light = rec(7, (1, 0), class_id=1)
    heavy = rec(3, (1, 0), class_id=0)
    assert sort_requests([heavy, light], {0: 5, 1: 2}) == [light, heavy]
    relocated = rec(8, (1, 0), current_host=2)
    fresh = rec(4, (1, 0))
    assert sort_requests([fresh, relocated], {0: 2}) == [relocated, fresh]
    a, b = rec(6, (1, 0)), rec(5, (1, 0))
    assert sort_requests([a, b], {0: 2}) == [b, a]


def test_sort_requests_unknown_demand_sorts_last() -> None:
    known = rec(9, (1, 0), class_id=0)
    unknown = rec(1, (1, 0), class_id=5)  # no demand entry here
    assert sort_requests([unknown, known], {0: 2}) == [known, unknown]


# ---------------------------------------------------------------------------
# timing


def test_batch_deadlines_stretch_with_level() -> None:
    timing = ProtocolTiming()
    assert timing.scan_window == pytest.approx(0.0001)
    assert timing.push_down_window == pytest.approx(0.0004)
    assert timing.fallback_period == pytest.approx(10.0)
    # a node at level l waits (l + 1) windows: levels 0, 2 and 3
    world = FakeWorld(build_tree(levels=4, arity=2, leaf_capacity=4))
    world.time = 5.0
    leaf, mid, root = 7, 1, 0
    assert [world.topology.level(n) for n in (leaf, mid, root)] == [0, 2, 3]
    make_node(world, leaf).buffer_scan_input([rec(1, (7, 3, 1, 0))])
    make_node(world, mid).buffer_scan_input([rec(2, (7, 3, 1, 0))])
    make_node(world, root)._arm_timer("push_down")
    make_node(world, mid)._arm_timer("push_down")
    assert world.timers == [
        (leaf, "scan", pytest.approx(5.0001)),
        (mid, "scan", pytest.approx(5.0003)),
        (root, "push_down", pytest.approx(5.0016)),
        (mid, "push_down", pytest.approx(5.0012)),
    ]


def test_buffer_scan_input_arms_one_timer_and_merges() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    first, second = rec(1, (1, 0)), rec(2, (1, 0))
    node.buffer_scan_input([first])
    node.buffer_scan_input([second])
    assert world.timers == [(1, "scan", pytest.approx(0.0001))]
    assert node.scan_buf == [first, second]


def test_empty_buffer_does_not_arm() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.buffer_scan_input([])
    assert world.timers == []
    assert not node.armed


# ---------------------------------------------------------------------------
# bottom-up scan


def test_scan_reserves_locally_and_adverts_upward() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.run_scan([rec(1, (1, 0))])
    assert node.assigned == {1: 2}
    assert node.available == 2
    assert world.placements == []  # reserved, not yet placed
    ((src, dst, msg),) = world.sent
    assert (src, dst) == (1, 0)
    assert isinstance(msg, SfsMsg)
    assert len(msg.records) == 1 and msg.records[0].origin == 1
    assert node.outstanding_pu == {1}


def test_scan_places_outright_at_top_feasible_node() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.run_scan([rec(1, (1, 0))])
    assert world.placements == [(1, 0)]
    assert world.sent == []
    # booked once, straight into a placement: no reservation, no double charge
    assert node.assigned == {} and node.placed == {1: 2}
    assert node.available == 6


def test_scan_full_top_queues_push_down() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.available = 1  # demand is 2: nothing fits any more
    node.run_scan([rec(1, (1, 0))])
    assert list(node.pd_pending) == [1]
    assert world.timers == [(0, "push_down", pytest.approx(0.0008))]
    assert world.sent == []  # the push-down epilogue owns the leftovers


def test_scan_forwards_unassignable_records_to_parent() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.available = 0
    node.run_scan([rec(1, (1, 0))])
    ((_, dst, msg),) = world.sent
    assert dst == 0
    assert isinstance(msg, SfsMsg)
    assert len(msg.records) == 1 and msg.records[0].request_id == 1
    assert msg.records[0].origin is None


def test_scan_drops_served_but_processes_relocating_records() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    world.placed_set = {1, 2}
    world.relocating_set = {2}
    node.run_scan([rec(1, (1, 0)), rec(2, (1, 0), current_host=2)])
    # the served record evaporates; the relocating one is real work
    assert 1 not in node.assigned
    assert node.assigned == {2: 2}


def test_merge_records_dedupes_and_filters() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    live = rec(1, (1, 0))
    dead = rec(2, (1, 0))
    stale = rec(3, (1, 0))
    world.gone.add(2)
    world.generations[3] = 1  # a newer copy exists somewhere
    node.run_scan([live, live, dead, stale])
    assert set(node.assigned) == {1}


def test_scan_timer_respects_push_down_session() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.buffer_scan_input([rec(1, (1, 0))])
    node.pd_session = idle_session(1)
    node.on_timer("scan")
    # nothing ran: the buffer survives for the session epilogue
    assert node.scan_buf and not node.assigned


def test_scan_splits_one_batch_into_unassigned_and_adverts() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.available = 0  # r1 tops out here and waits for a push-down
    unassigned, advert = rec(1, (1, 0)), rec(2, (2, 0), origin=2)
    node.on_message(2, SfsMsg((unassigned, advert)))
    node.on_timer("scan")
    assert node.not_assigned == keyed(unassigned)
    assert node.push_up == keyed(advert)
    assert (0, "scan run na=[r1] pu=[r2]") in world.lines


# ---------------------------------------------------------------------------
# push-up


def test_push_up_hosts_when_capacity_allows() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.run_push_up([rec(9, (3, 1, 0), origin=3)])
    assert world.placements == [(9, 1)]
    assert node.placed == {9: 2} and node.available == 6
    ((_, dst, msg),) = world.sent
    assert dst == 3 and isinstance(msg, PuAckMsg)
    assert msg.acks[0][0].request_id == 9 and msg.acks[0][1] is True


def test_push_up_relays_downward_when_full() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.available = 1
    node.run_push_up([rec(9, (3, 1, 0), origin=3)])
    assert world.placements == []
    ((_, dst, msg),) = world.sent
    assert dst == 3 and isinstance(msg, PuMsg)
    assert msg.records[0].request_id == 9


def test_push_up_settles_record_back_at_its_reservation() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.assigned = {9: 2}
    node.available = 2
    node.run_push_up([rec(9, (3, 1, 0), origin=3)])
    assert world.placements == [(9, 3)]
    assert world.sent == []
    assert node.assigned == {} and node.placed == {9: 2}
    assert node.available == 2  # the reservation converted, no new units


def test_push_up_one_slot_goes_to_first_in_sorted_order() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.available = 2  # exactly one two-unit slot
    contender_a = rec(5, (3, 1), origin=3)
    contender_b = rec(4, (4, 1), origin=4)
    node.run_push_up([contender_a, contender_b])
    # same constraint profile: the lower request id wins the slot
    assert world.placements == [(4, 1)]
    assert node.placed == {4: 2} and node.available == 0
    by_kind = {type(msg): (dst, msg) for _, dst, msg in world.sent}
    assert by_kind[PuAckMsg][0] == 4
    assert by_kind[PuMsg][0] == 3
    assert by_kind[PuMsg][1].records[0].request_id == 5


def test_a_stale_push_up_record_alone_leaves_no_trace() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.outstanding_pu = {5}
    world.generations[5] = 1  # the user moved after the advert was issued
    node.on_message(0, PuMsg((rec(5, (3, 1, 0), origin=3),)))
    # nothing current to resolve: no log line, no message, no placement
    assert world.lines == [] and world.sent == [] and world.placements == []
    assert node.outstanding_pu == set() and node.push_up == {}


def test_push_up_ack_releases_or_settles_reservation() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.assigned = {9: 2}
    node.available = 2
    node.handle_push_up_acks([(rec(9, (3, 1, 0), origin=3), True)])
    assert node.assigned == {} and node.available == 4
    assert world.placements == []

    node.assigned = {8: 2}
    node.available = 2
    node.handle_push_up_acks([(rec(8, (3, 1, 0), origin=3), False)])
    assert world.placements == [(8, 3)]
    assert node.assigned == {} and node.placed == {8: 2}
    assert node.available == 2


@pytest.mark.parametrize("hosted_above", [True, False])
def test_push_up_ack_for_a_reservation_a_move_withdrew_does_nothing(
    hosted_above: bool,
) -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.run_scan([rec(5, (1, 0))])
    ((_, _, msg),) = world.sent
    (advert,) = msg.records
    world.generations[5] = 1  # the user moved; the request still waits
    node.notify_gone(5)
    assert node.assigned == {} and node.available == 4
    sent, lines = list(world.sent), list(world.lines)
    node.handle_push_up_acks([(advert, hosted_above)])
    # the ack meets no reservation: nothing placed, released, logged or sent
    assert world.placements == [] and node.placed == {}
    assert node.assigned == {} and node.available == 4
    assert world.sent == sent and world.lines == lines


def test_push_up_ack_relays_toward_origin() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.handle_push_up_acks([(rec(9, (3, 1, 0), origin=3), True)])
    ((_, dst, msg),) = world.sent
    assert dst == 3 and isinstance(msg, PuAckMsg)


def test_last_push_up_ack_settles_adverts_by_the_fallback_rules_in_f_mode() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.enter_f_mode()
    node.assigned, node.available = {7: 2}, 6
    own, below = rec(7, (1, 0), origin=1), rec(5, (3, 1, 0), origin=3)
    node.push_up = keyed(own, below)
    node.outstanding_pu = {9}
    node.handle_push_up_acks([(rec(9, (3, 1, 0), origin=3), True)])
    # quarantined: refuse the advert from below, though it fits, and settle
    # the node's own reservation where it stands
    assert (1, "f-pu refuse [r7,r5]") in world.lines
    assert not any(text.startswith("pu ") for _, text in world.lines)
    assert world.placements == [(7, 1)]
    assert node.push_up == {} and node.assigned == {} and node.placed == {7: 2}
    assert [(dst, m.acks) for _, dst, m in sent_of(world, PuAckMsg)] == [
        (3, ((rec(9, (3, 1, 0), origin=3), True),)),
        (3, ((below, False),)),
    ]


def test_the_advert_of_a_departed_request_reaches_no_fallback_push_up() -> None:
    # run_fallback_push_up does not test for an inactive request: the
    # engine's purge has to take the advert out of the backlog
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.enter_f_mode()
    node.push_up = keyed(rec(5, (3, 1, 0), origin=3))
    node.outstanding_pu = {9}
    world.gone.add(5)
    node.notify_gone(5)
    node.handle_push_up_acks([(rec(9, (3, 1, 0), origin=3), True)])
    assert [(dst, m.acks) for _, dst, m in world.sent] == [
        (3, ((rec(9, (3, 1, 0), origin=3), True),)),
    ]
    assert not any(text.startswith("f-pu ") for _, text in world.lines)


def test_fallback_push_up_refuses_everything() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.run_fallback_push_up(
        [rec(9, (3, 1, 0), origin=3), rec(8, (4, 1, 0), origin=4)]
    )
    assert world.placements == []
    assert [(dst, msg.acks[0][1]) for _, dst, msg in world.sent] == [
        (3, False),
        (4, False),
    ]


def test_fallback_push_up_empty_is_silent() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.run_fallback_push_up(())
    assert world.sent == [] and world.placements == []


def test_fallback_push_up_settles_own_reservation() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.assigned = {9: 2}
    node.available = 2
    node.run_fallback_push_up([rec(9, (3, 1, 0), origin=3)])
    assert world.placements == [(9, 3)]
    assert node.assigned == {} and node.placed == {9: 2} and node.available == 2


# ---------------------------------------------------------------------------
# fallback scan


def test_fallback_scan_places_directly() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.f_mode_until = 100.0
    node.run_fallback_scan([rec(1, (3, 1, 0))])
    assert world.placements == [(1, 3)]
    assert node.assigned == {}  # no reservation step in quarantine
    assert node.placed == {1: 2} and node.available == 2


def test_fallback_scan_drops_a_backlog_record_whose_request_is_placed() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.f_mode_until = 100.0
    node.not_assigned = keyed(rec(1, (3, 1, 0)))
    world.placed_set = {1}  # placed elsewhere while its record waited here
    node.run_fallback_scan(())
    assert node.not_assigned == {} and node.pd_pending == {}
    assert world.lines == [(3, "f-scan run na=[r1]")]
    assert world.sent == [] and world.placements == []
    assert node.placed == {} and node.available == 4


def test_fallback_scan_fails_stuck_requests_during_session_wind_down() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.available = 0
    node.pd_session = idle_session(3)
    node.run_fallback_scan([rec(1, (3,))])
    assert world.failures == [(1, 3)]
    assert node.not_assigned == {}


def test_fallback_scan_schedules_push_down_when_idle() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.available = 0
    node.run_fallback_scan([rec(1, (3,))])
    assert world.failures == []
    assert list(node.pd_pending) == [1]
    assert [(kind) for _node, kind, _t in world.timers] == ["push_down"]


def test_fallback_scan_forwards_what_it_cannot_hold() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.available = 0
    node.run_fallback_scan([rec(1, (3, 1, 0))])
    ((_, dst, msg),) = world.sent
    assert dst == 1 and isinstance(msg, SfsMsg)
    assert [r.origin for r in msg.records] == [None]
    assert msg.records[0].request_id == 1


# ---------------------------------------------------------------------------
# push-down


def test_busy_node_refuses_push_down_offer() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 2)
    busy = node.pd_session = idle_session(2)
    offer = pd_rec(9, (5, 2, 0), 2)
    node.on_message(0, PdRequestMsg(initiator=0, deficit=4, records=(offer,)))
    ((_, dst, msg),) = world.sent
    assert dst == 0 and isinstance(msg, PdAckMsg)
    assert msg.deficit == 4
    assert msg.acks == ((offer, False),)
    assert node.pd_session is busy  # no second session opened


def test_start_push_down_computes_deficit_and_offers_children() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.available = 1
    node.not_assigned = keyed(rec(1, (1, 0)), rec(2, (2, 0)))
    node.pd_pending = dict.fromkeys([1, 2])
    node.start_push_down()
    assert world.push_down_count == 1
    session = node.pd_session
    assert session is not None
    # two stuck two-unit requests minus one spare unit
    assert any("pd start deficit=3" in text for _, text in world.lines)
    assert node.in_f_mode()
    ((_, dst, msg),) = world.sent
    assert dst == 1 and isinstance(msg, PdRequestMsg)
    assert msg.deficit == 3
    assert [r.request_id for r in msg.records] == [1]
    assert session.awaiting == 1


def test_push_down_offers_include_own_movable_tenants() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.available = 0
    node.placed = {7: 2}
    world.placed_set = {7}
    world.views[7] = Request(7, 0, 1, (1, 0))
    node.not_assigned = keyed(rec(1, (1, 0)))
    node.pd_pending = dict.fromkeys([1])
    node.start_push_down()
    ((_, _dst, msg),) = world.sent
    assert isinstance(msg, PdRequestMsg)
    assert [r.request_id for r in msg.records] == [1, 7]
    offered = msg.records[1]
    assert offered.origin == 0 and offered.current_host == 0
    assert offered.beta_at_initiator == 2


def test_push_down_offers_skip_relocating_tenants() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.available = 0
    node.placed = {7: 2}
    world.placed_set = {7}
    world.relocating_set = {7}
    world.views[7] = Request(7, 0, 1, (1, 0))
    node.not_assigned = keyed(rec(1, (1, 0)))
    node.pd_pending = dict.fromkeys([1])
    node.start_push_down()
    ((_, _dst, msg),) = world.sent
    assert isinstance(msg, PdRequestMsg)
    assert [r.request_id for r in msg.records] == [1]


def _offer_of(world: FakeWorld, rid: int) -> Record:
    """The record for ``rid`` in the one push-down offer just sent."""
    ((_, _dst, msg),) = world.sent
    assert isinstance(msg, PdRequestMsg)
    (offered,) = (r for r in msg.records if r.request_id == rid)
    return offered


def _stall(node: ProtocolNode, stuck: Record) -> None:
    """Queue ``stuck`` for a push-down at ``node``, the last one closed."""
    node.pd_session = None
    node.world.sent.clear()
    node.not_assigned = keyed(stuck)
    node.pd_pending = dict.fromkeys([stuck.request_id])


def test_push_down_offer_follows_a_move_within_reach() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.available = 0
    node.placed = {7: 2}
    world.placed_set = {7}
    world.views[7] = Request(7, 0, 3, (3, 1, 0))
    _stall(node, rec(1, (3, 1)))
    node.start_push_down()
    first = _offer_of(world, 7)
    assert first.feasible == (3, 1, 0)
    _stall(node, rec(2, (3, 1)))
    node.start_push_down()
    assert _offer_of(world, 7) is first  # reach unchanged: the record is reused
    # the user moves to leaf 4; s1 stays in reach, so the service stays here
    world.views[7] = Request(7, 0, 4, (4, 1, 0))
    _stall(node, rec(3, (4, 1)))
    node.start_push_down()
    moved = _offer_of(world, 7)
    assert moved.feasible == (4, 1, 0)
    assert (moved.origin, moved.current_host, moved.beta_at_initiator) == (1, 1, 2)


def test_release_drops_the_cached_offer() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.available = 0
    node.placed = {7: 2}
    world.placed_set = {7}
    world.views[7] = Request(7, 0, 1, (1, 0))
    _stall(node, rec(1, (1, 0)))
    node.start_push_down()
    assert set(node.hosted_offers) == {7}
    node.release(7)
    assert node.hosted_offers == {}


@st.composite
def _pruned_tree(draw: st.DrawFn) -> Topology:
    """A tree of arity 1-4 and 2-5 levels with random subtrees pruned; a
    node always keeps its first child, so every leaf stays at level 0."""
    arity = draw(st.integers(1, 4))
    levels = draw(st.integers(2, 5))
    full = build_tree(levels=levels, arity=arity, leaf_capacity=4)
    prune = tuple(
        child
        for parent in full.nodes
        for child in full.children(parent)[1:]
        if draw(st.booleans())
    )
    return build_tree(levels=levels, arity=arity, leaf_capacity=4, prune=prune)


def _walk_step(
    node: ProtocolNode, session: PdSession, call: Callable[[], None]
) -> bool:
    """Run one step of a push-down walk and check each child it visited
    against the oracle; True while the walk awaits a child's ack."""
    world = node.world
    pending = list(session.pending_children)
    call()
    visited = pending[: len(pending) - len(session.pending_children)]
    records = list(session.records.values())  # offers pop nothing
    for child in visited:
        offer = push_down_offer(records, node.node_id, child)
        if offer:
            assert child == visited[-1] == session.awaiting
            _src, dst, msg = world.sent[-1]
            assert dst == child and isinstance(msg, PdRequestMsg)
            assert msg.records == tuple(offer)
    return session.awaiting is not None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_push_down_relevance_agrees_with_a_subtree_scan(data: st.DataObject) -> None:
    """A whole push-down walk at an inner node, over offered records and
    the node's own reservations and tenants: after random acks and
    departures, each child's offer is the oracle's filter of the records
    still in play, and the walk opens only if no offered record's origin
    lies on its reach below the node; the first that does raises."""
    topology = data.draw(_pruned_tree())
    inner = [n for n in topology.nodes if topology.children(n)]
    world = FakeWorld(topology)
    node = make_node(world, data.draw(st.sampled_from(inner)))

    def reach() -> tuple[int, ...]:
        path = topology.path_to_root(data.draw(st.sampled_from(topology.leaves)))
        return path[: data.draw(st.integers(1, len(path)))]

    origins = st.sampled_from([None, None, None, *topology.nodes])
    offered = [
        pd_rec(rid, reach(), 2, origin=data.draw(origins))
        for rid in range(data.draw(st.integers(0, 8)))
    ]
    for rid in range(100, 100 + data.draw(st.integers(0, 3))):
        node.push_up[rid] = rec(rid, reach(), origin=node.node_id)
        node.assigned[rid] = 2
    for rid in range(200, 200 + data.draw(st.integers(0, 3))):
        feasible = reach()
        node.placed[rid] = 2
        world.placed_set.add(rid)
        world.views[rid] = Request(rid, 0, feasible[0], feasible)
    node.available = 0  # nothing fits here, so the walk visits every child
    passing = [r for r in offered if passes_origin(topology, node.node_id, r)]
    if passing:
        with pytest.raises(InvariantError) as raised:
            node._open_push_down(offered, topology.root, None, 10**6)
        rid = passing[0].request_id
        assert str(raised.value) == f"push-down r{rid} passes its origin"
        assert node.pd_session is None
        return
    node._open_push_down(offered, topology.root, None, 10**6)
    session = node.pd_session

    def depart() -> None:
        in_play = sorted(session.records)
        if in_play:
            for rid in data.draw(st.lists(st.sampled_from(in_play), max_size=3)):
                world.gone.add(rid)
                node.notify_gone(rid)

    depart()
    awaiting = _walk_step(node, session, node._continue_push_down)
    while awaiting:
        child = session.awaiting
        _src, _dst, offer = world.sent[-1]
        assert isinstance(offer, PdRequestMsg)
        depart()
        size = len(offer.records)
        hosted = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        ack = PdAckMsg(topology.root, 10**6, tuple(zip(offer.records, hosted)))
        awaiting = _walk_step(
            node, session, lambda: node.handle_push_down_ack(child, ack)
        )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_an_open_builds_what_the_full_open_builds_where_the_walk_reads_it(
    data: st.DataObject,
) -> None:
    """A push-down open at any node, leaf or inner, over offered records,
    the node's own reservations and its tenants, agrees with the oracle
    that builds every record: the ids it logs, ``hostable``, ``by_child``
    and each session record the walk and the acks read, which are those
    of ``hostable`` and ``by_child``.  Request ids come from one small
    pool, so an offered id may also be one the node hosts; a tenant may
    be relocating; and a tenant's cached offer may be current or built
    for a reach its user has since left.  No offered record's origin lies
    below the node: the caller's own open refuses to offer one."""
    topology = data.draw(_pruned_tree())
    world = FakeWorld(topology)
    node = make_node(world, data.draw(st.sampled_from(topology.nodes)))
    ids = st.integers(0, 11)

    def reach() -> tuple[int, ...]:
        path = topology.path_to_root(data.draw(st.sampled_from(topology.leaves)))
        return path[: data.draw(st.integers(1, len(path)))]

    origins = st.sampled_from([None, None, *topology.nodes])
    offered = {}
    for rid in data.draw(st.lists(ids, max_size=6, unique=True)):
        offer = pd_rec(rid, reach(), 2, origin=data.draw(origins))
        if not passes_origin(topology, node.node_id, offer):
            offered[rid] = offer
    for rid in data.draw(st.lists(ids, max_size=3, unique=True)):
        node.push_up[rid] = rec(rid, reach(), origin=node.node_id)
        node.assigned[rid] = 2
        if data.draw(st.booleans()):
            node.outstanding_pu.add(rid)
    for rid in data.draw(st.lists(ids, max_size=6, unique=True)):
        if rid in node.assigned:
            continue
        feasible = reach()
        node.placed[rid] = 2
        world.views[rid] = Request(rid, 0, feasible[0], feasible)
        world.placed_set.add(rid)
        if data.draw(st.booleans()):
            world.relocating_set.add(rid)
        cached = data.draw(st.sampled_from(["none", "current", "stale"]))
        if cached != "none":
            seen = feasible if cached == "current" else reach()
            offer = pd_rec(rid, seen, 2, origin=node.node_id, current_host=node.node_id)
            node.hosted_offers[rid] = offer
    want_ids, want_records, want_by_child, want_hostable = full_push_down_open(
        node, list(offered.values())
    )
    got_ids = node._open_push_down(list(offered.values()), topology.root, None, 9)
    session = node.pd_session
    assert session is not None
    assert got_ids == want_ids
    assert session.hostable == want_hostable
    assert session.by_child == want_by_child
    read = want_hostable + [r for recs in want_by_child.values() for r in recs]
    assert [session.records[r.request_id] for r in read] == read
    # the session holds the full open's records, in order, less the
    # tenants a leaf has no child to offer and no offered record to replace
    kept = [(rid, r) for rid, r in want_records.items() if rid in session.records]
    assert list(session.records.items()) == kept
    dropped = set(want_records) - set(session.records)
    assert node.level == 0 or not dropped
    assert all(want_records[rid].current_host == node.node_id for rid in dropped)


def test_a_hosting_pass_needs_free_units_of_the_least_demand() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1, demand={0: 3, 1: 2})
    offers = (pd_rec(8, (3, 1, 0), 4), pd_rec(9, (3, 1, 0), 4, class_id=1))
    node._open_push_down(list(offers), 0, 0, 5, offers)
    node.available = 1  # one unit below the least demand here
    assert node._hosting_pass() == ([], 5)
    node.available = 2  # r8 needs three units, r9 two
    assert node._hosting_pass() == ([offers[1]], 1)


def test_a_leaf_lists_its_own_services_by_id_and_hosts_only_offers() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1, demand={0: 1})
    node.assigned = {5: 1}
    node.push_up = keyed(rec(5, (1, 0), origin=1))
    node.placed = {7: 1}
    world.placed_set = {7}
    world.views[7] = Request(7, 0, 1, (1, 0))
    node.available = 2
    # r7 is also offered: as the node's own tenant it is not hostable here
    offers = (pd_rec(9, (1, 0), 1), pd_rec(7, (1, 0), 1))
    node.accept_push_down(0, PdRequestMsg(initiator=0, deficit=3, records=offers))
    assert (1, "pd accept from s0 deficit=3 records=[r9,r7,r5,r7]") in world.lines
    assert [text for _, text in world.lines if "pd host" in text] == ["pd host r9"]
    ((_, dst, msg),) = sent_of(world, PdAckMsg)
    assert dst == 0 and msg.acks == ((offers[0], True), (offers[1], False))


def test_accept_push_down_hosts_and_shrinks_deficit() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    offer = pd_rec(9, (3, 1, 0), 3)  # three units at the initiator, two here
    node.accept_push_down(1, PdRequestMsg(initiator=0, deficit=5, records=(offer,)))
    assert world.placements == [(9, 3)]
    assert node.placed == {9: 2} and node.available == 2
    ((_, dst, msg),) = world.sent
    assert dst == 1 and isinstance(msg, PdAckMsg)
    assert msg.deficit == 2  # relieved by the initiator-side demand, not ours
    assert msg.acks == ((offer, True),)
    assert node.pd_session is None
    assert node.in_f_mode()


def test_push_down_breaks_before_descending_once_satisfied() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.available = 0
    offer = pd_rec(9, (3, 1, 0), 2)
    node.accept_push_down(0, PdRequestMsg(initiator=0, deficit=0, records=(offer,)))
    # deficit already clear: no child is bothered
    assert sent_of(world, PdRequestMsg) == []
    ((_, dst, msg),) = sent_of(world, PdAckMsg)
    assert dst == 0 and msg.deficit == 0
    assert msg.acks == ((offer, False),)
    assert any("pd break" in text for _, text in world.lines)


def test_push_down_walks_children_one_at_a_time() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.available = 0
    node.not_assigned = keyed(rec(1, (1, 0)), rec(2, (2, 0)))
    node.pd_pending = dict.fromkeys([1, 2])
    node.start_push_down()
    assert [dst for _, dst, m in world.sent if isinstance(m, PdRequestMsg)] == [1]
    # the child hosted r1 and knocked two units off the deficit
    hosted = pd_rec(1, (1, 0), 2)
    node.handle_push_down_ack(1, PdAckMsg(initiator=0, deficit=2, acks=((hosted, True),)))
    session = node.pd_session
    assert session is not None and session.deficit == 2
    assert [r.request_id for r in session.records.values()] == [2]
    # the walk moved on to the second child with the updated deficit
    last_dst, last_msg = world.sent[-1][1], world.sent[-1][2]
    assert last_dst == 2 and isinstance(last_msg, PdRequestMsg)
    assert last_msg.deficit == 2


def test_push_down_ack_releases_hosted_reservation() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.available = 0
    node.assigned = {5: 2}
    mine = rec(5, (1, 0), origin=0)
    node.push_up = keyed(mine)
    node.not_assigned = keyed(rec(1, (1, 0)))
    node.pd_pending = dict.fromkeys([1])
    node.start_push_down()
    offered = next(
        m for _, _, m in world.sent if isinstance(m, PdRequestMsg)
    ).records
    assert [r.request_id for r in offered] == [1, 5]
    acks = tuple((r, r.request_id == 5) for r in offered)
    node.handle_push_down_ack(1, PdAckMsg(initiator=0, deficit=0, acks=acks))
    assert node.assigned == {} and node.push_up == {}
    assert any("pd release r5" in text for _, text in world.lines)
    # the freed slot goes straight to the stuck request in the local pass
    assert world.placements == [(1, 0)]
    assert node.available == 0 and node.not_assigned == {}
    assert node.pd_session is None


def test_finish_push_down_drains_deferred_messages() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.pd_session = idle_session(1)
    node.on_message(0, PuAckMsg(acks=((rec(9, (3, 1, 0), origin=3), True),)))
    assert node.deferred and world.sent == []
    node._finish_push_down()
    assert not node.deferred
    # the parked ack was relayed toward its origin after the session closed
    assert [(dst, type(m)) for _, dst, m in world.sent] == [(3, PuAckMsg)]


# ---------------------------------------------------------------------------
# quarantine bookkeeping


def test_f_mode_extends_to_the_latest_deadline_only() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.enter_f_mode()
    assert node.f_mode_until == pytest.approx(10.0)
    world.time = 4.0
    node.enter_f_mode()
    assert node.f_mode_until == pytest.approx(14.0)
    node.f_mode_until = 100.0
    world.time = 5.0
    node.enter_f_mode()  # never shortens
    assert node.f_mode_until == pytest.approx(100.0)


def test_f_mode_boundary_is_exclusive() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.f_mode_until = 10.0
    world.time = 9.999
    assert node.in_f_mode()
    world.time = 10.0
    assert not node.in_f_mode()
    world.time = 10.001
    assert not node.in_f_mode()


def test_notify_gone_scrubs_every_trace() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.run_scan([rec(1, (1, 0))])
    assert node.assigned == {1: 2} and node.available == 2
    node.notify_gone(1)
    assert node.assigned == {} and node.available == 4
    assert node.push_up == {} and node.outstanding_pu == set()
    node.scan_buf = [rec(2, (1, 0))]
    node.pd_pending = dict.fromkeys([2])
    node.notify_gone(2)
    assert node.scan_buf == [] and node.pd_pending == {}


def test_place_books_on_the_nodes_own_capacity() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.available = 1
    with pytest.raises(InvariantError, match="capacity breach at s1 placing r1"):
        node._place(rec(1, (1, 0)), reserved=False)
    node.available, node.assigned = 2, {2: 3}
    with pytest.raises(InvariantError, match="reservation mismatch at s1 placing r2"):
        node._place(rec(2, (1, 0)), reserved=True)
    assert world.placements == [] and node.placed == {}


def test_release_frees_a_hosted_service() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.run_fallback_scan([rec(1, (1, 0))])
    assert node.placed == {1: 2} and node.available == 2
    assert node.release(1) == 2
    assert node.placed == {} and node.available == 4


def test_on_timer_rejects_unknown_kind() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    with pytest.raises(ValueError):
        node.on_timer("mystery")


def _advert_from_elsewhere(node: ProtocolNode) -> None:
    node.run_push_up([rec(1, (3, 1, 0), origin=5)])


def _off_path_record(node: ProtocolNode) -> None:
    node.available = 0
    node.run_scan([rec(1, (4,))])


def _unhostable_stuck_request(node: ProtocolNode) -> None:
    node.not_assigned = keyed(rec(1, (3,), class_id=1))
    node.pd_pending = dict.fromkeys([1])
    node.start_push_down()


def _resume_while_awaiting(node: ProtocolNode) -> None:
    node.pd_session = PdSession(
        node.node_id, None, 1, {}, [], awaiting=node.node_id + 1
    )
    node._continue_push_down()


@pytest.mark.parametrize(
    "node_id, corrupt, error, message",
    [
        (1, _advert_from_elsewhere, InvariantError, "node 5 is not below 1"),
        (
            3,
            _off_path_record,
            InvariantError,
            "record r1 stranded at s3: feasible set is not a contiguous path prefix",
        ),
        (
            3,
            _unhostable_stuck_request,
            InvariantError,
            "stuck r1 is not hostable at s3",
        ),
        (
            1,
            _resume_while_awaiting,
            InvariantError,
            "push-down at s1 resumed while its offer to s2 is unanswered",
        ),
        (
            1,
            lambda node: node.on_message(3, PdAckMsg(initiator=1, deficit=0, acks=())),
            InvariantError,
            "unexpected push-down ack from s3 at s1",
        ),
        (
            1,
            lambda node: node.on_message(0, object()),
            TypeError,
            "unknown message object",
        ),
    ],
    ids=[
        "not-below", "stranded", "not-hostable", "resumed", "unexpected-ack", "unknown"
    ],
)
def test_a_node_refuses_what_cannot_happen(
    node_id: int, corrupt: Callable[[ProtocolNode], None], error: type, message: str
) -> None:
    node = make_node(FakeWorld(three_level()), node_id)
    with pytest.raises(error) as raised:
        corrupt(node)
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# randomized consistency: reservations never exceed capacity


def test_scan_never_overcommits_capacity() -> None:
    rng = random.Random(11)
    for _ in range(60):
        world = FakeWorld(two_level())
        node = make_node(world, 1, demand={0: rng.randint(1, 3)})
        records = [
            rec(rid, (1, 0) if rng.random() < 0.7 else (1,))
            for rid in range(rng.randint(1, 8))
        ]
        node.run_scan(records)
        committed = sum(node.assigned.values()) + sum(node.placed.values())
        assert committed <= node.capacity
        assert node.available == node.capacity - committed


# ---------------------------------------------------------------------------
# the World seam


def _public_methods(cls: type) -> set[str]:
    return {
        name
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
    }


def _parameters(method: object) -> list[tuple[str, object]]:
    """Each parameter's name and kind, so ``*args`` differs from ``args``."""
    return [(p.name, p.kind) for p in inspect.signature(method).parameters.values()]


def test_fake_and_engine_implement_exactly_the_world_seam() -> None:
    seam = _public_methods(World)
    assert len(seam) <= 7
    assert _public_methods(FakeWorld) == seam
    # the one request table, in place of per-request queries
    assert set(World.__annotations__) == {"requests"}
    fake = FakeWorld(two_level())
    engine = build_simulator(fig_two_tier_scenario(), "dapp")
    for world in (fake, engine):
        assert isinstance(world.requests, Mapping)
    engine.run(fig_two_tier_scenario().trace)
    view = engine.requests[2]
    assert (view.request_id, view.state, view.generation) == (2, "placed", 0)
    assert fake.requests[2] == (None, None, "waiting", 0)
    assert seam <= _public_methods(Simulator)
    for name in sorted(seam):
        params = _parameters(getattr(World, name))
        for impl in (FakeWorld, Simulator):
            assert _parameters(getattr(impl, name)) == params, (
                impl.__name__,
                name,
            )
