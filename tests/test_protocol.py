"""Unit tests for the distributed placement protocol's node state machine.

Each test drives a single :class:`ProtocolNode` (or a tiny cluster of them)
through a scripted :class:`FakeWorld`, so stage behaviour is pinned without
the event loop, link model, or timers getting involved.
"""

from __future__ import annotations

import random

import pytest

from edgeplace.model import Request, Topology, build_tree
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
    sort_requests,
)


class FakeWorld:
    """Scripted engine stand-in: records every side effect for assertions."""

    def __init__(
        self,
        topology: Topology,
        class_demand: dict[int, int] | None = None,
    ) -> None:
        self.topology = topology
        self.time = 0.0
        self.class_demand = dict(class_demand or {0: 2})
        self.node_demand: dict[tuple[int, int], int | None] = {}
        self.nodes: dict[int, ProtocolNode] = {}
        self.sent: list[tuple[int, int, object]] = []
        self.placements: list[tuple[int, int, bool]] = []
        self.failures: list[tuple[int, int]] = []
        self.timers: list[tuple[int, str, float]] = []
        self.gone: set[int] = set()
        self.placed_set: set[int] = set()
        self.relocating_set: set[int] = set()
        self.class_of: dict[int, int] = {}
        self.generations: dict[int, int] = {}
        self.views: dict[int, Request] = {}
        self.push_down_count = 0
        self.lines: list[tuple[int, str]] = []

    # --- World protocol ---------------------------------------------------

    def now(self) -> float:
        return self.time

    def demand(self, class_id: int, node: int) -> int | None:
        if (class_id, node) in self.node_demand:
            return self.node_demand[(class_id, node)]
        return self.class_demand.get(class_id)

    def send(self, src: int, dst: int, msg: object) -> None:
        self.sent.append((src, dst, msg))

    def commit_placement(self, request_id: int, node: int, from_reservation: bool) -> None:
        self.placements.append((request_id, node, from_reservation))
        self.placed_set.add(request_id)
        # mirror the engine's node bookkeeping so capacity math stays honest
        state = self.nodes.get(node)
        if state is not None:
            units = self.demand(self.class_of.get(request_id, 0), node)
            assert units is not None
            if from_reservation:
                reserved = state.assigned.pop(request_id)
                assert reserved == units
            else:
                assert units <= state.available, "capacity breach"
                state.available -= units
            state.placed[request_id] = units

    def report_failure(self, request_id: int, node: int) -> None:
        self.failures.append((request_id, node))
        self.gone.add(request_id)

    def arm_timer(self, node: int, kind: str, deadline: float) -> None:
        self.timers.append((node, kind, deadline))

    def is_active(self, request_id: int) -> bool:
        return request_id not in self.gone

    def is_placed(self, request_id: int) -> bool:
        return request_id in self.placed_set

    def is_relocating(self, request_id: int) -> bool:
        return request_id in self.relocating_set

    def record_current(self, rec: Record) -> bool:
        return rec.generation == self.generations.get(rec.request_id, 0)

    def request_info(self, request_id: int) -> Request | None:
        return self.views.get(request_id)

    def note_push_down(self) -> None:
        self.push_down_count += 1

    def log(self, node: int, text: str) -> None:
        self.lines.append((node, text))


def rec(
    rid: int,
    feasible: tuple[int, ...],
    *,
    class_id: int = 0,
    origin: int | None = None,
    is_new: bool = True,
    current_host: int | None = None,
) -> Record:
    return Record(
        request_id=rid,
        class_id=class_id,
        origin=origin,
        feasible=feasible,
        is_new=is_new,
        current_host=current_host,
    )


def pd_rec(
    rid: int,
    feasible: tuple[int, ...],
    beta: int,
    *,
    class_id: int = 0,
    origin: int | None = None,
    is_new: bool = True,
    current_host: int | None = None,
) -> Record:
    return Record(
        request_id=rid,
        class_id=class_id,
        origin=origin,
        feasible=feasible,
        is_new=is_new,
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


def make_node(world: FakeWorld, node_id: int) -> ProtocolNode:
    node = ProtocolNode(world, world.topology, node_id, ProtocolTiming())
    world.nodes[node_id] = node
    return node


def sent_of(world: FakeWorld, kind: type) -> list[tuple[int, int, object]]:
    return [entry for entry in world.sent if isinstance(entry[2], kind)]


# ---------------------------------------------------------------------------
# request ordering


def test_sort_requests_prefers_fewest_outside_options() -> None:
    subtree = frozenset({1})
    trapped = rec(9, (1,))  # nowhere to go if this subtree refuses
    flexible = rec(2, (1, 0))
    assert sort_requests([flexible, trapped], subtree, {0: 2}) == [trapped, flexible]


def test_sort_requests_breaks_ties_by_demand_then_age_then_id() -> None:
    subtree = frozenset({1, 0})
    light = rec(7, (1, 0), class_id=1)
    heavy = rec(3, (1, 0), class_id=0)
    assert sort_requests([heavy, light], subtree, {0: 5, 1: 2}) == [light, heavy]
    relocated = rec(8, (1, 0), is_new=False)
    fresh = rec(4, (1, 0), is_new=True)
    assert sort_requests([fresh, relocated], subtree, {0: 2}) == [relocated, fresh]
    a, b = rec(6, (1, 0)), rec(5, (1, 0))
    assert sort_requests([a, b], subtree, {0: 2}) == [b, a]


def test_sort_requests_unknown_demand_sorts_last() -> None:
    subtree = frozenset({1, 0})
    known = rec(9, (1, 0), class_id=0)
    unknown = rec(1, (1, 0), class_id=5)  # no demand entry here
    assert sort_requests([unknown, known], subtree, {0: 2}) == [known, unknown]


# ---------------------------------------------------------------------------
# timing


def test_batch_deadlines_stretch_with_level() -> None:
    timing = ProtocolTiming()
    assert timing.scan_window == pytest.approx(0.0001)
    assert timing.push_down_window == pytest.approx(0.0004)
    assert timing.fallback_period == pytest.approx(10.0)
    assert timing.scan_deadline(0, 5.0) == pytest.approx(5.0001)
    assert timing.scan_deadline(2, 0.0) == pytest.approx(0.0003)
    assert timing.push_down_deadline(3, 0.0) == pytest.approx(0.0016)


def test_buffer_scan_input_arms_one_timer_and_merges() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    first, second = rec(1, (1, 0)), rec(2, (1, 0))
    node.buffer_scan_input([first], [])
    node.buffer_scan_input([second], [])
    assert world.timers == [(1, "scan", pytest.approx(0.0001))]
    assert node.scan_buf_na == [first, second]


def test_empty_buffer_does_not_arm() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.buffer_scan_input([], [])
    assert world.timers == []
    assert not node.scan_timer_armed


# ---------------------------------------------------------------------------
# bottom-up scan


def test_scan_reserves_locally_and_adverts_upward() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.run_scan([rec(1, (1, 0))], [])
    assert node.assigned == {1: 2}
    assert node.available == 2
    assert world.placements == []  # reserved, not yet placed
    ((src, dst, msg),) = world.sent
    assert (src, dst) == (1, 0)
    assert isinstance(msg, SfsMsg)
    assert msg.not_assigned == ()
    assert len(msg.push_up) == 1 and msg.push_up[0].origin == 1
    assert node.outstanding_pu.keys() == {1}


def test_scan_places_outright_at_top_feasible_node() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.run_scan([rec(1, (1, 0))], [])
    assert world.placements == [(1, 0, True)]
    assert world.sent == []
    # the reservation converted into a placement without double-charging
    assert node.assigned == {} and node.placed == {1: 2}
    assert node.available == 6


def test_scan_full_top_queues_push_down() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 0)
    node.available = 1  # demand is 2: nothing fits any more
    node.run_scan([rec(1, (1, 0))], [])
    assert list(node.pd_pending) == [1]
    assert world.timers == [(0, "push_down", pytest.approx(0.0008))]
    assert world.sent == []  # the push-down epilogue owns the leftovers


def test_scan_forwards_unassignable_records_to_parent() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.available = 0
    node.run_scan([rec(1, (1, 0))], [])
    ((_, dst, msg),) = world.sent
    assert dst == 0
    assert isinstance(msg, SfsMsg)
    assert len(msg.not_assigned) == 1 and msg.not_assigned[0].request_id == 1
    assert msg.push_up == ()


def test_scan_drops_served_but_processes_relocating_records() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    world.placed_set = {1, 2}
    world.relocating_set = {2}
    node.run_scan([rec(1, (1, 0)), rec(2, (1, 0), is_new=False)], [])
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
    node.run_scan([live, live, dead, stale], [])
    assert set(node.assigned) == {1}


def test_scan_timer_respects_push_down_session() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    node.buffer_scan_input([rec(1, (1, 0))], [])
    node.within_pd = True
    node.on_timer("scan")
    # nothing ran: the buffers survive for the session epilogue
    assert node.scan_buf_na and not node.assigned


# ---------------------------------------------------------------------------
# push-up


def test_push_up_hosts_when_capacity_allows() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.run_push_up([rec(9, (3, 1, 0), origin=3)])
    assert world.placements == [(9, 1, False)]
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
    assert world.placements == [(9, 3, True)]
    assert world.sent == []
    assert node.assigned == {} and node.placed == {9: 2}


def test_push_up_one_slot_goes_to_first_in_sorted_order() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.available = 2  # exactly one two-unit slot
    contender_a = rec(5, (3, 1), origin=3)
    contender_b = rec(4, (4, 1), origin=4)
    node.run_push_up([contender_a, contender_b])
    # same constraint profile: the lower request id wins the slot
    assert world.placements == [(4, 1, False)]
    by_kind = {type(msg): (dst, msg) for _, dst, msg in world.sent}
    assert by_kind[PuAckMsg][0] == 4
    assert by_kind[PuMsg][0] == 3
    assert by_kind[PuMsg][1].records[0].request_id == 5


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
    assert world.placements == [(8, 3, True)]
    assert node.assigned == {} and node.placed == {8: 2}


def test_push_up_ack_relays_toward_origin() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.handle_push_up_acks([(rec(9, (3, 1, 0), origin=3), True)])
    ((_, dst, msg),) = world.sent
    assert dst == 3 and isinstance(msg, PuAckMsg)


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
    assert world.placements == [(9, 3, True)]


# ---------------------------------------------------------------------------
# fallback scan


def test_fallback_scan_places_directly() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.f_mode_until = 100.0
    node.run_fallback_scan([rec(1, (3, 1, 0))], [])
    assert world.placements == [(1, 3, False)]
    assert node.assigned == {}  # no reservation step in quarantine


def test_fallback_scan_fails_stuck_requests_during_session_wind_down() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.available = 0
    node.within_pd = True
    node.run_fallback_scan([rec(1, (3,))], [])
    assert world.failures == [(1, 3)]
    assert node.not_assigned == {}


def test_fallback_scan_schedules_push_down_when_idle() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.available = 0
    node.run_fallback_scan([rec(1, (3,))], [])
    assert world.failures == []
    assert list(node.pd_pending) == [1]
    assert [(kind) for _node, kind, _t in world.timers] == ["push_down"]


def test_fallback_scan_forwards_what_it_cannot_hold() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    node.available = 0
    node.run_fallback_scan([rec(1, (3, 1, 0))], [])
    ((_, dst, msg),) = world.sent
    assert dst == 1 and isinstance(msg, SfsMsg)
    assert msg.push_up == ()
    assert msg.not_assigned[0].request_id == 1


# ---------------------------------------------------------------------------
# push-down


def test_busy_node_refuses_push_down_offer() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 2)
    node.within_pd = True
    offer = pd_rec(9, (5, 2, 0), 2)
    node.on_message(0, PdRequestMsg(initiator=0, deficit=4, records=(offer,)))
    ((_, dst, msg),) = world.sent
    assert dst == 0 and isinstance(msg, PdAckMsg)
    assert msg.deficit == 4
    assert msg.acks == ((offer, False),)
    assert node.pd_session is None


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
    assert offered.beta_at_initiator == 2 and not offered.is_new


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


def test_accept_push_down_hosts_and_shrinks_deficit() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 3)
    offer = pd_rec(9, (3, 1, 0), 3)  # three units at the initiator, two here
    node.accept_push_down(1, PdRequestMsg(initiator=0, deficit=5, records=(offer,)))
    assert world.placements == [(9, 3, False)]
    ((_, dst, msg),) = world.sent
    assert dst == 1 and isinstance(msg, PdAckMsg)
    assert msg.deficit == 2  # relieved by the initiator-side demand, not ours
    assert msg.acks == ((offer, True),)
    assert node.pd_session is None and not node.within_pd
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
    assert world.placements == [(1, 0, False)]
    assert node.available == 0 and node.not_assigned == {}
    assert not node.within_pd and node.pd_session is None


def test_finish_push_down_drains_deferred_messages() -> None:
    world = FakeWorld(three_level())
    node = make_node(world, 1)
    node.within_pd = True
    node.on_message(0, PuAckMsg(acks=((rec(9, (3, 1, 0), origin=3), True),)))
    assert node.deferred and world.sent == []
    node.pd_session = PdSession(
        initiator=1, caller=None, deficit=0, records={}, pending_children=[]
    )
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
    node.run_scan([rec(1, (1, 0))], [])
    assert node.assigned == {1: 2} and node.available == 2
    node.notify_gone(1)
    assert node.assigned == {} and node.available == 4
    assert node.push_up == {} and node.outstanding_pu == {}
    node.scan_buf_na = [rec(2, (1, 0))]
    node.pd_pending = dict.fromkeys([2])
    node.notify_gone(2)
    assert node.scan_buf_na == [] and node.pd_pending == {}


def test_on_timer_rejects_unknown_kind() -> None:
    world = FakeWorld(two_level())
    node = make_node(world, 1)
    with pytest.raises(ValueError):
        node.on_timer("mystery")


# ---------------------------------------------------------------------------
# randomized consistency: reservations never exceed capacity


def test_scan_never_overcommits_capacity() -> None:
    rng = random.Random(11)
    for _ in range(60):
        world = FakeWorld(two_level(), class_demand={0: rng.randint(1, 3)})
        node = make_node(world, 1)
        records = [
            rec(rid, (1, 0) if rng.random() < 0.7 else (1,))
            for rid in range(rng.randint(1, 8))
        ]
        node.run_scan(records, [])
        committed = sum(node.assigned.values()) + sum(node.placed.values())
        assert committed <= node.capacity
        assert node.available == node.capacity - committed
