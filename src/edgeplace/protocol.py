"""Distributed placement protocol: per-datacenter state machines.

Placement decisions are made by the datacenters themselves through five
message-driven stages:

* **bottom-up scan** — a request travels from its PoA toward the root until
  some datacenter can reserve capacity for it; reservations made below a
  request's highest feasible node are advertised upward so an ancestor may
  still claim the request.
* **push-up** — the highest feasible node walks advertised reservations
  back down toward their origin, hosting what it can along the way and
  acknowledging the rest, so each request ends at the highest node with
  room.
* **push-down** — when the top feasible node of some request is full it
  recursively offloads hosted and reserved services into its subtree
  (depth-first, one child at a time) until enough capacity is freed; a
  running CPU deficit threads through the recursion and stops it early.
* **fallback scan / fallback push-up** — after a push-down, and for a
  quarantine period afterwards, nodes place requests immediately where
  they stand and refuse new reservations, trading optimality for fast
  convergence while the neighbourhood is congested.

Nodes never share memory: all interaction happens through the message and
timer services of a :class:`World`, which the simulation engine implements.
A node holds its backlogs (unassigned records, reservation adverts, a
push-down session's records, requests awaiting a push-down) as
insertion-ordered dicts keyed by request id, so withdrawing one request is a
single pop; a periodic re-sort rebuilds the unassigned backlog in placement
order.  Scan buffers stay lists, because one can briefly hold two
generations of a request.  Every container iterates in a deterministic
order, so identical inputs replay to identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Iterable, Mapping, Protocol, Sequence

from .model import DatacenterId, Request, RequestId, Topology

__all__ = [
    "Record",
    "SfsMsg",
    "PuMsg",
    "PuAckMsg",
    "PdRequestMsg",
    "PdAckMsg",
    "ProtocolTiming",
    "World",
    "PdSession",
    "ProtocolNode",
    "sort_requests",
]


# --------------------------------------------------------------------------
# records and messages


@dataclass(frozen=True)
class Record:
    """One request as carried by scan, push-up and push-down traffic.

    ``origin`` is the datacenter currently holding the request's
    reservation or placement (None while nobody does).  ``current_host``
    remembers where a relocated user's service still runs, so hosting the
    record elsewhere is billed as a migration.  Push-down records also
    carry ``beta_at_initiator``, the request's CPU demand at the push-down
    initiator, so deficit bookkeeping survives relaying into subtrees where
    the demand differs; scan and push-up records leave it None.
    """

    request_id: RequestId
    class_id: int
    origin: DatacenterId | None
    feasible: tuple[DatacenterId, ...]
    is_new: bool
    current_host: DatacenterId | None = None
    #: bumped by the engine when a user movement re-issues the record, so
    #: stale in-flight copies are dropped on merge (simulator bookkeeping
    #: only — not part of the wire layout)
    generation: int = 0
    beta_at_initiator: int | None = None

    @property
    def top_feasible(self) -> DatacenterId:
        return self.feasible[-1]


@dataclass(frozen=True)
class SfsMsg:
    """Bottom-up scan batch: unassigned records plus reservation adverts."""

    not_assigned: tuple[Record, ...]
    push_up: tuple[Record, ...]


@dataclass(frozen=True)
class PuMsg:
    """Push-up records still pending, descending toward their origins."""

    records: tuple[Record, ...]


@dataclass(frozen=True)
class PuAckMsg:
    """Final push-up verdicts (record, hosted-above flag), descending."""

    acks: tuple[tuple[Record, bool], ...]


@dataclass(frozen=True)
class PdRequestMsg:
    """Offer of services a subtree may absorb during a push-down."""

    initiator: DatacenterId
    deficit: int
    records: tuple[Record, ...]


@dataclass(frozen=True)
class PdAckMsg:
    """Reply to a push-down offer: per-record hosted flags and the deficit
    as updated by the answering subtree."""

    initiator: DatacenterId
    deficit: int
    acks: tuple[tuple[Record, bool], ...]


ProtocolMsg = SfsMsg | PuMsg | PuAckMsg | PdRequestMsg | PdAckMsg


@dataclass(frozen=True)
class ProtocolTiming:
    """Accumulation windows and the fallback quarantine period (seconds).

    Batch timers stretch with height: a node at level ``l`` waits
    ``(l + 1) * window`` before acting, so deeper aggregation points batch
    more traffic per run.
    """

    scan_window: float = 0.0001
    push_down_window: float = 0.0004
    fallback_period: float = 10.0

    def scan_deadline(self, level: int, now: float) -> float:
        return now + (level + 1) * self.scan_window

    def push_down_deadline(self, level: int, now: float) -> float:
        return now + (level + 1) * self.push_down_window


class World(Protocol):
    """Services the engine provides to protocol nodes."""

    def now(self) -> float: ...

    def demand(self, class_id: int, node: DatacenterId) -> int | None: ...

    def send(self, src: DatacenterId, dst: DatacenterId, msg: ProtocolMsg) -> None: ...

    def commit_placement(
        self, request_id: RequestId, node: DatacenterId, from_reservation: bool
    ) -> None: ...

    def report_failure(self, request_id: RequestId, node: DatacenterId) -> None: ...

    def arm_timer(self, node: DatacenterId, kind: str, deadline: float) -> None: ...

    def is_active(self, request_id: RequestId) -> bool: ...

    def is_placed(self, request_id: RequestId) -> bool: ...

    def is_relocating(self, request_id: RequestId) -> bool: ...

    def record_current(self, rec: Record) -> bool: ...

    def request_info(self, request_id: RequestId) -> Request | None: ...

    def note_push_down(self) -> None: ...

    def log(self, node: DatacenterId, text: str) -> None: ...


# --------------------------------------------------------------------------
# ordering


def sort_requests(
    records: Iterable[Record],
    local_subtree: frozenset[DatacenterId],
    demand_here: Mapping[int, int],
) -> list[Record]:
    """Order records most-constrained-first for placement attempts.

    Keys: fewest feasible fallbacks outside this subtree first, then the
    smallest CPU demand here, then relocated services before brand-new
    ones, then request id — a total, stable order.
    """

    def key(rec: Record) -> tuple[int, int, int, int]:
        outside = sum(1 for n in rec.feasible if n not in local_subtree)
        units = demand_here.get(rec.class_id, 1 << 30)
        return (outside, units, 1 if rec.is_new else 0, rec.request_id)

    return sorted(records, key=key)


def _without(records: list[Record], request_id: RequestId) -> list[Record]:
    return [r for r in records if r.request_id != request_id]


def _keyed(records: Iterable[Record]) -> dict[RequestId, Record]:
    """``records`` keyed by request id, in the given order."""
    return {rec.request_id: rec for rec in records}


def _rids(request_ids: Iterable[RequestId]) -> str:
    """Request ids as the event log lists them: ``r1,r4,r9``."""
    return ",".join(f"r{rid}" for rid in request_ids)


def _ids(records: Iterable[Record]) -> str:
    return _rids(r.request_id for r in records)


# --------------------------------------------------------------------------
# push-down session


@dataclass
class PdSession:
    """State of one in-progress push-down at one node.

    The recursion is asynchronous: after offering records to a child the
    node parks here until the child's ack resumes the walk.
    """

    initiator: DatacenterId
    caller: DatacenterId | None
    deficit: int
    records: dict[RequestId, Record]
    pending_children: list[DatacenterId]
    received: tuple[Record, ...] = ()
    hosted_ids: set[RequestId] = field(default_factory=set)
    awaiting: DatacenterId | None = None


# --------------------------------------------------------------------------
# the node state machine


class ProtocolNode:
    """Protocol state and handlers for one datacenter."""

    def __init__(
        self,
        world: World,
        topology: Topology,
        node_id: DatacenterId,
        timing: ProtocolTiming,
    ) -> None:
        self.world = world
        self.node_id = node_id
        self.level = topology.level(node_id)
        self.parent = topology.parent(node_id)
        self.children = topology.children(node_id)
        self.subtree = topology.subtree(node_id)
        self.child_subtree = {c: topology.subtree(c) for c in self.children}
        self._child_of = {
            n: c for c, members in self.child_subtree.items() for n in members
        }
        self.capacity = topology.capacity(node_id)
        self.available = topology.capacity(node_id)
        self.timing = timing
        # request bookkeeping
        self.assigned: dict[RequestId, int] = {}
        self.placed: dict[RequestId, int] = {}
        self.not_assigned: dict[RequestId, Record] = {}
        self.push_up: dict[RequestId, Record] = {}
        self.outstanding_pu: dict[RequestId, Record] = {}
        # batching buffers + timers
        self.scan_buf_na: list[Record] = []
        self.scan_buf_pu: list[Record] = []
        self.scan_timer_armed = False
        self.pd_pending: dict[RequestId, None] = {}  # an ordered set
        self.pd_timer_armed = False
        # push-down session & quarantine
        self.within_pd = False
        self.pd_session: PdSession | None = None
        self.deferred: list[tuple[DatacenterId, ProtocolMsg]] = []
        self.f_mode_until = float("-inf")

    # -- small helpers ----------------------------------------------------

    def _demand_here(self, class_id: int) -> int | None:
        return self.world.demand(class_id, self.node_id)

    def _sorted(self, records: Collection[Record]) -> list[Record]:
        """``records`` in placement-attempt order (see :func:`sort_requests`)."""
        demand = {
            r.class_id: u
            for r in records
            if (u := self._demand_here(r.class_id)) is not None
        }
        return sort_requests(records, self.subtree, demand)

    def _arm_timer(self, kind: str) -> None:
        """Arm the ``scan`` or ``push_down`` batch timer unless it is pending."""
        if kind == "scan":
            if self.scan_timer_armed:
                return
            self.scan_timer_armed = True
            deadline = self.timing.scan_deadline(self.level, self.world.now())
        else:
            if self.pd_timer_armed:
                return
            self.pd_timer_armed = True
            deadline = self.timing.push_down_deadline(self.level, self.world.now())
        self.world.arm_timer(self.node_id, kind, deadline)

    def in_f_mode(self) -> bool:
        return self.world.now() < self.f_mode_until

    def enter_f_mode(self) -> None:
        """Start (or extend) the post-push-down quarantine period."""
        deadline = self.world.now() + self.timing.fallback_period
        if deadline > self.f_mode_until:
            self.f_mode_until = deadline
            self.world.log(self.node_id, f"f-mode until {deadline:.6f}")

    def _child_towards(self, node: DatacenterId) -> DatacenterId:
        child = self._child_of.get(node)
        if child is None:
            raise AssertionError(f"node {node} is not below {self.node_id}")
        return child

    def _already_served(self, request_id: RequestId) -> bool:
        """True when the request sits at a host that still serves its user.

        A placed service awaiting re-placement (its user moved beyond the
        host's reach) must keep its record alive: the old placement holds
        capacity but no longer serves, and only a new one retires it.
        """
        return self.world.is_placed(request_id) and not self.world.is_relocating(
            request_id
        )

    def _merge_records(
        self, target: dict[RequestId, Record], incoming: Iterable[Record]
    ) -> None:
        for rec in incoming:
            if rec.request_id in target:
                continue
            if not self.world.is_active(rec.request_id):
                continue
            if not self.world.record_current(rec):
                continue  # superseded by a newer copy after a user move
            target[rec.request_id] = rec

    def _take_scan_input(
        self, incoming_na: Sequence[Record], incoming_pu: Sequence[Record]
    ) -> None:
        """Scan prelude: merge a batch into the backlog, most constrained first."""
        self._merge_records(self.not_assigned, incoming_na)
        self._merge_records(self.push_up, incoming_pu)
        self.not_assigned = _keyed(self._sorted(self.not_assigned.values()))

    def _take_push_up(self, incoming: Sequence[Record]) -> list[Record]:
        """Push-up prelude: claim the advert backlog plus ``incoming``."""
        for rec in incoming:
            self.outstanding_pu.pop(rec.request_id, None)
        records = self.push_up
        self.push_up = {}
        self._merge_records(records, incoming)
        return list(records.values())

    def _relay_acks(self, acks: Iterable[tuple[Record, bool]]) -> None:
        """Send push-up verdicts toward their origins, one message per child."""
        by_child: dict[DatacenterId, list[tuple[Record, bool]]] = {}
        for rec, hosted_above in acks:
            assert rec.origin is not None
            by_child.setdefault(self._child_towards(rec.origin), []).append(
                (rec, hosted_above)
            )
        for child in sorted(by_child):
            self.world.send(self.node_id, child, PuAckMsg(tuple(by_child[child])))

    # -- engine entry points ----------------------------------------------

    def buffer_scan_input(
        self,
        not_assigned: Sequence[Record],
        push_up: Sequence[Record],
    ) -> None:
        """Queue scan work (arrivals or a child's batch) behind the timer."""
        self.scan_buf_na.extend(not_assigned)
        self.scan_buf_pu.extend(push_up)
        if self.scan_buf_na or self.scan_buf_pu:
            self._arm_timer("scan")

    def on_timer(self, kind: str) -> None:
        if kind == "scan":
            self.scan_timer_armed = False
            if self.within_pd:
                return  # the session's end re-arms if work remains
            na, pu = self.scan_buf_na, self.scan_buf_pu
            self.scan_buf_na, self.scan_buf_pu = [], []
            if self.in_f_mode():
                self.run_fallback_scan(na, pu)
            else:
                self.run_scan(na, pu)
        elif kind == "push_down":
            self.pd_timer_armed = False
            if self.within_pd:
                return
            self.start_push_down()
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown timer kind {kind!r}")

    def on_message(self, sender: DatacenterId, msg: ProtocolMsg) -> None:
        if isinstance(msg, SfsMsg):
            self.buffer_scan_input(msg.not_assigned, msg.push_up)
        elif isinstance(msg, PuMsg):
            if self.within_pd:
                self.deferred.append((sender, msg))
            elif self.in_f_mode():
                self.run_fallback_push_up(msg.records)
            else:
                self.run_push_up(msg.records)
        elif isinstance(msg, PuAckMsg):
            if self.within_pd:
                self.deferred.append((sender, msg))
            else:
                self.handle_push_up_acks(msg.acks)
        elif isinstance(msg, PdRequestMsg):
            if self.within_pd:
                self.world.log(
                    self.node_id,
                    f"pd busy, refusing offer from s{sender} "
                    f"({len(msg.records)} records)",
                )
                self.world.send(
                    self.node_id,
                    sender,
                    PdAckMsg(
                        initiator=msg.initiator,
                        deficit=msg.deficit,
                        acks=tuple((rec, False) for rec in msg.records),
                    ),
                )
            else:
                self.accept_push_down(sender, msg)
        elif isinstance(msg, PdAckMsg):
            self.handle_push_down_ack(sender, msg)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown message {type(msg).__name__}")

    def notify_gone(self, request_id: RequestId) -> None:
        """Purge every trace of a departed or withdrawn request."""
        self.not_assigned.pop(request_id, None)
        self.push_up.pop(request_id, None)
        if self.scan_buf_na:
            self.scan_buf_na = _without(self.scan_buf_na, request_id)
        if self.scan_buf_pu:
            self.scan_buf_pu = _without(self.scan_buf_pu, request_id)
        self.outstanding_pu.pop(request_id, None)
        self.pd_pending.pop(request_id, None)
        if request_id in self.assigned:
            self.available += self.assigned.pop(request_id)
        if self.pd_session is not None:
            self.pd_session.records.pop(request_id, None)

    # -- bottom-up scan ----------------------------------------------------

    def run_scan(
        self,
        incoming_na: Sequence[Record],
        incoming_pu: Sequence[Record],
    ) -> None:
        """Normal-mode batch: reserve locally, else route toward a decision.

        Requests whose highest feasible node is here and that do not fit
        become push-down work; everything else is forwarded to the parent
        together with reservation adverts, and when nothing is pending
        above, the node resolves its own advert backlog locally.
        """
        self._take_scan_input(incoming_na, incoming_pu)
        self.world.log(
            self.node_id,
            "scan run na=[%s] pu=[%s]"
            % (_ids(self.not_assigned.values()), _ids(self.push_up.values())),
        )
        new_push_down: list[RequestId] = []
        for rec in list(self.not_assigned.values()):
            if self._already_served(rec.request_id):
                del self.not_assigned[rec.request_id]
                continue
            units = self._demand_here(rec.class_id)
            if units is not None and units <= self.available:
                del self.not_assigned[rec.request_id]
                self.available -= units
                self.assigned[rec.request_id] = units
                owned = replace(rec, origin=self.node_id)
                if rec.top_feasible == self.node_id:
                    self.world.log(self.node_id, f"scan top-place r{rec.request_id}")
                    self.world.commit_placement(
                        rec.request_id, self.node_id, from_reservation=True
                    )
                else:
                    self.world.log(self.node_id, f"scan assign r{rec.request_id}")
                    self.push_up[rec.request_id] = owned
            elif rec.top_feasible == self.node_id:
                if rec.request_id not in self.pd_pending:
                    new_push_down.append(rec.request_id)
        if new_push_down:
            self.pd_pending.update(dict.fromkeys(new_push_down))
            self.world.log(
                self.node_id, "scan push-down-pending [%s]" % _rids(new_push_down)
            )
            self._arm_timer("push_down")
            return  # the push-down epilogue will move the leftovers
        self._forward_and_resolve()

    def run_fallback_scan(
        self,
        incoming_na: Sequence[Record],
        incoming_pu: Sequence[Record],
    ) -> None:
        """Quarantine-mode batch: place immediately, never reserve.

        Requests that top out here and do not fit either wait for this
        node's own pending push-down, schedule one, or — while a push-down
        is still winding down — are failed outright.
        """
        self._take_scan_input(incoming_na, incoming_pu)
        self.world.log(
            self.node_id, "f-scan run na=[%s]" % _ids(self.not_assigned.values())
        )
        schedule_push_down: list[RequestId] = []
        for rec in list(self.not_assigned.values()):
            if self._already_served(rec.request_id):
                del self.not_assigned[rec.request_id]
                continue
            units = self._demand_here(rec.class_id)
            if units is not None and units <= self.available:
                del self.not_assigned[rec.request_id]
                self.world.log(self.node_id, f"f-scan place r{rec.request_id}")
                self.world.commit_placement(
                    rec.request_id, self.node_id, from_reservation=False
                )
                self.pd_pending.pop(rec.request_id, None)
            elif rec.top_feasible == self.node_id:
                if rec.request_id in self.pd_pending:
                    continue  # its own push-down is already scheduled
                if self.within_pd:
                    del self.not_assigned[rec.request_id]
                    self.world.log(self.node_id, f"f-scan failure r{rec.request_id}")
                    self.world.report_failure(rec.request_id, self.node_id)
                else:
                    schedule_push_down.append(rec.request_id)
        if schedule_push_down:
            self.pd_pending.update(dict.fromkeys(schedule_push_down))
            self.world.log(
                self.node_id,
                "f-scan push-down-pending [%s]" % _rids(schedule_push_down),
            )
            if not self.within_pd:
                self._arm_timer("push_down")
        forward = [
            rec
            for rec in self.not_assigned.values()
            if rec.request_id not in self.pd_pending
            and self.parent is not None
            and self.parent in rec.feasible
        ]
        if forward:
            for rec in forward:
                del self.not_assigned[rec.request_id]
            self.world.log(
                self.node_id,
                "f-scan forward [%s] -> s%d" % (_ids(forward), self.parent),
            )
            self.world.send(
                self.node_id, self.parent, SfsMsg(tuple(forward), ())
            )
        self._assert_no_stuck_records()
        if self.push_up:
            self.run_fallback_push_up(())

    def _forward_and_resolve(self) -> None:
        """Scan epilogue: ship parent-bound records, then settle local adverts."""
        if self.parent is not None:
            fwd_na = [
                r for r in self.not_assigned.values() if self.parent in r.feasible
            ]
            fwd_pu = [r for r in self.push_up.values() if self.parent in r.feasible]
            if fwd_na or fwd_pu:
                for rec in fwd_na:
                    del self.not_assigned[rec.request_id]
                for rec in fwd_pu:
                    del self.push_up[rec.request_id]
                    self.outstanding_pu[rec.request_id] = rec
                self.world.log(
                    self.node_id,
                    "scan forward na=[%s] pu=[%s] -> s%d"
                    % (_ids(fwd_na), _ids(fwd_pu), self.parent),
                )
                self.world.send(
                    self.node_id, self.parent, SfsMsg(tuple(fwd_na), tuple(fwd_pu))
                )
        self._assert_no_stuck_records()
        if not self.outstanding_pu and self.push_up:
            self.run_push_up(())

    def _assert_no_stuck_records(self) -> None:
        for rec in self.not_assigned.values():
            if rec.top_feasible == self.node_id or rec.request_id in self.pd_pending:
                continue
            if self.parent is None or self.parent not in rec.feasible:
                raise AssertionError(
                    f"record r{rec.request_id} stranded at s{self.node_id}: "
                    "feasible set is not a contiguous path prefix"
                )

    # -- push-up -----------------------------------------------------------

    def run_push_up(self, incoming: Sequence[Record]) -> None:
        """Resolve advert records: host here or hand them back down."""
        records = self._take_push_up(incoming)
        if not records:
            return
        records = self._sorted(records)
        self.world.log(self.node_id, "pu run [%s]" % _ids(records))
        acks: dict[DatacenterId, list[tuple[Record, bool]]] = {}
        downs: dict[DatacenterId, list[Record]] = {}
        for rec in records:
            if rec.origin == self.node_id:
                # back at its reservation: nothing above took it
                if rec.request_id in self.assigned:
                    self.world.log(self.node_id, f"pu settle r{rec.request_id}")
                    self.world.commit_placement(
                        rec.request_id, self.node_id, from_reservation=True
                    )
                continue
            assert rec.origin is not None, "push-up records always carry a reservation site"
            child = self._child_towards(rec.origin)
            units = self._demand_here(rec.class_id)
            if units is not None and units <= self.available:
                self.world.log(self.node_id, f"pu host r{rec.request_id}")
                self.world.commit_placement(
                    rec.request_id, self.node_id, from_reservation=False
                )
                acks.setdefault(child, []).append((rec, True))
            else:
                downs.setdefault(child, []).append(rec)
        for child in sorted(set(acks) | set(downs)):
            if child in acks:
                self.world.send(self.node_id, child, PuAckMsg(tuple(acks[child])))
            if child in downs:
                self.world.send(self.node_id, child, PuMsg(tuple(downs[child])))

    def handle_push_up_acks(
        self, ack_records: Sequence[tuple[Record, bool]]
    ) -> None:
        """Apply verdicts from above: free or convert reservations, relay the rest."""
        relay: list[tuple[Record, bool]] = []
        for rec, hosted_above in ack_records:
            self.outstanding_pu.pop(rec.request_id, None)
            if not self.world.is_active(rec.request_id):
                continue
            if rec.origin == self.node_id:
                if rec.request_id not in self.assigned:
                    continue  # resolved through another path meanwhile
                if hosted_above:
                    self.available += self.assigned.pop(rec.request_id)
                    self.world.log(self.node_id, f"pu release r{rec.request_id}")
                else:
                    self.world.log(self.node_id, f"pu settle r{rec.request_id}")
                    self.world.commit_placement(
                        rec.request_id, self.node_id, from_reservation=True
                    )
            else:
                relay.append((rec, hosted_above))
        self._relay_acks(relay)
        if not self.outstanding_pu and self.push_up and not self.within_pd:
            if self.in_f_mode():
                self.run_fallback_push_up(())
            else:
                self.run_push_up(())

    def run_fallback_push_up(self, incoming: Sequence[Record]) -> None:
        """Quarantine-mode push-up: refuse everything, settling reservations."""
        records = self._take_push_up(incoming)
        if not records:
            return
        self.world.log(self.node_id, "f-pu refuse [%s]" % _ids(records))
        relay: list[tuple[Record, bool]] = []
        for rec in records:
            if not self.world.is_active(rec.request_id):
                continue
            if rec.origin == self.node_id:
                if rec.request_id in self.assigned:
                    self.world.commit_placement(
                        rec.request_id, self.node_id, from_reservation=True
                    )
            else:
                relay.append((rec, False))
        self._relay_acks(relay)

    # -- push-down ---------------------------------------------------------

    def _appended_offer_records(self) -> list[Record]:
        """Own reserved-then-stalled and hosted services a push-down may move.

        Push-down records carry generation 0, not the request's current
        one, so those of a user who has moved arrive stale (the FOUND line
        on push-down generations in CHANGES.md); the real generation would
        change the churn results.
        """
        offers: list[Record] = []
        for rec in self.push_up.values():
            if rec.origin != self.node_id:
                continue  # advert relayed for a descendant, not ours to move
            if rec.request_id in self.outstanding_pu:
                continue
            offers.append(
                replace(
                    rec, generation=0, beta_at_initiator=self.assigned[rec.request_id]
                )
            )
        for rid in sorted(self.placed):
            if self.world.is_relocating(rid):
                continue  # a newer placement decision is already in flight
            req = self.world.request_info(rid)
            if req is None:
                continue
            offers.append(
                Record(
                    request_id=rid,
                    class_id=req.class_id,
                    origin=self.node_id,
                    feasible=req.feasible,
                    is_new=False,
                    current_host=self.node_id,
                    generation=0,
                    beta_at_initiator=self.placed[rid],
                )
            )
        return offers

    def start_push_down(self) -> None:
        """Open a push-down for locally stuck requests (timer expiry)."""
        pending = [rid for rid in self.pd_pending if self.world.is_active(rid)]
        self.pd_pending = {}
        problematic: list[Record] = []
        for rid in pending:
            rec = self.not_assigned.get(rid)
            if rec is None or self._already_served(rid):
                continue
            units = self._demand_here(rec.class_id)
            assert units is not None, "stuck request must be hostable here"
            # generation 0: see _appended_offer_records
            problematic.append(
                replace(rec, origin=None, generation=0, beta_at_initiator=units)
            )
        if not problematic:
            return
        deficit = sum(r.beta_at_initiator for r in problematic) - self.available
        records = problematic + self._appended_offer_records()
        self.within_pd = True
        self.world.note_push_down()
        self.enter_f_mode()
        self.pd_session = PdSession(
            initiator=self.node_id,
            caller=None,
            deficit=deficit,
            records=_keyed(records),
            pending_children=list(self.children),
        )
        self.world.log(
            self.node_id, "pd start deficit=%d records=[%s]" % (deficit, _ids(records))
        )
        self._continue_push_down()

    def accept_push_down(self, sender: DatacenterId, msg: PdRequestMsg) -> None:
        """Join a push-down chain started above us."""
        usable = [
            rec
            for rec in msg.records
            if self.world.is_active(rec.request_id)
            and self.world.record_current(rec)
        ]
        records = usable + self._appended_offer_records()
        self.within_pd = True
        self.enter_f_mode()
        self.pd_session = PdSession(
            initiator=msg.initiator,
            caller=sender,
            deficit=msg.deficit,
            records=_keyed(records),
            pending_children=list(self.children),
            received=tuple(msg.records),
        )
        self.world.log(
            self.node_id,
            "pd accept from s%d deficit=%d records=[%s]"
            % (sender, msg.deficit, _ids(records)),
        )
        self._continue_push_down()

    def _push_down_satisfied(self) -> bool:
        """Would hosting what fits here already clear the deficit?"""
        session = self.pd_session
        assert session is not None
        if session.deficit <= 0:
            return True
        virtual_avail = self.available
        virtual_deficit = session.deficit
        for rec in session.records.values():
            if rec.origin == self.node_id:
                continue
            if not self.world.record_current(rec):
                continue
            units = self._demand_here(rec.class_id)
            if units is None or units > virtual_avail:
                continue
            virtual_avail -= units
            if self._hosting_reduces_deficit(rec):
                virtual_deficit -= rec.beta_at_initiator
            if virtual_deficit <= 0:
                return True
        return virtual_deficit <= 0

    def _hosting_reduces_deficit(self, rec: Record) -> bool:
        # Only capacity that reappears at the initiator counts: moving an
        # unplaced or initiator-held service away from there shrinks the
        # deficit; shuffling a relay's own services does not.
        session = self.pd_session
        assert session is not None
        from_initiator = rec.origin is None or rec.origin == session.initiator
        return from_initiator and self.node_id != session.initiator

    def _pd_record_relevant(self, rec: Record, child: DatacenterId) -> bool:
        members = self.child_subtree[child]
        assert rec.origin is None or rec.origin not in members, (
            "push-down records never descend past their own origin"
        )
        return any(n in members for n in rec.feasible)

    def _continue_push_down(self) -> None:
        """Advance the depth-first walk: next child offer, or wrap up."""
        session = self.pd_session
        assert session is not None and session.awaiting is None
        while session.pending_children:
            if self._push_down_satisfied():
                self.world.log(self.node_id, "pd break")
                session.pending_children.clear()
                break
            child = session.pending_children.pop(0)
            offer = [
                r
                for r in session.records.values()
                if self._pd_record_relevant(r, child)
            ]
            if not offer:
                continue
            session.awaiting = child
            self.world.log(
                self.node_id,
                "pd offer -> s%d records=[%s] deficit=%d"
                % (child, _ids(offer), session.deficit),
            )
            self.world.send(
                self.node_id,
                child,
                PdRequestMsg(
                    initiator=session.initiator,
                    deficit=session.deficit,
                    records=tuple(offer),
                ),
            )
            return  # resumes in handle_push_down_ack
        self._finish_push_down()

    def handle_push_down_ack(self, sender: DatacenterId, msg: PdAckMsg) -> None:
        session = self.pd_session
        assert (
            session is not None and session.awaiting == sender
        ), f"unexpected push-down ack from s{sender} at s{self.node_id}"
        session.awaiting = None
        session.deficit = msg.deficit
        received_ids = {r.request_id for r in session.received}
        for rec, hosted in msg.acks:
            if not hosted:
                continue
            session.records.pop(rec.request_id, None)
            if rec.request_id in received_ids:
                session.hosted_ids.add(rec.request_id)
            if rec.origin == self.node_id and rec.request_id in self.assigned:
                # a reservation of ours was hosted below: release it
                self.available += self.assigned.pop(rec.request_id)
                self.push_up.pop(rec.request_id, None)
                self.world.log(self.node_id, f"pd release r{rec.request_id}")
            if rec.origin is None:
                self.not_assigned.pop(rec.request_id, None)
        self._continue_push_down()

    def _finish_push_down(self) -> None:
        """Local hosting pass, ack the caller, then the fallback epilogue."""
        session = self.pd_session
        assert session is not None
        received_ids = {r.request_id for r in session.received}
        for rec in list(session.records.values()):
            if rec.origin == self.node_id:
                continue
            if not self.world.is_active(rec.request_id) or not self.world.record_current(rec):
                del session.records[rec.request_id]
                continue
            units = self._demand_here(rec.class_id)
            if units is not None and units <= self.available:
                self.world.log(self.node_id, f"pd host r{rec.request_id}")
                self.world.commit_placement(
                    rec.request_id, self.node_id, from_reservation=False
                )
                del session.records[rec.request_id]
                if rec.request_id in received_ids:
                    session.hosted_ids.add(rec.request_id)
                if self._hosting_reduces_deficit(rec):
                    session.deficit -= rec.beta_at_initiator
                if rec.origin is None:
                    self.not_assigned.pop(rec.request_id, None)
        if session.caller is not None:
            payload = tuple(
                (rec, rec.request_id in session.hosted_ids)
                for rec in session.received
            )
            self.world.log(
                self.node_id,
                "pd ack -> s%d deficit=%d hosted=[%s]"
                % (session.caller, session.deficit, _rids(sorted(session.hosted_ids))),
            )
            self.world.send(
                self.node_id,
                session.caller,
                PdAckMsg(
                    initiator=session.initiator,
                    deficit=session.deficit,
                    acks=payload,
                ),
            )
        self.world.log(self.node_id, "pd end")
        # trailing fallback scan runs with the session still marked open so
        # that requests this push-down could not save fail loudly
        self.run_fallback_scan((), ())
        self.within_pd = False
        self.pd_session = None
        if self.pd_pending:
            self._arm_timer("push_down")
        if self.scan_buf_na or self.scan_buf_pu:
            self._arm_timer("scan")
        backlog = self.deferred
        self.deferred = []
        for sender, msg in backlog:
            self.on_message(sender, msg)
