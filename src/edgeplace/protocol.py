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

Each node owns its books (reservations, placements, free capacity) and the
demand of each service class at its level.  Nodes never share memory: they
act through the services of a :class:`World`, which the simulation engine
implements, and the engine reaches a node only through ``buffer_scan_input``,
``on_message``, ``on_timer``, ``notify_gone`` and ``release``.

What a node knows of a request beyond its own books it reads from one
read-only table, :attr:`World.requests`: request id to the engine's row
for the request, read through :class:`RequestView`: its class, its
current reach, its status and its generation.  The hot loops read it
inline: a request is active while its status is ``waiting``, ``placed``
or ``relocating``, served while it is ``placed``, and a record is
current while its request is active and carries the request's
generation.

A record's fields fix its role: a record without an ``origin`` is
unassigned, and one with an origin advertises that datacenter's reservation
(an advert); a record without a ``current_host`` is a brand-new request.
A scan batch is therefore one list, which a node splits by origin.

A node holds its backlogs (unassigned records, adverts, a push-down
session's records, requests awaiting a push-down) as insertion-ordered
dicts keyed by request id, so withdrawing one request is a single pop.
Each scan re-sorts the unassigned backlog into placement order whenever it
holds two or more records.  The scan buffer stays a list, because it can
briefly hold two generations of a request.  Every container iterates in a
deterministic order, so identical inputs replay to identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, NamedTuple, Protocol, Sequence

from .model import DatacenterId, InvariantError, RequestId, Topology

__all__ = [
    "Record",
    "SfsMsg",
    "PuMsg",
    "PuAckMsg",
    "PdRequestMsg",
    "PdAckMsg",
    "ProtocolTiming",
    "ACTIVE_STATES",
    "RequestView",
    "World",
    "PdSession",
    "ProtocolNode",
    "sort_requests",
]


# --------------------------------------------------------------------------
# records and messages


class Record(NamedTuple):
    """One request as carried by scan, push-up and push-down traffic.

    ``origin`` is the datacenter currently holding the request's
    reservation or placement (None while nobody does).  ``current_host``
    remembers where a relocated user's service still runs, so hosting the
    record elsewhere is billed as a migration; a record without one is a
    brand-new request.  Push-down records also carry ``beta_at_initiator``,
    the request's CPU demand at the push-down initiator, so deficit
    bookkeeping survives relaying into subtrees where the demand differs;
    scan and push-up records leave it None.

    A named tuple, cheap to build: immutable and hashable, and compared as
    a tuple, field by field, whatever the other side's type.
    """

    request_id: RequestId
    class_id: int
    origin: DatacenterId | None
    feasible: tuple[DatacenterId, ...]
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
    """Bottom-up scan batch: unassigned records (no origin) first, then
    reservation adverts (an origin)."""

    records: tuple[Record, ...]


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
    ``(l + 1) * window`` before acting (``scan_window`` for a scan,
    ``push_down_window`` for a push-down), so deeper aggregation points
    batch more traffic per run.
    """

    scan_window: float = 0.0001
    push_down_window: float = 0.0004
    fallback_period: float = 10.0

    def __post_init__(self) -> None:
        for name in ("scan_window", "push_down_window", "fallback_period"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"timing {name} must be finite and >= 0")


#: A request's statuses while it still needs a host or holds one: while
#: it is active (see :class:`RequestView`).
ACTIVE_STATES = ("waiting", "placed", "relocating")


class RequestView(Protocol):
    """The fields of the engine's one row per request that nodes read, as
    :attr:`World.requests` maps it.

    ``class_id`` is the request's class, and ``feasible`` its current
    reach: the nodes that can host it from the user's current attachment,
    PoA first, replaced when the user moves.  ``state`` is ``waiting``
    (not placed yet), ``placed``, ``relocating`` (placed, but its user
    moved out of the host's reach and a new placement is in flight),
    ``failed`` or ``departed``.  ``generation`` counts the request's moves
    that superseded its records in flight.
    """

    class_id: int
    feasible: tuple[DatacenterId, ...]
    state: str
    generation: int


class World(Protocol):
    """Services the engine provides to protocol nodes.

    A node books a placement on its own capacity before it reports it with
    :meth:`commit_placement`.  The engine changes a node's books only
    through two of the node's methods: ``release``, which hands back a
    hosted service's units when its request migrates or departs, and
    ``notify_gone``, which drops a departed or withdrawn request and frees
    its reservation.

    ``requests`` maps every request id the protocol may see to the
    engine's one row for it, read through :class:`RequestView`.  Nodes
    only read it: the engine updates each row in place as its request is
    placed, moves and leaves (a move sets its reach and bumps its
    generation), and changes a row's ``state`` or host only through one
    method, ``Simulator._transition``, which books the host's capacity
    with it.
    """

    requests: Mapping[RequestId, RequestView]

    def now(self) -> float: ...

    def send(self, src: DatacenterId, dst: DatacenterId, msg: ProtocolMsg) -> None: ...

    def commit_placement(self, request_id: RequestId, node: DatacenterId) -> None: ...

    def report_failure(self, request_id: RequestId, node: DatacenterId) -> None: ...

    def arm_timer(self, node: DatacenterId, kind: str, deadline: float) -> None: ...

    def note_push_down(self) -> None: ...

    def log(self, node: DatacenterId, template: str, *args: object) -> None:
        """Note an event at ``node``: a constant ``%``-template and the
        values it formats, ints, floats, strings or request-id lists.  An
        id list is passed live, as the caller holds it: a dict keyed by
        request id, a list of ids or a list of records.  The engine may
        ignore the event; if it records it, it snapshots each list then,
        as the tuple of its request ids, and renders text only when the
        log is read.  So the caller copies no list for the log."""
        ...


# --------------------------------------------------------------------------
# ordering


def sort_requests(
    records: Iterable[Record], demand_here: Mapping[int, int]
) -> list[Record]:
    """Order records most-constrained-first for placement attempts.

    Keys: shortest reach first, then the smallest CPU demand here, then
    relocated services before brand-new ones, then request id — a total,
    stable order.

    A node sorts only records whose reach includes it, and a reach is a
    path prefix from the PoA up, so its entry ``i`` sits at level ``i``.
    At a node of level ``L`` a reach therefore has ``len(reach) - (L + 1)``
    nodes outside the node's subtree: fewest fallbacks outside the subtree
    first is the same order as shortest reach first.
    """

    def key(rec: Record) -> tuple[int, int, int, int]:
        units = demand_here.get(rec.class_id, 1 << 30)
        fresh = 1 if rec.current_host is None else 0
        return (len(rec.feasible), units, fresh, rec.request_id)

    return sorted(records, key=key)


def _keyed(records: Iterable[Record]) -> dict[RequestId, Record]:
    """``records`` keyed by request id, in the given order."""
    return {rec.request_id: rec for rec in records}


# --------------------------------------------------------------------------
# push-down session


@dataclass
class PdSession:
    """State of one in-progress push-down at one node.

    The recursion is asynchronous: after offering records to a child the
    node parks here until the child's ack resumes the walk.

    ``records`` holds the records still in play; a child hosting one, or
    its request leaving, pops it.  The session's open sorts them once, each
    list in ``records``' order and read through it: ``by_child`` lists the
    records each child may take, those whose reach runs through this node
    and on down through the child, and ``hostable`` those this node may
    host (not its own).  No record goes down toward its own origin: the
    open raises on one whose origin lies on its reach below this node.

    ``received`` are the records the caller offered, with unique ids (an
    offer is built from a dict).  ``hosted_ids`` collects every id hosted
    during the session, here or below; the ack to the caller flags each
    received record by it.
    """

    initiator: DatacenterId
    caller: DatacenterId | None
    deficit: int
    records: dict[RequestId, Record]
    pending_children: list[DatacenterId]
    received: tuple[Record, ...] = ()
    by_child: dict[DatacenterId, list[Record]] = field(default_factory=dict)
    hostable: list[Record] = field(default_factory=list)
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
        demand: Mapping[int, int],
    ) -> None:
        self.world = world
        self.requests = world.requests  # read only; see World
        self.node_id = node_id
        self.level = topology.level(node_id)
        self.parent = topology.parent(node_id)
        self.children = topology.children(node_id)
        self.capacity = topology.capacity(node_id)
        self.available = topology.capacity(node_id)
        self.timing = timing
        # batch timer kind -> how long it waits once armed (see ProtocolTiming)
        self.delays = {
            "scan": (self.level + 1) * timing.scan_window,
            "push_down": (self.level + 1) * timing.push_down_window,
        }
        self.demand = demand  # class id -> CPU units here; absent: not hostable
        # request bookkeeping
        self.assigned: dict[RequestId, int] = {}
        self.placed: dict[RequestId, int] = {}
        self.not_assigned: dict[RequestId, Record] = {}
        self.push_up: dict[RequestId, Record] = {}
        self.outstanding_pu: set[RequestId] = set()
        # batching buffer + timers
        self.scan_buf: list[Record] = []
        self.pd_pending: dict[RequestId, None] = {}  # an ordered set
        self.armed: set[str] = set()  # the timer kinds pending
        # push-down session & quarantine
        self.pd_session: PdSession | None = None
        self.deferred: list[tuple[DatacenterId, ProtocolMsg]] = []
        self.f_mode_until = float("-inf")
        # push-down offer records of hosted services; see _open_push_down
        self.hosted_offers: dict[RequestId, Record] = {}

    # -- small helpers ----------------------------------------------------

    def _sorted(self, records: Collection[Record]) -> list[Record]:
        """``records`` in placement-attempt order (see :func:`sort_requests`)."""
        return sort_requests(records, self.demand)

    def _arm_timer(self, kind: str) -> None:
        """Arm the ``kind`` batch timer (``scan`` or ``push_down``) unless
        it is pending."""
        if kind not in self.armed:
            self.armed.add(kind)
            deadline = self.world.now() + self.delays[kind]
            self.world.arm_timer(self.node_id, kind, deadline)

    def in_f_mode(self) -> bool:
        return self.world.now() < self.f_mode_until

    def enter_f_mode(self) -> None:
        """Start (or extend) the post-push-down quarantine period."""
        deadline = self.world.now() + self.timing.fallback_period
        if deadline > self.f_mode_until:
            self.f_mode_until = deadline
            self.world.log(self.node_id, "f-mode until %.6f", deadline)

    def _child_towards(self, rec: Record) -> DatacenterId:
        """The child on the way down from here to ``rec``'s origin.

        A record travels only along its own reach, a path prefix from the
        PoA up whose entry ``i`` sits at level ``i``: when this node is the
        reach's entry at its level and the origin an earlier entry, the
        child is the entry just below this node."""
        level, reach, origin = self.level, rec.feasible, rec.origin
        if origin in reach and reach.index(origin) < level < len(reach):
            if reach[level] == self.node_id:
                return reach[level - 1]
        raise InvariantError(f"node {origin} is not below {self.node_id}")

    def _place(self, rec: Record, *, reserved: bool) -> None:
        """Book ``rec`` here, converting its reservation or taking free
        units, then report the placement."""
        rid, units = rec.request_id, self.demand.get(rec.class_id)
        if reserved:
            held = self.assigned.pop(rid)
            if held != units:
                raise InvariantError(
                    f"reservation mismatch at s{self.node_id} placing r{rid}: "
                    f"{held} reserved, {units} needed"
                )
        elif units is None or units > self.available:
            raise InvariantError(f"capacity breach at s{self.node_id} placing r{rid}")
        else:
            self.available -= units
        self.placed[rid] = units
        self.world.commit_placement(rid, self.node_id)

    def _current(self, records: Iterable[Record]) -> list[Record]:
        """The records whose request is active and that no newer copy,
        issued after a user move, has superseded."""
        requests = self.requests
        current = []
        for rec in records:
            view = requests[rec.request_id]
            if rec.generation == view.generation and view.state in ACTIVE_STATES:
                current.append(rec)
        return current

    def _take_scan_input(self, incoming: Sequence[Record]) -> None:
        """Scan prelude: merge a batch into the backlogs (a record with an
        origin is an advert), then re-sort the unassigned one, whenever it
        holds two or more records, most constrained first: shortest reach
        first (see :func:`sort_requests`), which at this node is the same
        order as fewest fallbacks outside its subtree first."""
        backlog, adverts = self.not_assigned, self.push_up
        for rec in self._current(incoming):
            target = backlog if rec.origin is None else adverts
            target.setdefault(rec.request_id, rec)
        if len(backlog) > 1:
            self.not_assigned = _keyed(self._sorted(backlog.values()))

    def _take_push_up(self, incoming: Sequence[Record]) -> list[Record]:
        """Push-up prelude: claim the advert backlog plus ``incoming``."""
        for rec in incoming:
            self.outstanding_pu.discard(rec.request_id)
        records = self.push_up
        self.push_up = {}
        for rec in self._current(incoming):
            records.setdefault(rec.request_id, rec)
        return list(records.values())

    def _relay_acks(self, acks: Iterable[tuple[Record, bool]]) -> None:
        """Send push-up verdicts toward their origins, one message per child."""
        by_child: dict[DatacenterId, list[tuple[Record, bool]]] = {}
        for rec, hosted_above in acks:
            by_child.setdefault(self._child_towards(rec), []).append(
                (rec, hosted_above)
            )
        for child in sorted(by_child):
            self.world.send(self.node_id, child, PuAckMsg(tuple(by_child[child])))

    # -- engine entry points ----------------------------------------------

    def buffer_scan_input(self, records: Sequence[Record]) -> None:
        """Queue scan work (arrivals or a child's batch) behind the timer."""
        self.scan_buf.extend(records)
        if self.scan_buf:
            self._arm_timer("scan")

    def on_timer(self, kind: str) -> None:
        """The ``kind`` batch timer fired: run its batch, unless a push-down
        session is open (the session's end re-arms if work remains)."""
        if kind not in self.delays:
            raise ValueError(f"unknown timer kind {kind!r}")
        self.armed.discard(kind)
        if self.pd_session is not None:
            return
        if kind == "push_down":
            self.start_push_down()
            return
        records, self.scan_buf = self.scan_buf, []
        (self.run_fallback_scan if self.in_f_mode() else self.run_scan)(records)

    def on_message(self, sender: DatacenterId, msg: ProtocolMsg) -> None:
        if isinstance(msg, SfsMsg):
            self.buffer_scan_input(msg.records)
        elif isinstance(msg, (PuMsg, PuAckMsg)) and self.pd_session is not None:
            self.deferred.append((sender, msg))  # replayed when the session ends
        elif isinstance(msg, PuMsg):
            self._resolve_adverts(msg.records)
        elif isinstance(msg, PuAckMsg):
            self.handle_push_up_acks(msg.acks)
        elif isinstance(msg, PdRequestMsg):
            if self.pd_session is not None:
                self.world.log(
                    self.node_id,
                    "pd busy, refusing offer from s%d (%d records)",
                    sender,
                    len(msg.records),
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
        else:
            raise TypeError(f"unknown message {type(msg).__name__}")

    def release(self, request_id: RequestId) -> int:
        """Free a service hosted here that migrated or departed; returns
        the units it held."""
        units = self.placed.pop(request_id)
        self.available += units
        self.hosted_offers.pop(request_id, None)
        return units

    def notify_gone(self, request_id: RequestId) -> None:
        """Purge every trace of a departed or withdrawn request."""
        self.not_assigned.pop(request_id, None)
        self.push_up.pop(request_id, None)
        if self.scan_buf:
            self.scan_buf = [r for r in self.scan_buf if r.request_id != request_id]
        self.outstanding_pu.discard(request_id)
        self.pd_pending.pop(request_id, None)
        if request_id in self.assigned:
            self.available += self.assigned.pop(request_id)
        if self.pd_session is not None:
            self.pd_session.records.pop(request_id, None)

    # -- bottom-up scan ----------------------------------------------------

    def run_scan(self, incoming: Sequence[Record]) -> None:
        """Normal-mode batch: reserve locally, else route toward a decision.

        Requests whose highest feasible node is here and that do not fit
        become push-down work; everything else is forwarded to the parent
        together with reservation adverts, and when nothing is pending
        above, the node resolves its own advert backlog locally.
        """
        self._take_scan_input(incoming)
        self.world.log(
            self.node_id,
            "scan run na=[%s] pu=[%s]",
            self.not_assigned,
            self.push_up,
        )
        requests = self.requests
        new_push_down: list[RequestId] = []
        for rec in list(self.not_assigned.values()):
            if requests[rec.request_id].state == "placed":
                del self.not_assigned[rec.request_id]
                continue
            units = self.demand.get(rec.class_id)
            if units is not None and units <= self.available:
                del self.not_assigned[rec.request_id]
                if rec.top_feasible == self.node_id:
                    self.world.log(self.node_id, "scan top-place r%d", rec.request_id)
                    self._place(rec, reserved=False)
                else:
                    rid, cid, _, reach, host, generation, beta = rec
                    self.available -= units
                    self.assigned[rid] = units
                    self.world.log(self.node_id, "scan assign r%d", rid)
                    self.push_up[rid] = Record(
                        rid, cid, self.node_id, reach, host, generation, beta
                    )
            elif rec.top_feasible == self.node_id:
                if rec.request_id not in self.pd_pending:
                    new_push_down.append(rec.request_id)
        if new_push_down:
            self._queue_push_down("scan push-down-pending [%s]", new_push_down)
            return  # the push-down epilogue will move the leftovers
        self._forward_and_resolve()

    def run_fallback_scan(self, incoming: Sequence[Record]) -> None:
        """Quarantine-mode batch: place immediately, never reserve.

        Requests that top out here and do not fit either wait for this
        node's own pending push-down, schedule one, or — while a push-down
        is still winding down — are failed outright.  The rest go to the
        parent while it can still meet their delay bound (see
        :meth:`_take_parent_bound`); a record queued for this node's
        push-down tops out here, so none of them is forwarded.
        """
        self._take_scan_input(incoming)
        self.world.log(self.node_id, "f-scan run na=[%s]", self.not_assigned)
        requests = self.requests
        schedule_push_down: list[RequestId] = []
        for rec in list(self.not_assigned.values()):
            if requests[rec.request_id].state == "placed":
                del self.not_assigned[rec.request_id]
                continue
            units = self.demand.get(rec.class_id)
            if units is not None and units <= self.available:
                del self.not_assigned[rec.request_id]
                self.world.log(self.node_id, "f-scan place r%d", rec.request_id)
                self._place(rec, reserved=False)
                self.pd_pending.pop(rec.request_id, None)
            elif rec.top_feasible == self.node_id:
                if rec.request_id in self.pd_pending:
                    continue  # its own push-down is already scheduled
                if self.pd_session is not None:
                    del self.not_assigned[rec.request_id]
                    self.world.log(self.node_id, "f-scan failure r%d", rec.request_id)
                    self.world.report_failure(rec.request_id, self.node_id)
                else:
                    schedule_push_down.append(rec.request_id)
        if schedule_push_down:
            self._queue_push_down("f-scan push-down-pending [%s]", schedule_push_down)
        forward = self._take_parent_bound(self.not_assigned)
        if forward:
            self.world.log(
                self.node_id,
                "f-scan forward [%s] -> s%d",
                forward,
                self.parent,
            )
            self.world.send(self.node_id, self.parent, SfsMsg(tuple(forward)))
        self._assert_no_stuck_records()
        if self.push_up:
            self.run_fallback_push_up(())

    def _queue_push_down(self, template: str, ids: list[RequestId]) -> None:
        """Queue ``ids`` for this node's next push-down, log them with
        ``template`` and arm the push-down timer."""
        self.pd_pending.update(dict.fromkeys(ids))
        self.world.log(self.node_id, template, ids)
        self._arm_timer("push_down")

    def _take_parent_bound(self, backlog: dict[RequestId, Record]) -> list[Record]:
        """Remove from ``backlog``, and return in order, the records whose
        reach includes the parent: a node passes a request up only while
        its parent can still meet the request's delay bound.  The root
        takes nothing."""
        parent = self.parent
        if parent is None:
            return []
        taken = [rec for rec in backlog.values() if parent in rec.feasible]
        for rec in taken:
            del backlog[rec.request_id]
        return taken

    def _forward_and_resolve(self) -> None:
        """Scan epilogue: ship the records whose reach includes the parent
        (see :meth:`_take_parent_bound`), unassigned ones and adverts alike,
        then settle local adverts."""
        fwd_na = self._take_parent_bound(self.not_assigned)
        fwd_pu = self._take_parent_bound(self.push_up)
        if fwd_na or fwd_pu:
            self.outstanding_pu.update(rec.request_id for rec in fwd_pu)
            self.world.log(
                self.node_id,
                "scan forward na=[%s] pu=[%s] -> s%d",
                fwd_na,
                fwd_pu,
                self.parent,
            )
            self.world.send(self.node_id, self.parent, SfsMsg(tuple(fwd_na + fwd_pu)))
        self._assert_no_stuck_records()
        if not self.outstanding_pu and self.push_up:
            self.run_push_up(())

    def _assert_no_stuck_records(self) -> None:
        """Scan epilogue check: every record left unassigned here tops out
        here.  :meth:`_take_parent_bound` took the ones whose reach holds
        the parent, so one that does not top out here has a reach that is
        not a contiguous path prefix."""
        for rec in self.not_assigned.values():
            if rec.top_feasible != self.node_id:
                raise InvariantError(
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
        self.world.log(self.node_id, "pu run [%s]", records)
        acks: dict[DatacenterId, list[tuple[Record, bool]]] = {}
        downs: dict[DatacenterId, list[Record]] = {}
        for rec in records:
            if rec.origin == self.node_id:
                # back at its reservation: nothing above took it
                if rec.request_id in self.assigned:
                    self.world.log(self.node_id, "pu settle r%d", rec.request_id)
                    self._place(rec, reserved=True)
                continue
            child = self._child_towards(rec)
            units = self.demand.get(rec.class_id)
            if units is not None and units <= self.available:
                self.world.log(self.node_id, "pu host r%d", rec.request_id)
                self._place(rec, reserved=False)
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
        """Apply verdicts from above: free or convert reservations, relay the rest.

        Acks never arrive while a push-down session is open: ``on_message``
        defers them, and replays them once the session has closed."""
        requests = self.requests
        relay: list[tuple[Record, bool]] = []
        for rec, hosted_above in ack_records:
            self.outstanding_pu.discard(rec.request_id)
            if requests[rec.request_id].state not in ACTIVE_STATES:
                continue
            if rec.origin == self.node_id:
                if rec.request_id not in self.assigned:
                    continue  # resolved through another path meanwhile
                if hosted_above:
                    self.available += self.assigned.pop(rec.request_id)
                    self.world.log(self.node_id, "pu release r%d", rec.request_id)
                else:
                    self.world.log(self.node_id, "pu settle r%d", rec.request_id)
                    self._place(rec, reserved=True)
            else:
                relay.append((rec, hosted_above))
        self._relay_acks(relay)
        if not self.outstanding_pu and self.push_up:
            self._resolve_adverts(())

    def _resolve_adverts(self, records: Sequence[Record]) -> None:
        """Push-up in the node's current mode: the fallback variant while
        quarantined, the normal one otherwise."""
        run = self.run_fallback_push_up if self.in_f_mode() else self.run_push_up
        run(records)

    def run_fallback_push_up(self, incoming: Sequence[Record]) -> None:
        """Quarantine-mode push-up: refuse everything, settling reservations.

        Every record is of an active request: the advert backlog and
        ``incoming`` pass :meth:`_current`, and the engine's purge of a
        departed or failed request empties this node's backlogs."""
        records = self._take_push_up(incoming)
        if not records:
            return
        self.world.log(self.node_id, "f-pu refuse [%s]", records)
        relay: list[tuple[Record, bool]] = []
        for rec in records:
            if rec.origin == self.node_id:
                if rec.request_id in self.assigned:
                    self._place(rec, reserved=True)
            else:
                relay.append((rec, False))
        self._relay_acks(relay)

    # -- push-down ---------------------------------------------------------

    def start_push_down(self) -> None:
        """Open a push-down for locally stuck requests (timer expiry).

        Every pending id is of an active request: it came from the
        unassigned backlog, and the engine's purge of a departed or failed
        request drops it from ``pd_pending``.  Its record is still in that
        backlog unless the request was placed meanwhile, which is skipped:
        every other way out of the backlog is that purge."""
        pending, self.pd_pending = self.pd_pending, {}
        requests = self.requests
        problematic: list[Record] = []
        for rid in pending:
            if requests[rid].state == "placed":
                continue
            rec = self.not_assigned[rid]
            units = self.demand.get(rec.class_id)
            if units is None:
                raise InvariantError(f"stuck r{rid} is not hostable at s{self.node_id}")
            # generation 0: see _open_push_down
            problematic.append(
                rec._replace(origin=None, generation=0, beta_at_initiator=units)
            )
        if not problematic:
            return
        deficit = sum(r.beta_at_initiator for r in problematic) - self.available
        self.world.note_push_down()
        ids = self._open_push_down(problematic, self.node_id, None, deficit)
        self.world.log(self.node_id, "pd start deficit=%d records=[%s]", deficit, ids)
        self._continue_push_down()

    def accept_push_down(self, sender: DatacenterId, msg: PdRequestMsg) -> None:
        """Join a push-down chain started above us."""
        ids = self._open_push_down(
            self._current(msg.records), msg.initiator, sender, msg.deficit, msg.records
        )
        self.world.log(
            self.node_id,
            "pd accept from s%d deficit=%d records=[%s]",
            sender,
            msg.deficit,
            ids,
        )
        self._continue_push_down()

    def _open_push_down(
        self,
        offered: list[Record],
        initiator: DatacenterId,
        caller: DatacenterId | None,
        deficit: int,
        received: tuple[Record, ...] = (),
    ) -> list[RequestId]:
        """Open a session over ``offered`` plus the services this node may
        move itself, and enter quarantine; returns the session's request
        ids, offered first, for the log.

        The node's own services are its stalled reservations, whose adverts
        wait here, and the services it hosts that are still served (a
        relocating one has a newer placement in flight).  A later record
        for an id replaces an earlier one in place.

        A record goes to the child its own reach names: when this node is
        the reach's entry at its level, the entry below it.  A record whose
        reach skips this node goes to no child.  That loses nothing, since a
        reach's length depends on the class alone: a hosted service's reach
        holds its host whenever the PoA lies below the host.

        A hosted service's offer depends only on the service and its
        user's current reach: the other fields are fixed while it stays
        here.  So the record is built once and kept in ``hosted_offers``,
        then reused while the request's ``feasible`` is unchanged.  A move
        to a new PoA that leaves the service hosted brings a new
        ``feasible``, and the next offer rebuilds the record; ``release``
        drops it when the service leaves.

        Push-down records carry generation 0, not the request's current
        one, so those of a user who has moved arrive stale (the FOUND line
        on push-down generations in CHANGES.md); the real generation would
        change the churn results.
        """
        node, level, requests = self.node_id, self.level, self.requests
        records = _keyed(offered)
        ids = [rec.request_id for rec in offered]
        assigned, outstanding = self.assigned, self.outstanding_pu
        for rid, rec in self.push_up.items():
            if rec.origin == node and rid not in outstanding:
                ids.append(rid)
                records[rid] = rec._replace(
                    generation=0, beta_at_initiator=assigned[rid]
                )
        cache = self.hosted_offers
        for rid in sorted(self.placed):
            view = requests[rid]
            if view.state != "placed":
                continue
            ids.append(rid)
            offer = cache.get(rid)
            if offer is None or offer.feasible != view.feasible:
                offer = cache[rid] = Record(
                    request_id=rid,
                    class_id=view.class_id,
                    origin=node,
                    feasible=view.feasible,
                    current_host=node,
                    generation=0,
                    beta_at_initiator=self.placed[rid],
                )
            records[rid] = offer
        by_child: dict[DatacenterId, list[Record]] = {}
        hostable: list[Record] = []
        for rec in records.values():
            origin, reach = rec.origin, rec.feasible
            if origin != node:
                hostable.append(rec)
            if 0 < level < len(reach) and reach[level] == node:
                if origin != node and origin in reach and reach.index(origin) < level:
                    raise InvariantError(
                        f"push-down r{rec.request_id} passes its origin"
                    )
                by_child.setdefault(reach[level - 1], []).append(rec)
        self.enter_f_mode()
        self.pd_session = PdSession(
            initiator=initiator,
            caller=caller,
            deficit=deficit,
            records=records,
            pending_children=list(self.children),
            received=received,
            by_child=by_child,
            hostable=hostable,
        )
        return ids

    def _hosting_pass(self) -> tuple[list[Record], int]:
        """The open session's records that fit here, in order (own and
        stale ones skipped), and the deficit left once they are hosted."""
        session = self.pd_session
        # Only capacity that reappears at the initiator counts: moving an
        # unplaced or initiator-held service away from there shrinks the
        # deficit; shuffling a relay's own services does not.
        credits = self.node_id != session.initiator
        available, deficit = self.available, session.deficit
        records, requests, demand = session.records, self.requests, self.demand
        fits: list[Record] = []
        for rec in session.hostable:
            rid = rec.request_id
            if rid not in records:
                continue
            view = requests[rid]
            if rec.generation != view.generation or view.state not in ACTIVE_STATES:
                continue
            units = demand.get(rec.class_id)
            if units is None or units > available:
                continue
            available -= units
            fits.append(rec)
            if credits and rec.origin in (None, session.initiator):
                deficit -= rec.beta_at_initiator
        return fits, deficit

    def _continue_push_down(self) -> None:
        """Advance the open session's depth-first walk: offer the next
        child the records still in play whose reach runs through this node
        and that child (sorted out when the session opened), or wrap up
        once hosting what fits here would clear the deficit."""
        session = self.pd_session
        records = session.records
        if session.awaiting is not None:
            raise InvariantError(
                f"push-down at s{self.node_id} resumed while its offer to "
                f"s{session.awaiting} is unanswered"
            )
        while session.pending_children:
            if session.deficit <= 0 or self._hosting_pass()[1] <= 0:
                self.world.log(self.node_id, "pd break")
                session.pending_children.clear()
                break
            child = session.pending_children.pop(0)
            offer = [
                r for r in session.by_child.get(child, ()) if r.request_id in records
            ]
            if not offer:
                continue
            session.awaiting = child
            self.world.log(
                self.node_id,
                "pd offer -> s%d records=[%s] deficit=%d",
                child,
                offer,
                session.deficit,
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
        if session is None or session.awaiting != sender:
            raise InvariantError(
                f"unexpected push-down ack from s{sender} at s{self.node_id}"
            )
        session.awaiting = None
        session.deficit = msg.deficit
        for rec, hosted in msg.acks:
            if not hosted:
                continue
            session.records.pop(rec.request_id, None)
            session.hosted_ids.add(rec.request_id)
            if rec.origin == self.node_id and rec.request_id in self.assigned:
                # a reservation of ours was hosted below: release it
                self.available += self.assigned.pop(rec.request_id)
                self.push_up.pop(rec.request_id, None)
                self.world.log(self.node_id, "pd release r%d", rec.request_id)
            if rec.origin is None:
                self.not_assigned.pop(rec.request_id, None)
        self._continue_push_down()

    def _finish_push_down(self) -> None:
        """Local hosting pass, ack the caller, then the fallback epilogue;
        the session is open."""
        session = self.pd_session
        hosted, session.deficit = self._hosting_pass()
        for rec in hosted:
            self.world.log(self.node_id, "pd host r%d", rec.request_id)
            self._place(rec, reserved=False)
            session.hosted_ids.add(rec.request_id)
            if rec.origin is None:
                self.not_assigned.pop(rec.request_id, None)
        if session.caller is not None:
            payload = tuple(
                (rec, rec.request_id in session.hosted_ids)
                for rec in session.received
            )
            self.world.log(
                self.node_id,
                "pd ack -> s%d deficit=%d hosted=[%s]",
                session.caller,
                session.deficit,
                sorted(rec.request_id for rec, hosted in payload if hosted),
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
        self.run_fallback_scan(())
        self.pd_session = None
        if self.pd_pending:
            self._arm_timer("push_down")
        if self.scan_buf:
            self._arm_timer("scan")
        backlog = self.deferred
        self.deferred = []
        for sender, msg in backlog:
            self.on_message(sender, msg)
