"""Deterministic discrete-event engine for the placement protocol.

Events are ordered by ``(time, sequence)`` where the sequence number is
assigned at scheduling time, so identical inputs always replay to identical
event orders, logs, and reports.  Trace events come from a cursor over the
trace sorted stably by time, not from the heap, and run before the
scheduled events (epochs, timers, messages) of the same instant, in trace
order; the heap holds only scheduled work.  The cursor is the checked
trace itself, reversed, and each event goes straight to its kind's
handler, with no entry or argument tuple built per event.  The engine
owns the ground truth about requests (the registry, one row per request,
updated in place) and records every placement, so capacity invariants
can be checked after every event.

Two lanes share the machinery, chosen by whether a placement algorithm is
given:

* ``protocol`` (no algorithm) — every datacenter runs a
  :class:`~.protocol.ProtocolNode` that books its own capacity, and
  placement emerges from message exchange; control traffic is metered
  through a latency/bandwidth link model.
* ``centralized`` — a placement algorithm runs at one-second epoch
  boundaries over batched arrivals (plus services orphaned by mobility),
  with no control traffic at all.

A run records no event: ``Simulator.log`` is a no-op.
``RunResult.event_log`` is an :class:`EventLog` that keeps the run's
scenario, with the trace it ran, its algorithm and event budget, and its
outcome instead.  The first time it is read it replays the run, which is
deterministic, once, with a recorder in ``Simulator.log``'s place, and
raises :class:`~.model.InvariantError` unless the replay ends as the run
did.  The recorder appends each event's time, node, constant
``%``-template and arguments (ints, floats, strings, tuples of request
ids) flat into fixed-size chunk lists, and builds no text: the log renders
the golden-log lines only as it is read, and keeps none of them.  So only
a reader of the log pays for it (``run --log``, ``replay``, the golden-log
tests), and ``run``, ``min-cpu``, ``sweep-overhead`` and every capacity
probe record nothing.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Collection, Iterator, Mapping, NamedTuple, Sequence
)

from .model import (
    CostModel,
    DatacenterId,
    InvariantError,
    RequestId,
    ServiceClass,
    Topology,
    demand_table,
    feasible_set_for,
    price_table,
)
from .protocol import (
    ACTIVE_STATES,
    PdAckMsg,
    PdRequestMsg,
    ProtocolMsg,
    ProtocolNode,
    PuAckMsg,
    PuMsg,
    Record,
    SfsMsg,
)

if TYPE_CHECKING:
    from .scenarios import Scenario

__all__ = [
    "LinkModel",
    "message_bits",
    "TraceEvent",
    "load_trace",
    "check_trace_events",
    "Counters",
    "RunResult",
    "EventLog",
    "Simulator",
    "EVENT_BUDGET",
    "EpochProblem",
    "EpochDecision",
    "overhead_per_request",
    "DEPARTED_POA",
]

#: Events a run may process before it stops and reads ``diverged``.
EVENT_BUDGET = 500_000

#: PoA column value marking a departure row in trace files.
DEPARTED_POA = "OUT"

#: Atoms per chunk of a run's event record (see ``Simulator.log``).  The
#: record is chunked because one flat list measured about 7.5 MB more peak
#: RSS on the ``churn`` benchmark workload: about 65 MB against 57.5 MB.
_CHUNK_ATOMS = 1 << 14

# Wire layout (bits).  Every message pays a fixed header; scan/push traffic
# carries full per-request records while acks carry only ids and a status
# bit.  Push-down traffic additionally carries the initiator id, the running
# CPU deficit, and a per-record demand-at-initiator field.
_HEADER_BITS = 80
_REQUEST_ID_BITS = 14
_CLASS_ID_BITS = 4
_NODE_ID_BITS = 12
_STATUS_BITS = 1
_DEFICIT_BITS = 16
_PD_DEMAND_BITS = 5


# Each record carries its id, class, origin and current-host slots, then
# its feasible list, a node id per entry.
_RECORD_FIXED_BITS = _REQUEST_ID_BITS + _CLASS_ID_BITS + 2 * _NODE_ID_BITS
_feasible = attrgetter("feasible")


def _records_bits(records: Sequence[Record], per_record: int) -> int:
    """Wire size of ``records``, each also carrying ``per_record`` more
    bits: the reach lengths are summed in one pass, with no Python call per
    record."""
    fixed = (_RECORD_FIXED_BITS + per_record) * len(records)
    return fixed + _NODE_ID_BITS * sum(map(len, map(_feasible, records)))


def message_bits(msg: ProtocolMsg) -> int:
    """Size of a protocol message on the wire, in bits."""
    if isinstance(msg, (SfsMsg, PuMsg)):
        return _HEADER_BITS + _records_bits(msg.records, 0)
    if isinstance(msg, PuAckMsg):
        return _HEADER_BITS + len(msg.acks) * (_REQUEST_ID_BITS + _STATUS_BITS)
    if isinstance(msg, PdRequestMsg):
        return (
            _HEADER_BITS
            + _NODE_ID_BITS
            + _DEFICIT_BITS
            + _records_bits(msg.records, _PD_DEMAND_BITS)
        )
    if isinstance(msg, PdAckMsg):
        return (
            _HEADER_BITS
            + _NODE_ID_BITS
            + _DEFICIT_BITS
            + len(msg.acks) * (_REQUEST_ID_BITS + _STATUS_BITS)
        )
    raise TypeError(f"unknown message {type(msg).__name__}")


@dataclass(frozen=True)
class LinkModel:
    """Per-hop control link: fixed propagation plus serialization delay."""

    propagation: float = 22e-6
    capacity_bps: float = 10e6

    def __post_init__(self) -> None:
        if not 0 <= self.propagation < math.inf:
            raise ValueError("link propagation must be finite and >= 0")
        if not 0 < self.capacity_bps < math.inf:
            raise ValueError("link capacity_bps must be finite and > 0")


class TraceEvent(NamedTuple):
    """One user event: first sighting arrives, new PoA moves, OUT departs.

    A named tuple, cheap to build: immutable and hashable, and compared as
    a tuple, field by field, whatever the other side's type.
    """

    time: float
    user: int
    kind: str  # "arrive" | "move" | "depart"
    poa: DatacenterId | None = None
    class_id: int | None = None


def load_trace(path: str | Path) -> list[TraceEvent]:
    """Read a user trace from CSV (columns: time, user, poa, class).

    A user's first row is an arrival and must carry a class id; later rows
    are movements, and a PoA of ``OUT`` is a departure, which must be the
    user's last row and cannot be its first (:func:`_check_user_order`).
    Rows must be in non-decreasing time order and have as many fields as
    the header; blank lines are skipped.  The file is UTF-8, with or
    without the byte-order mark that spreadsheets write.  A bad row, a bad
    header, a byte that is not UTF-8 or text that is not CSV raises
    ``ValueError`` naming the file and the line.
    """
    events: list[TraceEvent] = []
    arrived: set[int] = set()
    departed: set[int] = set()
    last_time = float("-inf")
    data = Path(path).read_bytes()
    try:
        # Decode it all once to find a bad byte's line: the text layer
        # below decodes in chunks, ahead of the row csv has reached.
        data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        # one more than the line breaks before the byte, which
        # ``splitlines`` finds where csv does (\n, \r and \r\n)
        line = len((err.object[: err.start] + b"?").splitlines())
        raise ValueError(f"trace {path} line {line}: {err}") from err
    # A text layer over the bytes, not a StringIO of the decoded text,
    # which would hold four bytes per character.
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    reader = csv.reader(stream)
    try:
        header = next(reader, [])
        column = {name: i for i, name in enumerate(header)}
        if not {"time", "user", "poa"}.issubset(column):
            raise ValueError("the header must name columns time,user,poa[,class]")
        at_time, at_user, at_poa = column["time"], column["user"], column["poa"]
        at_class = column.get("class")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, but the header has {len(header)}")
            time = float(row[at_time])
            if time < last_time:
                raise ValueError(f"not time-sorted at t={time}")
            last_time = time
            user = int(row[at_user])
            poa_field = row[at_poa].strip()
            kind = "move" if user in arrived else "arrive"
            if poa_field == DEPARTED_POA:
                kind = "depart"
            _check_user_order(user, kind, arrived, departed)
            if kind == "depart":
                events.append(TraceEvent(time, user, kind))
                continue
            poa = int(poa_field)
            if kind == "move":
                events.append(TraceEvent(time, user, kind, poa))
            else:
                class_field = "" if at_class is None else row[at_class].strip()
                if not class_field:
                    raise ValueError(f"arrival of user {user} lacks a class id")
                events.append(TraceEvent(time, user, kind, poa, int(class_field)))
    except (ValueError, csv.Error) as err:
        line = max(reader.line_num, 1)
        raise ValueError(f"trace {path} line {line}: {err}") from err
    return events


def _check_user_order(
    user: int, kind: str, arrived: set[int], departed: set[int]
) -> None:
    """Raise ValueError when an event of ``kind`` by ``user`` is out of
    place after the users in ``arrived`` and ``departed``, and add the user
    to the set its event joins: a user's first event is its one arrival,
    and its departure is its last event."""
    if user in departed:
        raise ValueError(f"user {user} has an event after departing")
    if kind == "arrive":
        if user in arrived:
            raise ValueError(f"user {user} arrived twice")
        arrived.add(user)
    elif user not in arrived:
        event = "departure" if kind == "depart" else "move"
        raise ValueError(f"{event} of user {user}, who has not arrived")
    elif kind == "depart":
        departed.add(user)


def check_trace_events(
    trace: Sequence[TraceEvent],
    classes: Mapping[int, ServiceClass],
    leaves: Collection[DatacenterId],
) -> list[TraceEvent]:
    """``trace`` sorted stably by time, the order a run takes its events,
    or a ValueError at the first event in that order that breaks a rule of
    a valid trace, whatever the world it runs in beyond its classes and
    leaves.  Each event has a finite time of at least 0 and a kind of
    ``arrive``, ``move`` or ``depart``; an arrival has a PoA and a class,
    and a move a PoA; an arrival's class is in ``classes``; an arrival's or
    a move's PoA is in ``leaves``; and a user's first event is its one
    arrival, and its departure its last event (:func:`_check_user_order`)."""
    ordered = sorted(trace, key=itemgetter(0))
    arrived: set[int] = set()
    departed: set[int] = set()
    for time, user, kind, poa, class_id in ordered:
        if not math.isfinite(time):
            raise ValueError(f"trace has an event at time {time}, which is not finite")
        if time < 0:
            raise ValueError(f"trace has an event at time {time}, before time 0")
        if kind == "arrive":
            if poa is None or class_id is None:
                raise ValueError(f"arrival of user {user} lacks a PoA or class")
            if class_id not in classes:
                raise ValueError(
                    f"trace uses class {class_id}, which the scenario does not "
                    f"define (classes: {sorted(classes)})"
                )
        elif kind not in ("move", "depart"):
            raise ValueError(f"unknown trace event {kind!r}")
        elif kind == "move" and poa is None:
            raise ValueError(f"move of user {user} lacks a PoA")
        _check_user_order(user, kind, arrived, departed)
        if kind != "depart" and poa not in leaves:
            raise ValueError(
                f"trace names PoA {poa}, which is not a leaf of the "
                f"scenario's tree"
            )
    return ordered


@dataclass
class Counters:
    """Run totals the reports are built from."""

    messages: dict[str, int] = field(default_factory=dict)
    bits: dict[str, int] = field(default_factory=dict)
    migrations: int = 0
    placements: int = 0
    push_downs: int = 0
    criticals: int = 0
    events: int = 0

    def total_messages(self) -> int:
        return sum(self.messages.values())

    def total_bits(self) -> int:
        return sum(self.bits.values())


def overhead_per_request(counters: Counters, request_count: int) -> float:
    """Mean control-plane bytes per placement trigger (arrival or critical
    relocation); NaN when the run triggered no placement work at all."""
    triggers = request_count + counters.criticals
    if triggers == 0:
        return float("nan")
    return counters.total_bits() / 8.0 / triggers


def _rids(ids: tuple[RequestId, ...]) -> str:
    """A request-id tuple as the text log lists it: ``r1,r4,r9``."""
    return "r" + ",r".join(map(str, ids)) if ids else ""


def _snapshot(arg: object) -> object:
    """A log argument as the record keeps it: a dict or list, which its
    caller may change later, becomes the tuple of its request ids now (a
    dict's keys, a record's id); any other value stays as it is."""
    if type(arg) is dict:
        return tuple(arg)
    if type(arg) is list:
        return tuple([x.request_id if isinstance(x, Record) else x for x in arg])
    return arg


class EventLog:
    """The events of one run, one text line each: ``<time> s<node> <text>``.

    A run records no event, so the log keeps the run's scenario, with the
    trace it ran, its algorithm and event budget, and its outcome
    (counters, end time, placements).  The first read replays the run,
    once, with a recorder in ``Simulator.log``'s place that keeps each
    event as flat atoms: its time, node, ``%``-template and arguments.
    The replay must end with the run's outcome, or the read raises
    :class:`~.model.InvariantError`, so the log is the run's own.
    Every read renders the recorded events one at a time and keeps none of
    the lines; ``len()`` counts the events, and :meth:`events` yields them
    decoded instead of rendered.
    """

    __slots__ = ("_scenario", "_lane", "_outcome", "_chunks", "_count")

    def __init__(
        self,
        scenario: Scenario,
        lane: tuple[EpochAlgorithm | None, int],
        outcome: tuple[Counters, float, dict[RequestId, DatacenterId]],
    ) -> None:
        self._scenario = scenario  # the run's world, with the trace it ran
        self._lane = lane  # the run's algorithm and event budget
        self._outcome = outcome
        self._chunks: list[list[object]] | None = None
        self._count = 0

    def _replayed(self) -> list[list[object]]:
        """The recorded events, from replaying the run on the first call.

        The recorder appends each event's time, node, template and
        arguments flat to the current chunk, each argument as
        :func:`_snapshot` keeps it, with no tuple or text per event: once
        the collector has untracked the tuples of request ids, which hold
        ints alone, the record holds nothing it tracks but its chunk
        lists."""
        if self._chunks is None:
            sim = Simulator(self._scenario, *self._lane)
            chunks: list[list[object]] = [[]]
            count = 0

            def record(node: DatacenterId, template: str, *args: object) -> None:
                nonlocal count
                chunk = chunks[-1]
                chunk += (sim.now(), node, template)
                chunk += map(_snapshot, args)
                count += 1
                if len(chunk) >= _CHUNK_ATOMS:
                    chunks.append([])

            sim.log = record  # type: ignore[method-assign]
            replayed = sim.run(self._scenario.trace)
            outcome = (replayed.counters, replayed.end_time, replayed.placements)
            if outcome != self._outcome:
                raise InvariantError(
                    "the replay of a run did not end as the run did, so it "
                    "cannot give the run's event log"
                )
            self._chunks, self._count = chunks, count
        return self._chunks

    def _recorded(self) -> Iterator[tuple[float, DatacenterId, str, list[object]]]:
        """Each event as recorded: the one decode loop under the text and
        :meth:`events`."""
        arity: dict[str, int] = {}  # template -> its argument count
        for chunk in self._replayed():
            at, end = 0, len(chunk)
            while at < end:
                now, node, template = chunk[at : at + 3]
                count = arity.get(template)
                if count is None:
                    count = arity[template] = template.count("%")
                at += 3 + count
                yield now, node, template, chunk[at - count : at]

    def events(self) -> Iterator[tuple[float, DatacenterId, str, tuple[object, ...]]]:
        """Each event as ``(time, node, template, args)``, where ``args``
        are the values the template formats and an id list is a tuple."""
        for now, node, template, args in self._recorded():
            yield now, node, template, tuple(args)

    def __iter__(self) -> Iterator[str]:
        line_of: dict[str, str] = {}  # template -> its whole line's format
        stamp_time = None
        for now, node, template, args in self._recorded():
            if now != stamp_time:
                stamp_time, stamp = now, f"{now:.6f} s"
            line = line_of.get(template)
            if line is None:
                line = line_of[template] = "%s%d " + template
            for i, arg in enumerate(args):
                if type(arg) is tuple:
                    args[i] = _rids(arg)
            yield line % (stamp, node, *args)

    def __len__(self) -> int:
        self._replayed()
        return self._count


@dataclass
class RunResult:
    verdict: str  # "ok" | "failure" | "infeasible" | "diverged"
    placements: dict[RequestId, DatacenterId]
    counters: Counters
    event_log: EventLog
    end_time: float
    failed: tuple[RequestId, ...]
    unplaced: tuple[RequestId, ...]
    migration_cost: float
    final_placement_cost: float
    comm_cost: float
    request_count: int
    #: the exact solver hit its node budget but still held a full placement
    solver_exhausted: bool = False

    @property
    def decision_cost(self) -> float:
        """Migration spend plus the hosting price of the final state."""
        return self.migration_cost + self.final_placement_cost


_HOSTED = ("placed", "relocating")
_MOVABLE = ("waiting", "relocating")


class _RequestState:
    """One request's row of ``Simulator.requests``, the engine's only
    record of it and the table every protocol node reads (see
    ``protocol.RequestView``).

    ``request_id`` and ``class_id`` are fixed at arrival; ``poa`` and
    ``feasible`` are the user's current attachment and reach, the
    :class:`~.model.Request` fields, set in place on a move.  ``reached``
    lists every node of every reach the request has had, the only nodes
    that can hold a trace of it (see ``Simulator._purge``).

    ``state`` is the one record of its status: ``waiting`` (not placed
    yet), ``placed``, ``relocating`` (still placed, but its user moved out
    of the host's reach and a new placement is in flight), ``failed`` or
    ``departed``.  A request is served while placed, and active while
    waiting, placed or relocating (``ACTIVE_STATES``); an epoch may
    (re)place, and a run lists as unplaced, the waiting and relocating ones
    (``_MOVABLE``); the placed and relocating ones hold a host
    (``_HOSTED``).  ``state`` and ``host`` change only through
    ``Simulator._transition``, which keeps the engine's load of each node
    with them.  ``generation`` counts the moves that superseded the
    request's records in flight.
    """

    __slots__ = ("request_id", "class_id", "poa", "feasible", "reached", "state",
                 "host", "generation")

    def __init__(
        self, request_id: RequestId, class_id: int, poa: DatacenterId,
        feasible: tuple[DatacenterId, ...],
    ) -> None:
        self.request_id = request_id
        self.class_id = class_id
        self.poa = poa
        self.feasible = self.reached = feasible
        self.state = "waiting"
        self.host: DatacenterId | None = None
        self.generation = 0


# Centralized algorithms get the period's work as a first-class problem; the
# definition lives here because the engine builds it, while the solvers that
# consume it live in `baselines`.
class ActiveService(NamedTuple):
    """A request as one epoch sees it: the :class:`~.model.Request` fields,
    then where it runs now (None for a new request), and whether the epoch
    may (re)place it.

    A named tuple, cheap to build: immutable and hashable, and compared as
    a tuple, field by field, whatever the other side's type.
    """

    request_id: RequestId
    class_id: int
    poa: DatacenterId
    feasible: tuple[DatacenterId, ...]
    current_host: DatacenterId | None
    movable: bool


@dataclass(frozen=True)
class EpochProblem:
    """One epoch's placement decision for a centralized algorithm.

    The problem derives two tables from its world, once: ``units``, the
    demand of each class at each node, built with the problem, and
    ``prices``, the hosting price of each class at each node that can
    host it, built when first read, so an algorithm that reads no price
    does not pay for it.  An algorithm takes a service's row of a table,
    ``units[svc.class_id]``, once and reads it per candidate node, with no
    call per node; :meth:`price` is the one rule that adds the migration
    charge."""

    topology: Topology
    classes: Mapping[int, ServiceClass]
    costs: CostModel
    services: tuple[ActiveService, ...]
    #: the demand table (see ``model.demand_table``), built once per problem
    units: dict[int, dict[DatacenterId, int | None]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", demand_table(self.topology, self.classes))

    @cached_property
    def prices(self) -> dict[int, dict[DatacenterId, float]]:
        """The price table (see ``model.price_table``), built on first read."""
        return price_table(self.topology, self.costs, self.units)

    def price(self, svc: ActiveService, node: DatacenterId) -> float:
        """Hosting ``svc`` at ``node``, which can host its class: the
        placement price, plus one migration charge when the service moves
        there from another host."""
        price = self.prices[svc.class_id][node]
        if svc.current_host is not None and svc.current_host != node:
            price += self.costs.move_price(svc.class_id)
        return price


EpochAlgorithm = Callable[[EpochProblem], "EpochDecision"]


@dataclass(frozen=True)
class EpochDecision:
    """An algorithm's answer: where movable services go (None = give up)."""

    placement: Mapping[RequestId, DatacenterId]
    solved: bool = True
    exhausted_budget: bool = False


class Simulator:
    """Event-driven world shared by the protocol and the centralized lanes.

    It runs one :class:`~.scenarios.Scenario`: its tree, classes, prices,
    RTTs, protocol timing and link.  ``algorithm`` picks the lane, and a
    run stops after ``event_budget`` events, which must not be negative (a
    ValueError); ``run`` takes the trace, which may differ from the
    scenario's own, and may be called once.
    """

    EPOCH_PERIOD = 1.0

    def __init__(
        self,
        scenario: Scenario,
        algorithm: EpochAlgorithm | None = None,
        event_budget: int = EVENT_BUDGET,
        check_invariants: bool = False,
    ) -> None:
        if event_budget < 0:
            raise ValueError(f"the event budget must be >= 0, not {event_budget}")
        #: the world this simulator runs, with its own copies of the class
        #: and RTT dicts, so a caller's later edits reach neither the run
        #: nor its replay
        self.scenario = replace(
            scenario,
            classes=dict(scenario.classes),
            rtt_by_level=dict(scenario.rtt_by_level),
        )
        # the fields that hot paths read
        self.topology = topology = scenario.topology
        self.classes = self.scenario.classes
        self.costs = scenario.costs
        self.link = scenario.link
        #: the lane: "protocol" without an algorithm, else "centralized"
        self.mode = "protocol" if algorithm is None else "centralized"
        self.algorithm = algorithm
        self.event_budget = event_budget
        self.check_invariants = check_invariants

        self._now = 0.0
        self._seq = 0
        # (time, sequence, handler, the handler's arguments)
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        #: request id -> the engine's view of it, every request of the run;
        #: the World's request table, which protocol nodes only read
        self.requests: dict[RequestId, _RequestState] = {}
        # (PoA, class id) -> reach; see _feasible_for
        self._reaches: dict[tuple[DatacenterId, int], tuple[DatacenterId, ...]] = {}
        # centralized: the last epoch the algorithm could not solve; an
        # unchanged problem gets the same answer without solving it again.
        # The least-capacity searches skip the probes the slot count
        # rejects, so their 12 `exact` searches of 80 `rand` users (seeds
        # 1-4, shares 0, 0.5 and 1) call the solver 51 times with or
        # without the reuse.  Their `jitter` searches of 60 users (share
        # 0.5, seeds 1-3) still gain: 16 calls with it, 20 without.
        self._failed_epoch: tuple[EpochProblem, EpochDecision] | None = None
        self.counters = Counters()
        self._ran = False  # a simulator runs one trace; see run
        self._diverged = False
        self._solver_exhausted = False
        self._infeasible = False
        self._migration_cost = 0.0
        # (src, dst) -> when the directed link's transmitter is next free
        self._busy_until: dict[tuple[DatacenterId, DatacenterId], float] = {}
        self._capacity_used: dict[DatacenterId, int] = {
            n: 0 for n in topology.nodes
        }
        # class id -> node -> CPU units; see model.demand_table
        self._units = demand_table(topology, self.classes)
        # class id -> node -> hosting price; see model.price_table
        self._prices = price_table(topology, self.costs, self._units)
        self.nodes: dict[DatacenterId, ProtocolNode] = {}
        if self.mode == "protocol":
            for node_id in topology.nodes:
                demand = {
                    cid: row[node_id]
                    for cid, row in self._units.items()
                    if row[node_id] is not None
                }
                self.nodes[node_id] = ProtocolNode(
                    self, topology, node_id, scenario.timing, demand
                )

    # -- World services (protocol mode) ------------------------------------

    def now(self) -> float:
        return self._now

    def send(self, src: DatacenterId, dst: DatacenterId, msg: ProtocolMsg) -> None:
        bits = message_bits(msg)
        kind = type(msg).__name__
        messages, bits_by_kind = self.counters.messages, self.counters.bits
        messages[kind] = messages.get(kind, 0) + 1
        bits_by_kind[kind] = bits_by_kind.get(kind, 0) + bits
        # The transmitter sends one message at a time per directed link: a
        # message departs no earlier than the one before it, so arrivals on
        # a link never decrease, and equal ones run in send order (by heap
        # sequence number).  Delivery is FIFO by construction.
        busy_until, key = self._busy_until, (src, dst)
        start = max(self._now, busy_until.get(key, 0.0))
        departure = busy_until[key] = start + bits / self.link.capacity_bps
        arrival = departure + self.link.propagation
        self.log(src, "send %s -> s%d bits=%d", kind, dst, bits)
        self._schedule(arrival, self.nodes[dst].on_message, (src, msg))

    def commit_placement(self, request_id: RequestId, node: DatacenterId) -> None:
        """Record a placement (and thus any migration) that, in the
        protocol lane, the hosting node has already booked."""
        self._commit(self.requests[request_id], node)

    def _commit(self, req: _RequestState, node: DatacenterId) -> None:
        """Place the request of row ``req`` at ``node``: the work of
        :meth:`commit_placement`, which an epoch does from the row."""
        old_host = req.host
        self._transition(req, "placed", node)
        if old_host is not None and old_host != node:
            self.counters.migrations += 1
            self._migration_cost += self.costs.move_price(req.class_id)
            self.log(node, "place r%d (migrated from s%d)", req.request_id, old_host)
        else:
            self.log(node, "place r%d", req.request_id)
        self.counters.placements += 1

    def _transition(
        self, req: _RequestState, state: str, host: DatacenterId | None
    ) -> None:
        """Give ``req`` its new ``state`` and ``host``: the only place either
        changes.  A new host frees the old one, if any, whose protocol node
        must hand back the units the class takes there, and books the new
        one, if any, which must be a level that can host the class."""
        old = req.host
        if host != old:
            rid, units = req.request_id, self._units[req.class_id]
            if host is not None and units[host] is None:
                raise InvariantError(
                    f"r{rid} placed at s{host}, a level that cannot host it"
                )
            if old is not None:
                if self.mode == "protocol":
                    freed = self.nodes[old].release(rid)
                    if freed != units[old]:
                        raise InvariantError(
                            f"release mismatch at s{old} for r{rid}: "
                            f"{freed} booked, {units[old]} expected"
                        )
                self._capacity_used[old] -= units[old]
            if host is not None:
                self._capacity_used[host] += units[host]
            req.host = host
        req.state = state

    def report_failure(self, request_id: RequestId, node: DatacenterId) -> None:
        req = self.requests[request_id]
        self._transition(req, "failed", req.host)
        self.log(node, "failure r%d", request_id)
        self._purge(request_id)

    def _purge(self, request_id: RequestId) -> None:
        """Drop every trace of a request from the protocol nodes (there are
        none in centralized mode).

        Only the nodes of the reaches the request has had are visited.
        That is sound because a reach is a contiguous prefix of a
        leaf-to-root path, PoA first, and every message routes a record
        within the reach it carries: a scan climbs only to a parent in the
        reach, push-up and its acks descend toward an origin in it, and a
        push-down offers a record only to the child above its PoA.  So a
        record, reservation or pending push-down of the request sits on a
        node of one of its reaches, old or current.
        """
        if self.mode == "protocol":
            for node in self.requests[request_id].reached:
                self.nodes[node].notify_gone(request_id)

    def arm_timer(self, node: DatacenterId, kind: str, deadline: float) -> None:
        self._schedule(deadline, self.nodes[node].on_timer, (kind,))

    def note_push_down(self) -> None:
        self.counters.push_downs += 1

    def log(self, node: DatacenterId, template: str, *args: object) -> None:
        """Note an event: a no-op, as a run records no event.  Only the
        replay of an ``EventLog`` records, with its own recorder in this
        method's place."""

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, time: float, handler: Callable[..., None], args: tuple) -> None:
        """Run ``handler(*args)`` at ``time``.  A node's handler is looked up
        here, so a method replaced on its class is the one that runs."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handler, args))

    # -- trace ingestion ----------------------------------------------------

    def _feasible_for(self, poa: DatacenterId, class_id: int) -> tuple[int, ...]:
        """The reach of ``class_id`` at ``poa``, computed once per pair: the
        same tuple object for every request with that attachment."""
        key = (poa, class_id)
        reach = self._reaches.get(key)
        if reach is None:
            reach = self._reaches[key] = feasible_set_for(
                self.topology, poa, self.classes[class_id], self.scenario.rtt_by_level
            )
        return reach

    def _on_arrive(self, user: int, poa: DatacenterId, class_id: int) -> None:
        """``user`` arrives at ``poa`` in ``class_id``; the trace passed
        :meth:`_trace_cursor`, so the user is new and the reach not empty."""
        feasible = self._feasible_for(poa, class_id)
        req = self.requests[user] = _RequestState(user, class_id, poa, feasible)
        self.log(poa, "arrive r%d class=%d", user, class_id)
        if self.mode == "protocol":
            self._issue(req)

    def _issue(self, req: _RequestState) -> None:
        """Hand a request's current record to the protocol at its PoA."""
        rec = Record(
            req.request_id, req.class_id, None, req.feasible, req.host, req.generation
        )
        self.nodes[req.poa].buffer_scan_input([rec])

    def _on_move(self, user: int, poa: DatacenterId, _class_id: None) -> None:
        """``user`` moves to ``poa``, in the class it arrived in; the trace
        passed :meth:`_trace_cursor`, so the user has arrived and not left,
        and a move of a user whose request failed is ignored.  The new
        reach is not empty: every PoA is a level-0 leaf, so a class's reach
        is empty at one PoA exactly when it is empty at all of them."""
        req = self.requests[user]
        if req.state not in ACTIVE_STATES:
            return
        feasible = self._feasible_for(poa, req.class_id)
        req.poa, req.feasible = poa, feasible
        req.reached += tuple(n for n in feasible if n not in req.reached)
        self.log(poa, "move r%d", user)
        if req.state in _HOSTED and req.host in feasible:
            if req.state == "relocating":
                # The move brought the old host back into reach: retire the
                # in-flight re-placement, which was scoped to the previous
                # attachment and could migrate the service out of reach.
                req.generation += 1
                self._transition(req, "placed", req.host)
                self._purge(user)
            return  # the current placement still serves the user
        req.generation += 1
        self.counters.criticals += 1
        if req.state == "placed":
            self._transition(req, "relocating", req.host)
        if self.mode == "protocol":
            self._purge(user)
            self._issue(req)

    def _on_depart(self, user: int, _poa: None, _class_id: None) -> None:
        """``user`` leaves; the trace passed :meth:`_trace_cursor`, so the
        user has arrived and not left, and a departure of a user whose
        request failed is ignored."""
        req = self.requests[user]
        if req.state not in ACTIVE_STATES:
            return
        self._transition(req, "departed", None)
        self.log(req.poa, "depart r%d", user)
        self._purge(user)

    # -- centralized epochs ---------------------------------------------------

    def _run_epoch(self, k: int, last: int) -> None:
        """Epoch ``k``, at ``k * EPOCH_PERIOD``: schedule epoch ``k + 1``
        unless this is epoch ``last``, then decide."""
        if k < last:
            self._schedule((k + 1) * self.EPOCH_PERIOD, self._run_epoch, (k + 1, last))
        # The epoch may (re)place the requests still waiting and the ones
        # relocating after a move; with none of them it has nothing to do.
        if all(req.state not in _MOVABLE for req in self.requests.values()):
            return
        services = tuple([
            ActiveService(
                rid, req.class_id, req.poa, req.feasible, req.host,
                req.state in _MOVABLE,
            )
            for rid, req in sorted(self.requests.items())
            if req.state in ACTIVE_STATES
        ])
        problem = EpochProblem(self.topology, self.classes, self.costs, services)
        if self._failed_epoch is not None and self._failed_epoch[0] == problem:
            decision = self._failed_epoch[1]
        else:
            decision = self.algorithm(problem)
            if not decision.solved:
                self._failed_epoch = (problem, decision)
        if decision.exhausted_budget:
            # A cut-off search that still produced a full placement keeps
            # the run alive (optimality no longer guaranteed, so flag it);
            # a cut-off with nothing in hand is a divergence.
            if decision.solved:
                self._solver_exhausted = True
            else:
                self._diverged = True
        # Moves land one at a time, so a node may briefly hold a service
        # that a later move of the same decision frees: capacity binds on
        # the decision as a whole.
        targets: set[DatacenterId] = set()
        requests = self.requests
        for rid, node in sorted(decision.placement.items()):
            req = requests[rid]
            if req.state not in ACTIVE_STATES:
                continue
            if node == req.host:
                self._transition(req, "placed", node)
                continue
            self._commit(req, node)
            targets.add(node)
        for node in sorted(targets):
            if self._capacity_used[node] > self.topology.capacity(node):
                raise InvariantError(
                    f"capacity breached at s{node} by an epoch decision"
                )
        if not decision.solved:
            self._infeasible = True

    # -- main loop ------------------------------------------------------------

    def _trace_cursor(self, trace: Sequence[TraceEvent]) -> list[TraceEvent]:
        """The trace's own events, latest first: the list
        :func:`check_trace_events` sorted stably by time, so events at one
        instant keep their trace order, reversed in place, so the next one
        is popped off the end.  It holds no entry of its own per event.
        Before any event runs, the trace must pass that gate, and every
        arrival must have a reach that is not empty, so a bad trace stops
        the run before its first event.

        The reach is checked at each class's first arrival only, and the
        walk stops once every class has been checked.  That is sound
        because every PoA is a leaf, and every leaf is at level 0 (see
        ``Topology``): a class's reach is empty at one PoA exactly when it
        is empty at all of them.  So the first arrival of a class with an
        empty reach is the first arrival with an empty reach, and its user
        is the one the error names."""
        trace = check_trace_events(trace, self.classes, frozenset(self.topology.leaves))
        unchecked = set(self.classes)
        for _time, user, kind, poa, class_id in trace:
            if not unchecked:
                break
            if kind == "arrive" and class_id in unchecked:
                unchecked.discard(class_id)
                if not self._feasible_for(poa, class_id):
                    raise ValueError(
                        f"user {user} (class {class_id}) has no feasible "
                        f"datacenter at s{poa}"
                    )
        trace.reverse()
        return trace

    def run(self, trace: Sequence[TraceEvent]) -> RunResult:
        """Feed a trace through the world and drive it to quiescence, or
        until ``event_budget`` events have run (the verdict then reads
        ``diverged``).

        Trace events do not enter the heap: they come from a cursor over
        the trace sorted stably by time (see ``_trace_cursor``), and the
        next event is the cursor's whenever its time is not later than
        the heap top's.  A trace event goes straight to its kind's
        handler, looked up when the run starts, so a handler replaced on
        the instance before then is the one that runs.  Epochs, timers
        and messages are scheduled after the whole trace, so this is the
        ``(time, sequence)`` order of one heap holding both: at one
        instant the trace events run first, in trace order, then the
        scheduled ones, in schedule order.  The heap stays as small as
        the scheduled work, whatever the trace's length.

        The centralized lanes run epoch ``k`` at ``k * EPOCH_PERIOD`` for
        ``k`` from 0 to ``int((t + EPOCH_PERIOD) / EPOCH_PERIOD) + 1``, where
        ``t`` is the latest event's time.  Each epoch schedules the next, so
        the heap holds one epoch at a time, and a far-future trace time
        runs out the budget (``diverged``) instead of filling memory before
        the first event.

        The run records no event (``log`` is a no-op): the result's
        ``event_log`` replays the run when it is first read.

        The result is read off the request table in one walk: the
        placements, the unplaced and failed requests (sorted by id), and
        the final placement cost, the hosting prices of the placements
        from the run's price table, summed in placement order.

        A simulator runs once: the result shares its counters, so a second
        call raises ``RuntimeError`` before it touches any state.
        """
        if self._ran:
            raise RuntimeError("this Simulator has already run; build one per run")
        self._ran = True
        pending = self._trace_cursor(trace)
        handlers = {
            "arrive": self._on_arrive, "move": self._on_move, "depart": self._on_depart
        }
        if self.mode == "centralized" and pending:
            horizon = pending[0][0] + self.EPOCH_PERIOD  # the latest event
            last = int(horizon / self.EPOCH_PERIOD) + 1
            self._schedule(0.0, self._run_epoch, (0, last))
        heap, counters = self._heap, self.counters
        budget, check_invariants = self.event_budget, self.check_invariants
        while pending or heap:
            if counters.events >= budget:
                self._diverged = True
                break
            if pending and (not heap or pending[-1][0] <= heap[0][0]):
                time, user, kind, poa, class_id = pending.pop()
                self._now = time
                counters.events += 1
                handlers[kind](user, poa, class_id)
            else:
                time, _seq, handler, args = heapq.heappop(heap)
                self._now = time
                counters.events += 1
                handler(*args)
            if check_invariants:
                self.assert_invariants()
        # Unserved at the end: never placed, or left stranded at a host the
        # user moved away from (a re-placement that never landed).
        placements: dict[RequestId, DatacenterId] = {}
        prices: list[float] = []
        unplaced: list[RequestId] = []
        failed: list[RequestId] = []
        for rid, req in self.requests.items():
            state, host = req.state, req.host
            if state in _HOSTED and host is not None:
                placements[rid] = host
                prices.append(self._prices[req.class_id][host])
            if state in _MOVABLE:
                unplaced.append(rid)
            elif state == "failed":
                failed.append(rid)
        unplaced.sort()
        failed.sort()
        if self._diverged:
            verdict = "diverged"
        elif failed:
            verdict = "failure"
        elif self._infeasible or unplaced:
            verdict = "infeasible"
        else:
            verdict = "ok"
        return RunResult(
            verdict=verdict,
            placements=placements,
            counters=self.counters,
            event_log=EventLog(
                replace(self.scenario, trace=tuple(trace)),
                (self.algorithm, self.event_budget),
                (self.counters, self._now, placements),
            ),
            end_time=self._now,
            failed=tuple(failed),
            unplaced=tuple(unplaced),
            migration_cost=self._migration_cost,
            final_placement_cost=sum(prices, 0.0),
            comm_cost=self.costs.per_bit_cost * self.counters.total_bits(),
            request_count=len(self.requests),
            solver_exhausted=self._solver_exhausted,
        )

    # -- introspection ---------------------------------------------------------

    def assert_invariants(self) -> None:
        """Capacity, bookkeeping, and reach invariants; raises
        :class:`InvariantError` on breach."""
        # what each node's load must be: the units of every request that
        # holds it, whatever the request's state (never negative, as no
        # class needs negative units)
        held = dict.fromkeys(self.topology.nodes, 0)
        for req in self.requests.values():
            if req.host is not None:
                held[req.host] += self._units[req.class_id][req.host]
        host_of: dict[RequestId, DatacenterId] = {}
        for node_id in self.topology.nodes:
            used = self._capacity_used[node_id]
            if used > self.topology.capacity(node_id):
                raise InvariantError(f"capacity breached at s{node_id}")
            if used != held[node_id]:
                raise InvariantError(f"load drift at s{node_id}")
            if self.mode == "protocol":
                state = self.nodes[node_id]
                booked = sum(state.assigned.values()) + sum(state.placed.values())
                if state.available != state.capacity - booked:
                    raise InvariantError(f"availability drift at s{node_id}")
                if state.available < 0:
                    raise InvariantError(f"negative availability at s{node_id}")
                for rid in state.placed:
                    if rid in host_of:
                        raise InvariantError(f"r{rid} placed twice")
                    host_of[rid] = node_id
        for rid, req in self.requests.items():
            if req.state in _HOSTED:
                if req.host is None:
                    raise InvariantError(f"r{rid} placed without a host")
                if self.mode == "protocol" and host_of.get(rid) != req.host:
                    raise InvariantError(f"r{rid} host mismatch")
                if req.state == "placed" and req.host not in req.feasible:
                    raise InvariantError(
                        f"r{rid} placed at s{req.host}, outside its reach"
                    )
            elif self.mode == "protocol" and host_of.get(rid) is not None:
                raise InvariantError(f"r{rid} placed but not recorded")
