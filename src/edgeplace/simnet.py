"""Deterministic discrete-event engine for the placement protocol.

Events are ordered by ``(time, sequence)`` where the sequence number is
assigned at scheduling time, so identical inputs always replay to identical
event orders, logs, and reports.  The engine owns the ground truth about
requests (the registry) and is the single mutation path for placements, so
capacity invariants can be checked after every event.

Two execution modes share the machinery:

* ``protocol`` — every datacenter runs a :class:`~.protocol.ProtocolNode`
  and placement emerges from message exchange; control traffic is metered
  through a latency/bandwidth link model.
* ``centralized`` — a placement algorithm runs at one-second epoch
  boundaries over batched arrivals (plus services orphaned by mobility),
  with no control traffic at all.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .model import (
    CostModel,
    DatacenterId,
    Request,
    RequestId,
    ServiceClass,
    Topology,
    feasible_set_for,
)
from .protocol import (
    PdAckMsg,
    PdRequestMsg,
    ProtocolMsg,
    ProtocolNode,
    ProtocolTiming,
    PuAckMsg,
    PuMsg,
    Record,
    SfsMsg,
)

__all__ = [
    "LinkModel",
    "message_bits",
    "TraceEvent",
    "load_trace",
    "save_trace",
    "Counters",
    "RunResult",
    "Simulator",
    "InvariantError",
    "overhead_per_request",
    "DEPARTED_POA",
]

#: PoA column value marking a departure row in trace files.
DEPARTED_POA = "OUT"

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


def _record_bits(rec: Record) -> int:
    # id + class + the feasible list plus origin and current-host slots,
    # each a node id wide
    return (
        _REQUEST_ID_BITS
        + _CLASS_ID_BITS
        + (len(rec.feasible) + 2) * _NODE_ID_BITS
    )


def message_bits(msg: ProtocolMsg) -> int:
    """Size of a protocol message on the wire, in bits."""
    if isinstance(msg, SfsMsg):
        return _HEADER_BITS + sum(
            _record_bits(r) for r in msg.not_assigned + msg.push_up
        )
    if isinstance(msg, PuMsg):
        return _HEADER_BITS + sum(_record_bits(r) for r in msg.records)
    if isinstance(msg, PuAckMsg):
        return _HEADER_BITS + len(msg.acks) * (_REQUEST_ID_BITS + _STATUS_BITS)
    if isinstance(msg, PdRequestMsg):
        return (
            _HEADER_BITS
            + _NODE_ID_BITS
            + _DEFICIT_BITS
            + sum(_record_bits(r) + _PD_DEMAND_BITS for r in msg.records)
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

    def delay(self, bits: int) -> float:
        return self.propagation + bits / self.capacity_bps


@dataclass(frozen=True)
class TraceEvent:
    """One user event: first sighting arrives, new PoA moves, OUT departs."""

    time: float
    user: int
    kind: str  # "arrive" | "move" | "depart"
    poa: DatacenterId | None = None
    class_id: int | None = None


def load_trace(path: str | Path) -> list[TraceEvent]:
    """Read a user trace from CSV (columns: time, user, poa, class).

    A user's first row is an arrival and must carry a class id; later rows
    are movements, and a PoA of ``OUT`` is a departure.  Rows must be in
    non-decreasing time order.
    """
    events: list[TraceEvent] = []
    seen: set[int] = set()
    last_time = float("-inf")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"time", "user", "poa"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"trace {path} must have columns time,user,poa[,class]")
        for row in reader:
            time = float(row["time"])
            if time < last_time:
                raise ValueError(f"trace {path} is not time-sorted at t={time}")
            last_time = time
            user = int(row["user"])
            poa_field = row["poa"].strip()
            if poa_field == DEPARTED_POA:
                events.append(TraceEvent(time, user, "depart"))
                continue
            poa = int(poa_field)
            if user in seen:
                events.append(TraceEvent(time, user, "move", poa))
            else:
                seen.add(user)
                class_field = (row.get("class") or "").strip()
                if not class_field:
                    raise ValueError(f"arrival of user {user} lacks a class id")
                events.append(TraceEvent(time, user, "arrive", poa, int(class_field)))
    return events


def save_trace(path: str | Path, events: Iterable[TraceEvent]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "user", "poa", "class"])
        for ev in events:
            if ev.kind == "depart":
                writer.writerow([f"{ev.time:.6f}", ev.user, DEPARTED_POA, ""])
            else:
                writer.writerow(
                    [
                        f"{ev.time:.6f}",
                        ev.user,
                        ev.poa,
                        ev.class_id if ev.class_id is not None else "",
                    ]
                )


@dataclass
class Counters:
    """Run totals the reports are built from."""

    messages: dict[str, int] = field(default_factory=dict)
    bits: dict[str, int] = field(default_factory=dict)
    migrations: int = 0
    placements: int = 0
    failures: int = 0
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


@dataclass
class RunResult:
    verdict: str  # "ok" | "failure" | "infeasible" | "diverged"
    placements: dict[RequestId, DatacenterId]
    counters: Counters
    event_log: list[str]
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

    @property
    def overhead_bytes_per_request(self) -> float:
        return overhead_per_request(self.counters, self.request_count)


class _RequestState:
    __slots__ = (
        "request_id",
        "class_id",
        "poa",
        "feasible",
        "state",
        "host",
        "is_new",
        "generation",
    )

    def __init__(self, request_id: RequestId, class_id: int, poa: DatacenterId,
                 feasible: tuple[DatacenterId, ...]) -> None:
        self.request_id = request_id
        self.class_id = class_id
        self.poa = poa
        self.feasible = feasible
        self.state = "waiting"
        self.host: DatacenterId | None = None
        self.is_new = True
        self.generation = 0


# Centralized algorithms get the period's work as a first-class problem; the
# definition lives here because the engine builds it, while the solvers that
# consume it live in `baselines`.
@dataclass(frozen=True)
class ActiveService(Request):
    """A request as one epoch sees it: where it runs now, and whether the
    epoch may (re)place it."""

    current_host: DatacenterId | None
    movable: bool
    is_new: bool


@dataclass(frozen=True)
class EpochProblem:
    """One epoch's placement decision for a centralized algorithm."""

    topology: Topology
    classes: Mapping[int, ServiceClass]
    costs: CostModel
    services: tuple[ActiveService, ...]

    def demand(self, class_id: int, node: DatacenterId) -> int | None:
        return self.classes[class_id].demand_at(self.topology.level(node))

    def price(self, svc: ActiveService, node: DatacenterId) -> float:
        """Hosting ``svc`` at ``node``: the placement price, plus one
        migration charge when the service moves there from another host."""
        price = self.costs.place_price(svc.class_id, self.topology.level(node))
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


class InvariantError(AssertionError):
    """A capacity, bookkeeping or reach invariant of the engine is broken.

    Raised explicitly rather than by ``assert``, so the checks also run
    under ``python -O``."""


class Simulator:
    """Event-driven world shared by the protocol and the centralized lanes."""

    EPOCH_PERIOD = 1.0

    def __init__(
        self,
        topology: Topology,
        classes: Mapping[int, ServiceClass],
        costs: CostModel,
        rtt_by_level: Mapping[int, float],
        timing: ProtocolTiming | None = None,
        link: LinkModel | None = None,
        mode: str = "protocol",
        algorithm: EpochAlgorithm | None = None,
        event_budget: int = 500_000,
        check_invariants: bool = False,
    ) -> None:
        if mode not in ("protocol", "centralized"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "centralized" and algorithm is None:
            raise ValueError("centralized mode needs an algorithm")
        self.topology = topology
        self.classes = dict(classes)
        self.costs = costs
        self.rtt_by_level = dict(rtt_by_level)
        self.timing = timing or ProtocolTiming()
        self.link = link or LinkModel()
        self.mode = mode
        self.algorithm = algorithm
        self.event_budget = event_budget
        self.check_invariants = check_invariants

        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, str, tuple]] = []
        self._registry: dict[RequestId, _RequestState] = {}
        self._relocating: set[RequestId] = set()
        # centralized: requests to place, as an ordered set
        self._pending_pool: dict[RequestId, None] = {}
        # centralized: the last epoch the algorithm could not solve; an
        # unchanged problem gets the same answer without solving it again
        self._failed_epoch: tuple[EpochProblem, EpochDecision] | None = None
        self.counters = Counters()
        self.event_log: list[str] = []
        self._failed: list[RequestId] = []
        self._diverged = False
        self._solver_exhausted = False
        self._infeasible = False
        self._migration_cost = 0.0
        # FIFO delivery per directed link: transmitter-busy horizon + guard
        self._link_busy_until: dict[tuple[int, int], float] = {}
        self._link_last_arrival: dict[tuple[int, int], float] = {}
        self._capacity_used: dict[DatacenterId, int] = {
            n: 0 for n in topology.nodes
        }
        self.nodes: dict[DatacenterId, ProtocolNode] = {}
        if mode == "protocol":
            for node_id in topology.nodes:
                self.nodes[node_id] = ProtocolNode(
                    self, topology, node_id, self.timing
                )

    # -- World services (protocol mode) ------------------------------------

    def now(self) -> float:
        return self._now

    def demand(self, class_id: int, node: DatacenterId) -> int | None:
        return self.classes[class_id].demand_at(self.topology.level(node))

    def send(self, src: DatacenterId, dst: DatacenterId, msg: ProtocolMsg) -> None:
        bits = message_bits(msg)
        kind = type(msg).__name__
        self.counters.messages[kind] = self.counters.messages.get(kind, 0) + 1
        self.counters.bits[kind] = self.counters.bits.get(kind, 0) + bits
        # The transmitter serializes one message at a time per directed
        # link, so a short message sent moments after a long one cannot
        # overtake it: delivery order is FIFO by construction.
        start = max(self._now, self._link_busy_until.get((src, dst), 0.0))
        departure = start + bits / self.link.capacity_bps
        self._link_busy_until[(src, dst)] = departure
        arrival = departure + self.link.propagation
        last = self._link_last_arrival.get((src, dst), float("-inf"))
        if arrival <= last:
            raise InvariantError(f"FIFO inversion on link s{src}->s{dst}")
        self._link_last_arrival[(src, dst)] = arrival
        self.log(src, f"send {kind} -> s{dst} bits={bits}")
        self._schedule(arrival, "deliver", (src, dst, msg))

    def commit_placement(
        self, request_id: RequestId, node: DatacenterId, from_reservation: bool
    ) -> None:
        """The single mutation path for placements (and thus migrations)."""
        req = self._registry[request_id]
        units = self.demand(req.class_id, node)
        if units is None:
            raise InvariantError(
                f"r{request_id} placed at s{node}, a level that cannot host it"
            )
        old_host = req.host
        if self.mode == "protocol":
            state = self.nodes[node]
            if from_reservation:
                reserved = state.assigned.pop(request_id)
                if reserved != units:
                    raise InvariantError(
                        f"reservation mismatch at s{node} placing r{request_id}: "
                        f"{reserved} reserved, {units} needed"
                    )
            elif units > state.available:
                raise InvariantError(
                    f"capacity breach at s{node} placing r{request_id}"
                )
            else:
                state.available -= units
            state.placed[request_id] = units
        self._capacity_used[node] += units
        if old_host is not None and old_host != node:
            self._release_host(req)
            self.counters.migrations += 1
            self._migration_cost += self.costs.move_price(req.class_id)
            self.log(node, f"place r{request_id} (migrated from s{old_host})")
        else:
            self.log(node, f"place r{request_id}")
        req.host = node
        req.state = "placed"
        req.is_new = False
        self._relocating.discard(request_id)
        self.counters.placements += 1

    def _release_host(self, req: _RequestState) -> None:
        """Free the capacity of a request's current placement."""
        assert req.host is not None
        node = req.host
        units = self.demand(req.class_id, node)
        assert units is not None
        if self.mode == "protocol":
            state = self.nodes[node]
            freed = state.placed.pop(req.request_id)
            if freed != units:
                raise InvariantError(
                    f"release mismatch at s{node} for r{req.request_id}: "
                    f"{freed} booked, {units} expected"
                )
            state.available += units
        self._capacity_used[node] -= units
        req.host = None

    def report_failure(self, request_id: RequestId, node: DatacenterId) -> None:
        req = self._registry[request_id]
        req.state = "failed"
        self.counters.failures += 1
        self._failed.append(request_id)
        self.log(node, f"failure r{request_id}")
        self._purge(request_id)

    def _purge(self, request_id: RequestId) -> None:
        """Drop a request from every protocol node (none in centralized mode)."""
        for state in self.nodes.values():
            state.notify_gone(request_id)

    def arm_timer(self, node: DatacenterId, kind: str, deadline: float) -> None:
        self._schedule(deadline, "timer", (node, kind))

    def is_active(self, request_id: RequestId) -> bool:
        req = self._registry.get(request_id)
        return req is not None and req.state in ("waiting", "placed")

    def is_placed(self, request_id: RequestId) -> bool:
        req = self._registry.get(request_id)
        return req is not None and req.state == "placed"

    def is_relocating(self, request_id: RequestId) -> bool:
        return request_id in self._relocating

    def record_current(self, rec: Record) -> bool:
        req = self._registry.get(rec.request_id)
        return req is not None and rec.generation == req.generation

    def request_info(self, request_id: RequestId) -> Request | None:
        req = self._registry.get(request_id)
        if req is None:
            return None
        return Request(request_id, req.class_id, req.poa, req.feasible)

    def note_push_down(self) -> None:
        self.counters.push_downs += 1

    def log(self, node: DatacenterId, text: str) -> None:
        self.event_log.append(f"{self._now:.6f} s{node} {text}")

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, time: float, kind: str, data: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, data))

    # -- trace ingestion ----------------------------------------------------

    def _feasible_for(self, poa: DatacenterId, class_id: int) -> tuple[int, ...]:
        return feasible_set_for(
            self.topology, poa, self.classes[class_id], self.rtt_by_level
        )

    def _on_arrive(self, user: int, poa: DatacenterId, class_id: int) -> None:
        if user in self._registry:
            raise ValueError(f"user {user} arrived twice")
        feasible = self._feasible_for(poa, class_id)
        if not feasible:
            raise ValueError(
                f"user {user} (class {class_id}) has no feasible datacenter at s{poa}"
            )
        req = _RequestState(user, class_id, poa, feasible)
        self._registry[user] = req
        self.log(poa, f"arrive r{user} class={class_id}")
        if self.mode == "protocol":
            rec = Record(
                request_id=user,
                class_id=class_id,
                origin=None,
                feasible=feasible,
                is_new=True,
                generation=req.generation,
            )
            self.nodes[poa].buffer_scan_input([rec], [])
        else:
            self._pending_pool[user] = None

    def _on_move(self, user: int, poa: DatacenterId) -> None:
        req = self._registry.get(user)
        if req is None or req.state in ("departed", "failed"):
            return
        req.poa = poa
        req.feasible = self._feasible_for(poa, req.class_id)
        if not req.feasible:
            raise ValueError(f"user {user} moved to s{poa} with empty reach")
        self.log(poa, f"move r{user}")
        if req.state == "placed" and req.host in req.feasible:
            if user in self._relocating:
                # The move brought the old host back into reach: retire the
                # in-flight re-placement, which was scoped to the previous
                # attachment and could migrate the service out of reach.
                req.generation += 1
                self._relocating.discard(user)
                self._purge(user)
                self._pending_pool.pop(user, None)
            return  # the current placement still serves the user
        req.generation += 1
        self.counters.criticals += 1
        if self.mode == "protocol":
            self._purge(user)
            if req.state == "placed":
                self._relocating.add(user)
            rec = Record(
                request_id=user,
                class_id=req.class_id,
                origin=None,
                feasible=req.feasible,
                is_new=req.is_new,
                current_host=req.host,
                generation=req.generation,
            )
            self.nodes[poa].buffer_scan_input([rec], [])
        else:
            if req.state == "placed":
                self._relocating.add(user)
            self._pending_pool.setdefault(user)

    def _on_depart(self, user: int) -> None:
        req = self._registry.get(user)
        if req is None or req.state in ("departed", "failed"):
            return
        if req.host is not None:
            self._release_host(req)
        req.state = "departed"
        req.generation += 1
        self._relocating.discard(user)
        self.log(req.poa, f"depart r{user}")
        self._purge(user)
        self._pending_pool.pop(user, None)

    # -- centralized epochs ---------------------------------------------------

    def _run_epoch(self) -> None:
        assert self.algorithm is not None
        self._pending_pool = {
            rid: None for rid in self._pending_pool if self.is_active(rid)
        }
        if not self._pending_pool:
            return
        services = []
        for rid in sorted(self._registry):
            req = self._registry[rid]
            if req.state not in ("waiting", "placed"):
                continue
            services.append(
                ActiveService(
                    request_id=rid,
                    class_id=req.class_id,
                    poa=req.poa,
                    feasible=req.feasible,
                    current_host=req.host,
                    movable=rid in self._pending_pool,
                    is_new=req.is_new,
                )
            )
        problem = EpochProblem(
            topology=self.topology,
            classes=self.classes,
            costs=self.costs,
            services=tuple(services),
        )
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
        placed_now: set[RequestId] = set()
        targets: set[DatacenterId] = set()
        for rid in sorted(decision.placement):
            node = decision.placement[rid]
            req = self._registry[rid]
            if req.state not in ("waiting", "placed"):
                continue
            placed_now.add(rid)
            if node == req.host:
                self._relocating.discard(rid)
                continue
            self.commit_placement(rid, node, from_reservation=False)
            targets.add(node)
        for node in sorted(targets):
            if self._capacity_used[node] > self.topology.capacity(node):
                raise InvariantError(
                    f"capacity breached at s{node} by an epoch decision"
                )
        self._pending_pool = {
            rid: None for rid in self._pending_pool if rid not in placed_now
        }
        if not decision.solved:
            self._infeasible = True

    # -- main loop ------------------------------------------------------------

    def run(self, trace: Sequence[TraceEvent], until: float | None = None) -> RunResult:
        """Feed a trace through the world and drive it to quiescence."""
        for ev in trace:
            if ev.kind == "arrive":
                assert ev.poa is not None and ev.class_id is not None
                self._schedule(ev.time, "arrive", (ev.user, ev.poa, ev.class_id))
            elif ev.kind == "move":
                assert ev.poa is not None
                self._schedule(ev.time, "move", (ev.user, ev.poa))
            elif ev.kind == "depart":
                self._schedule(ev.time, "depart", (ev.user,))
            else:
                raise ValueError(f"unknown trace event {ev.kind!r}")
        if self.mode == "centralized" and trace:
            horizon = max(ev.time for ev in trace) + self.EPOCH_PERIOD
            steps = int(horizon / self.EPOCH_PERIOD) + 1
            for k in range(steps + 1):
                self._schedule(k * self.EPOCH_PERIOD, "epoch", ())
        while self._heap:
            if self.counters.events >= self.event_budget:
                self._diverged = True
                break
            time, _seq, kind, data = heapq.heappop(self._heap)
            if until is not None and time > until:
                break
            self._now = time
            self.counters.events += 1
            if kind == "arrive":
                self._on_arrive(*data)
            elif kind == "move":
                self._on_move(*data)
            elif kind == "depart":
                self._on_depart(*data)
            elif kind == "deliver":
                src, dst, msg = data
                self.nodes[dst].on_message(src, msg)
            elif kind == "timer":
                node, timer_kind = data
                self.nodes[node].on_timer(timer_kind)
            elif kind == "epoch":
                self._run_epoch()
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown event {kind!r}")
            if self.check_invariants:
                self.assert_invariants()
        placements = {
            rid: req.host
            for rid, req in self._registry.items()
            if req.state == "placed" and req.host is not None
        }
        # Unserved at the end: never placed, or left stranded at a host the
        # user moved away from (a re-placement that never landed).
        unplaced = tuple(
            rid
            for rid, req in sorted(self._registry.items())
            if req.state == "waiting"
            or (req.state == "placed" and rid in self._relocating)
        )
        if self._diverged:
            verdict = "diverged"
        elif self._failed:
            verdict = "failure"
        elif self._infeasible or unplaced:
            verdict = "infeasible"
        else:
            verdict = "ok"
        final_placement_cost = sum(
            self.costs.place_price(
                self._registry[rid].class_id, self.topology.level(node)
            )
            for rid, node in placements.items()
        )
        return RunResult(
            verdict=verdict,
            placements=placements,
            counters=self.counters,
            event_log=self.event_log,
            end_time=self._now,
            failed=tuple(self._failed),
            unplaced=unplaced,
            migration_cost=self._migration_cost,
            final_placement_cost=final_placement_cost,
            comm_cost=self.costs.per_bit_cost * self.counters.total_bits(),
            request_count=len(self._registry),
            solver_exhausted=self._solver_exhausted,
        )

    # -- introspection ---------------------------------------------------------

    def assert_invariants(self) -> None:
        """Capacity, bookkeeping, and reach invariants; raises
        :class:`InvariantError` on breach."""
        host_of: dict[RequestId, DatacenterId] = {}
        for node_id in self.topology.nodes:
            used = self._capacity_used[node_id]
            if used < 0:
                raise InvariantError(f"negative load at s{node_id}")
            if used > self.topology.capacity(node_id):
                raise InvariantError(f"capacity breached at s{node_id}")
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
        for rid, req in self._registry.items():
            if req.state == "placed":
                if req.host is None:
                    raise InvariantError(f"r{rid} placed without a host")
                if self.mode == "protocol" and host_of.get(rid) != req.host:
                    raise InvariantError(f"r{rid} host mismatch")
                if rid not in self._relocating and req.host not in req.feasible:
                    raise InvariantError(
                        f"r{rid} placed at s{req.host}, outside its reach"
                    )
            elif self.mode == "protocol" and host_of.get(rid) is not None:
                raise InvariantError(f"r{rid} placed but not recorded")
