"""Independent reference implementations used to pin expected test values.

Everything in this module is written from first principles against the
documented behaviour — field-by-field message sizing, exhaustive search
over placements, and a from-scratch feasibility checker.  None of it calls
into the package's own sizing, search, or validation code, so agreement
between the two is a real check rather than a tautology.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Iterable, Mapping, Sequence

from edgeplace.model import InvariantError, Topology
from edgeplace.protocol import (
    PdAckMsg,
    PdRequestMsg,
    PuAckMsg,
    PuMsg,
    Record,
    SfsMsg,
)
from edgeplace.simnet import ActiveService, EpochProblem

# ---------------------------------------------------------------------------
# message sizing, summed field by field

HEADER = 80
REQUEST_ID = 14
CLASS_ID = 4
NODE_ID = 12
STATUS = 1
DEFICIT = 16
PD_DEMAND = 5


def record_bits(record: Record) -> int:
    """A request record: id, class, origin + host + every feasible node."""
    return REQUEST_ID + CLASS_ID + (len(record.feasible) + 2) * NODE_ID


def ack_bits() -> int:
    """One acknowledgement entry: the request id plus an accept/refuse bit."""
    return REQUEST_ID + STATUS


def wire_bits(msg: object) -> int:
    """Size any protocol message by summing its declared fields."""
    if isinstance(msg, (SfsMsg, PuMsg)):
        return HEADER + sum(record_bits(r) for r in msg.records)
    if isinstance(msg, PuAckMsg):
        return HEADER + len(msg.acks) * ack_bits()
    if isinstance(msg, PdRequestMsg):
        return (
            HEADER
            + NODE_ID
            + DEFICIT
            + sum(record_bits(r) + PD_DEMAND for r in msg.records)
        )
    if isinstance(msg, PdAckMsg):
        return HEADER + NODE_ID + DEFICIT + len(msg.acks) * ack_bits()
    raise TypeError(f"not a protocol message: {msg!r}")


# ---------------------------------------------------------------------------
# routing down the tree, from each node's path to the root


def subtree(topology: Topology, node: int) -> set[int]:
    """Every node whose path to the root passes through ``node``."""
    return {n for n in topology.nodes if node in topology.path_to_root(n)}


def child_towards(topology: Topology, node: int, target: int) -> int:
    """The child of ``node`` on the way down to ``target``: the entry
    before ``node`` on ``target``'s path to the root."""
    path = topology.path_to_root(target)
    if node not in path or path.index(node) == 0:
        raise InvariantError(f"node {target} is not below {node}")
    return path[path.index(node) - 1]


def passes_origin(topology: Topology, node: int, record: Record) -> bool:
    """Whether ``record``'s origin lies on its reach below ``node``, which
    lies on the reach too: then no push-down at ``node`` may take it."""
    origin, reach = record.origin, record.feasible
    return (
        node in reach
        and origin in reach
        and origin != node
        and node in topology.path_to_root(origin)
    )


def push_down_offer(records: Iterable[Record], node: int, child: int) -> list[Record]:
    """The records a push-down at ``node`` offers ``child``, in order:
    each one whose reach holds both ``node`` and ``child``."""
    return [r for r in records if node in r.feasible and child in r.feasible]


def full_push_down_open(
    node: Any, offered: Sequence[Record]
) -> tuple[list[int], dict[int, Record], dict[int, list[Record]], list[Record]]:
    """What a push-down open at ``node`` (a ``ProtocolNode``) builds over
    ``offered``, the way the open first did it, every record built anew:
    the request ids for the log, the session's records, ``by_child`` and
    ``hostable``.

    The records are the offered ones, then the node's stalled
    reservations (adverts it holds, of its own origin, that no push-up
    above still owes an answer), then every service it hosts that is
    still served, each later one for an id taking the earlier one's
    place.  Only then are they sorted, in order: a record not of the
    node's own origin is hostable, and one whose reach holds the node
    above level 0 goes to the entry below it, unless its origin lies
    below the node, which raises."""
    here, level = node.node_id, node.level
    records = {rec.request_id: rec for rec in offered}
    ids = [rec.request_id for rec in offered]
    for rid, rec in node.push_up.items():
        if rec.origin == here and rid not in node.outstanding_pu:
            ids.append(rid)
            records[rid] = rec._replace(
                generation=0, beta_at_initiator=node.assigned[rid]
            )
    for rid in sorted(node.placed):
        view = node.requests[rid]
        if view.state == "placed":
            ids.append(rid)
            records[rid] = Record(
                request_id=rid,
                class_id=view.class_id,
                origin=here,
                feasible=view.feasible,
                current_host=here,
                generation=0,
                beta_at_initiator=node.placed[rid],
            )
    by_child: dict[int, list[Record]] = {}
    hostable: list[Record] = []
    for rec in records.values():
        origin, reach = rec.origin, rec.feasible
        if origin != here:
            hostable.append(rec)
        if 0 < level < len(reach) and reach[level] == here:
            if origin != here and origin in reach and reach.index(origin) < level:
                raise InvariantError(f"push-down r{rec.request_id} passes its origin")
            by_child.setdefault(reach[level - 1], []).append(rec)
    return ids, records, by_child, hostable


# ---------------------------------------------------------------------------
# placement-attempt order, counted against the subtree


def subtree_count_order(
    topology: Topology,
    node: int,
    records: Iterable[Record],
    demand_here: Mapping[int, int],
) -> list[Record]:
    """``records`` most constrained first, as a node at ``node`` tries them:
    fewest reach nodes outside the node's subtree, counted one by one, then
    the smallest demand here (unknown last), relocated services before new
    ones, then request id."""
    members = subtree(topology, node)

    def key(record: Record) -> tuple[int, int, int, int]:
        outside = sum(1 for n in record.feasible if n not in members)
        units = demand_here.get(record.class_id, 1 << 30)
        fresh = 1 if record.current_host is None else 0
        return (outside, units, fresh, record.request_id)

    return sorted(records, key=key)


# ---------------------------------------------------------------------------
# exhaustive placement search


def enumerate_optimal(
    topology: Topology,
    demand: Mapping[int, Mapping[int, int]],
    prices: Mapping[int, Mapping[int, float]],
    migration: Mapping[int, float],
    services: Sequence[tuple[int, int, tuple[int, ...], int | None]],
) -> tuple[float, dict[int, int]] | None:
    """Brute-force the cheapest feasible placement, or ``None`` if none exists.

    ``services`` rows are ``(request_id, class_id, feasible, current_host)``;
    ``demand[class_id][level]`` and ``prices[class_id][level]`` may omit
    levels the class cannot use.  Cost per service is the hosting price at
    the chosen node's level plus the relocation charge when it leaves an
    existing host.  Intended for tiny instances only: the search is a full
    cartesian product over per-service candidate nodes.
    """

    def options(class_id: int, feasible: tuple[int, ...]) -> list[int]:
        return [
            node
            for node in feasible
            if topology.level(node) in demand[class_id]
            and topology.level(node) in prices[class_id]
        ]

    candidate_sets = [
        options(class_id, feasible)
        for (_rid, class_id, feasible, _host) in services
    ]
    if any(not cands for cands in candidate_sets):
        return None

    best: tuple[float, dict[int, int]] | None = None
    for combo in itertools.product(*candidate_sets):
        load: dict[int, int] = {}
        cost = 0.0
        for (rid, class_id, _feasible, host), node in zip(services, combo):
            units = demand[class_id][topology.level(node)]
            load[node] = load.get(node, 0) + units
            cost += prices[class_id][topology.level(node)]
            if host is not None and host != node:
                cost += migration[class_id]
        if any(load[n] > topology.capacity(n) for n in load):
            continue
        if best is None or cost < best[0] - 1e-12:
            best = (
                cost,
                {rid: node for (rid, *_), node in zip(services, combo)},
            )
    return best


def brute_feasible(
    topology: Topology,
    demand: Mapping[int, Mapping[int, int]],
    placement: Mapping[int, tuple[int, int]],
    reach: Mapping[int, Iterable[int]],
) -> bool:
    """Check a placement from scratch: reach, defined demand, capacity.

    ``placement`` maps request id to ``(class_id, node)``; ``reach`` maps
    request id to the nodes it may use.  Walks the tree itself rather than
    trusting any cached structure.
    """
    used: dict[int, int] = {}
    for rid, (class_id, node) in placement.items():
        if node not in set(reach[rid]):
            return False
        level = topology.level(node)
        if level not in demand[class_id]:
            return False
        used[node] = used.get(node, 0) + demand[class_id][level]
    return all(used[n] <= topology.capacity(n) for n in used)


def naive_highest_first(
    topology: Topology,
    demand: Mapping[int, Mapping[int, int]],
    arrivals: Sequence[tuple[int, int, tuple[int, ...]]],
) -> dict[int, int | None]:
    """Place each request, in order, at the highest feasible node with room.

    A deliberately simple-minded strategy used to pin down walkthroughs
    where a greedy-from-the-top order paints itself into a corner.  Rows
    are ``(request_id, class_id, feasible)``; a request that fits nowhere
    maps to ``None``.
    """
    used: dict[int, int] = {}
    out: dict[int, int | None] = {}
    for rid, class_id, feasible in arrivals:
        chosen: int | None = None
        for node in sorted(feasible, key=topology.level, reverse=True):
            level = topology.level(node)
            if level not in demand[class_id]:
                continue
            units = demand[class_id][level]
            if used.get(node, 0) + units <= topology.capacity(node):
                chosen = node
                break
        if chosen is not None:
            used[chosen] = used.get(chosen, 0) + demand[class_id][
                topology.level(chosen)
            ]
        out[rid] = chosen
    return out


# ---------------------------------------------------------------------------
# centralized lanes, each ordered by its full tuple key
#
# Each oracle takes the problem's services in reverse request-id order, so
# only the request id at the end of its sort key can break its ties the way
# the package's lanes break them: by the problem's request-id order and a
# stable sort on one key.  Each returns the placement the lane decides.


def _residual(problem: EpochProblem) -> dict[int, int]:
    """Free capacity per node, every service counted at its current host."""
    topology = problem.topology
    residual = {node: topology.capacity(node) for node in topology.nodes}
    for svc in problem.services:
        host = svc.current_host
        if host is not None:
            residual[host] -= problem.units[svc.class_id][host]
    return residual


def _fits(
    problem: EpochProblem, svc: ActiveService, node: int, room: Mapping[int, int]
) -> bool:
    units = problem.units[svc.class_id][node]
    return units is not None and units <= room[node]


def _lowest(
    problem: EpochProblem,
    svc: ActiveService,
    room: Mapping[int, int],
    nodes: Sequence[int],
) -> int | None:
    return next((node for node in nodes if _fits(problem, svc, node, room)), None)


def _movable(problem: EpochProblem) -> list[ActiveService]:
    return [svc for svc in reversed(problem.services) if svc.movable]


def tuple_key_first_fit(problem: EpochProblem) -> dict[int, int]:
    """Request-id order, each at the first node of its reach with room."""
    residual = _residual(problem)
    placement: dict[int, int] = {}
    for svc in sorted(_movable(problem), key=lambda s: s.request_id):
        node = _lowest(problem, svc, residual, svc.feasible)
        if node is not None:
            residual[node] -= problem.units[svc.class_id][node]
            placement[svc.request_id] = node
    return placement


def tuple_key_bottom_up_push_up(problem: EpochProblem) -> dict[int, int]:
    """Shortest reach first, each low with push-down recovery of an
    ancestor's tenants (by request id), then every placement lifted."""
    units = problem.units
    residual = _residual(problem)
    tenants: dict[int, list[ActiveService]] = {}
    for svc in reversed(problem.services):
        if not svc.movable and svc.current_host is not None:
            tenants.setdefault(svc.current_host, []).append(svc)
    for members in tenants.values():
        members.sort(key=lambda s: s.request_id)
    placement: dict[int, int] = {}
    relocations: dict[int, int] = {}

    def try_free(node: int, needed: int) -> bool:
        room = dict(residual)
        moves = []
        for tenant in tenants.get(node, ()):
            if room[node] >= needed:
                break
            below = tenant.feasible[: tenant.feasible.index(node)]
            target = _lowest(problem, tenant, room, below)
            if target is not None:
                room[node] += units[tenant.class_id][node]
                room[target] -= units[tenant.class_id][target]
                moves.append((tenant, target))
        if room[node] < needed:
            return False
        residual.update(room)
        for tenant, target in moves:
            tenants[node].remove(tenant)
            tenants.setdefault(target, []).append(tenant)
            relocations[tenant.request_id] = target
        return True

    todo = sorted(_movable(problem), key=lambda s: (len(s.feasible), s.request_id))
    for svc in todo:
        target = _lowest(problem, svc, residual, svc.feasible)
        if target is None:
            for node in svc.feasible:
                needed = units[svc.class_id][node]
                if needed is not None and try_free(node, needed):
                    target = node
                    break
        if target is not None:
            residual[target] -= units[svc.class_id][target]
            placement[svc.request_id] = target
    by_id = {svc.request_id: svc for svc in todo}
    for rid in sorted(placement):
        svc, here = by_id[rid], placement[rid]
        above = svc.feasible[: svc.feasible.index(here) : -1]
        node = _lowest(problem, svc, residual, above)
        if node is not None:
            residual[here] += units[svc.class_id][here]
            residual[node] -= units[svc.class_id][node]
            placement[rid] = node
    placement.update(relocations)
    return placement


def tuple_key_cheapest_feasible(problem: EpochProblem) -> dict[int, int]:
    """Biggest demand at the PoA first, then request id, each at its
    cheapest node with room (price, plus the move charge, then node id)."""
    units, costs, topology = problem.units, problem.costs, problem.topology
    residual = _residual(problem)
    placement: dict[int, int] = {}
    todo = sorted(
        _movable(problem), key=lambda s: (-units[s.class_id][s.poa], s.request_id)
    )
    for svc in todo:
        options = []
        for node in svc.feasible:
            if _fits(problem, svc, node, residual):
                price = costs.place_price(svc.class_id, topology.level(node))
                if svc.current_host not in (None, node):
                    price += costs.move_price(svc.class_id)
                options.append((price, node))
        if options:
            node = min(options)[1]
            residual[node] -= units[svc.class_id][node]
            placement[svc.request_id] = node
    return placement


def tuple_key_availability_scaler(problem: EpochProblem) -> dict[int, int]:
    """Services with a host first (least room there, then biggest
    allocation, then request id), then new ones (shortest reach, then
    request id), each at the node of its reach with the most room."""
    units = problem.units
    residual = _residual(problem)
    movable = _movable(problem)
    criticals = sorted(
        (s for s in movable if s.current_host is not None),
        key=lambda s: (
            residual[s.current_host],
            -units[s.class_id][s.current_host],
            s.request_id,
        ),
    )
    fresh = sorted(
        (s for s in movable if s.current_host is None),
        key=lambda s: (len(s.feasible), s.request_id),
    )
    placement: dict[int, int] = {}
    for svc in criticals + fresh:
        options = [
            (-residual[node], node)
            for node in svc.feasible
            if _fits(problem, svc, node, residual)
        ]
        if options:
            node = min(options)[1]
            residual[node] -= units[svc.class_id][node]
            placement[svc.request_id] = node
    return placement


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean that tolerates generators and fails loudly on empty."""
    items = list(values)
    if not items:
        raise ValueError("mean of no values")
    return math.fsum(items) / len(items)
