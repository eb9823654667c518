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
from typing import Iterable, Mapping, Sequence

from edgeplace.model import InvariantError, Topology
from edgeplace.protocol import (
    PdAckMsg,
    PdRequestMsg,
    PuAckMsg,
    PuMsg,
    Record,
    SfsMsg,
)

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


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean that tolerates generators and fails loudly on empty."""
    items = list(values)
    if not items:
        raise ValueError("mean of no values")
    return math.fsum(items) / len(items)
