"""Fat-tree topology, service classes, and placement economics.

The world is a tree of datacenters: leaves are points of attachment (PoAs)
where users enter the network, the root is the central cloud, and capacity
grows with height.  A service request may only be hosted on a contiguous
prefix of the path from its PoA toward the root — the prefix where the
round-trip latency still honours the request's delay bound and the host
level is one the service supports.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, NamedTuple

if TYPE_CHECKING:
    from .simnet import ActiveService

__all__ = [
    "DatacenterId",
    "RequestId",
    "ServiceClass",
    "CostModel",
    "Request",
    "FeasibilityReport",
    "Topology",
    "tree_capacity",
    "build_tree",
    "demand_table",
    "price_table",
    "feasible_set_for",
    "check_feasible",
    "InvariantError",
]

DatacenterId = int
RequestId = int


class InvariantError(AssertionError):
    """A capacity, bookkeeping or reach invariant of the engine is broken.

    Raised explicitly rather than by ``assert``, so the checks also run
    under ``python -O``."""


@dataclass(frozen=True)
class ServiceClass:
    """A class of service requests sharing demand and delay characteristics.

    ``cpu_demand`` maps a tree level to the CPU units one instance needs
    there, at least 0; a level absent from the map cannot host this class
    at all.  ``max_delay`` is the end-to-end latency bound (seconds) a
    placement must honour, finite and at least 0.  Other values are a
    ValueError.
    """

    class_id: int
    name: str
    max_delay: float
    cpu_demand: Mapping[int, int]

    def __post_init__(self) -> None:
        if not 0 <= self.max_delay < math.inf:
            raise ValueError(f"class {self.class_id} max_delay must be finite and >= 0")
        for level, units in self.cpu_demand.items():
            if units < 0:
                raise ValueError(
                    f"class {self.class_id} cpu_demand at level {level} must be >= 0"
                )

    def demand_at(self, level: int) -> int | None:
        """CPU units needed at ``level``, or None when that level cannot host."""
        return self.cpu_demand.get(level)


@dataclass(frozen=True)
class CostModel:
    """Economic model: relocation, hosting, and transport prices.

    ``migration_cost`` charges relocating a placed instance (per class);
    ``placement_cost`` maps class id -> level -> the running cost of hosting
    one instance there; ``per_bit_cost`` prices control-plane traffic and is
    reported separately — it never enters the placement objective.  Every
    price must be finite and at least 0; other values are a ValueError.
    """

    migration_cost: Mapping[int, float]
    placement_cost: Mapping[int, Mapping[int, float]]
    per_bit_cost: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.per_bit_cost < math.inf:
            raise ValueError("per_bit_cost must be finite and >= 0")
        for class_id, price in self.migration_cost.items():
            if not 0 <= price < math.inf:
                raise ValueError(
                    f"class {class_id} migration_cost must be finite and >= 0"
                )
        for class_id, prices in self.placement_cost.items():
            for level, price in prices.items():
                if not 0 <= price < math.inf:
                    raise ValueError(
                        f"class {class_id} placement_cost at level {level} "
                        "must be finite and >= 0"
                    )

    def place_price(self, class_id: int, level: int) -> float:
        return self.placement_cost[class_id][level]

    def move_price(self, class_id: int) -> float:
        return self.migration_cost[class_id]


class Request(NamedTuple):
    """One user's service request: identity, class, attachment, reach.

    ``feasible`` is the contiguous run of datacenters, ordered PoA to root,
    that can host the request without breaking its delay bound.

    A named tuple, cheap to build: immutable and hashable, and compared as
    a tuple, field by field, whatever the other side's type.
    """

    request_id: RequestId
    class_id: int
    poa: DatacenterId
    feasible: tuple[DatacenterId, ...]


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of checking a placement against capacity and latency limits."""

    ok: bool
    violations: tuple[str, ...] = ()
    unplaced: tuple[RequestId, ...] = ()


class Topology:
    """A rooted tree of datacenters with per-node CPU capacity.

    Levels count from the leaves: leaves sit at level 0 and the root at
    the top level.  Children are kept sorted by id so that every traversal
    in the simulator is deterministic.
    """

    def __init__(
        self,
        parents: Mapping[DatacenterId, DatacenterId | None],
        levels: Mapping[DatacenterId, int],
        capacities: Mapping[DatacenterId, int],
    ) -> None:
        roots = [n for n, p in parents.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        self.root: DatacenterId = roots[0]
        self._parent = dict(parents)
        self._level = dict(levels)
        self._capacity = dict(capacities)
        children: dict[DatacenterId, list[DatacenterId]] = {n: [] for n in parents}
        for node, parent in parents.items():
            if parent is not None:
                if parent not in parents:
                    raise ValueError(f"node {node} has unknown parent {parent}")
                children[parent].append(node)
        self._children = {n: tuple(sorted(c)) for n, c in children.items()}
        self.nodes: tuple[DatacenterId, ...] = tuple(sorted(parents))
        self.leaves: tuple[DatacenterId, ...] = tuple(
            n for n in self.nodes if not self._children[n]
        )
        self._path_cache: dict[DatacenterId, tuple[DatacenterId, ...]] = {}
        self._validate()

    def _validate(self) -> None:
        for node in self.nodes:
            parent = self._parent[node]
            if parent is not None and self._level[parent] != self._level[node] + 1:
                raise ValueError(
                    f"node {node} at level {self._level[node]} has parent "
                    f"{parent} at level {self._level[parent]}"
                )
        self._validate_capacities()
        for leaf in self.leaves:
            if self._level[leaf] != 0:
                raise ValueError(f"leaf {leaf} is at level {self._level[leaf]}, not 0")

    def _validate_capacities(self) -> None:
        for node in self.nodes:
            if self._capacity[node] < 0:
                raise ValueError(f"node {node} has negative capacity")

    def with_capacities(self, capacities: Mapping[DatacenterId, int]) -> Topology:
        """This tree with new per-node capacities, checked as the
        constructor checks them.  Everything else is shared, not copied:
        the parents, levels and children, and the path cache, which
        depends on the shape alone."""
        tree = copy.copy(self)
        tree._capacity = dict(capacities)
        tree._validate_capacities()
        return tree

    def parent(self, node: DatacenterId) -> DatacenterId | None:
        return self._parent[node]

    def children(self, node: DatacenterId) -> tuple[DatacenterId, ...]:
        return self._children[node]

    def level(self, node: DatacenterId) -> int:
        return self._level[node]

    def capacity(self, node: DatacenterId) -> int:
        return self._capacity[node]

    def is_leaf(self, node: DatacenterId) -> bool:
        return not self._children[node]

    def path_to_root(self, node: DatacenterId) -> tuple[DatacenterId, ...]:
        """The chain from ``node`` up to and including the root."""
        cached = self._path_cache.get(node)
        if cached is None:
            chain = [node]
            cur = self._parent[node]
            while cur is not None:
                chain.append(cur)
                cur = self._parent[cur]
            cached = tuple(chain)
            self._path_cache[node] = cached
        return cached


#: The most datacenters :func:`build_tree` builds: 2**20, one more than a
#: full binary tree of 20 levels holds.
MAX_TREE_NODES = 1 << 20


def tree_capacity(level: int, leaf_capacity: int) -> int:
    """The default capacity of a node at ``level`` in a tree whose leaves
    hold ``leaf_capacity`` CPU units: capacity grows linearly with height."""
    return (level + 1) * leaf_capacity


def build_tree(
    levels: int,
    arity: int,
    leaf_capacity: int,
    capacity_overrides: Mapping[DatacenterId, int] | None = None,
    prune: tuple[DatacenterId, ...] = (),
) -> Topology:
    """Build a full fat tree, then apply capacity overrides and pruning.

    Nodes are numbered breadth-first from the root (id 0).  A node at level
    ``l`` defaults to ``(l + 1) * leaf_capacity`` CPU units
    (:func:`tree_capacity`), so capacity grows linearly with height.
    ``prune`` removes whole subtrees by their root id (ids keep the
    full-tree numbering); the result must still have every leaf at level 0.

    The full tree may have at most :data:`MAX_TREE_NODES` nodes, checked
    before anything is built, in a time that does not grow with
    ``levels``.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    # With arity 2 or more, the first bit_length levels alone pass the
    # ceiling, so deeper levels need not be counted.
    depth = min(levels, MAX_TREE_NODES.bit_length())
    size = levels if arity == 1 else (arity**depth - 1) // (arity - 1)
    if size > MAX_TREE_NODES:
        raise ValueError(
            f"a tree of {levels} levels and arity {arity} has more than "
            f"{MAX_TREE_NODES} nodes"
        )
    parents: dict[DatacenterId, DatacenterId | None] = {0: None}
    node_level: dict[DatacenterId, int] = {0: levels - 1}
    frontier = [0]
    next_id = 1
    for depth in range(1, levels):
        new_frontier: list[DatacenterId] = []
        for parent in frontier:
            for _ in range(arity):
                parents[next_id] = parent
                node_level[next_id] = levels - 1 - depth
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    for top in prune:
        if top not in parents:
            raise ValueError(f"cannot prune unknown node {top}")
    pruned = set(prune)
    if 0 in pruned:
        raise ValueError("cannot prune the root")
    # breadth-first ids: a parent is decided before its children
    kept: set[DatacenterId] = set()
    for node, parent in parents.items():
        if node not in pruned and (parent is None or parent in kept):
            kept.add(node)
    capacities = {n: tree_capacity(node_level[n], leaf_capacity) for n in kept}
    for node, cap in (capacity_overrides or {}).items():
        if node not in kept:
            raise ValueError(f"capacity override for unknown node {node}")
        capacities[node] = cap
    return Topology(
        parents={n: parents[n] for n in kept},
        levels={n: node_level[n] for n in kept},
        capacities=capacities,
    )


def feasible_set_for(
    topology: Topology,
    poa: DatacenterId,
    svc: ServiceClass,
    rtt_by_level: Mapping[int, float],
) -> tuple[DatacenterId, ...]:
    """Datacenters that can host a request attached at ``poa``, PoA first.

    Walks the PoA-to-root path and keeps nodes while the level's round-trip
    time stays within the class delay bound and the class can run at that
    level; the walk stops at the first violation, so the result is always a
    contiguous path prefix.
    """
    if not topology.is_leaf(poa):
        raise ValueError(f"PoA must be a leaf, got node {poa}")
    out: list[DatacenterId] = []
    for node in topology.path_to_root(poa):
        level = topology.level(node)
        rtt = rtt_by_level.get(level)
        if rtt is None or rtt > svc.max_delay:
            break
        if svc.demand_at(level) is None:
            break
        out.append(node)
    return tuple(out)


def demand_table(
    topology: Topology, classes: Mapping[int, ServiceClass]
) -> dict[int, dict[DatacenterId, int | None]]:
    """CPU units one instance of each class needs at each node,
    ``units[class_id][node]``: the class's demand at the node's level, or
    None where that level cannot host the class.  Built once, it answers a
    lookup without walking from the class and node to the level."""
    return {
        class_id: {node: svc.demand_at(topology.level(node)) for node in topology.nodes}
        for class_id, svc in classes.items()
    }


def price_table(
    topology: Topology,
    costs: CostModel,
    units: Mapping[int, Mapping[DatacenterId, int | None]],
) -> dict[int, dict[DatacenterId, float]]:
    """The hosting price of one instance of each class at each node,
    ``prices[class_id][node]``, as :meth:`CostModel.place_price` gives it
    for the node's level, read from the demand table ``units`` (see
    :func:`demand_table`).  A node where the class cannot run has no
    entry, nor has one whose level has no price, so looking either up
    raises KeyError, as ``place_price`` does for a level without a price."""
    return {
        class_id: {
            node: by_level[level]
            for node, demand in row.items()
            if demand is not None and (level := topology.level(node)) in by_level
        }
        for class_id, row in units.items()
        for by_level in [costs.placement_cost.get(class_id, {})]
    }


def check_feasible(
    topology: Topology,
    classes: Mapping[int, ServiceClass],
    requests: Mapping[RequestId, Request | ActiveService],
    placement: Mapping[RequestId, DatacenterId],
    *,
    units: Mapping[int, Mapping[DatacenterId, int | None]] | None = None,
) -> FeasibilityReport:
    """Check a placement map against latency reach and CPU capacity.

    ``units`` is the demand table of ``topology`` and ``classes`` (see
    :func:`demand_table`), built here when the caller has none."""
    if units is None:
        units = demand_table(topology, classes)
    violations: list[str] = []
    unplaced: list[RequestId] = []
    load: dict[DatacenterId, int] = {}
    for rid in sorted(requests):
        req = requests[rid]
        node = placement.get(rid)
        if node is None:
            unplaced.append(rid)
            continue
        if node not in req.feasible:
            violations.append(f"request {rid} placed at {node}, outside its reach")
            continue
        demand = units[req.class_id][node]
        if demand is None:
            violations.append(
                f"request {rid} placed at {node}, level cannot host its class"
            )
            continue
        load[node] = load.get(node, 0) + demand
    for node in sorted(load):
        if load[node] > topology.capacity(node):
            violations.append(
                f"datacenter {node} over capacity: {load[node]} > "
                f"{topology.capacity(node)}"
            )
    return FeasibilityReport(
        ok=not violations and not unplaced,
        violations=tuple(violations),
        unplaced=tuple(unplaced),
    )
