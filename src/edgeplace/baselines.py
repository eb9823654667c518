"""Centralized placement algorithms and the exact optimum.

Every algorithm consumes an :class:`~.simnet.EpochProblem` — the set of
active services, which of them the epoch may (re)place, and the residual
world — and returns an :class:`~.simnet.EpochDecision` mapping request ids
to hosts.  All tie-breaks are by ascending datacenter id and then ascending
request id, so results are deterministic.

The exact solver is a depth-first branch-and-bound over all active
services (a full re-solve, not an incremental patch), with an admissible
capacity-relaxed bound; it is the cost yardstick the others are normalized
against and the reference for the minimum-capacity searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .model import DatacenterId, RequestId
from .simnet import ActiveService, EpochDecision, EpochProblem

__all__ = [
    "first_fit",
    "bottom_up_push_up",
    "cheapest_feasible",
    "availability_scaler",
    "exact_optimal",
    "ExactSolverStats",
    "min_cpu_binary_search",
    "NoUpperBoundError",
    "ALGORITHMS",
]


def _residual_capacity(
    problem: EpochProblem, movable: set[RequestId]
) -> dict[DatacenterId, int]:
    """Free capacity per node once immovable placements are accounted for."""
    residual = {n: problem.topology.capacity(n) for n in problem.topology.nodes}
    for svc in problem.services:
        if svc.request_id in movable or svc.current_host is None:
            continue
        units = problem.demand(svc.class_id, svc.current_host)
        assert units is not None
        residual[svc.current_host] -= units
    return residual


def _movable(problem: EpochProblem) -> list[ActiveService]:
    return [svc for svc in problem.services if svc.movable]


def _lowest_with_room(
    problem: EpochProblem, svc: ActiveService, residual: Mapping[DatacenterId, int]
) -> DatacenterId | None:
    for node in svc.feasible:  # PoA first, root last
        units = problem.demand(svc.class_id, node)
        if units is not None and units <= residual[node]:
            return node
    return None


def _assign(
    problem: EpochProblem,
    residual: dict[DatacenterId, int],
    placement: dict[RequestId, DatacenterId],
    svc: ActiveService,
    node: DatacenterId,
) -> None:
    units = problem.demand(svc.class_id, node)
    assert units is not None
    residual[node] -= units
    placement[svc.request_id] = node


# ---------------------------------------------------------------------------
# first fit


def first_fit(problem: EpochProblem) -> EpochDecision:
    """Arrival order, lowest feasible datacenter with room."""
    todo = sorted(_movable(problem), key=lambda s: s.request_id)
    residual = _residual_capacity(problem, {s.request_id for s in todo})
    placement: dict[RequestId, DatacenterId] = {}
    for svc in todo:
        node = _lowest_with_room(problem, svc, residual)
        if node is not None:
            _assign(problem, residual, placement, svc, node)
    return EpochDecision(placement=placement)


# ---------------------------------------------------------------------------
# bottom-up with subtree recovery and a lifting pass


def bottom_up_push_up(problem: EpochProblem) -> EpochDecision:
    """Mimic the distributed protocol's shape as one centralized pass.

    Services reserve bottom-up at the lowest feasible node with room; when a
    service fits nowhere on its path, the algorithm frees room by pushing an
    ancestor's tenants down into that ancestor's subtree (cheapest-to-move
    first, escalating toward the root).  A final pass lifts this epoch's
    tentative placements to the highest feasible node that still has room,
    mirroring the protocol's preference for high placements.
    """
    topology = problem.topology
    movable_ids = {s.request_id for s in _movable(problem)}
    residual = _residual_capacity(problem, movable_ids)
    # where every immovable service sits, for the push-down recovery
    tenants: dict[DatacenterId, list[ActiveService]] = {}
    for svc in problem.services:
        if svc.request_id not in movable_ids and svc.current_host is not None:
            tenants.setdefault(svc.current_host, []).append(svc)
    for members in tenants.values():
        members.sort(key=lambda s: s.request_id)
    placement: dict[RequestId, DatacenterId] = {}
    relocations: dict[RequestId, DatacenterId] = {}

    def try_free(node: DatacenterId, needed: int) -> bool:
        """Push tenants of ``node`` down into its subtree until ``needed``
        units are free; commits the moves only if that succeeds."""
        subtree = topology.subtree(node)
        moved: list[tuple[ActiveService, DatacenterId, int, int]] = []
        for tenant in list(tenants.get(node, [])):
            if residual[node] >= needed:
                break
            here = problem.demand(tenant.class_id, node)
            assert here is not None
            for target in tenant.feasible:
                if target == node or target not in subtree:
                    continue
                units = problem.demand(tenant.class_id, target)
                if units is None or units > residual[target]:
                    continue
                residual[node] += here
                residual[target] -= units
                tenants[node].remove(tenant)
                tenants.setdefault(target, []).append(tenant)
                moved.append((tenant, target, here, units))
                break
        if residual[node] >= needed:
            for tenant, target, _, _ in moved:
                relocations[tenant.request_id] = target
            return True
        for tenant, target, here, units in reversed(moved):
            residual[node] -= here
            residual[target] += units
            tenants[target].remove(tenant)
            tenants.setdefault(node, []).append(tenant)
            tenants[node].sort(key=lambda s: s.request_id)
        return False

    todo = sorted(
        _movable(problem), key=lambda s: (len(s.feasible), s.request_id)
    )
    for svc in todo:
        target = _lowest_with_room(problem, svc, residual)
        if target is None:
            for node in svc.feasible:
                units = problem.demand(svc.class_id, node)
                if units is not None and try_free(node, units):
                    target = node
                    break
        if target is not None:
            _assign(problem, residual, placement, svc, target)
    # lifting pass: raise tentative placements as high as room allows
    by_id = {svc.request_id: svc for svc in todo}
    for rid in sorted(placement):
        svc = by_id[rid]
        here = placement[rid]
        here_units = problem.demand(svc.class_id, here)
        assert here_units is not None
        # highest first, down to just above the tentative host
        for pos in range(len(svc.feasible) - 1, svc.feasible.index(here), -1):
            node = svc.feasible[pos]
            units = problem.demand(svc.class_id, node)
            if units is not None and units <= residual[node]:
                residual[here] += here_units
                residual[node] -= units
                placement[rid] = node
                break
    placement.update(relocations)
    return EpochDecision(placement=placement)


# ---------------------------------------------------------------------------
# cheapest feasible placement, biggest demand first


def cheapest_feasible(problem: EpochProblem) -> EpochDecision:
    """Greedy by demand: big services first, each at the cheapest feasible
    node with room (placement price plus migration charge when moving)."""
    movable = _movable(problem)
    residual = _residual_capacity(problem, {s.request_id for s in movable})

    def poa_demand(svc: ActiveService) -> int:
        units = problem.demand(svc.class_id, svc.poa)
        return units if units is not None else 0

    todo = sorted(movable, key=lambda s: (-poa_demand(s), s.request_id))
    placement: dict[RequestId, DatacenterId] = {}
    for svc in todo:
        best: tuple[float, DatacenterId] | None = None
        for node in svc.feasible:
            units = problem.demand(svc.class_id, node)
            if units is None or units > residual[node]:
                continue
            price = problem.price(svc, node)
            if best is None or (price, node) < best:
                best = (price, node)
        if best is not None:
            _assign(problem, residual, placement, svc, best[1])
    return EpochDecision(placement=placement)


# ---------------------------------------------------------------------------
# availability-seeking placement


def availability_scaler(problem: EpochProblem) -> EpochDecision:
    """Serve the most starved services first, each to the roomiest node.

    Orphaned services (host no longer reachable) go first, most-starved
    host first and bigger allocations earlier; new services follow, fewer
    options first.  Each lands on the feasible node with the most free
    capacity, falling back to the next roomiest."""
    movable = _movable(problem)
    residual = _residual_capacity(problem, {s.request_id for s in movable})

    def allocated(svc: ActiveService) -> int:
        if svc.current_host is None:
            return 0
        units = problem.demand(svc.class_id, svc.current_host)
        return units if units is not None else 0

    criticals = [s for s in movable if s.current_host is not None]
    fresh = [s for s in movable if s.current_host is None]
    criticals.sort(
        key=lambda s: (residual[s.current_host], -allocated(s), s.request_id)
    )
    fresh.sort(key=lambda s: (len(s.feasible), s.request_id))
    placement: dict[RequestId, DatacenterId] = {}
    for svc in criticals + fresh:
        candidates = []
        for node in svc.feasible:
            units = problem.demand(svc.class_id, node)
            if units is not None and units <= residual[node]:
                candidates.append((-residual[node], node))
        if candidates:
            _assign(problem, residual, placement, svc, min(candidates)[1])
    return EpochDecision(placement=placement)


# ---------------------------------------------------------------------------
# exact branch-and-bound


@dataclass
class ExactSolverStats:
    nodes_expanded: int = 0


def exact_optimal(
    problem: EpochProblem,
    node_budget: int = 500_000,
    stats: ExactSolverStats | None = None,
) -> EpochDecision:
    """Minimum-cost placement of every active service, by branch and bound.

    The whole state is re-decided: each service may stay (free) or move
    (one migration charge), and capacity binds per node.  The bound adds
    each undecided service's cheapest capacity-relaxed option, which never
    overestimates, so the first complete solution kept is optimal when the
    search runs to completion.  Budget exhaustion is reported, never
    silently truncated.
    """
    topology = problem.topology
    services = sorted(
        problem.services, key=lambda s: (len(s.feasible), s.request_id)
    )
    residual = {n: topology.capacity(n) for n in topology.nodes}

    options: list[list[tuple[float, DatacenterId, int]]] = []
    for svc in services:
        cand = []
        for node in svc.feasible:
            units = problem.demand(svc.class_id, node)
            if units is None:
                continue
            cand.append((problem.price(svc, node), node, units))
        if not cand:
            return EpochDecision(placement={}, solved=False)
        cand.sort(key=lambda t: (t[0], t[1]))
        options.append(cand)
    # admissible tail bound: cheapest option of every undecided service
    tail = [0.0] * (len(services) + 1)
    for i in range(len(services) - 1, -1, -1):
        tail[i] = tail[i + 1] + options[i][0][0]

    incumbent_cost = float("inf")
    incumbent: list[DatacenterId] | None = None
    # Warm start from the bottom-up heuristic: a ready incumbent means a
    # feasible answer survives even a budget cut-off, and its cost prunes
    # the search from the first node.
    seed = bottom_up_push_up(problem).placement
    candidate: list[DatacenterId] = []
    for svc in services:
        node = seed.get(svc.request_id, svc.current_host)
        if node is None:
            candidate = []
            break
        candidate.append(node)
    if candidate:
        load: dict[DatacenterId, int] = {}
        seed_cost = 0.0
        usable = True
        for svc, node in zip(services, candidate):
            units = problem.demand(svc.class_id, node)
            if units is None or node not in svc.feasible:
                usable = False
                break
            load[node] = load.get(node, 0) + units
            seed_cost += problem.price(svc, node)
        if usable and all(
            load[n] <= topology.capacity(n) for n in load
        ):
            incumbent_cost = seed_cost
            incumbent = candidate
    assignment: list[DatacenterId] = [0] * len(services)
    expanded = 0
    exhausted = False

    def descend(index: int, cost: float) -> None:
        nonlocal incumbent_cost, incumbent, expanded, exhausted
        if exhausted:
            return
        expanded += 1
        if expanded > node_budget:
            exhausted = True
            return
        if cost + tail[index] >= incumbent_cost:
            return
        if index == len(services):
            incumbent_cost = cost
            incumbent = assignment.copy()
            return
        for price, node, units in options[index]:
            if units > residual[node]:
                continue
            residual[node] -= units
            assignment[index] = node
            descend(index + 1, cost + price)
            residual[node] += units
            if exhausted:
                return

    descend(0, 0.0)
    if stats is not None:
        stats.nodes_expanded = expanded
    if incumbent is None:
        return EpochDecision(
            placement={}, solved=False, exhausted_budget=exhausted
        )
    placement = {
        svc.request_id: incumbent[i] for i, svc in enumerate(services)
    }
    return EpochDecision(
        placement=placement, solved=True, exhausted_budget=exhausted
    )


#: Registry used by the harness CLI (`--algo` values).
ALGORITHMS: Mapping[str, Callable[[EpochProblem], EpochDecision]] = {
    "ffit": first_fit,
    "bupu": bottom_up_push_up,
    "cpvnf": cheapest_feasible,
    "multiscaler": availability_scaler,
    "exact": exact_optimal,
}


# ---------------------------------------------------------------------------
# minimum-capacity search


class NoUpperBoundError(RuntimeError):
    """Doubling the capacity never produced a feasible run."""


def min_cpu_binary_search(
    succeeds: Callable[[int], bool],
    start: int = 8,
    max_capacity: int = 1 << 20,
    tolerance: int = 1,
) -> int:
    """Least leaf capacity (in CPU units) for which ``succeeds`` holds.

    Assumes success is monotone in capacity.  Brackets by doubling from
    ``start``, then bisects until the bracket is within ``tolerance`` units,
    returning the known-good upper end.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    if tolerance < 1:
        raise ValueError("tolerance must be >= 1")
    lo = 0  # capacity 0 hosts nothing: a safe known-failure floor
    hi = start
    while not succeeds(hi):
        lo = hi
        hi *= 2
        if hi > max_capacity:
            raise NoUpperBoundError(
                f"no feasible capacity at or below {max_capacity}"
            )
    while hi - lo > tolerance:
        mid = (lo + hi) // 2
        if succeeds(mid):
            hi = mid
        else:
            lo = mid
    return hi
