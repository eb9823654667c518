"""Centralized placement algorithms and the exact optimum.

Every algorithm consumes an :class:`~.simnet.EpochProblem` — the set of
active services, which of them the epoch may (re)place, and the residual
world — and returns an :class:`~.simnet.EpochDecision` mapping request ids
to hosts.  All tie-breaks are by ascending datacenter id and then ascending
request id, so results are deterministic.

The exact solver is a depth-first branch-and-bound over all active
services (a full re-solve, not an incremental patch), with an admissible
capacity-relaxed bound.  A slot count in front of it, prepared once from
the services and then checked against any tree's capacities, proves most
infeasible problems without searching, so "no placement" is a proof, not
a spent budget.  The solver is the cost yardstick the others are
normalized against and, stopped at its first feasible placement, the
reference for the minimum-capacity searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import (
    DatacenterId,
    InvariantError,
    Request,
    RequestId,
    Topology,
    check_feasible,
)
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
    "NODE_BUDGET",
]

#: Search nodes the exact solver may expand before it reports its budget
#: exhausted.
NODE_BUDGET = 200_000


def _residual_capacity(problem: EpochProblem) -> dict[DatacenterId, int]:
    """Free capacity per node once every current placement is accounted for.

    A movable service keeps its host until the epoch moves it, and one the
    algorithm leaves unplaced stays there, so its room is not free.
    """
    residual = {n: problem.topology.capacity(n) for n in problem.topology.nodes}
    for svc in problem.services:
        if svc.current_host is None:
            continue
        residual[svc.current_host] -= _units_at(problem, svc, svc.current_host)
    return residual


def _units_at(problem: EpochProblem, svc: ActiveService, node: DatacenterId) -> int:
    """CPU units ``svc`` takes at ``node``, which holds it or is chosen to."""
    units = problem.demand(svc.class_id, node)
    if units is None:
        raise InvariantError(
            f"r{svc.request_id} at s{node}, a level that cannot host it"
        )
    return units


def _movable(problem: EpochProblem) -> list[ActiveService]:
    return [svc for svc in problem.services if svc.movable]


def _lowest_with_room(
    problem: EpochProblem,
    svc: ActiveService,
    residual: Mapping[DatacenterId, int],
    nodes: Sequence[DatacenterId] | None = None,
) -> DatacenterId | None:
    """The first of ``nodes`` (by default ``svc``'s reach, PoA first) that
    can host ``svc`` with the room ``residual`` leaves."""
    for node in svc.feasible if nodes is None else nodes:
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
    residual[node] -= _units_at(problem, svc, node)
    placement[svc.request_id] = node


# ---------------------------------------------------------------------------
# first fit


def first_fit(problem: EpochProblem) -> EpochDecision:
    """Arrival order, lowest feasible datacenter with room."""
    todo = sorted(_movable(problem), key=lambda s: s.request_id)
    residual = _residual_capacity(problem)
    placement: dict[RequestId, DatacenterId] = {}
    for svc in todo:
        node = _lowest_with_room(problem, svc, residual)
        if node is not None:
            _assign(problem, residual, placement, svc, node)
    return EpochDecision(placement=placement)


# ---------------------------------------------------------------------------
# bottom-up with push-down recovery and a lifting pass


def bottom_up_push_up(problem: EpochProblem) -> EpochDecision:
    """Mimic the distributed protocol's shape as one centralized pass.

    Services reserve bottom-up at the lowest feasible node with room; when a
    service fits nowhere on its path, the algorithm frees room by pushing an
    ancestor's tenants below it, down their own reach (in request-id
    order, escalating toward the root).  A final pass lifts this epoch's
    tentative placements to the highest feasible node that still has room,
    mirroring the protocol's preference for high placements.
    """
    residual = _residual_capacity(problem)
    # where every immovable service sits, for the push-down recovery
    tenants: dict[DatacenterId, list[ActiveService]] = {}
    for svc in problem.services:
        if not svc.movable and svc.current_host is not None:
            tenants.setdefault(svc.current_host, []).append(svc)
    for members in tenants.values():
        members.sort(key=lambda s: s.request_id)
    placement: dict[RequestId, DatacenterId] = {}
    relocations: dict[RequestId, DatacenterId] = {}

    def try_free(node: DatacenterId, needed: int) -> bool:
        """Free ``needed`` units at ``node`` by pushing its tenants down
        their reach; True, with the moves committed, when that succeeds.

        The walk is planned on a copy of the residuals and touches nothing
        when it falls short.  A tenant is never movable, so its host lies
        on its reach, a path prefix from the PoA up: the reach's entries
        before ``node`` are the targets below it, tried PoA first."""
        room = dict(residual)
        moves: list[tuple[ActiveService, DatacenterId]] = []
        for tenant in tenants.get(node, ()):
            if room[node] >= needed:
                break
            reach = tenant.feasible
            target = _lowest_with_room(
                problem, tenant, room, reach[: reach.index(node)]
            )
            if target is not None:
                room[node] += _units_at(problem, tenant, node)
                room[target] -= _units_at(problem, tenant, target)
                moves.append((tenant, target))
        if room[node] < needed:
            return False
        residual.update(room)
        for tenant, target in moves:
            tenants[node].remove(tenant)
            tenants.setdefault(target, []).append(tenant)
            relocations[tenant.request_id] = target
        return True

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
        # highest first, down to just above the tentative host
        above = svc.feasible[: svc.feasible.index(here) : -1]
        node = _lowest_with_room(problem, svc, residual, above)
        if node is not None:
            residual[here] += _units_at(problem, svc, here)
            _assign(problem, residual, placement, svc, node)
    placement.update(relocations)
    return EpochDecision(placement=placement)


# ---------------------------------------------------------------------------
# cheapest feasible placement, biggest demand first


def cheapest_feasible(problem: EpochProblem) -> EpochDecision:
    """Greedy by demand: big services first, each at the cheapest feasible
    node with room (placement price plus migration charge when moving)."""
    movable = _movable(problem)
    residual = _residual_capacity(problem)
    todo = sorted(
        movable, key=lambda s: (-_units_at(problem, s, s.poa), s.request_id)
    )
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
    residual = _residual_capacity(problem)
    criticals = [s for s in movable if s.current_host is not None]
    fresh = [s for s in movable if s.current_host is None]
    criticals.sort(
        key=lambda s: (
            residual[s.current_host],
            -_units_at(problem, s, s.current_host),
            s.request_id,
        )
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
    node_budget: int = NODE_BUDGET,
    stats: ExactSolverStats | None = None,
    *,
    first_solution: bool = False,
) -> EpochDecision:
    """Minimum-cost placement of every active service, by branch and bound.

    The whole state is re-decided: each service may stay (free) or move
    (one migration charge), and capacity binds per node.  Before any search,
    the slot count (see ``_slot_count``), prepared from the services and
    checked against the tree's capacities, may prove that no placement
    exists; such a verdict is unsolved and not exhausted, after 0 nodes.
    The bound adds each undecided service's cheapest capacity-relaxed
    option, which never overestimates, so the first complete solution kept
    is optimal when the search runs to completion.  Budget exhaustion is
    reported, never silently truncated.

    With ``first_solution`` the solver answers only whether a placement
    exists: it returns the warm start when that is feasible, or else the
    first complete assignment the search reaches (the one the full search
    keeps first, after the same nodes), as solved and not exhausted.
    """
    topology = problem.topology
    suffices = _slot_count(topology, problem.units, problem.services)
    if suffices is None or not suffices(topology.capacity):
        if stats is not None:
            stats.nodes_expanded = 0
        return EpochDecision(placement={}, solved=False)
    services = sorted(
        problem.services, key=lambda s: (len(s.feasible), s.request_id)
    )
    nodes = topology.nodes
    options = _options(problem, services)

    incumbent_cost = float("inf")
    incumbent: list[DatacenterId] | None = None
    # Warm start from the bottom-up heuristic: a ready incumbent means a
    # feasible answer survives even a budget cut-off, and its cost prunes
    # the search from the first node.
    warm = {
        s.request_id: s.current_host for s in services if s.current_host is not None
    }
    warm.update(bottom_up_push_up(problem).placement)
    requests = {svc.request_id: svc for svc in services}
    report = check_feasible(
        topology, problem.classes, requests, warm, units=problem.units
    )
    if report.ok:
        incumbent = [warm[svc.request_id] for svc in services]
        incumbent_cost = sum(
            problem.price(svc, node) for svc, node in zip(services, incumbent)
        )
    expanded = 0
    exhausted = False
    if incumbent is None or not first_solution:
        residual = [topology.capacity(n) for n in nodes]
        expanded, exhausted, found = _branch_and_bound(
            options, residual, incumbent_cost, node_budget, first_solution
        )
        if found is not None:
            incumbent = [nodes[i] for i in found]
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


def _options(
    problem: EpochProblem, services: list[ActiveService]
) -> list[tuple[tuple[float, int, int], ...]]:
    """Per service, its (price, node index, units) options, cheapest first.
    The slot count has already seen that every service has one."""
    index = {node: i for i, node in enumerate(problem.topology.nodes)}
    options = []
    for svc in services:
        cand = []
        for node in svc.feasible:
            units = problem.demand(svc.class_id, node)
            if units is not None:
                cand.append((problem.price(svc, node), node, units))
        cand.sort(key=lambda t: (t[0], t[1]))
        options.append(tuple((price, index[node], units) for price, node, units in cand))
    return options


def _slot_count(
    topology: Topology,
    units: Mapping[int, Mapping[DatacenterId, int | None]],
    services: Iterable[Request | ActiveService],
) -> Callable[[Callable[[DatacenterId], int]], bool] | None:
    """A check that is False only when no placement of ``services`` fits;
    None when some service has no node that can host it.  ``units`` is the
    demand table of ``topology`` and the services' classes (see
    :func:`~.model.demand_table`), which each caller prepares once.

    The check takes the capacity per node, so one count serves every tree
    of ``topology``'s shape.  A node hosts at most ``capacity // least``
    services, its slots, where ``least`` is the smallest demand at the node
    among all the services that can use it (a least demand of 0 leaves it
    unlimited).  A service may take a slot anywhere from its lowest usable
    node to its highest: a path from the PoA toward the root.  Those paths
    form a laminar family, so with the slots fixed a greedy walk decides
    whether every service gets one (Hall's condition): bottom-up, each node
    fills its slots with the waiting services whose reach tops out lowest
    and passes the rest to its parent.  A service still waiting at the top
    of its reach proves infeasibility.  Every real placement also fits the
    slots, so a False is never wrong; a True only means the search has to
    decide.  Everything but the slots is prepared here, once.
    """
    least: dict[DatacenterId, int] = {}
    # per node, the services whose reach starts there: level of the reach's
    # top -> how many
    waiting: dict[DatacenterId, dict[int, int]] = {}
    for svc in services:
        demand = units[svc.class_id]
        usable = [n for n in svc.feasible if demand[n] is not None]
        if not usable:
            return None
        for node in usable:
            here = demand[node]
            least[node] = min(here, least.get(node, here))
        top = topology.level(usable[-1])  # a reach runs PoA to root
        entry = waiting.setdefault(usable[0], {})
        entry[top] = entry.get(top, 0) + 1
    # bottom-up, every node but those whose least demand of 0 leaves their
    # slots unlimited, which serves everyone who waits there
    walk = [
        (node, topology.level(node), topology.parent(node), least.get(node))
        for node in sorted(topology.nodes, key=topology.level)
        if least.get(node) != 0
    ]

    def suffices(capacity: Callable[[DatacenterId], int]) -> bool:
        carry = {node: dict(entry) for node, entry in waiting.items()}
        for node, level, parent, unit in walk:
            here = carry.get(node)
            if not here:
                continue  # nobody waits here
            slots = 0 if unit is None else capacity(node) // unit
            for top in sorted(here):  # reaches that top out lowest first
                served = min(slots, here[top])
                slots -= served
                unserved = here[top] - served
                if not unserved:
                    continue
                if top == level:
                    return False
                above = carry.setdefault(parent, {})
                above[top] = above.get(top, 0) + unserved
        return True

    return suffices


def _branch_and_bound(
    options: list[tuple[tuple[float, int, int], ...]],
    residual: list[int],
    incumbent_cost: float,
    node_budget: int,
    first_solution: bool,
) -> tuple[int, bool, list[int] | None]:
    """Depth-first search over ``options``, one service per depth.

    A node is one partial assignment: entering it counts against
    ``node_budget``, and it is cut when its cost plus the tail bound (each
    undecided service's cheapest option) cannot beat the incumbent.  The
    loop keeps its own stack (per depth, the iterator over the options left
    and the cost above), so no input is too deep to search.  Returns the
    nodes expanded, whether the budget ran out, and the node indices of the
    cheapest complete assignment found (None when none beat
    ``incumbent_cost``).  The root's check returns for an empty
    ``options``: :func:`exact_optimal`'s warm start of an empty problem is
    feasible at cost 0, which no assignment beats.
    """
    last = len(options) - 1
    tail = [0.0] * (last + 2)
    for i in range(last, -1, -1):
        tail[i] = tail[i + 1] + options[i][0][0]
    best: list[int] | None = None
    expanded = 1  # the root: nothing assigned yet
    if expanded > node_budget:
        return expanded, True, None
    if tail[0] >= incumbent_cost:
        return expanded, False, None
    depth = 0
    base = 0.0
    rest = tail[1]
    options_left = iter(options[0])
    assignment = [0] * (last + 1)
    taken = [0] * (last + 1)  # units of the option assigned at each depth
    above = [0.0] * (last + 1)  # cost of the assignment above each depth
    # options left to try at each depth
    pending: list[Iterator[tuple[float, int, int]]] = [options_left] * (last + 1)
    while True:
        for price, node, units in options_left:
            if units > residual[node]:
                continue
            cost = base + price
            expanded += 1
            if expanded > node_budget:
                return expanded, True, best
            if cost + rest >= incumbent_cost:
                continue
            assignment[depth] = node
            if depth == last:
                incumbent_cost = cost
                best = assignment.copy()
                if first_solution:
                    return expanded, False, best
                continue
            residual[node] -= units
            taken[depth] = units
            pending[depth] = options_left
            above[depth] = base
            depth += 1
            base = cost
            rest = tail[depth + 1]
            options_left = iter(options[depth])
            break
        else:  # every option at this depth tried: back up one
            depth -= 1
            if depth < 0:
                return expanded, False, best
            residual[assignment[depth]] += taken[depth]
            options_left = pending[depth]
            base = above[depth]
            rest = tail[depth + 1]


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
    """Doubling the capacity never produced a feasible run.  ``verdict`` is
    the verdict of the last probe's run, None when no run decided it."""

    def __init__(self, message: str, verdict: str | None = None) -> None:
        super().__init__(message)
        self.verdict = verdict


def min_cpu_binary_search(succeeds: Callable[[int], bool]) -> int:
    """Least leaf capacity (in CPU units) for which ``succeeds`` holds.

    Assumes success is monotone in capacity.  The bracket is fixed: it
    doubles from 8 units, and past 2**20 units the search gives up with
    :class:`NoUpperBoundError`.  It then bisects to one unit, returning
    the known-good upper end.
    """
    lo = 0  # capacity 0 hosts nothing: a safe known-failure floor
    hi = 8
    while not succeeds(hi):
        lo = hi
        hi *= 2
        if hi > 1 << 20:
            raise NoUpperBoundError(f"no feasible capacity at or below {1 << 20}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if succeeds(mid):
            hi = mid
        else:
            lo = mid
    return hi
