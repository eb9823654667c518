"""Tests for the centralized placement algorithms and the exact solver."""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.baselines import (
    ALGORITHMS,
    ExactSolverStats,
    NoUpperBoundError,
    _branch_and_bound,
    _options,
    _slot_count,
    availability_scaler,
    bottom_up_push_up,
    cheapest_feasible,
    exact_optimal,
    first_fit,
    min_cpu_binary_search,
)
from edgeplace.model import (
    CostModel,
    InvariantError,
    ServiceClass,
    Topology,
    build_tree,
    feasible_set_for,
)
from edgeplace.harness import build_simulator
from edgeplace.scenarios import NONRT_CLASS, RT_CLASS, default_profile, rand_scenario
from edgeplace.simnet import ActiveService, EpochDecision, EpochProblem

from .oracles import enumerate_optimal

UNIT = ServiceClass(class_id=0, name="unit", max_delay=1.0, cpu_demand={0: 1, 1: 1, 2: 1})
PAIR = ServiceClass(class_id=1, name="pair", max_delay=1.0, cpu_demand={0: 2, 1: 2})


def svc(
    rid: int,
    poa: int,
    feasible: tuple[int, ...],
    *,
    class_id: int = 0,
    current_host: int | None = None,
    movable: bool = True,
) -> ActiveService:
    return ActiveService(
        request_id=rid,
        class_id=class_id,
        poa=poa,
        feasible=feasible,
        current_host=current_host,
        movable=movable,
    )


def problem_of(
    topology: Topology,
    services: list[ActiveService],
    *,
    classes: dict[int, ServiceClass] | None = None,
    prices: dict[int, dict[int, float]] | None = None,
    migration: float = 1.0,
) -> EpochProblem:
    classes = classes or {0: UNIT}
    prices = prices or {cid: {0: 3.0, 1: 2.0, 2: 1.0} for cid in classes}
    costs = CostModel(
        migration_cost={cid: migration for cid in classes},
        placement_cost=prices,
    )
    return EpochProblem(
        topology=topology, classes=classes, costs=costs, services=tuple(services)
    )


def decision_cost(problem: EpochProblem, placement: dict[int, int]) -> float:
    """Marginal cost of a full placement: hosting plus migration charges."""
    total = 0.0
    for service in problem.services:
        node = placement[service.request_id]
        total += problem.costs.place_price(
            service.class_id, problem.topology.level(node)
        )
        if service.current_host is not None and service.current_host != node:
            total += problem.costs.move_price(service.class_id)
    return total


# ---------------------------------------------------------------------------
# first fit


def test_first_fit_places_lowest_first_in_arrival_order() -> None:
    topo = build_tree(levels=3, arity=2, leaf_capacity=1, capacity_overrides={0: 1, 1: 1, 2: 1})
    services = [
        svc(0, 5, (5, 2, 0)),
        svc(1, 3, (3, 1, 0)),
        svc(2, 4, (4, 1, 0)),
        svc(3, 4, (4, 1, 0)),
    ]
    decision = first_fit(problem_of(topo, services))
    # each goes to its own PoA; the last finds its leaf taken and climbs
    assert decision.placement == {0: 5, 1: 3, 2: 4, 3: 1}
    assert decision.solved


def test_first_fit_leaves_hopeless_request_unplaced() -> None:
    topo = build_tree(levels=1, arity=1, leaf_capacity=0)
    decision = first_fit(problem_of(topo, [svc(1, 0, (0,))]))
    assert decision.placement == {}


def test_first_fit_respects_a_leaf_only_reach() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=2)
    decision = first_fit(problem_of(topo, [svc(1, 1, (1,))]))
    assert decision.placement == {1: 1}


# ---------------------------------------------------------------------------
# bottom-up with recovery and lifting


def test_bottom_up_solves_the_unit_capacity_walkthrough() -> None:
    topo = build_tree(
        levels=3, arity=2, leaf_capacity=1, capacity_overrides={0: 1, 1: 1, 2: 1}
    )
    services = [
        svc(0, 5, (5, 2, 0)),
        svc(1, 3, (3, 1, 0)),
        svc(2, 4, (4, 1, 0)),
        svc(3, 4, (4, 1, 0)),
    ]
    problem = problem_of(topo, services)
    decision = bottom_up_push_up(problem)
    assert set(decision.placement) == {0, 1, 2, 3}
    load: dict[int, int] = {}
    for node in decision.placement.values():
        load[node] = load.get(node, 0) + 1
    assert all(load[n] <= topo.capacity(n) for n in load)


def test_bottom_up_frees_room_by_pushing_a_tenant_down() -> None:
    topo = build_tree(
        levels=2, arity=2, leaf_capacity=1, capacity_overrides={0: 1, 2: 0}
    )
    tenant = svc(2, 1, (1, 0), current_host=0, movable=False)
    newcomer = svc(1, 2, (2, 0))
    decision = bottom_up_push_up(problem_of(topo, [newcomer, tenant]))
    # the immovable-looking tenant is exactly what the recovery may move
    assert decision.placement == {1: 0, 2: 1}


def _crowded_root(root: int, leaf: int) -> tuple[Topology, list[ActiveService]]:
    """A root of capacity ``root`` full with tenants 2 and 3, one unit
    each, whose reach is (leaf 1, root); leaf 1 has capacity ``leaf`` and
    leaf 2, every newcomer's PoA, none."""
    topo = build_tree(
        levels=2,
        arity=2,
        leaf_capacity=leaf,
        capacity_overrides={0: root, 2: 0},
    )
    tenants = [svc(rid, 1, (1, 0), current_host=0, movable=False) for rid in (2, 3)]
    return topo, tenants


def test_bottom_up_walk_that_falls_short_moves_no_tenant() -> None:
    # Newcomer 1 needs 2 units at the root.  The walk plans tenant 2's move
    # to leaf 1, finds no room for tenant 3 and so frees 1 unit: it commits
    # nothing, and both tenants keep their host.
    topo, tenants = _crowded_root(root=2, leaf=1)
    stuck = svc(1, 2, (2, 0), class_id=1)
    classes = {0: UNIT, 1: PAIR}
    decision = bottom_up_push_up(problem_of(topo, [stuck, *tenants], classes=classes))
    assert decision.placement == {}
    # The failed plan left the residuals as they were: newcomer 4, one
    # unit, still has to push tenant 2 down to get the root.
    newcomer = svc(4, 2, (2, 0))
    decision = bottom_up_push_up(
        problem_of(topo, [stuck, *tenants, newcomer], classes=classes)
    )
    assert decision.placement == {4: 0, 2: 1}


def test_bottom_up_walk_moves_only_the_tenants_it_needs() -> None:
    # Leaf 1 has room for both tenants, but moving tenant 2 frees the one
    # unit the newcomer needs, so tenant 3 stays on the root.
    topo, tenants = _crowded_root(root=2, leaf=2)
    decision = bottom_up_push_up(problem_of(topo, [svc(1, 2, (2, 0)), *tenants]))
    assert decision.placement == {1: 0, 2: 1}


def test_bottom_up_empty_problem_is_empty() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    assert bottom_up_push_up(problem_of(topo, [])).placement == {}


def test_bottom_up_matches_optimum_under_abundance() -> None:
    # with room everywhere and prices falling with height, lifting to the
    # top of each reach is exactly the cheapest placement
    rng = random.Random(5)
    for _ in range(40):
        levels = rng.randint(1, 3)
        topo = build_tree(levels=levels, arity=2, leaf_capacity=100)
        prices = {0: {lvl: float(10 - 3 * lvl) for lvl in range(levels)}}
        demand = {0: {lvl: rng.randint(1, 3) for lvl in range(levels)}}
        klass = ServiceClass(0, "x", 1.0, demand[0])
        rtt = {lvl: 0.001 for lvl in range(levels)}
        services = [
            svc(rid, poa := rng.choice(topo.leaves), feasible_set_for(topo, poa, klass, rtt))
            for rid in range(rng.randint(1, 3))
        ]
        problem = problem_of(topo, services, classes={0: klass}, prices=prices)
        decision = bottom_up_push_up(problem)
        best = enumerate_optimal(
            topo,
            demand,
            prices,
            {0: 1.0},
            [(s.request_id, 0, s.feasible, None) for s in services],
        )
        assert best is not None
        assert decision_cost(problem, dict(decision.placement)) == pytest.approx(
            best[0]
        )


# ---------------------------------------------------------------------------
# cheapest feasible, demand-descending


def test_cheapest_feasible_serves_heavy_demand_first() -> None:
    big = ServiceClass(class_id=1, name="big", max_delay=1.0, cpu_demand={0: 3, 1: 3})
    small = ServiceClass(class_id=2, name="small", max_delay=1.0, cpu_demand={0: 2, 1: 2})
    topo = build_tree(levels=2, arity=2, leaf_capacity=3)
    prices = {1: {0: 1.0, 1: 5.0}, 2: {0: 1.0, 1: 5.0}}
    services = [
        svc(1, 1, (1, 0), class_id=2),
        svc(2, 1, (1, 0), class_id=1),
    ]
    problem = problem_of(
        topo, services, classes={1: big, 2: small}, prices=prices
    )
    decision = cheapest_feasible(problem)
    # the three-unit service wins the leaf although its id comes second
    assert decision.placement[2] == 1
    assert decision.placement[1] == 0


def test_cheapest_feasible_picks_the_cheapest_level() -> None:
    topo, classes, costs, rtt = default_profile(leaf_capacity=340)
    leaf = topo.leaves[0]
    feasible = feasible_set_for(topo, leaf, NONRT_CLASS, rtt)
    problem = EpochProblem(
        topology=topo,
        classes=classes,
        costs=costs,
        services=(svc(1, leaf, feasible, class_id=NONRT_CLASS.class_id),),
    )
    decision = cheapest_feasible(problem)
    assert decision.placement == {1: topo.root}  # 47 beats every lower level


def test_cheapest_feasible_breaks_price_ties_toward_lower_node_id() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=4)
    prices = {0: {0: 2.0, 1: 2.0}}
    decision = cheapest_feasible(
        problem_of(topo, [svc(1, 1, (1, 0))], prices=prices)
    )
    assert decision.placement == {1: 0}


def test_cheapest_feasible_stays_put_when_moving_costs_more() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=4)
    prices = {0: {0: 1.0, 1: 3.0}}
    staying = svc(1, 1, (1, 0), current_host=1)
    decision = cheapest_feasible(
        problem_of(topo, [staying], prices=prices, migration=10.0)
    )
    # staying at the leaf (3.0) beats the cheap root plus a 10.0 move
    assert decision.placement == {1: 1}


# ---------------------------------------------------------------------------
# availability-guided placement


def test_availability_scaler_serves_most_starved_critical_first() -> None:
    topo = build_tree(
        levels=2,
        arity=3,
        leaf_capacity=2,
        capacity_overrides={0: 2, 1: 1, 2: 5},
    )
    wide = ServiceClass(class_id=0, name="wide", max_delay=1.0, cpu_demand={0: 2, 1: 2})
    starved = svc(7, 3, (3, 0), current_host=1)
    comfy = svc(4, 3, (3, 0), current_host=2)
    problem = problem_of(topo, [comfy, starved], classes={0: wide})
    decision = availability_scaler(problem)
    # the service whose old host is starved picks first and takes the root
    assert decision.placement == {7: 0, 4: 3}


def test_availability_scaler_serves_criticals_before_new_arrivals() -> None:
    topo = build_tree(
        levels=2, arity=2, leaf_capacity=2, capacity_overrides={0: 0, 2: 0}
    )
    wide = ServiceClass(class_id=0, name="wide", max_delay=1.0, cpu_demand={0: 2, 1: 2})
    critical = svc(9, 1, (1,), current_host=2)
    fresh = svc(1, 1, (1,))
    decision = availability_scaler(
        problem_of(topo, [fresh, critical], classes={0: wide})
    )
    # one two-unit slot: the orphaned service gets it, the arrival waits
    assert decision.placement == {9: 1}


def test_availability_scaler_prefers_the_roomiest_node() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=2)  # root holds 4
    decision = availability_scaler(problem_of(topo, [svc(1, 1, (1, 0))]))
    assert decision.placement == {1: 0}


# ---------------------------------------------------------------------------
# the exact solver


def test_exact_picks_the_cheapest_reachable_level() -> None:
    topo, classes, costs, rtt = default_profile(leaf_capacity=340)
    leaf = topo.leaves[0]
    feasible = feasible_set_for(topo, leaf, RT_CLASS, rtt)
    problem = EpochProblem(
        topology=topo,
        classes=classes,
        costs=costs,
        services=(svc(1, leaf, feasible, class_id=RT_CLASS.class_id),),
    )
    decision = exact_optimal(problem)
    assert decision.solved
    # 164 at the regional level beats 278 and 544 below it
    assert decision.placement == {1: feasible[2]}


def test_exact_handles_the_flat_walkthrough_final_load() -> None:
    topo = build_tree(levels=2, arity=4, leaf_capacity=3, capacity_overrides={0: 5})
    wide = ServiceClass(class_id=0, name="wide", max_delay=1.0, cpu_demand={0: 3, 1: 2})
    slim = ServiceClass(class_id=1, name="slim", max_delay=1.0, cpu_demand={0: 2, 1: 2})
    prices = {0: {0: 3.0, 1: 2.0}, 1: {0: 3.0, 1: 2.0}}
    services = [
        svc(1, 1, (1, 0), class_id=0),
        svc(2, 2, (2, 0), class_id=1),
        svc(3, 3, (3, 0), class_id=1),
        svc(4, 4, (4, 0), class_id=1),
        svc(5, 4, (4, 0), class_id=1),
        svc(6, 4, (4, 0), class_id=1),
    ]
    problem = problem_of(
        topo, services, classes={0: wide, 1: slim}, prices=prices, migration=10.0
    )
    decision = exact_optimal(problem)
    assert decision.solved
    assert decision_cost(problem, dict(decision.placement)) == pytest.approx(16.0)
    root_load = sum(
        problem.units[s.class_id][0]
        for s in services
        if decision.placement[s.request_id] == 0
    )
    assert root_load == 4  # one unit left over at the root


def test_exact_matches_exhaustive_enumeration() -> None:
    rng = random.Random(17)
    for _ in range(80):
        levels = rng.randint(1, 3)
        arity = rng.randint(1, 2)
        topo = build_tree(levels=levels, arity=arity, leaf_capacity=rng.randint(1, 4))
        demand = {0: {lvl: rng.randint(1, 3) for lvl in range(levels)}}
        prices = {0: {lvl: float(rng.randint(1, 9)) for lvl in range(levels)}}
        migration = {0: float(rng.randint(0, 6))}
        klass = ServiceClass(0, "x", 1.0, demand[0])
        rtt = {lvl: 0.001 for lvl in range(levels)}
        services = []
        for rid in range(rng.randint(1, 6)):
            poa = rng.choice(topo.leaves)
            feas = feasible_set_for(topo, poa, klass, rtt)
            host = rng.choice(list(feas)) if rng.random() < 0.4 else None
            services.append(
                svc(rid, poa, feas, current_host=host)
            )
        problem = EpochProblem(
            topology=topo,
            classes={0: klass},
            costs=CostModel(migration_cost=migration, placement_cost=prices),
            services=tuple(services),
        )
        decision = exact_optimal(problem)
        best = enumerate_optimal(
            topo,
            demand,
            prices,
            migration,
            [
                (s.request_id, s.class_id, s.feasible, s.current_host)
                for s in services
            ],
        )
        if best is None:
            assert not decision.solved
        else:
            assert decision.solved
            assert decision_cost(problem, dict(decision.placement)) == pytest.approx(
                best[0]
            )


def test_exact_never_costs_more_than_the_heuristic_seed() -> None:
    rng = random.Random(29)
    for _ in range(40):
        topo = build_tree(levels=3, arity=2, leaf_capacity=rng.randint(2, 5))
        demand = {0: {lvl: rng.randint(1, 3) for lvl in range(3)}}
        prices = {0: {lvl: float(rng.randint(1, 9)) for lvl in range(3)}}
        klass = ServiceClass(0, "x", 1.0, demand[0])
        rtt = {lvl: 0.001 for lvl in range(3)}
        services = []
        for rid in range(rng.randint(1, 7)):
            poa = rng.choice(topo.leaves)
            feas = feasible_set_for(topo, poa, klass, rtt)
            services.append(svc(rid, poa, feas))
        problem = EpochProblem(
            topology=topo,
            classes={0: klass},
            costs=CostModel(migration_cost={0: 2.0}, placement_cost=prices),
            services=tuple(services),
        )
        heuristic = bottom_up_push_up(problem)
        decision = exact_optimal(problem)
        if set(heuristic.placement) == {s.request_id for s in services}:
            assert decision.solved
            assert decision_cost(
                problem, dict(decision.placement)
            ) <= decision_cost(problem, dict(heuristic.placement)) + 1e-9


def test_exact_reports_budget_exhaustion_but_keeps_the_seed_answer() -> None:
    topo = build_tree(levels=3, arity=2, leaf_capacity=50)
    # prices rise with height, so the lift-to-the-top seed is beatable and
    # the search has real work to do before the budget stops it
    prices = {0: {0: 1.0, 1: 2.0, 2: 3.0}}
    services = [svc(rid, 3, (3, 1, 0)) for rid in range(6)]
    problem = problem_of(topo, services, prices=prices)
    stats = ExactSolverStats()
    decision = exact_optimal(problem, node_budget=2, stats=stats)
    assert decision.exhausted_budget
    assert decision.solved  # the heuristic warm start survives the cut-off
    assert set(decision.placement) == set(range(6))
    assert stats.nodes_expanded >= 2
    assert decision_cost(problem, dict(decision.placement)) == pytest.approx(18.0)


def test_exact_gives_up_cleanly_when_no_placement_exists() -> None:
    topo = build_tree(levels=1, arity=1, leaf_capacity=1)
    # two unit services, one unit of capacity in the whole world
    services = [svc(1, 0, (0,)), svc(2, 0, (0,))]
    decision = exact_optimal(problem_of(topo, services))
    assert not decision.solved
    assert not decision.exhausted_budget
    assert decision.placement == {}


def test_exact_rejects_service_with_no_usable_level() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=3)
    leafbound = ServiceClass(class_id=0, name="leafy", max_delay=1.0, cpu_demand={0: 1})
    problem = problem_of(
        topo,
        [svc(1, 1, (0,))],  # only the root is listed, but it cannot host
        classes={0: leafbound},
        prices={0: {0: 1.0}},
    )
    decision = exact_optimal(problem)
    assert not decision.solved and decision.placement == {}


@pytest.mark.parametrize("name", ["ffit", "bupu", "cpvnf", "multiscaler"])
def test_a_heuristic_refuses_a_host_at_a_level_that_cannot_host_it(name: str) -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=3)
    leafbound = ServiceClass(class_id=0, name="leafy", max_delay=1.0, cpu_demand={0: 1})
    problem = problem_of(
        topo,
        [svc(1, 1, (1,), current_host=0)],
        classes={0: leafbound},
        prices={0: {0: 1.0}},
    )
    with pytest.raises(InvariantError) as raised:
        ALGORITHMS[name](problem)
    assert str(raised.value) == "r1 at s0, a level that cannot host it"


def test_exact_populates_stats() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=2)
    problem = problem_of(topo, [svc(1, 1, (1, 0))])
    stats = ExactSolverStats()
    decision = exact_optimal(problem, stats=stats)
    assert decision.solved
    assert stats.nodes_expanded > 0
    # the cheap level-1 slot
    assert decision_cost(problem, dict(decision.placement)) == pytest.approx(2.0)


def probe_problem(seed: int, p_rt: float, leaf_capacity: int) -> EpochProblem:
    """The epoch problem a ``min_cpu_for`` probe of ``exact`` hands the
    solver: 24 ``rand`` users on a binary 4-level tree, all at t=0."""
    scenario = rand_scenario(
        seed=seed, users=24, p_rt=p_rt, leaf_capacity=leaf_capacity, levels=4, arity=2
    )
    simulator = build_simulator(scenario, "ffit")
    seen: list[EpochProblem] = []
    simulator.algorithm = lambda problem: (
        seen.append(problem) or EpochDecision(placement={}, solved=False)
    )
    simulator.run(scenario.trace)
    return seen[0]


def placement_digest(placement: dict[int, int]) -> str:
    return hashlib.sha256(repr(sorted(placement.items())).encode()).hexdigest()[:16]


NO_PLACEMENT = placement_digest({})


def search_core(problem: EpochProblem, budget: int) -> tuple:
    """What the search alone does with ``problem``: no slot count and no
    warm start, which holds nothing on an infeasible problem anyway."""
    services = sorted(problem.services, key=lambda s: (len(s.feasible), s.request_id))
    options = _options(problem, services)
    assert options is not None
    nodes = problem.topology.nodes
    residual = [problem.topology.capacity(n) for n in nodes]
    expanded, exhausted, found = _branch_and_bound(
        options, residual, float("inf"), budget, False
    )
    placement = {} if found is None else {
        s.request_id: nodes[i] for s, i in zip(services, found)
    }
    return expanded, found is not None, exhausted, placement_digest(placement)


# Probe problems the slot count proves infeasible, so that ``exact_optimal``
# never searches them: their frozen node counts are the search core's.
PROVEN_UNSEARCHED = {(1.0, 256)}


# (nodes expanded, solved, exhausted, placement digest) per budget, recorded
# with the recursive search this loop replaced.
@pytest.mark.parametrize(
    "p_rt, leaf_capacity, budget, expected",
    [
        # the warm start is feasible, and 200,000 nodes find a cheaper one
        (0.5, 256, 2, (3, True, True, "82667ed39fab54c0")),
        (0.5, 256, 37, (38, True, True, "82667ed39fab54c0")),
        (0.5, 256, 1_000, (1001, True, True, "82667ed39fab54c0")),
        (0.5, 256, 200_000, (200001, True, True, "047b6aa335f1c480")),
        # no placement exists, proven after 144,984 nodes
        (0.5, 184, 2, (3, False, True, NO_PLACEMENT)),
        (0.5, 184, 37, (38, False, True, NO_PLACEMENT)),
        (0.5, 184, 1_000, (1001, False, True, NO_PLACEMENT)),
        (0.5, 184, 200_000, (144985, False, False, NO_PLACEMENT)),
        # the search's budget always runs out before a placement is found
        (1.0, 256, 2, (3, False, True, NO_PLACEMENT)),
        (1.0, 256, 37, (38, False, True, NO_PLACEMENT)),
        (1.0, 256, 1_000, (1001, False, True, NO_PLACEMENT)),
        (1.0, 256, 200_000, (200001, False, True, NO_PLACEMENT)),
    ],
)
def test_exact_search_is_frozen_on_probe_problems(
    p_rt: float, leaf_capacity: int, budget: int, expected: tuple
) -> None:
    problem = probe_problem(1, p_rt, leaf_capacity)
    if (p_rt, leaf_capacity) in PROVEN_UNSEARCHED:
        assert search_core(problem, budget) == expected
        return
    stats = ExactSolverStats()
    decision = exact_optimal(problem, node_budget=budget, stats=stats)
    assert (
        stats.nodes_expanded,
        decision.solved,
        decision.exhausted_budget,
        placement_digest(dict(decision.placement)),
    ) == expected


@pytest.mark.parametrize("p_rt, leaf_capacity", sorted(PROVEN_UNSEARCHED))
def test_exact_proves_probe_problems_infeasible_unsearched(
    p_rt: float, leaf_capacity: int
) -> None:
    problem = probe_problem(1, p_rt, leaf_capacity)
    stats = ExactSolverStats()
    decision = exact_optimal(problem, node_budget=200_000, stats=stats)
    assert (stats.nodes_expanded, decision.solved, decision.exhausted_budget) == (
        0,
        False,
        False,
    )
    assert decision.placement == {}


def test_first_solution_returns_a_feasible_warm_start_unsearched() -> None:
    problem = probe_problem(1, 0.5, 256)
    stats = ExactSolverStats()
    decision = exact_optimal(problem, stats=stats, first_solution=True)
    assert decision.solved and not decision.exhausted_budget
    assert stats.nodes_expanded == 0
    # the warm start is what a search cut off at once keeps
    assert decision.placement == exact_optimal(problem, node_budget=0).placement


def test_first_solution_stops_where_the_full_search_keeps_its_first() -> None:
    rng = random.Random(5)
    searched = 0
    for _ in range(200):
        problem = _random_problem(rng)
        stats = ExactSolverStats()
        decision = exact_optimal(problem, stats=stats, first_solution=True)
        assert not decision.exhausted_budget
        full = exact_optimal(problem)
        assert decision.solved == full.solved
        if not decision.solved or stats.nodes_expanded == 0:
            continue
        searched += 1
        # the full search holds this assignment after the same nodes, and
        # nothing one node earlier
        nodes = stats.nodes_expanded
        assert exact_optimal(problem, node_budget=nodes).placement == decision.placement
        assert not exact_optimal(problem, node_budget=nodes - 1).solved
    assert searched >= 3


def test_exact_searches_deeper_than_the_recursion_limit() -> None:
    topo = build_tree(levels=3, arity=2, leaf_capacity=2_000)
    # prices rise with height, so the search dives 1,200 services deep to
    # beat the lift-to-the-top warm start
    prices = {0: {0: 1.0, 1: 2.0, 2: 3.0}}
    services = [svc(rid, 3, (3, 1, 0)) for rid in range(1_200)]
    problem = problem_of(topo, services, prices=prices)
    stats = ExactSolverStats()
    decision = exact_optimal(problem, node_budget=2_000, stats=stats)
    assert decision.solved and decision.exhausted_budget
    assert stats.nodes_expanded == 2_001
    assert set(decision.placement.values()) == {3}


# ---------------------------------------------------------------------------
# the slot-count certificate


def slots_suffice(problem: EpochProblem) -> bool:
    """The verdict of a slot count prepared afresh for ``problem``."""
    suffices = _slot_count(problem.topology, problem.units, problem.services)
    assert suffices is not None
    return suffices(problem.topology.capacity)


def _slot_problem(
    rng: random.Random, services: int, leaf_capacity: int
) -> EpochProblem:
    """A random world for the certificate: 1-3 classes whose demands may be
    0 and may skip levels (but every class runs at its PoA), RTT bounds that
    cut reaches short, a pruned subtree, capacity overrides (0 among them)
    and current hosts."""
    levels = rng.randint(1, 4)
    arity = rng.randint(1, 3)
    prune: tuple[int, ...] = ()
    if levels > 1 and arity > 1 and rng.random() < 0.3:
        # one child of a node with siblings: every leaf stays at level 0
        prune = (rng.randint(1, (arity**levels - 1) // (arity - 1) - 1),)
    topo = build_tree(levels=levels, arity=arity, leaf_capacity=0, prune=prune)
    overrides = {
        node: rng.choice((0, rng.randint(0, (topo.level(node) + 1) * leaf_capacity)))
        for node in rng.sample(topo.nodes, rng.randint(0, len(topo.nodes)))
    }
    topo = build_tree(
        levels=levels,
        arity=arity,
        leaf_capacity=leaf_capacity,
        capacity_overrides=overrides,
        prune=prune,
    )
    rtt = {lvl: 0.001 * (lvl + 1) for lvl in range(levels)}
    classes = {}
    for cid in range(rng.randint(1, 3)):
        demand = {
            lvl: rng.choice((0, 1, 2, 2, 3, 3, 4))
            for lvl in range(levels)
            if lvl == 0 or rng.random() < 0.8
        }
        max_delay = 0.001 * rng.randint(1, levels) + 0.0005
        classes[cid] = ServiceClass(cid, f"c{cid}", max_delay, demand)
    prices = {
        cid: {lvl: float(rng.randint(1, 9)) for lvl in range(levels)}
        for cid in classes
    }
    rows = []
    for rid in range(services):
        klass = classes[rng.randrange(len(classes))]
        poa = rng.choice(topo.leaves)
        if rng.random() < 0.2:  # the whole RTT-bounded prefix, holes included
            reach = tuple(
                n
                for n in topo.path_to_root(poa)
                if rtt[topo.level(n)] <= klass.max_delay
            )
        else:
            reach = feasible_set_for(topo, poa, klass, rtt)
        usable = [n for n in reach if topo.level(n) in klass.cpu_demand]
        host = rng.choice(usable) if usable and rng.random() < 0.3 else None
        rows.append(svc(rid, poa, reach, class_id=klass.class_id, current_host=host))
    return EpochProblem(
        topology=topo,
        classes=classes,
        costs=CostModel(
            migration_cost={cid: 2.0 for cid in classes}, placement_cost=prices
        ),
        services=tuple(rows),
    )


def test_slot_count_never_rejects_a_problem_enumeration_solves() -> None:
    rng = random.Random(61)
    outcomes = {"solved": 0, "rejected": 0, "searched": 0}
    while sum(outcomes.values()) < 2_000:
        problem = _slot_problem(rng, rng.randint(1, 5), rng.randint(0, 5))
        services = list(problem.services)
        best = enumerate_optimal(
            problem.topology,
            {cid: dict(k.cpu_demand) for cid, k in problem.classes.items()},
            problem.costs.placement_cost,
            problem.costs.migration_cost,
            [(s.request_id, s.class_id, s.feasible, s.current_host) for s in services],
        )
        fits = slots_suffice(problem)
        if best is not None:
            assert fits
            outcomes["solved"] += 1
        else:
            outcomes["rejected" if not fits else "searched"] += 1
        assert exact_optimal(problem).solved == (best is not None)
    # both verdicts occur, and the count proves most infeasible problems
    assert outcomes["solved"] > 500
    assert outcomes["rejected"] > 2 * outcomes["searched"] > 0


def test_slot_count_never_rejects_a_problem_milp_solves() -> None:
    scipy_optimize = pytest.importorskip("scipy.optimize")
    np = pytest.importorskip("numpy")
    rng = random.Random(67)
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        users = rng.randint(20, 60)
        problem = _slot_problem(rng, users, rng.randint(0, 3 * users))
        services = list(problem.services)
        # one binary per (service, usable node): each service placed once,
        # each node's load within its capacity
        columns = [
            (i, node, units)
            for i, s in enumerate(services)
            for node in s.feasible
            if (units := problem.units[s.class_id][node]) is not None
        ]
        nodes = problem.topology.nodes
        row_of = {node: len(services) + k for k, node in enumerate(nodes)}
        a = np.zeros((len(services) + len(row_of), len(columns)))
        for j, (i, node, units) in enumerate(columns):
            a[i, j] = 1
            a[row_of[node], j] = units
        upper = [1] * len(services) + [problem.topology.capacity(n) for n in row_of]
        lower = [1] * len(services) + [0] * len(row_of)
        result = scipy_optimize.milp(
            np.zeros(len(columns)),
            constraints=scipy_optimize.LinearConstraint(a, lower, upper),
            integrality=np.ones(len(columns)),
            bounds=scipy_optimize.Bounds(0, 1),
        )
        assert result.status in (0, 2)  # optimal or infeasible, never cut off
        fits = slots_suffice(problem)
        if result.status == 0:
            assert fits
        verdicts[fits] += 1
    assert min(verdicts.values()) >= 5


def _at_leaf_capacity(topology: Topology, leaf_capacity: int) -> Topology:
    """``topology``'s tree with every node at ``(level + 1) * leaf_capacity``
    units, as the probe trees of a capacity search scale."""
    nodes = topology.nodes
    return Topology(
        parents={n: topology.parent(n) for n in nodes},
        levels={n: topology.level(n) for n in nodes},
        capacities={n: (topology.level(n) + 1) * leaf_capacity for n in nodes},
    )


@settings(max_examples=200, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    leaf_capacities=st.lists(st.integers(0, 6), min_size=3, max_size=6),
)
def test_a_prepared_slot_count_carries_nothing_between_checks(
    rng: random.Random, leaf_capacities: list[int]
) -> None:
    problem = _slot_problem(rng, rng.randint(1, 5), rng.randint(0, 5))
    suffices = _slot_count(problem.topology, problem.units, problem.services)
    assert suffices is not None
    trees = {c: _at_leaf_capacity(problem.topology, c) for c in leaf_capacities}
    for order in (sorted(leaf_capacities), sorted(leaf_capacities, reverse=True)):
        for leaf_capacity in order:
            tree = trees[leaf_capacity]
            fits = suffices(tree.capacity)
            assert fits == slots_suffice(replace(problem, topology=tree))
            best = enumerate_optimal(
                tree,
                {cid: dict(k.cpu_demand) for cid, k in problem.classes.items()},
                problem.costs.placement_cost,
                problem.costs.migration_cost,
                [
                    (s.request_id, s.class_id, s.feasible, s.current_host)
                    for s in problem.services
                ],
            )
            assert fits or best is None


def test_slot_count_respects_the_reach_top() -> None:
    # two unit services on leaf 1, whose room is full: one can rise to the
    # root and one cannot, so the leaf slot goes to the one that cannot
    topo = build_tree(levels=2, arity=2, leaf_capacity=1)
    pair = [svc(1, 1, (1, 0)), svc(2, 1, (1,))]
    assert slots_suffice(problem_of(topo, pair))
    stuck = pair + [svc(3, 1, (1,))]
    stats = ExactSolverStats()
    decision = exact_optimal(problem_of(topo, stuck), stats=stats)
    assert (decision.solved, decision.exhausted_budget, stats.nodes_expanded) == (
        False,
        False,
        0,
    )



def test_slot_count_sizes_slots_by_every_service_that_can_use_a_node() -> None:
    # a one-unit leaf under a five-unit root; both classes take one unit at
    # the leaf, but the heavy class takes four at the root.  The light
    # service and one heavy one share the root (1 + 4 = 5) while the other
    # heavy one takes the leaf, so the root's slots must count the light
    # service's demand even when the walk seats it at the leaf.
    topo = build_tree(levels=2, arity=1, leaf_capacity=1, capacity_overrides={0: 5})
    light = ServiceClass(0, "light", 1.0, {0: 1, 1: 1})
    heavy = ServiceClass(1, "heavy", 1.0, {0: 1, 1: 4})
    trio = [svc(1, 1, (1, 0)), svc(2, 1, (1, 0), class_id=1), svc(3, 1, (1, 0), class_id=1)]
    problem = problem_of(topo, trio, classes={0: light, 1: heavy})
    assert slots_suffice(problem)
    decision = exact_optimal(problem)
    assert decision.solved
    assert sorted(decision.placement.values()) == [0, 0, 1]


def test_slot_count_never_rejects_a_solvable_problem_on_one_path() -> None:
    # every service on one leaf, two classes whose demands differ by level:
    # the walk seats some services low, and the slots above must still
    # count them
    rng = random.Random(71)
    solved = 0
    for _ in range(3_000):
        levels = rng.randint(2, 3)
        topo = build_tree(
            levels=levels,
            arity=1,
            leaf_capacity=rng.randint(0, 4),
            capacity_overrides={node: rng.randint(0, 8) for node in range(levels - 1)},
        )
        classes = {
            cid: ServiceClass(
                cid, f"c{cid}", 1.0, {lvl: rng.randint(0, 4) for lvl in range(levels)}
            )
            for cid in range(2)
        }
        leaf = topo.leaves[0]
        path = topo.path_to_root(leaf)
        services = [
            svc(rid, leaf, path[: rng.randint(1, levels)], class_id=rng.randrange(2))
            for rid in range(rng.randint(2, 6))
        ]
        problem = problem_of(topo, services, classes=classes)
        best = enumerate_optimal(
            topo,
            {cid: dict(k.cpu_demand) for cid, k in classes.items()},
            problem.costs.placement_cost,
            problem.costs.migration_cost,
            [(s.request_id, s.class_id, s.feasible, s.current_host) for s in services],
        )
        if best is not None:
            assert slots_suffice(problem)
            solved += 1
    assert solved > 1_000


# ---------------------------------------------------------------------------
# cross-cutting properties


def _random_problem(rng: random.Random) -> EpochProblem:
    levels = rng.randint(1, 3)
    topo = build_tree(levels=levels, arity=2, leaf_capacity=rng.randint(1, 4))
    demand = {0: {lvl: rng.randint(1, 3) for lvl in range(levels)}}
    klass = ServiceClass(0, "x", 1.0, demand[0])
    prices = {0: {lvl: float(rng.randint(1, 9)) for lvl in range(levels)}}
    rtt = {lvl: 0.001 for lvl in range(levels)}
    services = []
    pinned: dict[int, int] = {}  # load already committed by immovable tenants
    for rid in range(rng.randint(1, 6)):
        poa = rng.choice(topo.leaves)
        feas = feasible_set_for(topo, poa, klass, rtt)
        movable = rng.random() < 0.8
        host = None
        if not movable or rng.random() < 0.3:
            host = rng.choice(list(feas))
        if not movable:
            # an immovable tenant must not overload its host: the engine
            # never hands the algorithms an over-capacity starting state
            units = demand[0][topo.level(host)]
            if pinned.get(host, 0) + units > topo.capacity(host):
                movable, host = True, None
            else:
                pinned[host] = pinned.get(host, 0) + units
        services.append(
            svc(rid, poa, feas, current_host=host, movable=movable)
        )
    return EpochProblem(
        topology=topo,
        classes={0: klass},
        costs=CostModel(migration_cost={0: 2.0}, placement_cost=prices),
        services=tuple(services),
    )


def test_every_algorithm_respects_reach_and_capacity() -> None:
    rng = random.Random(41)
    for _ in range(60):
        problem = _random_problem(rng)
        for name, algorithm in sorted(ALGORITHMS.items()):
            decision = algorithm(problem)
            load: dict[int, int] = {}
            for service in problem.services:
                node = decision.placement.get(service.request_id)
                if node is None:
                    if not service.movable and service.current_host is not None:
                        node = service.current_host
                    else:
                        continue
                units = problem.units[service.class_id][node]
                assert units is not None, name
                assert node in service.feasible, name
                load[node] = load.get(node, 0) + units
            for node, used in load.items():
                assert used <= problem.topology.capacity(node), name


def test_every_algorithm_is_deterministic() -> None:
    rng = random.Random(43)
    for _ in range(15):
        problem = _random_problem(rng)
        for name, algorithm in sorted(ALGORITHMS.items()):
            first = algorithm(problem)
            second = algorithm(problem)
            assert first.placement == second.placement, name
            assert first.solved == second.solved, name


def test_algorithm_registry_is_complete() -> None:
    assert sorted(ALGORITHMS) == ["bupu", "cpvnf", "exact", "ffit", "multiscaler"]
    assert ALGORITHMS["exact"] is exact_optimal
    assert ALGORITHMS["ffit"] is first_fit


# ---------------------------------------------------------------------------
# minimum-capacity search


def test_min_cpu_search_finds_the_threshold() -> None:
    assert min_cpu_binary_search(lambda c: c >= 2) == 2
    assert min_cpu_binary_search(lambda c: c >= 7) == 7
    assert min_cpu_binary_search(lambda c: c >= 8) == 8
    assert min_cpu_binary_search(lambda c: c >= 100) == 100
    assert min_cpu_binary_search(lambda c: True) == 1


def test_min_cpu_search_raises_without_an_upper_bound() -> None:
    probes: list[int] = []

    def never(capacity: int) -> bool:
        probes.append(capacity)
        return False

    with pytest.raises(NoUpperBoundError) as raised:
        min_cpu_binary_search(never)
    assert raised.value.verdict is None  # no run to blame
    # the fixed bracket: doubling from 8, giving up past 2**20
    assert probes == [8 << k for k in range(18)]
