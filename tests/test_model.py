"""Tests for the topology, feasibility, and cost layer."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.model import (
    MAX_TREE_NODES,
    CostModel,
    Request,
    ServiceClass,
    Topology,
    build_tree,
    check_feasible,
    feasible_set_for,
    tree_capacity,
)
from edgeplace.scenarios import (
    NONRT_CLASS,
    PROFILE_COSTS,
    PROFILE_RTT,
    RT_CLASS,
    default_profile,
)
from edgeplace.simnet import ActiveService, EpochProblem

from .oracles import brute_feasible, subtree


# ---------------------------------------------------------------------------
# tree construction


def test_build_tree_reference_shape() -> None:
    topo = build_tree(levels=6, arity=2, leaf_capacity=10)
    assert len(topo.nodes) == 63
    assert topo.root == 0
    assert topo.level(topo.root) == 5
    assert topo.capacity(topo.root) == 60
    assert len(topo.leaves) == 32
    assert all(topo.level(leaf) == 0 for leaf in topo.leaves)
    assert all(topo.capacity(leaf) == 10 for leaf in topo.leaves)


def test_build_tree_breadth_first_numbering() -> None:
    topo = build_tree(levels=3, arity=2, leaf_capacity=2)
    assert topo.nodes == (0, 1, 2, 3, 4, 5, 6)
    assert topo.children(0) == (1, 2)
    assert topo.children(1) == (3, 4)
    assert topo.children(2) == (5, 6)
    assert [topo.level(n) for n in topo.nodes] == [2, 1, 1, 0, 0, 0, 0]
    # default capacity is (level + 1) * leaf capacity
    assert [topo.capacity(n) for n in topo.nodes] == [6, 4, 4, 2, 2, 2, 2]


def test_build_tree_overrides_make_irregular_capacities() -> None:
    topo = build_tree(
        levels=3, arity=2, leaf_capacity=2, capacity_overrides={0: 5, 4: 1}
    )
    assert topo.capacity(0) == 5
    assert topo.capacity(4) == 1
    assert topo.capacity(3) == 2  # untouched nodes keep the default


def test_build_tree_degenerate_single_node() -> None:
    topo = build_tree(levels=1, arity=1, leaf_capacity=1)
    assert topo.nodes == (0,)
    assert topo.root == 0
    assert topo.leaves == (0,)
    assert topo.level(0) == 0
    assert topo.capacity(0) == 1


def test_build_tree_prune_removes_whole_subtree() -> None:
    topo = build_tree(levels=3, arity=2, leaf_capacity=2, prune=(1,))
    assert topo.nodes == (0, 2, 5, 6)
    assert topo.children(0) == (2,)
    assert topo.leaves == (5, 6)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_build_tree_prune_keeps_what_no_pruned_subtree_holds(
    data: st.DataObject,
) -> None:
    levels, arity = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    full = build_tree(levels=levels, arity=arity, leaf_capacity=1)
    prune = data.draw(st.lists(st.sampled_from(full.nodes[1:] or (0,)), max_size=4))
    removed = set().union(*(subtree(full, top) for top in prune))
    try:
        pruned = build_tree(levels, arity, 1, prune=tuple(prune))
    except ValueError:
        # the root itself, or a childless inner node, would be left
        assert 0 in prune or any(
            full.children(n) and set(full.children(n)) <= removed
            for n in full.nodes
            if n not in removed
        )
        return
    assert set(pruned.nodes) == set(full.nodes) - removed


@pytest.mark.parametrize(
    "levels, arity",
    [
        (21, 2),
        (40, 2),
        (10**18, 2),
        (3, 1 << 20),
        (10**6, 10**9),
        (MAX_TREE_NODES + 1, 1),
    ],
)
def test_build_tree_refuses_a_tree_above_the_ceiling(levels: int, arity: int) -> None:
    # the count stops past the ceiling, so even 10**18 levels answer at once
    with pytest.raises(ValueError, match=f"more than {MAX_TREE_NODES} nodes"):
        build_tree(levels=levels, arity=arity, leaf_capacity=1)


def test_build_tree_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        build_tree(levels=0, arity=2, leaf_capacity=1)
    with pytest.raises(ValueError):
        build_tree(levels=2, arity=0, leaf_capacity=1)
    with pytest.raises(ValueError):
        build_tree(levels=2, arity=2, leaf_capacity=1, prune=(99,))
    with pytest.raises(ValueError):
        build_tree(levels=2, arity=2, leaf_capacity=1, prune=(0,))
    with pytest.raises(ValueError):
        build_tree(levels=2, arity=2, leaf_capacity=1, capacity_overrides={9: 4})


def test_build_tree_prune_cannot_orphan_an_inner_node() -> None:
    # removing both children of node 1 leaves it childless at level 1,
    # which the validator refuses: every leaf must sit at level 0
    with pytest.raises(ValueError):
        build_tree(levels=3, arity=2, leaf_capacity=2, prune=(3, 4))


def test_topology_validation_errors() -> None:
    with pytest.raises(ValueError):  # two roots
        Topology(
            parents={0: None, 1: None},
            levels={0: 0, 1: 0},
            capacities={0: 1, 1: 1},
        )
    with pytest.raises(ValueError):  # unknown parent
        Topology(parents={0: None, 1: 7}, levels={0: 1, 1: 0}, capacities={0: 1, 1: 1})
    with pytest.raises(ValueError):  # child level must be parent level - 1
        Topology(
            parents={0: None, 1: 0},
            levels={0: 3, 1: 0},
            capacities={0: 1, 1: 1},
        )
    with pytest.raises(ValueError):  # negative capacity
        Topology(
            parents={0: None, 1: 0},
            levels={0: 1, 1: 0},
            capacities={0: 1, 1: -2},
        )
    with pytest.raises(ValueError):  # a leaf stranded above level 0
        Topology(parents={0: None}, levels={0: 2}, capacities={0: 1})


def test_with_capacities_shares_the_shape_and_checks_the_capacities() -> None:
    tree = build_tree(levels=3, arity=2, leaf_capacity=5)
    tree.path_to_root(6)  # fill a cache entry the rescaled tree should share
    scaled = tree.with_capacities(
        {n: tree_capacity(tree.level(n), 7) for n in tree.nodes}
    )
    rebuilt = build_tree(levels=3, arity=2, leaf_capacity=7)
    assert [scaled.capacity(n) for n in scaled.nodes] == [
        rebuilt.capacity(n) for n in rebuilt.nodes
    ]
    assert [tree.capacity(n) for n in tree.nodes] == [15, 10, 10, 5, 5, 5, 5]
    assert scaled._path_cache is tree._path_cache
    assert scaled.path_to_root(6) is tree.path_to_root(6)
    with pytest.raises(ValueError):  # negative capacity
        tree.with_capacities({n: -1 if n == 4 else 1 for n in tree.nodes})


def test_path_to_root() -> None:
    topo = build_tree(levels=3, arity=2, leaf_capacity=1)
    assert topo.path_to_root(5) == (5, 2, 0)
    assert topo.path_to_root(0) == (0,)
    assert topo.parent(0) is None
    assert topo.is_leaf(3) and not topo.is_leaf(1)


# ---------------------------------------------------------------------------
# feasible sets


def test_feasible_set_depth_tracks_delay_bound() -> None:
    topo, _classes, _costs, rtt = default_profile(leaf_capacity=10)
    leaf = topo.leaves[0]
    tight = feasible_set_for(topo, leaf, RT_CLASS, rtt)
    relaxed = feasible_set_for(topo, leaf, NONRT_CLASS, rtt)
    # the tight class stops where the round trip first exceeds 10 ms
    assert len(tight) == 3
    assert [topo.level(n) for n in tight] == [0, 1, 2]
    # the relaxed class reaches the root of the six-level tree
    assert len(relaxed) == 6
    assert relaxed == topo.path_to_root(leaf)
    assert tight == relaxed[:3]


@pytest.mark.parametrize(
    "max_delay, cpu_demand, message",
    [
        (-0.1, {0: 1}, "class 7 max_delay must be finite and >= 0"),
        (math.nan, {0: 1}, "class 7 max_delay must be finite and >= 0"),
        (math.inf, {0: 1}, "class 7 max_delay must be finite and >= 0"),
        (1.0, {0: 1, 1: -3}, "class 7 cpu_demand at level 1 must be >= 0"),
    ],
    ids=["negative-delay", "nan-delay", "inf-delay", "negative-demand"],
)
def test_service_class_refuses_a_negative_demand_or_a_bad_delay(
    max_delay: float, cpu_demand: dict[int, int], message: str
) -> None:
    with pytest.raises(ValueError, match=message):
        ServiceClass(class_id=7, name="bad", max_delay=max_delay, cpu_demand=cpu_demand)
    ServiceClass(class_id=7, name="edge", max_delay=0.0, cpu_demand={0: 0})


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"per_bit_cost": -1.0}, "per_bit_cost must be finite and >= 0"),
        ({"per_bit_cost": math.inf}, "per_bit_cost must be finite and >= 0"),
        ({"migration_cost": {3: math.nan}}, "class 3 migration_cost must be finite"),
        ({"migration_cost": {3: -2.0}}, "class 3 migration_cost must be finite"),
        (
            {"placement_cost": {3: {0: 1.0, 1: math.nan}}},
            "class 3 placement_cost at level 1 must be finite and >= 0",
        ),
        (
            {"placement_cost": {3: {0: -5.0, 1: 1.0}}},
            "class 3 placement_cost at level 0 must be finite and >= 0",
        ),
    ],
    ids=["negative-bit", "inf-bit", "nan-move", "negative-move", "nan-place",
         "negative-place"],
)
def test_cost_model_refuses_a_negative_or_non_finite_price(
    edit: dict, message: str
) -> None:
    prices = {
        "migration_cost": {3: 1.0},
        "placement_cost": {3: {0: 2.0, 1: 1.0}},
        "per_bit_cost": 0.0,
    }
    with pytest.raises(ValueError, match=message):
        CostModel(**{**prices, **edit})
    CostModel(migration_cost={3: 0.0}, placement_cost={3: {0: 0.0}})


def test_feasible_set_zero_delay_is_empty() -> None:
    topo, _classes, _costs, rtt = default_profile(leaf_capacity=10)
    never = ServiceClass(class_id=9, name="never", max_delay=0.0, cpu_demand={0: 1})
    assert feasible_set_for(topo, topo.leaves[0], never, rtt) == ()


def test_feasible_set_stops_at_first_demand_gap() -> None:
    # demand defined at levels 0 and 2 but not 1: the walk must stop at the
    # gap, never skip over it
    topo = build_tree(levels=3, arity=2, leaf_capacity=4)
    gappy = ServiceClass(
        class_id=5, name="gappy", max_delay=1.0, cpu_demand={0: 1, 2: 1}
    )
    rtt = {0: 0.001, 1: 0.002, 2: 0.003}
    assert feasible_set_for(topo, 3, gappy, rtt) == (3,)


def test_feasible_set_stops_where_rtt_is_undefined() -> None:
    topo = build_tree(levels=3, arity=2, leaf_capacity=4)
    svc = ServiceClass(class_id=0, name="s", max_delay=1.0, cpu_demand={0: 1, 1: 1, 2: 1})
    assert feasible_set_for(topo, 3, svc, {0: 0.001}) == (3,)


def test_feasible_set_requires_a_leaf() -> None:
    topo, _classes, _costs, rtt = default_profile(leaf_capacity=10)
    with pytest.raises(ValueError):
        feasible_set_for(topo, topo.root, RT_CLASS, rtt)


def test_feasible_set_is_contiguous_path_prefix() -> None:
    rng = random.Random(7)
    for _ in range(50):
        levels = rng.randint(1, 5)
        arity = rng.randint(1, 3)
        topo = build_tree(levels=levels, arity=arity, leaf_capacity=5)
        max_delay = rng.choice([0.0, 0.002, 0.005, 0.05, 1.0])
        demand_levels = {
            lvl: 1 for lvl in range(levels) if rng.random() < 0.8
        }
        svc = ServiceClass(
            class_id=0, name="x", max_delay=max_delay, cpu_demand=demand_levels
        )
        rtt = {lvl: PROFILE_RTT.get(lvl, 0.1) for lvl in range(levels)}
        poa = rng.choice(topo.leaves)
        feas = feasible_set_for(topo, poa, svc, rtt)
        assert feas == topo.path_to_root(poa)[: len(feas)]


# ---------------------------------------------------------------------------
# objective cost: the per-service price of an epoch decision


def _one_service(topo: Topology, current_host: int | None = None) -> ActiveService:
    leaf = topo.leaves[0]
    return ActiveService(
        request_id=1,
        class_id=NONRT_CLASS.class_id,
        poa=leaf,
        feasible=feasible_set_for(topo, leaf, NONRT_CLASS, PROFILE_RTT),
        current_host=current_host,
        movable=True,
    )


def _reference_epoch() -> EpochProblem:
    topo, classes, costs, _rtt = default_profile(leaf_capacity=340)
    return EpochProblem(topology=topo, classes=classes, costs=costs, services=())


def test_objective_cost_of_single_root_placement() -> None:
    problem = _reference_epoch()
    svc = _one_service(problem.topology)
    assert problem.price(svc, problem.topology.root) == 47.0


def test_objective_cost_charges_one_migration() -> None:
    problem = _reference_epoch()
    svc = _one_service(problem.topology, current_host=problem.topology.leaves[0])
    mid = svc.feasible[1]  # the level-1 aggregation node
    # hosting at level 1 plus one relocation charge
    assert problem.price(svc, mid) == 278.0 + 600.0


def test_objective_cost_no_charge_when_host_unchanged() -> None:
    problem = _reference_epoch()
    svc = _one_service(problem.topology, current_host=problem.topology.leaves[0])
    assert problem.price(svc, svc.poa) == 544.0


def test_profile_prices_fall_with_height() -> None:
    for class_id, by_level in PROFILE_COSTS.placement_cost.items():
        prices = [by_level[lvl] for lvl in sorted(by_level)]
        assert all(a > b for a, b in zip(prices, prices[1:])), class_id


# ---------------------------------------------------------------------------
# feasibility reports


def test_check_feasible_reports_over_capacity() -> None:
    topo = build_tree(levels=1, arity=1, leaf_capacity=2)
    svc = ServiceClass(class_id=0, name="pair", max_delay=1.0, cpu_demand={0: 2})
    requests = {
        rid: Request(rid, 0, 0, (0,)) for rid in (1, 2)
    }
    report = check_feasible(topo, {0: svc}, requests, {1: 0, 2: 0})
    assert not report.ok
    assert report.violations == ("datacenter 0 over capacity: 4 > 2",)
    assert report.unplaced == ()


def test_check_feasible_reports_missing_placement() -> None:
    topo = build_tree(levels=1, arity=1, leaf_capacity=2)
    svc = ServiceClass(class_id=0, name="one", max_delay=1.0, cpu_demand={0: 1})
    requests = {1: Request(1, 0, 0, (0,))}
    report = check_feasible(topo, {0: svc}, requests, {})
    assert not report.ok
    assert report.unplaced == (1,)
    assert report.violations == ()


def test_check_feasible_reports_out_of_reach() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=2)
    svc = ServiceClass(class_id=0, name="one", max_delay=1.0, cpu_demand={0: 1, 1: 1})
    requests = {1: Request(1, 0, 1, (1,))}
    report = check_feasible(topo, {0: svc}, requests, {1: 2})
    assert not report.ok
    assert "outside its reach" in report.violations[0]


def test_check_feasible_reports_level_without_demand() -> None:
    topo = build_tree(levels=2, arity=2, leaf_capacity=10)
    svc = ServiceClass(class_id=0, name="leafy", max_delay=1.0, cpu_demand={0: 1})
    requests = {1: Request(request_id=1, class_id=0, poa=1, feasible=(1, 0))}
    report = check_feasible(topo, {0: svc}, requests, {1: 0})
    assert not report.ok
    assert report.violations == (
        "request 1 placed at 0, level cannot host its class",
    )
    assert report.unplaced == ()


def test_check_feasible_accepts_exact_fit() -> None:
    topo = build_tree(levels=1, arity=1, leaf_capacity=4)
    svc = ServiceClass(class_id=0, name="pair", max_delay=1.0, cpu_demand={0: 2})
    requests = {rid: Request(rid, 0, 0, (0,)) for rid in (1, 2)}
    report = check_feasible(topo, {0: svc}, requests, {1: 0, 2: 0})
    assert report.ok
    assert report.violations == () and report.unplaced == ()


def test_check_feasible_matches_brute_force() -> None:
    rng = random.Random(23)
    for _ in range(120):
        levels = rng.randint(1, 3)
        arity = rng.randint(1, 2)
        topo = build_tree(levels=levels, arity=arity, leaf_capacity=rng.randint(1, 3))
        demand = {0: {lvl: rng.randint(1, 2) for lvl in range(levels)}}
        svc = ServiceClass(
            class_id=0, name="x", max_delay=1.0, cpu_demand=demand[0]
        )
        rtt = {lvl: 0.001 for lvl in range(levels)}
        requests = {}
        placement = {}
        for rid in range(rng.randint(1, 5)):
            poa = rng.choice(topo.leaves)
            feas = feasible_set_for(topo, poa, svc, rtt)
            requests[rid] = Request(rid, 0, poa, feas)
            # sometimes deliberately place outside the feasible set
            placement[rid] = rng.choice(topo.nodes)
        report = check_feasible(topo, {0: svc}, requests, placement)
        expected = brute_feasible(
            topo,
            demand,
            {rid: (0, placement[rid]) for rid in requests},
            {rid: requests[rid].feasible for rid in requests},
        )
        assert report.ok == expected

