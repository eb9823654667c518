"""Ready-made scenarios, the default evaluation profile, and config files.

A scenario bundles everything one run needs: topology, service classes,
prices, per-level round-trip times, protocol timing, the link model, and a
user trace.  Besides the built-in fixtures (two small walkthroughs that the
replay command checks against golden logs, plus synthetic families), any
scenario can be described as a JSON file; see :func:`load_config`.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NoReturn, get_args, get_origin, get_type_hints

from .model import CostModel, ServiceClass, Topology, build_tree
from .protocol import ProtocolTiming
from .simnet import LinkModel, TraceEvent, check_trace_events, load_trace

__all__ = [
    "Scenario",
    "default_profile",
    "fig_flat_scenario",
    "fig_two_tier_scenario",
    "empty_scenario",
    "rand_scenario",
    "jittered_scenario",
    "synth_scenario",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
    "load_config",
    "check_trace",
    "synthesize_trace",
]


@dataclass(frozen=True)
class Scenario:
    """Everything a single run needs, ready to hand to the simulator."""

    name: str
    topology: Topology
    classes: dict[int, ServiceClass]
    costs: CostModel
    rtt_by_level: dict[int, float]
    trace: tuple[TraceEvent, ...]
    timing: ProtocolTiming = ProtocolTiming()
    link: LinkModel = LinkModel()


# ---------------------------------------------------------------------------
# default evaluation profile

#: Round-trip time to a datacenter at each tree level (seconds).
PROFILE_RTT: dict[int, float] = {
    0: 0.001,
    1: 0.004,
    2: 0.008,
    3: 0.020,
    4: 0.040,
    5: 0.080,
}

#: Delay-bound classes: tight interactive traffic reaches levels 0-2 of the
#: reference tree, relaxed traffic reaches every level.
RT_CLASS = ServiceClass(
    class_id=0,
    name="rt",
    max_delay=0.010,
    cpu_demand={0: 170, 1: 170, 2: 190},
)
NONRT_CLASS = ServiceClass(
    class_id=1,
    name="nonrt",
    max_delay=0.100,
    cpu_demand={0: 170, 1: 170, 2: 170, 3: 170, 4: 170, 5: 170},
)

#: Hosting price per interval by class and level, and the flat relocation
#: charge; control traffic is priced per bit and reported separately.
PROFILE_COSTS = CostModel(
    migration_cost={0: 600.0, 1: 600.0},
    placement_cost={
        0: {0: 544.0, 1: 278.0, 2: 164.0},
        1: {0: 544.0, 1: 278.0, 2: 148.0, 3: 86.0, 4: 58.0, 5: 47.0},
    },
    per_bit_cost=3.0,
)


def default_profile(
    leaf_capacity: int,
    levels: int = 6,
    arity: int = 2,
) -> tuple[Topology, dict[int, ServiceClass], CostModel, dict[int, float]]:
    """The reference world: a binary fat tree with the standard two classes."""
    topology = build_tree(levels=levels, arity=arity, leaf_capacity=leaf_capacity)
    classes = {RT_CLASS.class_id: RT_CLASS, NONRT_CLASS.class_id: NONRT_CLASS}
    return topology, classes, PROFILE_COSTS, dict(PROFILE_RTT)


# ---------------------------------------------------------------------------
# walkthrough fixtures


def fig_flat_scenario() -> Scenario:
    """Root over four leaves; two late requests force one push-down.

    The first waves fill the root through push-ups and park one service at
    each of two leaves; the final pair of arrivals then cannot fit anywhere
    on their path and the root must push two of its tenants back down.
    """
    topology = build_tree(
        levels=2, arity=4, leaf_capacity=3, capacity_overrides={0: 5}
    )
    wide = ServiceClass(
        class_id=0, name="wide", max_delay=1.0, cpu_demand={0: 3, 1: 2}
    )
    slim = ServiceClass(
        class_id=1, name="slim", max_delay=1.0, cpu_demand={0: 2, 1: 2}
    )
    costs = CostModel(
        migration_cost={0: 10.0, 1: 10.0},
        placement_cost={0: {0: 3.0, 1: 2.0}, 1: {0: 3.0, 1: 2.0}},
        per_bit_cost=3.0,
    )
    trace = (
        TraceEvent(0.00, 2, "arrive", 2, slim.class_id),
        TraceEvent(0.00, 3, "arrive", 3, slim.class_id),
        TraceEvent(0.01, 1, "arrive", 1, wide.class_id),
        TraceEvent(0.01, 4, "arrive", 4, slim.class_id),
        TraceEvent(0.02, 5, "arrive", 4, slim.class_id),
        TraceEvent(0.02, 6, "arrive", 4, slim.class_id),
    )
    return Scenario(
        name="fig3",
        topology=topology,
        classes={0: wide, 1: slim},
        costs=costs,
        rtt_by_level={0: 0.001, 1: 0.002},
        trace=trace,
    )


def fig_two_tier_scenario() -> Scenario:
    """Three-level binary tree, capacity one everywhere; a push-down must
    relay through a middle node and relocate an earlier placement."""
    topology = build_tree(
        levels=3, arity=2, leaf_capacity=1,
        capacity_overrides={0: 1, 1: 1, 2: 1},
    )
    svc = ServiceClass(
        class_id=0, name="unit", max_delay=1.0, cpu_demand={0: 1, 1: 1, 2: 1}
    )
    costs = CostModel(
        migration_cost={0: 10.0},
        placement_cost={0: {0: 3.0, 1: 2.0, 2: 1.0}},
        per_bit_cost=3.0,
    )
    trace = (
        TraceEvent(0.00, 0, "arrive", 5, 0),
        TraceEvent(0.01, 1, "arrive", 3, 0),
        TraceEvent(0.02, 2, "arrive", 4, 0),
        TraceEvent(0.03, 3, "arrive", 4, 0),
        TraceEvent(0.04, 3, "depart"),
        TraceEvent(0.05, 4, "arrive", 4, 0),
    )
    return Scenario(
        name="fig2",
        topology=topology,
        classes={0: svc},
        costs=costs,
        rtt_by_level={0: 0.001, 1: 0.002, 2: 0.003},
        trace=trace,
    )


def empty_scenario() -> Scenario:
    """No users at all: the run must end immediately with empty reports."""
    return _family(
        "empty", leaf_capacity=340, levels=3, arity=2, seed=1, users=0, p_rt=0.0
    )


# ---------------------------------------------------------------------------
# synthetic traces


def _rt_draw(seed: int, user: int) -> float:
    """Per-user class draw, independent of everything else in the trace.

    Raising the interactive-traffic share can only flip users *into* the
    tight class, never shuffle the rest of the trace, so capacity needs are
    monotone in the share parameter."""
    return random.Random((seed << 20) ^ (user * 2_654_435_761 % (1 << 31))).random()


#: The least time between a synthetic user's arrival and its first hop,
#: and between two hops (seconds).
HOP_GAP = 0.05

#: The most events :func:`synthesize_trace` may be asked for, 2**22: above
#: the 3.28 million bound of 40,000 users hopping over a 4 s horizon.
MAX_TRACE_EVENTS = 1 << 22


def synthesize_trace(
    topology: Topology,
    seed: int,
    users: int,
    p_rt: float,
    burst: bool = True,
    arrival_rate: float = 50.0,
    hold_mean: float | None = None,
    move_period: float | None = None,
    horizon: float = 4.0,
) -> tuple[TraceEvent, ...]:
    """Generate a user trace over the topology's leaves.

    ``burst`` drops every arrival at t=0 (single decision period);
    otherwise arrivals are Poisson at ``arrival_rate`` per second.  Users
    optionally depart after an exponential hold and hop to a fresh uniform
    leaf every ``move_period`` seconds (first hop no earlier than
    :data:`HOP_GAP` after arrival, so placement has settled, and hops at
    least that far apart) until the ``horizon``.

    A ValueError refuses, before anything is drawn: a share outside
    [0, 1]; a negative user count; an ``arrival_rate`` (unless ``burst``),
    ``hold_mean`` or ``move_period`` that is not finite and above 0; a
    ``horizon`` that is not finite; and a trace that may hold more than
    :data:`MAX_TRACE_EVENTS` events, counting an arrival and a departure
    per user, and with ``move_period`` a hop per ``HOP_GAP`` of the
    horizon.
    """
    if not 0.0 <= p_rt <= 1.0:
        raise ValueError(f"the tight-class share p_rt must be in [0, 1], not {p_rt}")
    if users < 0:
        raise ValueError(f"the user count must be >= 0, not {users}")
    means = {"hold_mean": hold_mean, "move_period": move_period}
    if not burst:
        means["arrival_rate"] = arrival_rate
    for name, value in means.items():
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, not {value}")
    if not math.isfinite(horizon):
        raise ValueError(f"the horizon must be finite, not {horizon}")
    hops = 0.0 if move_period is None else max(horizon, 0.0) / HOP_GAP
    if users > MAX_TRACE_EVENTS / (2 + hops):  # no float of an int too large
        raise ValueError(
            f"{users} users over a horizon of {horizon} s may draw more than "
            f"{MAX_TRACE_EVENTS} trace events"
        )
    rng = random.Random(seed)
    leaves = list(topology.leaves)
    events: list[TraceEvent] = []
    clock = 0.0
    for user in range(users):
        if burst:
            t_arrive = 0.0
        else:
            clock += rng.expovariate(arrival_rate)
            t_arrive = clock
        poa = rng.choice(leaves)
        class_id = (
            RT_CLASS.class_id
            if _rt_draw(seed, user) < p_rt
            else NONRT_CLASS.class_id
        )
        events.append(TraceEvent(t_arrive, user, "arrive", poa, class_id))
        t_depart = (
            t_arrive + rng.expovariate(1.0 / hold_mean)
            if hold_mean is not None
            else None
        )
        if move_period is not None:
            mover = random.Random((seed << 8) ^ (user + 1))
            hop_rate = 1.0 / move_period
            t = max(t_arrive + HOP_GAP, t_arrive + mover.expovariate(hop_rate))
            while t < horizon and (t_depart is None or t < t_depart):
                poa = mover.choice(leaves)
                events.append(TraceEvent(t, user, "move", poa))
                t += HOP_GAP + mover.expovariate(hop_rate)
        if t_depart is not None and t_depart < horizon:
            events.append(TraceEvent(t_depart, user, "depart"))
    events.sort(key=lambda ev: (ev.time, ev.user, ev.kind != "arrive"))
    return tuple(events)


def _family(
    name: str,
    leaf_capacity: int,
    levels: int,
    arity: int,
    timing: ProtocolTiming = ProtocolTiming(),
    **trace_args: Any,
) -> Scenario:
    """A scenario on the reference world (:func:`default_profile`) whose
    trace :func:`synthesize_trace` draws from ``trace_args``."""
    topology, classes, costs, rtt = default_profile(
        leaf_capacity=leaf_capacity, levels=levels, arity=arity
    )
    return Scenario(
        name=name,
        topology=topology,
        classes=classes,
        costs=costs,
        rtt_by_level=rtt,
        trace=synthesize_trace(topology, **trace_args),
        timing=timing,
    )


def rand_scenario(
    seed: int,
    users: int = 24,
    p_rt: float = 0.5,
    leaf_capacity: int = 600,
    levels: int = 4,
    arity: int = 2,
) -> Scenario:
    """Uniform single-burst scenario: all arrivals in one decision period,
    no mobility — the family used for cost comparisons across algorithms."""
    return _family(
        f"rand-{seed}", leaf_capacity, levels, arity, seed=seed, users=users, p_rt=p_rt
    )


def jittered_scenario(
    seed: int,
    users: int = 24,
    p_rt: float = 0.5,
    leaf_capacity: int = 600,
    levels: int = 6,
    arity: int = 2,
    timing: ProtocolTiming = ProtocolTiming(),
) -> Scenario:
    """Arrivals packed a few hundred microseconds apart, no churn.

    This is the family for signaling sweeps: gaps are of the same order as
    the accumulation windows, so widening a window genuinely merges more
    requests per run."""
    return _family(
        f"jitter-{seed}",
        leaf_capacity,
        levels,
        arity,
        timing,
        seed=seed,
        users=users,
        p_rt=p_rt,
        burst=False,
        arrival_rate=8000.0,
    )


def synth_scenario(
    seed: int,
    users: int = 30,
    p_rt: float = 0.4,
    leaf_capacity: int = 600,
    levels: int = 4,
    arity: int = 2,
) -> Scenario:
    """Streaming scenario with churn: Poisson arrivals at 40 per second,
    each user holding for 2 s on average and hopping to a new leaf about
    every 0.8 s, over a 3 s horizon."""
    return _family(
        f"synth-{seed}",
        leaf_capacity,
        levels,
        arity,
        seed=seed,
        users=users,
        p_rt=p_rt,
        burst=False,
        arrival_rate=40.0,
        hold_mean=2.0,
        move_period=0.8,
        horizon=3.0,
    )


#: The fixed walkthroughs, which take no overrides, and the seeded
#: families, which take their own keyword arguments as overrides.
_FIXTURES = {
    "fig2": fig_two_tier_scenario,
    "fig3": fig_flat_scenario,
    "empty": empty_scenario,
}
_FAMILIES = {
    "rand": rand_scenario,
    "synth": synth_scenario,
    "jitter": jittered_scenario,
}
BUILTIN_SCENARIOS = (*_FIXTURES, *_FAMILIES)


def builtin_scenario(name: str, seed: int = 1, **overrides: Any) -> Scenario:
    """Construct a named built-in scenario (see :data:`BUILTIN_SCENARIOS`).

    ``overrides`` go to a family's builder; a fixture refuses any with a
    ValueError."""
    if name in _FAMILIES:
        return _FAMILIES[name](seed=seed, **overrides)
    if name not in _FIXTURES:
        raise ValueError(
            f"unknown scenario {name!r}; pick one of {BUILTIN_SCENARIOS}"
        )
    if overrides:
        raise ValueError(
            f"{', '.join(overrides)} only apply to the {', '.join(_FAMILIES)} "
            f"scenarios, not {name}"
        )
    return _FIXTURES[name]()


# ---------------------------------------------------------------------------
# config files


#: The JSON type a config value must have, by the type it is read as.
_JSON_TYPES = {
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
    dict: "an object",
    list: "an array",
}


def _read(value: Any, kind: Any, key: str, path: Path) -> Any:
    """``value``, the config's ``key``, read as ``kind``, or a ValueError
    naming the file and the key.

    A ``{key: kind}`` table is an object holding only the table's keys,
    each read as its kind (``key`` is empty for the top level, whose keys
    the message names without a prefix); ``dict[int, X]`` is an object
    keyed by level or node id, with values read as ``X``; ``list[X]`` is an
    array of ``X``.  An int must be a JSON integer and a bool ``true`` or
    ``false``; a float may be any JSON number a float can hold, and a
    ``float | None`` also ``null``."""
    if type(kind) is dict:
        block = key or "top-level"
        if type(value) is not dict:
            raise ValueError(f"config {path}: the {block!r} block must be an object")
        unknown = sorted(set(value).difference(kind))
        if unknown:
            raise ValueError(
                f"config {path}: unknown key(s) {', '.join(unknown)} in the {block!r} "
                f"block (allowed: {', '.join(kind)})"
            )
        prefix = f"{key}." if key else ""
        return {k: _read(v, kind[k], prefix + k, path) for k, v in value.items()}
    if kind == float | None:
        if value is None:
            return None
        kind = float
    origin, args = get_origin(kind), get_args(kind)
    if origin is list:
        items = _read(value, list, key, path)
        return [_read(v, args[0], f"{key}[{i}]", path) for i, v in enumerate(items)]
    if origin is dict:
        keyed = {}
        for name, v in _read(value, dict, key, path).items():
            try:
                number = int(name)
            except ValueError:
                raise ValueError(
                    f"config {path}: {key} has key {name!r}, not an integer"
                ) from None
            keyed[number] = _read(v, args[1], f"{key}.{name}", path)
        return keyed
    if kind is float and type(value) is int:
        if abs(value) > sys.float_info.max:
            raise ValueError(f"config {path}: {key} is too large for a float")
        return float(value)
    if type(value) is not kind:
        raise ValueError(
            f"config {path}: {key} must be {_JSON_TYPES[kind]}, not {json.dumps(value)}"
        )
    return value


#: The keys a config's ``tree``, each entry of its ``classes`` and its
#: ``synth`` block may hold, and the type of each; the ``synth`` keys are
#: the arguments of :func:`synthesize_trace` after the topology.
_TREE_TYPES = {
    "levels": int, "arity": int, "leaf_capacity": int,
    "capacity_overrides": dict[int, int], "prune": list[int],
}
_CLASS_TYPES = {
    "class_id": int, "name": str, "max_delay": float, "cpu_demand": dict[int, int],
    "migration_cost": float, "placement_cost": dict[int, float],
}
_SYNTH_TYPES = {
    name: kind
    for name, kind in get_type_hints(synthesize_trace).items()
    if name not in ("topology", "return")
}
#: The keys a config may hold at the top level, and the type of each.
_TOP_TYPES = {
    "name": str, "tree": _TREE_TYPES, "classes": list[_CLASS_TYPES],
    "rtt_by_level": dict[int, float], "per_bit_cost": float,
    "timing": get_type_hints(ProtocolTiming), "link": get_type_hints(LinkModel),
    "trace": str, "synth": _SYNTH_TYPES,
}


def check_trace(scenario: Scenario, source: str) -> None:
    """Raise ValueError when ``scenario``'s trace breaks a rule of
    :func:`~.simnet.check_trace_events`, such as a time that is not
    finite, a class the scenario does not define, a PoA that is not a leaf
    of its tree or a second arrival of a user; ``source`` names the input
    in the message."""
    leaves = frozenset(scenario.topology.leaves)
    try:
        check_trace_events(scenario.trace, scenario.classes, leaves)
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from None


def _refuse_constant(name: str) -> NoReturn:
    """Refuse a ``NaN``, ``Infinity`` or ``-Infinity`` in a config: Python
    reads them as floats, but they are not JSON numbers."""
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str | Path, seed: int = 1) -> Scenario:
    """Build a scenario from a JSON config file.

    The file describes the tree (levels, arity, leaf capacity, optional
    per-node capacity overrides and pruned subtrees), the service classes
    with their prices, per-level round-trip times, optional timing and link
    overrides, and either a trace CSV path or a synthetic-trace block.

    The file must be UTF-8 JSON, with or without a byte-order mark, whose
    numbers are JSON numbers: ``NaN``, ``Infinity`` and ``-Infinity`` are
    refused.  Text that is not UTF-8, not JSON or nested too deep to read,
    a missing key, a key the loader does not know (in any object), a value
    of the wrong JSON type and a round-trip time that is not finite and at
    least 0 are each a ValueError naming the file, and the key or block
    when there is one.  A value that the tree, a class, the timing, the
    link or :func:`synthesize_trace` refuses is a ValueError with their
    message.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh, parse_constant=_refuse_constant)
    # a ValueError is also a JSON syntax or a UTF-8 decoding error
    except (ValueError, RecursionError) as err:
        raise ValueError(f"config {path}: {err}") from None
    try:
        scenario = _config_scenario(cfg, path, seed)
    except KeyError as missing:
        raise ValueError(f"config {path} lacks required key {missing}") from None
    check_trace(scenario, f"config {path}")
    return scenario


def _config_scenario(cfg: Any, path: Path, seed: int) -> Scenario:
    """The scenario a parsed config describes; see :func:`load_config`.
    Every value is read by its key's type before it is used, so a required
    key is indexed only after the read, and its absence is a KeyError."""
    cfg = _read(cfg, _TOP_TYPES, "", path)
    tree = cfg["tree"]
    topology = build_tree(
        tree["levels"], tree["arity"], tree["leaf_capacity"],
        tree.get("capacity_overrides"), tuple(tree.get("prune", ())),
    )
    classes = {}
    migration_cost = {}
    placement_cost = {}
    for entry in cfg["classes"]:
        cid = entry["class_id"]
        name = entry.get("name", f"class{cid}")
        classes[cid] = ServiceClass(cid, name, entry["max_delay"], entry["cpu_demand"])
        migration_cost[cid] = entry["migration_cost"]
        placement_cost[cid] = entry["placement_cost"]
    costs = CostModel(
        migration_cost=migration_cost,
        placement_cost=placement_cost,
        per_bit_cost=cfg.get("per_bit_cost", 0.0),
    )
    rtt = cfg["rtt_by_level"]
    for level, seconds in rtt.items():
        if not 0 <= seconds < math.inf:
            raise ValueError(
                f"config {path}: rtt_by_level.{level} must be finite and >= 0, "
                f"not {seconds}"
            )
    tree_levels = {topology.level(n) for n in topology.nodes}
    for cid, klass in classes.items():
        for level in sorted(tree_levels.intersection(klass.cpu_demand)):
            if level not in costs.placement_cost[cid]:
                raise ValueError(
                    f"config {path}: class {cid} can be hosted at level {level}, "
                    "but its placement_cost has no price for that level"
                )
    if "trace" in cfg:
        trace = tuple(load_trace(path.parent / cfg["trace"]))
    elif "synth" in cfg:
        synth = cfg["synth"]
        trace = synthesize_trace(
            topology,
            seed=synth.pop("seed", seed),
            users=synth.pop("users", 20),
            p_rt=synth.pop("p_rt", 0.5),
            **synth,
        )
    else:
        trace = ()
    return Scenario(
        name=cfg.get("name", path.stem),
        topology=topology,
        classes=classes,
        costs=costs,
        rtt_by_level=rtt,
        trace=trace,
        timing=ProtocolTiming(**cfg.get("timing", {})),
        link=LinkModel(**cfg.get("link", {})),
    )
