"""Tests for the bundled scenarios, trace synthesis, and config loading."""

from __future__ import annotations

import json
import math
import re
import time
from pathlib import Path
from typing import Callable

import pytest

from edgeplace.protocol import ProtocolTiming
from edgeplace.scenarios import (
    BUILTIN_SCENARIOS,
    HOP_GAP,
    MAX_TRACE_EVENTS,
    NONRT_CLASS,
    PROFILE_COSTS,
    PROFILE_RTT,
    RT_CLASS,
    builtin_scenario,
    default_profile,
    empty_scenario,
    fig_flat_scenario,
    fig_two_tier_scenario,
    load_config,
    synthesize_trace,
)
from edgeplace.simnet import LinkModel


# ---------------------------------------------------------------------------
# the default evaluation profile


def test_profile_round_trip_times() -> None:
    assert PROFILE_RTT == {
        0: 0.001,
        1: 0.004,
        2: 0.008,
        3: 0.020,
        4: 0.040,
        5: 0.080,
    }


def test_profile_classes() -> None:
    assert RT_CLASS.class_id == 0
    assert RT_CLASS.max_delay == 0.010
    assert RT_CLASS.cpu_demand == {0: 170, 1: 170, 2: 190}
    assert NONRT_CLASS.class_id == 1
    assert NONRT_CLASS.max_delay == 0.100
    assert NONRT_CLASS.cpu_demand == {lvl: 170 for lvl in range(6)}


def test_profile_costs() -> None:
    assert PROFILE_COSTS.migration_cost == {0: 600.0, 1: 600.0}
    assert PROFILE_COSTS.placement_cost[0] == {0: 544.0, 1: 278.0, 2: 164.0}
    assert PROFILE_COSTS.placement_cost[1] == {
        0: 544.0,
        1: 278.0,
        2: 148.0,
        3: 86.0,
        4: 58.0,
        5: 47.0,
    }
    assert PROFILE_COSTS.per_bit_cost == 3.0


def test_default_profile_wiring() -> None:
    topology, classes, costs, rtt = default_profile(leaf_capacity=10)
    assert len(topology.nodes) == 63
    assert sorted(classes) == [0, 1]
    assert classes[0] is RT_CLASS and classes[1] is NONRT_CLASS
    assert costs is PROFILE_COSTS
    assert rtt == PROFILE_RTT
    rtt[0] = 99.0  # the returned map is a private copy
    assert PROFILE_RTT[0] == 0.001


# ---------------------------------------------------------------------------
# walkthrough fixtures


def test_flat_walkthrough_fixture() -> None:
    scenario = fig_flat_scenario()
    assert scenario.name == "fig3"
    topo = scenario.topology
    assert len(topo.nodes) == 5
    assert topo.capacity(0) == 5
    assert all(topo.capacity(leaf) == 3 for leaf in topo.leaves)
    assert scenario.classes[0].cpu_demand == {0: 3, 1: 2}
    assert scenario.classes[1].cpu_demand == {0: 2, 1: 2}
    assert scenario.costs.move_price(0) == 10.0
    assert [ev.kind for ev in scenario.trace] == ["arrive"] * 6
    assert [ev.time for ev in scenario.trace] == [0.0, 0.0, 0.01, 0.01, 0.02, 0.02]
    assert [ev.user for ev in scenario.trace] == [2, 3, 1, 4, 5, 6]
    assert scenario.timing == ProtocolTiming()


def test_two_tier_walkthrough_fixture() -> None:
    scenario = fig_two_tier_scenario()
    assert scenario.name == "fig2"
    topo = scenario.topology
    assert len(topo.nodes) == 7
    assert all(topo.capacity(n) == 1 for n in topo.nodes)
    kinds = [ev.kind for ev in scenario.trace]
    assert kinds == ["arrive", "arrive", "arrive", "arrive", "depart", "arrive"]
    departure = scenario.trace[4]
    assert (departure.user, departure.time) == (3, 0.04)
    assert scenario.rtt_by_level == {0: 0.001, 1: 0.002, 2: 0.003}


def test_empty_fixture_has_no_trace() -> None:
    assert empty_scenario().trace == ()


# ---------------------------------------------------------------------------
# trace synthesis


def test_burst_trace_drops_everyone_at_time_zero() -> None:
    topology, _, _, _ = default_profile(leaf_capacity=10, levels=3)
    trace = synthesize_trace(topology, seed=3, users=8, p_rt=0.5)
    assert len(trace) == 8
    assert all(ev.time == 0.0 and ev.kind == "arrive" for ev in trace)
    assert [ev.user for ev in trace] == list(range(8))
    leaves = set(topology.leaves)
    assert all(ev.poa in leaves for ev in trace)


def test_class_share_extremes() -> None:
    topology, _, _, _ = default_profile(leaf_capacity=10, levels=3)
    all_tight = synthesize_trace(topology, seed=5, users=12, p_rt=1.0)
    all_relaxed = synthesize_trace(topology, seed=5, users=12, p_rt=0.0)
    assert {ev.class_id for ev in all_tight} == {RT_CLASS.class_id}
    assert {ev.class_id for ev in all_relaxed} == {NONRT_CLASS.class_id}


def test_class_share_is_a_monotone_coupling() -> None:
    # raising the share only flips users into the tight class; times and
    # attachment points are untouched, so workloads are directly comparable
    topology, _, _, _ = default_profile(leaf_capacity=10, levels=3)
    for seed in (1, 2, 3, 4):
        low = synthesize_trace(topology, seed=seed, users=20, p_rt=0.3)
        high = synthesize_trace(topology, seed=seed, users=20, p_rt=0.7)
        assert [(ev.time, ev.user, ev.poa) for ev in low] == [
            (ev.time, ev.user, ev.poa) for ev in high
        ]
        tight_low = {ev.user for ev in low if ev.class_id == RT_CLASS.class_id}
        tight_high = {ev.user for ev in high if ev.class_id == RT_CLASS.class_id}
        assert tight_low <= tight_high


def test_synthesis_is_deterministic() -> None:
    topology, _, _, _ = default_profile(leaf_capacity=10, levels=3)
    kwargs = dict(seed=7, users=15, p_rt=0.4, burst=False, hold_mean=1.0,
                  move_period=0.5, horizon=2.0)
    assert synthesize_trace(topology, **kwargs) == synthesize_trace(
        topology, **kwargs
    )


#: synthesis arguments out of range, and from the first zero rate on those
#: that crashed (a ZeroDivisionError) or ran without end as memory grew,
#: with the message each gets
BAD_SYNTH = [
    (dict(p_rt=1.5), "the tight-class share p_rt must be in [0, 1], not 1.5"),
    (dict(p_rt=-0.1), "the tight-class share p_rt must be in [0, 1], not -0.1"),
    (dict(p_rt=math.nan), "the tight-class share p_rt must be in [0, 1], not nan"),
    (dict(users=-3), "the user count must be >= 0, not -3"),
    (dict(burst=False, arrival_rate=0.0), "arrival_rate must be finite and > 0"),
    (dict(burst=False, arrival_rate=-2.0), "arrival_rate must be finite and > 0"),
    (dict(burst=False, arrival_rate=math.nan), "arrival_rate must be finite"),
    (dict(burst=False, arrival_rate=math.inf), "arrival_rate must be finite"),
    (dict(hold_mean=0.0), "hold_mean must be finite and > 0"),
    (dict(hold_mean=-1.0), "hold_mean must be finite and > 0"),
    (dict(hold_mean=math.inf), "hold_mean must be finite and > 0"),
    (dict(move_period=0.0), "move_period must be finite and > 0"),
    (dict(move_period=-1.0), "move_period must be finite and > 0"),
    (dict(move_period=math.nan), "move_period must be finite and > 0"),
    (dict(horizon=math.inf), "the horizon must be finite, not inf"),
    (dict(horizon=math.nan), "the horizon must be finite, not nan"),
    (dict(move_period=0.001, horizon=1e308), "may draw more than 4194304 trace"),
    (dict(users=10**6, move_period=0.5), "1000000 users over a horizon of 4.0 s"),
    (dict(users=10**18), "may draw more than 4194304 trace events"),
]


@pytest.mark.parametrize(
    "bad, message",
    BAD_SYNTH,
    ids=["share-above-one", "negative-share", "nan-share", "negative-users"]
    + [",".join(f"{k}={v}" for k, v in bad.items()) for bad, _ in BAD_SYNTH[4:]],
)
def test_synthesis_rejects_out_of_range_inputs(bad: dict, message: str) -> None:
    topology, _, _, _ = default_profile(leaf_capacity=10, levels=3)
    started = time.process_time()
    with pytest.raises(ValueError, match=re.escape(message)):
        synthesize_trace(topology, **{"seed": 1, "users": 4, "p_rt": 0.5, **bad})
    assert time.process_time() - started < 0.5


def test_synthesis_ceiling_admits_40000_churning_users() -> None:
    # arrival, departure and a hop per HOP_GAP of the 4 s horizon each
    assert 40_000 * (2 + 4.0 / HOP_GAP) <= MAX_TRACE_EVENTS
    # a burst without moves counts two events a user
    topology, _, _, _ = default_profile(leaf_capacity=10, levels=3)
    users = MAX_TRACE_EVENTS // 82 + 1
    with pytest.raises(ValueError, match="may draw more than"):
        synthesize_trace(topology, seed=1, users=users, p_rt=0.5, move_period=0.5)
    assert len(synthesize_trace(topology, seed=1, users=users, p_rt=0.5)) == users


def test_poisson_arrivals_accumulate() -> None:
    topology, _, _, _ = default_profile(leaf_capacity=10, levels=3)
    trace = synthesize_trace(
        topology, seed=11, users=10, p_rt=0.5, burst=False, arrival_rate=100.0
    )
    arrivals = [ev for ev in trace if ev.kind == "arrive"]
    times = [ev.time for ev in arrivals]
    assert len(arrivals) == 10
    assert all(t > 0 for t in times)
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_churn_trace_shape() -> None:
    topology, _, _, _ = default_profile(leaf_capacity=10, levels=3)
    trace = synthesize_trace(
        topology,
        seed=2,
        users=25,
        p_rt=0.5,
        burst=False,
        arrival_rate=40.0,
        hold_mean=2.0,
        move_period=0.3,
        horizon=3.0,
    )
    arrivals = {ev.user: ev.time for ev in trace if ev.kind == "arrive"}
    departures = {ev.user: ev.time for ev in trace if ev.kind == "depart"}
    moves = [ev for ev in trace if ev.kind == "move"]
    assert moves, "expected at least one hop with a 0.3 s period over 3 s"
    leaves = set(topology.leaves)
    for ev in moves:
        assert ev.poa in leaves
        assert ev.time >= arrivals[ev.user] + 0.05  # placement settles first
        assert ev.time < 3.0
        if ev.user in departures:
            assert ev.time < departures[ev.user]
    for user, gone in departures.items():
        assert gone < 3.0 and gone > arrivals[user]
    # the trace is time-ordered, arrivals before same-instant churn
    keys = [(ev.time, ev.user, ev.kind != "arrive") for ev in trace]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# built-in registry


def test_builtin_scenario_names() -> None:
    assert BUILTIN_SCENARIOS == ("fig2", "fig3", "empty", "rand", "synth", "jitter")
    for name in ("fig2", "fig3", "empty"):
        assert builtin_scenario(name).name == name


@pytest.mark.parametrize("name", ["fig2", "fig3", "empty"])
def test_builtin_fixtures_refuse_family_overrides(name: str) -> None:
    message = f"users only apply to the rand, synth, jitter scenarios, not {name}"
    with pytest.raises(ValueError, match=message):
        builtin_scenario(name, users=9)


def test_builtin_rand_family_accepts_overrides() -> None:
    scenario = builtin_scenario("rand", seed=2, users=4, levels=3)
    assert scenario.name == "rand-2"
    assert len(scenario.trace) == 4
    assert all(ev.time == 0.0 for ev in scenario.trace)
    assert len(scenario.topology.nodes) == 7


def test_builtin_jitter_spreads_arrivals() -> None:
    scenario = builtin_scenario("jitter", seed=1, users=6)
    times = [ev.time for ev in scenario.trace]
    assert len(times) == 6
    assert all(t > 0 for t in times)
    assert max(times) < 0.01  # 8000/s keeps the whole burst inside 10 ms


def test_builtin_synth_includes_churn() -> None:
    scenario = builtin_scenario("synth", seed=1, users=12)
    kinds = {ev.kind for ev in scenario.trace}
    assert "arrive" in kinds and "move" in kinds


def test_builtin_unknown_name_rejected() -> None:
    with pytest.raises(ValueError):
        builtin_scenario("mystery")


# ---------------------------------------------------------------------------
# config files


def _base_config() -> dict:
    return {
        "tree": {
            "levels": 2,
            "arity": 2,
            "leaf_capacity": 4,
            "capacity_overrides": {"0": 9},
        },
        "classes": [
            {
                "class_id": 0,
                "name": "interactive",
                "max_delay": 0.05,
                "cpu_demand": {"0": 1, "1": 1},
                "migration_cost": 5,
                "placement_cost": {"0": 2, "1": 1},
            }
        ],
        "per_bit_cost": 2.5,
        "rtt_by_level": {"0": 0.001, "1": 0.002},
    }


def test_load_config_full(tmp_path: Path) -> None:
    cfg = _base_config()
    cfg["timing"] = {"scan_window": 0.0002}
    cfg["link"] = {"capacity_bps": 5e6}
    cfg["synth"] = {"users": 3, "p_rt": 1.0}
    path = tmp_path / "world.json"
    path.write_text(json.dumps(cfg))
    scenario = load_config(path)
    assert scenario.name == "world"
    assert scenario.topology.capacity(0) == 9
    assert scenario.topology.capacity(1) == 4
    assert scenario.classes[0].max_delay == 0.05
    assert scenario.costs.move_price(0) == 5.0
    assert scenario.costs.place_price(0, 1) == 1.0
    assert scenario.costs.per_bit_cost == 2.5
    assert scenario.rtt_by_level == {0: 0.001, 1: 0.002}
    assert scenario.timing.scan_window == 0.0002
    assert scenario.timing.push_down_window == 0.0004  # untouched default
    assert scenario.link.capacity_bps == 5e6
    assert scenario.link.propagation == 22e-6
    assert len(scenario.trace) == 3
    assert all(ev.class_id == 0 for ev in scenario.trace)


def test_load_config_reads_trace_csv_next_to_it(tmp_path: Path) -> None:
    (tmp_path / "users.csv").write_text(
        "time,user,poa,class\n0.0,1,1,0\n0.5,1,2,\n1.0,1,OUT,\n"
    )
    cfg = _base_config()
    cfg["trace"] = "users.csv"
    path = tmp_path / "world.json"
    path.write_text(json.dumps(cfg))
    scenario = load_config(path)
    assert [(ev.time, ev.user, ev.kind) for ev in scenario.trace] == [
        (0.0, 1, "arrive"),
        (0.5, 1, "move"),
        (1.0, 1, "depart"),
    ]


def test_load_config_reads_a_byte_order_mark(tmp_path: Path) -> None:
    cfg = _base_config()
    cfg["synth"] = {"users": 3, "p_rt": 1.0}
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(json.dumps(cfg))
    marked.write_bytes(b"\xef\xbb\xbf" + json.dumps(cfg).encode())
    scenario = load_config(marked)
    assert scenario.trace == load_config(plain).trace and len(scenario.trace) == 3
    assert scenario.topology.capacity(0) == 9


def test_load_config_without_trace_or_synth_is_empty(tmp_path: Path) -> None:
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(_base_config()))
    assert load_config(path).trace == ()


def test_load_config_missing_key_is_a_value_error(tmp_path: Path) -> None:
    cfg = _base_config()
    del cfg["classes"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="lacks required key"):
        load_config(path)


def test_load_config_rejects_trace_with_undefined_class(tmp_path: Path) -> None:
    cfg = _base_config()  # defines class 0 only
    cfg["synth"] = {"users": 4, "p_rt": 0.0}  # every user lands in class 1
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="does not define"):
        load_config(path)


@pytest.mark.parametrize(
    "block, entry, allowed",
    [
        ("synth", {"users": 5, "hold": 2.0}, "seed, users, p_rt, burst"),
        ("timing", {"hold": 0.001}, "scan_window, push_down_window"),
        ("link", {"hold": 1e6}, "propagation, capacity_bps"),
    ],
)
def test_load_config_rejects_unknown_block_keys(
    tmp_path: Path, block: str, entry: dict, allowed: str
) -> None:
    cfg = _base_config()
    cfg[block] = entry
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError) as err:
        load_config(path)
    message = str(err.value)
    assert f"unknown key(s) hold in the '{block}' block" in message
    assert allowed in message


@pytest.mark.parametrize(
    "edit, block, key",
    [
        (lambda c: c.update(capacity=5), "top-level", "capacity"),
        (
            lambda c: c["tree"].update(capacity_overides={"0": 0}),
            "tree",
            "capacity_overides",
        ),
        (lambda c: c["classes"][0].update(max_dealy=1.0), "classes[0]", "max_dealy"),
    ],
    ids=["top-level", "tree", "class"],
)
def test_load_config_rejects_unknown_keys_in_every_object(
    tmp_path: Path, edit: Callable[[dict], None], block: str, key: str
) -> None:
    cfg = _base_config()
    edit(cfg)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value).startswith(
        f"config {path}: unknown key(s) {key} in the '{block}' block (allowed: "
    )


def test_load_config_refuses_a_negative_price(tmp_path: Path) -> None:
    cfg = _base_config()
    cfg["classes"][0]["placement_cost"] = {"0": -5, "1": 1}
    path = tmp_path / "cheap.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="class 0 placement_cost at level 0 must be"):
        load_config(path)


def test_load_config_reads_a_null_hold_mean_as_no_departures(tmp_path: Path) -> None:
    cfg = _base_config()
    path = tmp_path / "stay.json"
    kinds = {}
    for hold_mean in (None, 0.5):
        cfg["synth"] = {"users": 6, "p_rt": 1.0, "hold_mean": hold_mean}
        path.write_text(json.dumps(cfg))
        kinds[hold_mean] = {ev.kind for ev in load_config(path).trace}
    assert kinds == {None: {"arrive"}, 0.5: {"arrive", "depart"}}


#: link and timing values no run can use, with the message each gets
BAD_LINK_AND_TIMING = [
    ("link", "capacity_bps", 0, "link capacity_bps must be finite and > 0"),
    ("link", "capacity_bps", -5, "link capacity_bps must be finite and > 0"),
    ("link", "capacity_bps", float("inf"), "link capacity_bps must be finite"),
    ("link", "propagation", -1, "link propagation must be finite and >= 0"),
    ("link", "propagation", float("nan"), "link propagation must be finite"),
    ("timing", "scan_window", -1e-4, "timing scan_window must be finite and >= 0"),
    ("timing", "push_down_window", -1, "timing push_down_window must be finite"),
    ("timing", "push_down_window", float("nan"), "timing push_down_window must"),
    ("timing", "fallback_period", -10, "timing fallback_period must be finite"),
    ("timing", "fallback_period", float("inf"), "timing fallback_period must"),
]


@pytest.mark.parametrize(
    "block, key, value, message",
    BAD_LINK_AND_TIMING,
    ids=[f"{block}.{key}={value}" for block, key, value, _ in BAD_LINK_AND_TIMING],
)
def test_load_config_rejects_bad_link_and_timing_values(
    tmp_path: Path, block: str, key: str, value: float, message: str
) -> None:
    model = {"link": LinkModel, "timing": ProtocolTiming}[block]
    with pytest.raises(ValueError, match=re.escape(message)):
        model(**{key: value})
    cfg = _base_config()
    cfg[block] = {key: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity are JSON extensions
    if not math.isfinite(value):  # refused as the file is read
        message = f"config {path}: {json.dumps(value)} is not a JSON number"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)


#: config text that is not JSON numbers, or not JSON at all
NOT_JSON = [
    (b'{"max_delay": NaN}', "NaN is not a JSON number"),
    (b'{"price": [1, Infinity]}', "Infinity is not a JSON number"),
    (b'{"rtt": -Infinity}', "-Infinity is not a JSON number"),
    (b"{not json", "Expecting property name enclosed in double quotes"),
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000, "maximum recursion depth exceeded"),
]


@pytest.mark.parametrize(
    "text, message",
    NOT_JSON,
    ids=["nan", "inf", "minus-inf", "syntax", "utf-16", "deep"],
)
def test_load_config_refuses_text_that_is_not_json_numbers_or_json(
    tmp_path: Path, text: bytes, message: str
) -> None:
    path = tmp_path / "odd.json"
    path.write_bytes(text)
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value).startswith(f"config {path}: ")
    assert message in str(err.value)


def test_load_config_refuses_a_number_too_large_for_a_float(tmp_path: Path) -> None:
    cfg = _base_config()
    cfg["per_bit_cost"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="per_bit_cost is too large for a float"):
        load_config(path)


@pytest.mark.parametrize("block", ["synth", "timing", "link"])
def test_load_config_rejects_a_block_that_is_not_an_object(
    tmp_path: Path, block: str
) -> None:
    cfg = _base_config()
    cfg[block] = 5
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=f"the '{block}' block must be an object"):
        load_config(path)


def _full_config() -> dict:
    """A config that sets every key a config may hold but ``trace``."""
    cfg = _base_config()
    cfg["name"] = "full"
    cfg["tree"]["prune"] = [2]
    cfg["timing"] = {
        "scan_window": 2e-4, "push_down_window": 4e-4, "fallback_period": 0.5
    }
    cfg["link"] = {"propagation": 1e-5, "capacity_bps": 5e6}
    cfg["synth"] = {
        "seed": 2, "users": 3, "p_rt": 1.0, "burst": False, "arrival_rate": 40.0,
        "hold_mean": 2.0, "move_period": 0.8, "horizon": 3.0,
    }
    return cfg


#: Every key of a config, by its path, with the JSON types it takes; a
#: class entry's keys are named by the entry's index in ``classes``.
CONFIG_KEYS = {
    ("name",): {"string"},
    ("tree",): {"object"},
    ("tree", "levels"): {"integer"},
    ("tree", "arity"): {"integer"},
    ("tree", "leaf_capacity"): {"integer"},
    ("tree", "capacity_overrides"): {"object"},
    ("tree", "prune"): {"array"},
    ("classes",): {"array"},
    ("classes", 0): {"object"},
    ("classes", 0, "class_id"): {"integer"},
    ("classes", 0, "name"): {"string"},
    ("classes", 0, "max_delay"): {"integer", "number"},
    ("classes", 0, "cpu_demand"): {"object"},
    ("classes", 0, "migration_cost"): {"integer", "number"},
    ("classes", 0, "placement_cost"): {"object"},
    ("rtt_by_level",): {"object"},
    ("per_bit_cost",): {"integer", "number"},
    ("timing",): {"object"},
    ("timing", "scan_window"): {"integer", "number"},
    ("timing", "push_down_window"): {"integer", "number"},
    ("timing", "fallback_period"): {"integer", "number"},
    ("link",): {"object"},
    ("link", "propagation"): {"integer", "number"},
    ("link", "capacity_bps"): {"integer", "number"},
    ("trace",): {"string"},
    ("synth",): {"object"},
    ("synth", "seed"): {"integer"},
    ("synth", "users"): {"integer"},
    ("synth", "p_rt"): {"integer", "number"},
    ("synth", "burst"): {"boolean"},
    ("synth", "arrival_rate"): {"integer", "number"},
    ("synth", "hold_mean"): {"integer", "number", "null"},
    ("synth", "move_period"): {"integer", "number", "null"},
    ("synth", "horizon"): {"integer", "number"},
}

#: a value of each JSON type, with integers apart from other numbers
JSON_VALUES = {
    "null": None, "string": "x", "integer": 1, "number": 1.5, "boolean": True,
    "array": [1], "object": {"a": 1},
}

WRONG_TYPES = [
    (where, kind)
    for where, kinds in CONFIG_KEYS.items()
    for kind in JSON_VALUES
    if kind not in kinds
]


def _dotted(where: tuple) -> str:
    """A key's path as the loader names it: ``classes[0].max_delay``."""
    return ".".join(map(str, where)).replace(".0", "[0]")


@pytest.mark.parametrize(
    "where, kind",
    WRONG_TYPES,
    ids=[f"{_dotted(where)}={kind}" for where, kind in WRONG_TYPES],
)
def test_load_config_names_every_key_of_the_wrong_type(
    tmp_path: Path, where: tuple, kind: str
) -> None:
    cfg = _full_config()
    block = cfg
    for step in where[:-1]:
        block = block[step]
    block[where[-1]] = JSON_VALUES[kind]
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError) as err:
        load_config(path)
    message = str(err.value)
    assert message.startswith(f"config {path}: ")
    assert _dotted(where) in message


def test_load_config_builds_the_pruned_tree(tmp_path: Path) -> None:
    cfg = _base_config()
    cfg["tree"] = {"levels": 3, "arity": 2, "leaf_capacity": 4, "prune": [2]}
    cfg["classes"][0]["cpu_demand"]["2"] = 1
    cfg["classes"][0]["placement_cost"]["2"] = 1
    path = tmp_path / "pruned.json"
    path.write_text(json.dumps(cfg))
    topology = load_config(path).topology
    assert sorted(topology.nodes) == [0, 1, 3, 4]
    assert sorted(topology.leaves) == [3, 4]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c.update(classes={}), "classes must be an array, not {}"),
        (lambda c: c.update(classes=""), 'classes must be an array, not ""'),
        (lambda c: c["tree"].update(prune={}), "tree.prune must be an array, not {}"),
        (lambda c: c["tree"].update(prune=""), 'tree.prune must be an array, not ""'),
        (lambda c: c["classes"].append(5), "the 'classes[1]' block must be an object"),
        (
            lambda c: c.update(rtt_by_level={"0": -0.5, "1": 1e308}),
            "rtt_by_level.0 must be finite and >= 0, not -0.5",
        ),
    ],
    ids=["classes-object", "classes-text", "prune-object", "prune-text",
         "class-entry-number", "negative-rtt"],
)
def test_load_config_refuses_values_that_once_loaded_or_went_unnamed(
    tmp_path: Path, edit: Callable[[dict], None], message: str
) -> None:
    cfg = _base_config()
    edit(cfg)
    path = tmp_path / "once.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value) == f"config {path}: {message}"


def test_a_user_count_too_large_for_a_float_is_refused() -> None:
    topology, _, _, _ = default_profile(leaf_capacity=10, levels=3)
    with pytest.raises(ValueError, match="may draw more than"):
        synthesize_trace(topology, seed=1, users=10**400, p_rt=0.5)


def test_load_config_synth_honours_default_seed(tmp_path: Path) -> None:
    cfg = _base_config()
    cfg["synth"] = {"users": 5, "p_rt": 1.0}
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(cfg))
    first = load_config(path, seed=3)
    second = load_config(path, seed=3)
    other = load_config(path, seed=4)
    assert first.trace == second.trace
    assert first.trace != other.trace
