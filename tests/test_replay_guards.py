"""Replay guards: whole runs pinned by hash, and no record comparisons.

Each hash covers a run's full event log or its JSON report row, so any
change to an event, its order or a reported figure shows.  A change meant
to keep behaviour as it is must keep every hash; one that changes
behaviour on purpose records new hashes and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from edgeplace import harness, protocol, scenarios

LANES = ("dapp", "ffit", "bupu", "cpvnf", "multiscaler")

#: lane -> (event log sha256, report row sha256) of the small burst
BURST_HASHES = {
    "dapp": (
        "4014c577ea123dcc8987d0d8f432df443c63ecf26a22401c7e8f843d8dfb4be1",
        "47ebc042c4f2e913fd20de20271180cef61958483fd1fdd2c8353660cafbec62",
    ),
    "ffit": (
        "9076c3543949bb9ab6fa6fd2b62f0d88d3a2c775743d3c21562fb6843f16e379",
        "4f7deb3f06d34aa54a8acaae8c70baebbb4979fa872ca89dfcee299dd53f4624",
    ),
    "bupu": (
        "534e473c8ff67e5382c1eed970445b41b50c30663e3db6c8d0a9ba5648b8dc3a",
        "923ece326c1e249db36569f701a0464eab96ef5f9c4392e06039fe44f13840e7",
    ),
    "cpvnf": (
        "a23e0271f92ce7d8dbc660abde10ecebe71093c8379d611d3be4f57759c3c25f",
        "7a31edc8e30b2e2bbeb52a4bea78044e6d8d3c7000305761400eef8d7668da1a",
    ),
    "multiscaler": (
        "bbb69ce85f0e4633c15c30175cb1e0c71dc086b503d7e430c5405aed9972eefa",
        "43a3eb8858b91fedcb3bb586f1cc399e6add4a9caae69fa49aa4b7262923f284",
    ),
}

CHURN_HASHES = (
    "0b50fcecbb4b97799650b3734e2b9d13ab0acea65c99185681443b2d60bac065",
    "1aa31f35be0a74bf29c1a1b86d7d8cce4871678e6d844ead785786199ec085f9",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hashes(name: str, lane: str, result) -> tuple[str, str]:
    row = harness.metrics_row(name, lane, 1, result)
    return (
        _sha256("\n".join(result.event_log)),
        _sha256(harness.render_rows([row], "json")),
    )


@pytest.fixture(scope="module")
def small_burst() -> scenarios.Scenario:
    return scenarios.rand_scenario(1, users=1000, leaf_capacity=5000, levels=5)


@pytest.fixture(scope="module")
def small_churn() -> scenarios.Scenario:
    """300 users with moves and departures on a tree tight enough that
    the protocol runs push-downs and quarantine-mode scans."""
    topology, classes, costs, rtt = scenarios.default_profile(
        leaf_capacity=1200, levels=4
    )
    trace = scenarios.synthesize_trace(
        topology,
        seed=1,
        users=300,
        p_rt=0.5,
        burst=False,
        arrival_rate=400.0,
        hold_mean=2.0,
        move_period=0.5,
        horizon=3.0,
    )
    return scenarios.Scenario(
        name="churn-1",
        topology=topology,
        classes=classes,
        costs=costs,
        rtt_by_level=rtt,
        trace=trace,
    )


@pytest.mark.parametrize("lane", LANES)
def test_small_burst_replays_byte_for_byte(small_burst, lane: str) -> None:
    result = harness.run_scenario(small_burst, lane)
    assert _hashes(small_burst.name, lane, result) == BURST_HASHES[lane]


def test_small_churn_replays_byte_for_byte(small_churn) -> None:
    result = harness.run_scenario(small_churn, "dapp")
    # the case keeps covering what it is here for
    assert result.counters.push_downs > 0
    assert result.counters.criticals > 0
    assert any(" f-scan " in line for line in result.event_log)
    assert any(" depart " in line for line in result.event_log)
    assert _hashes(small_churn.name, "dapp", result) == CHURN_HASHES


def _count_record_comparisons(monkeypatch, scenario: scenarios.Scenario) -> int:
    calls = 0
    compare = protocol.Record.__eq__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return compare(self, other)

    monkeypatch.setattr(protocol.Record, "__eq__", counting)
    harness.run_scenario(scenario, "dapp")
    return calls


def test_protocol_burst_compares_no_records(monkeypatch) -> None:
    # Backlogs are keyed by request id, so withdrawing a record never
    # compares it field by field with the others.
    scenario = scenarios.rand_scenario(1, users=2000, leaf_capacity=10_000, levels=5)
    assert _count_record_comparisons(monkeypatch, scenario) == 0


def test_protocol_churn_compares_no_records(monkeypatch, small_churn) -> None:
    assert _count_record_comparisons(monkeypatch, small_churn) == 0
