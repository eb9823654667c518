"""Print one digest line per replayed run, so two checkouts can be diffed.

Usage::

    python3 tools/replay_digests.py [--src DIR] > digests.txt

Each line reads ``<run> <lane> <verdict> <log sha256> <row sha256>``:
the run's verdict, then the sha256 of its event log (lines joined by
newlines) and of its JSON report row.  A run that raises prints
``<run> <lane> raised <exception type>`` instead.  Run the script against
two checkouts and ``diff`` the outputs: equal files mean every covered
run replays byte for byte.

The runs cover the fig2 and fig3 walkthroughs; the rand, synth and jitter
families at seeds 1-12; a 300-user churn trace with moves, departures and
push-downs; a 1,000-user, 5-level burst; and ``rand-1-fast-link`` and
``churn-300-fast-link``, rand seed 1 and the churn trace over links of
``capacity_bps=1e300``, whose transmission times round away so that
messages on a link tie on arrival; each in every lane.  Three
``dapp`` lines follow, ``churn-3000`` and ``churn-3000-s<seed>``: the
benchmark's churn shape (3,000 users, Poisson arrivals at 1,000/s, 2 s
hold, a move every 0.5 s, 4 s horizon, leaf capacity 4,500, 5 levels) at
seeds 1, 100001 and 200001 (the first three instance seeds of the
benchmark's ``churn`` workload at seed 1), in the protocol lane only.
Then come least-capacity answers, ``min-cpu-<family>-s<seed>-p<share>
<algorithm> <answer>``, in every lane: for 80 ``rand`` users on a 4-ary,
4-level tree at shares 0, 0.5 and 1, at seeds 1, 100001, 200001 and
300001 (the instance seeds of the benchmark's ``capacity`` workload at
seed 1), and for 60 ``jitter`` users on a binary 6-level tree at share
0.5, at seed 1.  The package is imported from
``--src`` (default: this checkout's ``src``).  Standard library only; the
package does not import this script.

``tests/replay_digests.txt`` holds this checkout's lines, and a tier-1
test rebuilds them in-process with :func:`digest_lines`, the function
behind the printout.  A change that moves a run on purpose re-records the
file with this script, and its diff names the runs that moved.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import sys
from pathlib import Path
from typing import Any, Iterator

SEEDS = range(1, 13)
FAMILIES = ("rand", "synth", "jitter")
#: seeds of the ``churn-3000`` lines
CHURN_SEEDS = (1, 100001, 200001)
MIN_CPU_ALGOS = ("exact", "bupu", "ffit", "dapp", "cpvnf", "multiscaler")
#: per family, the seeds and shares searched and the rest of the inputs
MIN_CPU_SEARCHES = (
    (
        "rand",
        (1, 100001, 200001, 300001),
        (0.0, 0.5, 1.0),
        dict(users=80, levels=4, arity=4),
    ),
    ("jitter", (1,), (0.5,), dict(users=60, levels=6, arity=2)),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scenarios(ep: Any) -> Iterator[tuple[str, Any]]:
    """Every scenario the digests cover, labelled, in a fixed order."""
    for name in ("fig2", "fig3"):
        yield name, ep.scenarios.builtin_scenario(name)
    for family in FAMILIES:
        for seed in SEEDS:
            yield f"{family}-{seed}", ep.scenarios.builtin_scenario(family, seed=seed)
    churn = churn_scenario(
        ep,
        seed=1,
        users=300,
        leaf_capacity=1200,
        levels=4,
        arrival_rate=400.0,
        horizon=3.0,
    )
    yield "churn-300", churn
    yield "burst-1000", ep.scenarios.rand_scenario(
        1, users=1000, leaf_capacity=5000, levels=5
    )
    fast = ep.simnet.LinkModel(capacity_bps=1e300)
    rand = ep.scenarios.builtin_scenario("rand", seed=1)
    yield "rand-1-fast-link", dataclasses.replace(rand, link=fast)
    yield "churn-300-fast-link", dataclasses.replace(churn, link=fast)


def churn_scenario(
    ep: Any,
    *,
    seed: int,
    users: int,
    leaf_capacity: int,
    levels: int,
    arrival_rate: float,
    horizon: float,
) -> Any:
    """Poisson churn: 2 s mean hold, a move every 0.5 s."""
    topology, classes, costs, rtt = ep.scenarios.default_profile(
        leaf_capacity=leaf_capacity, levels=levels
    )
    trace = ep.scenarios.synthesize_trace(
        topology,
        seed=seed,
        users=users,
        p_rt=0.5,
        burst=False,
        arrival_rate=arrival_rate,
        hold_mean=2.0,
        move_period=0.5,
        horizon=horizon,
    )
    return ep.scenarios.Scenario(
        name=f"churn-{seed}",
        topology=topology,
        classes=classes,
        costs=costs,
        rtt_by_level=rtt,
        trace=trace,
    )


def digest_line(ep: Any, label: str, scenario: Any, lane: str) -> str:
    """The digest of one run of ``lane`` over ``scenario``."""
    try:
        result = ep.harness.run_scenario(scenario, lane)
    except Exception as err:  # a crash is a result to compare, not to hide
        return f"{label} {lane} raised {type(err).__name__}"
    row = ep.harness.metrics_row(scenario.name, lane, 1, result)
    return " ".join(
        (
            label,
            lane,
            result.verdict,
            _sha256("\n".join(result.event_log)),
            _sha256(ep.harness.render_rows([row], "json")),
        )
    )


def min_cpu_line(
    ep: Any, algo: str, family: str, seed: int, p_rt: float, inputs: dict[str, int]
) -> str:
    """The least capacity ``algo`` needs at tight-class share ``p_rt``."""
    label = f"min-cpu-{family}-s{seed}-p{p_rt}"
    try:
        answer = ep.harness.min_cpu_for(
            algo, seed=seed, p_rt=p_rt, family=family, **inputs
        )
    except Exception as err:
        return f"{label} {algo} raised {type(err).__name__}"
    return f"{label} {algo} {answer}"


def digest_lines(ep: Any) -> Iterator[str]:
    """Every line the script prints, in order, for the package ``ep``."""
    for label, scenario in scenarios(ep):
        for lane in ep.harness.ALGO_CHOICES:
            yield digest_line(ep, label, scenario, lane)
    for seed in CHURN_SEEDS:
        churn = churn_scenario(
            ep,
            seed=seed,
            users=3000,
            leaf_capacity=4500,
            levels=5,
            arrival_rate=1000.0,
            horizon=4.0,
        )
        label = "churn-3000" if seed == 1 else f"churn-3000-s{seed}"
        yield digest_line(ep, label, churn, "dapp")
    for family, seeds, shares, inputs in MIN_CPU_SEARCHES:
        for seed in seeds:
            for algo in MIN_CPU_ALGOS:
                for p_rt in shares:
                    yield min_cpu_line(ep, algo, family, seed, p_rt, inputs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the edgeplace package to replay",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    for line in digest_lines(importlib.import_module("edgeplace")):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
