"""The benchmark workloads: inputs built from a seed, the timed part, checks.

Each workload drives the package only through its public functions
(``scenarios.*``, ``harness.run_scenario`` and ``harness.min_cpu_for``).  A
run covers ``instances`` independent inputs, instance ``j`` built from
``seed + j * SEED_STRIDE``.  The run reports figures over all its
instances, which move less from one seed to the next than a single
instance's would.

The timed part of every workload is called at one fixed stack depth
(timed loop -> ``run_instance`` -> ``_run``/``_search`` -> package), because
the recursive exact solver's speed depends on the depth it starts at.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Any

from speed import CLOCK

#: Instance ``j`` of a run uses ``seed + j * SEED_STRIDE``, so runs with
#: different seeds below the stride never share an instance.
SEED_STRIDE = 100_000

LANES = ("dapp", "ffit", "bupu", "cpvnf", "multiscaler")
CAPACITY_ALGOS = ("exact", "bupu", "ffit", "dapp")
CAPACITY_SHARES = (0.0, 0.5, 1.0)
CAPACITY_FAMILY = dict(users=80, levels=4, arity=4, family="rand")
#: The acceptance gate's tolerance for the protocol against bottom-up.
DAPP_OVER_BUPU = 1.15

_LOG_EVENT = re.compile(r"^(\S+) s\d+ (arrive|place) r(\d+)\b")


def sub_seeds(seed: int, instances: int) -> list[int]:
    return [seed + j * SEED_STRIDE for j in range(instances)]


@dataclass
class Run:
    """One simulator run: its lane, its input, its result (or error), and
    the CPU seconds (at the reference speed) and wall seconds it took."""

    label: str
    scenario: Any
    result: Any
    seconds: float
    wall: float


@dataclass
class Search:
    """One least-capacity search: its answer (or error), and the CPU
    seconds (at the reference speed) and wall seconds it took."""

    seed: int
    algo: str
    p_rt: float
    answer: Any
    seconds: float
    wall: float


@dataclass
class Figures:
    """The checked outcome figures of one instance."""

    requests: int = 0
    failed_requests: int = 0
    protocol_bits: int = 0
    protocol_triggers: int = 0
    decision_cost: float = 0.0
    cpu_units: float = 0.0
    delays: list[float] = field(default_factory=list)


@dataclass
class Report:
    """What the checks after the timed part found, per instance.

    ``problems`` make the result incorrect; ``defects`` are placements that
    break the model's limits, counted as failed runs and failed requests.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    defects: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    figures: list[Figures] = field(default_factory=list)


# ---------------------------------------------------------------------------
# shared helpers


def _run(ep: Any, scenario: Any, lane: str) -> Run:
    result, seconds, wall = CLOCK.call(ep.harness.run_scenario, scenario, lane)
    return Run(lane, scenario, result, seconds, wall)


def _search(ep: Any, seed: int, algo: str, p_rt: float) -> Search:
    answer, seconds, wall = CLOCK.call(
        ep.harness.min_cpu_for, algo, seed=seed, p_rt=p_rt, **CAPACITY_FAMILY
    )
    return Search(seed, algo, p_rt, answer, seconds, wall)


def users_in(scenario: Any) -> int:
    return sum(1 for ev in scenario.trace if ev.kind == "arrive")


@dataclass
class RunCheck:
    """What the output check of one run found.

    ``errors`` mean the run produced no trustworthy output (it raised,
    diverged or lost requests).  ``violations`` are placements that break
    the model's limits; ``violators`` are the requests they fail.
    """

    errors: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    violators: set[int] = field(default_factory=set)


def check_run(ep: Any, run: Run) -> RunCheck:
    """Check a run's final placements against the attachments its trace implies.

    Every user still attached at the end must be placed within its reach
    or be listed as failed or unplaced; no datacenter may be over capacity;
    nobody who departed may still hold a placement.
    """
    check = RunCheck()
    res = run.result
    if isinstance(res, Exception):
        check.errors.append(f"raised {type(res).__name__}: {res}")
        return check
    if res.verdict == "diverged":
        check.errors.append("diverged (event budget exhausted)")
    scenario = run.scenario
    poa: dict[int, int] = {}
    class_of: dict[int, int] = {}
    departed: set[int] = set()
    for ev in scenario.trace:
        if ev.kind == "arrive":
            poa[ev.user] = ev.poa
            class_of[ev.user] = ev.class_id
        elif ev.kind == "move" and ev.user not in departed:
            poa[ev.user] = ev.poa
        elif ev.kind == "depart":
            poa.pop(ev.user, None)
            departed.add(ev.user)
    if res.request_count != len(class_of):
        check.errors.append(
            f"{res.request_count} requests counted, trace has {len(class_of)}"
        )
    stray = sorted(set(res.placements) - set(poa))
    if stray:
        check.violations.append(f"departed users still placed: {stray[:5]}")
        check.violators.update(stray)
    dropped = set(res.failed) | set(res.unplaced)
    served = {}
    load: dict[int, int] = {}
    for rid, node in poa.items():
        if rid in dropped:
            continue
        svc = scenario.classes[class_of[rid]]
        feasible = ep.model.feasible_set_for(
            scenario.topology, node, svc, scenario.rtt_by_level
        )
        served[rid] = ep.model.Request(rid, svc.class_id, node, feasible)
        host = res.placements.get(rid)
        if host is None or host not in feasible:
            check.violators.add(rid)
        else:
            load[host] = load.get(host, 0) + svc.demand_at(scenario.topology.level(host))
    for node, used in load.items():
        if used > scenario.topology.capacity(node):
            check.violators.update(
                rid for rid in served if res.placements.get(rid) == node
            )
    report = ep.model.check_feasible(
        scenario.topology, scenario.classes, served, res.placements
    )
    check.violations.extend(report.violations)
    if report.unplaced:
        check.violations.append(
            f"attached users neither placed nor reported failed: "
            f"{list(report.unplaced[:5])}"
        )
    # The violators above come from the test check_feasible makes; if the
    # two disagree, the check itself is wrong.
    if (not check.violators - set(stray)) != report.ok:
        check.errors.append("check_feasible disagrees with the placements")
    return check


def first_placement_delays(event_log: list[str]) -> list[float]:
    """Sim seconds from each request's arrival to its first placement."""
    arrived: dict[int, float] = {}
    delays = []
    for line in event_log:
        match = _LOG_EVENT.match(line)
        if match is None:
            continue
        at, kind, rid = float(match[1]), match[2], int(match[3])
        if kind == "arrive":
            arrived[rid] = at
        elif rid in arrived:
            delays.append(at - arrived.pop(rid))
    return delays


def run_digest(ep: Any, run: Run) -> str:
    """A short hash of the run's report row, so behaviour drift shows."""
    res = run.result
    if isinstance(res, Exception):
        return f"{run.scenario.name} {run.label} raised {type(res).__name__}"
    row = ep.harness.metrics_row(run.scenario.name, run.label, 0, res)
    text = ep.harness.render_rows([row], "json")
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return (
        f"{run.scenario.name} {run.label} {digest} verdict={res.verdict} "
        f"placed={len(res.placements)} failed={len(res.failed)} "
        f"unplaced={len(res.unplaced)} messages={res.counters.total_messages()}"
    )


def add_runs(ep: Any, report: Report, fig: Figures, runs: list[Run]) -> None:
    """Check runs and add their outcomes to ``report`` and ``fig``.

    A run with errors fails all its requests.  A run whose placements
    break the model's limits is a failed operation too, but only the
    requests it misplaced count as failed: the rest were served.
    """
    for run in runs:
        users = users_in(run.scenario)
        report.attempted += 1
        fig.requests += users
        report.digests.append(run_digest(ep, run))
        check = check_run(ep, run)
        where = f"{run.scenario.name} {run.label}"
        report.problems.extend(f"{where}: {e}" for e in check.errors)
        report.defects.extend(f"{where}: {v}" for v in check.violations)
        if check.errors or check.violations:
            report.failed += 1
        if check.errors:
            fig.failed_requests += users
            continue
        res = run.result
        fig.failed_requests += len(
            set(res.failed) | set(res.unplaced) | check.violators
        )
        fig.decision_cost += res.decision_cost
        class_of = {
            ev.user: ev.class_id for ev in run.scenario.trace if ev.kind == "arrive"
        }
        for rid, node in res.placements.items():
            svc = run.scenario.classes[class_of[rid]]
            fig.cpu_units += svc.demand_at(run.scenario.topology.level(node))
        if run.label == "dapp":
            add_protocol_figures(fig, res)


def add_protocol_figures(fig: Figures, res: Any) -> None:
    fig.protocol_bits += res.counters.total_bits()
    fig.protocol_triggers += res.request_count + res.counters.criticals
    fig.delays.extend(first_placement_delays(res.event_log))


# ---------------------------------------------------------------------------
# workloads


class SimWorkload:
    """Whole-trace runs of some lanes over seeded scenarios (burst, churn)."""

    def __init__(self, name: str, instances: int, lanes: tuple[str, ...], make):
        self.name = name
        self.instances = instances
        self.lanes = lanes
        self._make = make

    def build(self, ep: Any, seed: int) -> list[Any]:
        return [self._make(ep, s) for s in sub_seeds(seed, self.instances)]

    def run_instance(self, ep: Any, scenario: Any) -> list[Run]:
        return [_run(ep, scenario, lane) for lane in self.lanes]

    def simulated_requests(self, ep: Any, out: list[Run]) -> int:
        return sum(users_in(run.scenario) for run in out)

    def fingerprint(self, ep: Any, out: list[Run]) -> tuple[str, ...]:
        return tuple(run_digest(ep, run) for run in out)

    def evaluate(self, ep: Any, out: list[Run], report: Report) -> None:
        fig = Figures()
        add_runs(ep, report, fig, out)
        report.figures.append(fig)


def _burst_scenario(ep: Any, seed: int) -> Any:
    return ep.scenarios.rand_scenario(
        seed, users=8000, p_rt=0.5, leaf_capacity=40_000, levels=5
    )


def _churn_scenario(ep: Any, seed: int) -> Any:
    topology, classes, costs, rtt = ep.scenarios.default_profile(
        leaf_capacity=4500, levels=5
    )
    trace = ep.scenarios.synthesize_trace(
        topology,
        seed=seed,
        users=3000,
        p_rt=0.5,
        burst=False,
        arrival_rate=1000.0,
        hold_mean=2.0,
        move_period=0.5,
        horizon=4.0,
    )
    return ep.scenarios.Scenario(
        name=f"churn-{seed}",
        topology=topology,
        classes=classes,
        costs=costs,
        rtt_by_level=rtt,
        trace=trace,
    )


class Capacity:
    """Least-capacity searches for four algorithms at three tight shares."""

    name = "capacity"

    def __init__(self, instances: int):
        self.instances = instances

    def build(self, ep: Any, seed: int) -> list[int]:
        return sub_seeds(seed, self.instances)

    def run_instance(self, ep: Any, seed: int) -> list[Search]:
        return [
            _search(ep, seed, algo, p_rt)
            for p_rt in CAPACITY_SHARES
            for algo in CAPACITY_ALGOS
        ]

    def simulated_requests(self, ep: Any, out: list[Search]) -> int:
        return sum(
            CAPACITY_FAMILY["users"] * len(_probes(ep, search))
            for search in out
            if not isinstance(search.answer, Exception)
        )

    def fingerprint(self, ep: Any, out: list[Search]) -> tuple[str, ...]:
        return tuple(_answer_text(search.answer) for search in out)

    def evaluate(self, ep: Any, out: list[Search], report: Report) -> None:
        """Check the answers' order, then re-run each search's answer.

        At the returned capacity the run must be ``ok`` and feasible.  The
        runs at the answers supply the cost, signaling and latency figures.
        """
        fig = Figures(requests=len(out))
        bad: set[int] = set()
        index = {(s.p_rt, s.algo): i for i, s in enumerate(out)}
        seed = out[0].seed
        for i, search in enumerate(out):
            if isinstance(search.answer, Exception):
                bad.add(i)
                report.problems.append(
                    f"capacity-{seed} {search.algo} p_rt={search.p_rt}: "
                    f"raised {type(search.answer).__name__}: {search.answer}"
                )
        for p_rt in CAPACITY_SHARES:
            at = {a: index[(p_rt, a)] for a in CAPACITY_ALGOS}
            need = {a: out[i].answer for a, i in at.items()}
            report.digests.append(
                f"capacity-{seed} p_rt={p_rt} "
                + " ".join(f"{a}={_answer_text(n)}" for a, n in need.items())
            )
            if any(isinstance(n, Exception) for n in need.values()):
                continue
            if not need["exact"] <= need["bupu"] <= need["ffit"]:
                bad.update(at[a] for a in ("exact", "bupu", "ffit"))
                report.problems.append(
                    f"capacity-{seed} p_rt={p_rt}: not exact <= bupu <= ffit: {need}"
                )
            if need["dapp"] > DAPP_OVER_BUPU * need["bupu"]:
                bad.add(at["dapp"])
                report.problems.append(
                    f"capacity-{seed} p_rt={p_rt}: dapp above "
                    f"{DAPP_OVER_BUPU} x bupu: {need}"
                )
        for i, search in enumerate(out):
            if isinstance(search.answer, Exception):
                continue
            problems = _recheck(ep, fig, search)
            if problems:
                bad.add(i)
                report.problems.extend(
                    f"capacity-{seed} {search.algo} p_rt={search.p_rt}: {p}"
                    for p in problems
                )
        report.attempted += len(out)
        report.failed += len(bad)
        fig.failed_requests = len(bad)
        report.figures.append(fig)


def _recheck(ep: Any, fig: Figures, search: Search) -> list[str]:
    """Re-run a search's answer: it must serve everyone, feasibly."""
    scenario = ep.scenarios.rand_scenario(
        search.seed,
        users=CAPACITY_FAMILY["users"],
        p_rt=search.p_rt,
        leaf_capacity=search.answer,
        levels=CAPACITY_FAMILY["levels"],
        arity=CAPACITY_FAMILY["arity"],
    )
    run = _run(ep, scenario, search.algo)
    check = check_run(ep, run)
    if check.errors or check.violations:
        return check.errors + check.violations
    res = run.result
    if res.verdict != "ok":
        return [f"verdict {res.verdict} at its own answer {search.answer}"]
    fig.cpu_units += search.answer
    fig.decision_cost += res.decision_cost
    if search.algo == "dapp":
        add_protocol_figures(fig, res)
    return []


def _probes(ep: Any, search: Search) -> list[int]:
    """The capacities the search probed, replayed from its answer.

    ``min_cpu_for`` probes with the same doubling-then-bisection rule for
    any monotone success test, so the probe sequence follows from the
    answer alone.
    """
    probed: list[int] = []
    ep.baselines.min_cpu_binary_search(lambda c: probed.append(c) or c >= search.answer)
    return probed


def _answer_text(answer: Any) -> str:
    if isinstance(answer, Exception):
        return type(answer).__name__
    return str(answer)


WORKLOADS = {
    "burst": SimWorkload("burst", 3, LANES, _burst_scenario),
    "churn": SimWorkload("churn", 10, ("dapp",), _churn_scenario),
    "capacity": Capacity(4),
}
