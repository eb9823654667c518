#!/usr/bin/env python3
"""Benchmark of the edgeplace package: `burst`, `churn` and `capacity`.

Run it from the root of a source checkout:

    python3 bench/run.py --workload burst --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # each workload in its own process

It imports the package from ``src/`` of that checkout, builds the
workload's inputs from ``--seed``, repeats the timed part while another
pass fits in ``--seconds`` (at least once), checks the outputs, and prints
the metrics.  The last
line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
bench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from spans import Probe, Tracer, ratio  # noqa: E402
from speed import CLOCK  # noqa: E402
from workloads import LANES, WORKLOADS, Report  # noqa: E402

#: Least set-ups per run, and least seconds they take together;
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: Users of the burst input at which each lane's ``Simulator.run`` is
#: timed for the scaling exponents (leaf capacity 5 units per user).
SCALING_USERS = (500, 2000, 8000)
SCALING_REPEATS = {500: 3, 2000: 3, 8000: 1}
#: String hashing is seeded per process unless fixed; the benchmark fixes
#: it so that dict and set layouts repeat from run to run.
FIXED_ENV = {"PYTHONHASHSEED": "0"}
#: Walkthrough fixtures replayed against their frozen logs once per run.
FIXTURES = ("fig2", "fig3")


@dataclass
class Timing:
    """CPU seconds (at the reference speed) of each run or search, by pass
    and instance; wall seconds of each instance; the first pass's outcome."""

    passes: list[list[list[float]]] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    fingerprints: list[Any] = field(default_factory=list)
    requests: list[int] = field(default_factory=list)
    report: Report = field(default_factory=Report)
    repeatable: bool = True


def main() -> int:
    args = parse_args()
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, **FIXED_ENV},
        )
    if not (SRC / "edgeplace" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/edgeplace", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


# ---------------------------------------------------------------------------
# set-up and the timed part


def import_package() -> Any:
    """Import ``edgeplace`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "edgeplace"]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    ep = importlib.import_module("edgeplace")
    if Path(ep.__file__).resolve().parent != SRC / "edgeplace":
        raise ImportError(f"edgeplace came from {ep.__file__}, not {SRC}")
    return ep


def set_up(workload: Any, seed: int) -> tuple[Any, Any, float]:
    """Import the package and build the inputs, at least SETUP_REPEATS
    times and for at least SETUP_SECONDS; the median is ``setup_s``, in
    CPU seconds at the reference speed (see speed.py)."""

    def build() -> tuple[Any, Any]:
        ep = import_package()
        return ep, workload.build(ep, seed)

    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        built = None
        gc.collect()
        built, seconds, _ = CLOCK.call(build)
        if isinstance(built, Exception):
            raise built
        times.append(seconds)
    ep, inputs = built
    return ep, inputs, statistics.median(times)


def timed(workload: Any, ep: Any, instances: list[Any], seconds: float) -> Timing:
    """Run every instance, pass after pass, while another pass fits in
    ``seconds`` (at least one pass).

    The first pass's outputs are checked as each instance ends, outside
    the timed runs; later passes must reproduce them exactly.
    """
    timing = Timing()
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        this_pass = []
        for i, instance in enumerate(instances):
            out = None
            gc.collect()
            out = workload.run_instance(ep, instance)
            this_pass.append([cell.seconds for cell in out])
            timing.wall.append(sum(cell.wall for cell in out))
            fingerprint = workload.fingerprint(ep, out)
            if not timing.passes:
                timing.fingerprints.append(fingerprint)
                timing.requests.append(workload.simulated_requests(ep, out))
                workload.evaluate(ep, out, timing.report)
            elif fingerprint != timing.fingerprints[i]:
                timing.repeatable = False
        timing.passes.append(this_pass)
        now = time.perf_counter()
        if 2 * now - began - pass_began > seconds:
            return timing


def typical_seconds(timing: Timing) -> float:
    """CPU seconds (at the reference speed) of a typical instance: the sum
    over its runs or searches of each one's lower quartile over the run's
    instances and passes.

    Run times have a long right tail: the exact solver's effort on one
    instance can be several times that on the next, and disturbances from
    other tenants only ever add time.  The lower quartile of a run's few
    instances moves less from seed to seed than their median does (see
    README.md, "Baseline and spread").
    """
    samples = [cells for p in timing.passes for cells in p]
    return sum(lower_quartile(column) for column in zip(*samples))


def lower_quartile(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def replay_problems(ep: Any) -> list[str]:
    problems = []
    for name in FIXTURES:
        outcome = ep.harness.replay_fixture(name)
        if not outcome.ok:
            problems.append(f"replay {name}: " + " | ".join(outcome.diff))
    return problems


def scaling_exponents(ep: Any, seed: int) -> dict[str, float]:
    """Fitted exponent of ``Simulator.run`` time against users, per lane."""
    seconds: dict[str, list[float]] = {lane: [] for lane in LANES}
    for users in SCALING_USERS:
        scenario = ep.scenarios.rand_scenario(
            seed, users=users, p_rt=0.5, leaf_capacity=5 * users, levels=5
        )
        for lane in LANES:
            samples = []
            for _ in range(SCALING_REPEATS[users]):
                sim = ep.harness.build_simulator(scenario, lane)
                gc.collect()
                _, run_s, _ = CLOCK.call(sim.run, scenario.trace)
                samples.append(run_s)
            seconds[lane].append(statistics.median(samples))
    xs = [math.log(u) for u in SCALING_USERS]
    return {
        lane: statistics.linear_regression(xs, [math.log(t) for t in ts]).slope
        for lane, ts in seconds.items()
    }


# ---------------------------------------------------------------------------
# one workload in this process


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    ep, instances, setup_s = set_up(workload, args.seed)
    if args.trace:
        instances = instances[:1]  # the traced run covers instance 0 only
    print("env " + json.dumps(environment(args)))
    timing = timed(workload, ep, instances, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = timing.report
    replays = replay_problems(ep)
    problems = replays + report.problems
    attempted = report.attempted + len(FIXTURES)
    failed = report.failed + len(replays)
    if not timing.repeatable:
        failed += 1
        problems.append("timed passes disagree on the same inputs")
    for line in report.digests:
        print("digest " + line)
    for line in report.defects:
        print("DEFECT " + line)
    for p in timing.passes:
        print("pass " + " | ".join(" ".join(f"{s:.3f}" for s in cells) for cells in p))
    for f in report.figures:
        print(
            f"instance requests={f.requests} failed={f.failed_requests} "
            f"bytes={ratio(f.protocol_bits / 8.0, f.protocol_triggers)!r} "
            f"cost={f.decision_cost!r} cpu={f.cpu_units!r} "
            f"p50_ms={percentile_ms(f.delays, 50)!r} p99_ms={percentile_ms(f.delays, 99)!r}"
        )

    if args.trace:
        first_s = statistics.median(sum(p[0]) for p in timing.passes)
        metrics, traced_same = traced_run(
            workload, ep, args.seed, timing.fingerprints[0], first_s
        )
        if not traced_same:
            failed += 1
            problems.append("the traced pass disagrees with the untraced one")
        print(
            "note: traced times include wrapper overhead and a shifted stack "
            "depth; they are not comparable with untraced cpu_s"
        )
    else:
        metrics = end_to_end(timing, setup_s, peak_rss_mb)
        print(f"metric wall_s {statistics.median(timing.wall)!r} s (not judged)")
        print(f"metric failed_share {1.0 - metrics['served_share'][0]!r} share")
        if workload.name == "capacity":
            print(f"metric min_cpu {metrics['cpu_units'][0]!r} units")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for problem in problems:
        print("FAIL " + problem)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 2


def end_to_end(
    timing: Timing, setup_s: float, peak_rss_mb: float
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics.

    Times are lower quartiles per run or search (see ``typical_seconds``).  Shares
    and per-request figures pool every instance; ``decision_cost`` is a
    mean per instance.  ``cpu_units`` and the latency percentiles are
    medians over instances: least capacities jump in steps of a whole
    service from one instance to the next, and tail latencies have
    outlying instances.
    """
    cpu_s = typical_seconds(timing)
    figs = timing.report.figures
    med, mean = statistics.median, statistics.mean
    return {
        "cpu_s": (cpu_s, "s"),
        "setup_s": (setup_s, "s"),
        "requests_per_cpu_s": (med(timing.requests) / cpu_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "served_share": (
            1.0 - ratio(sum(f.failed_requests for f in figs), sum(f.requests for f in figs)),
            "share",
        ),
        "bytes_per_request": (
            ratio(
                sum(f.protocol_bits for f in figs) / 8.0,
                sum(f.protocol_triggers for f in figs),
            ),
            "B",
        ),
        "decision_cost": (mean(f.decision_cost for f in figs), "cost"),
        "cpu_units": (med(f.cpu_units for f in figs), "units"),
        "placement_latency_p50_ms": (
            med(percentile_ms(f.delays, 50) for f in figs),
            "ms",
        ),
        "placement_latency_p99_ms": (
            med(percentile_ms(f.delays, 99) for f in figs),
            "ms",
        ),
    }


def traced_run(
    workload: Any, ep: Any, seed: int, untraced_print: Any, untraced_s: float
) -> tuple[dict[str, tuple[float, str]], bool]:
    """A traced set-up and a traced run of the first instance, then the
    untraced scaling runs."""
    probe = Probe(ep, Tracer())
    probe.install()
    try:
        instances = workload.build(ep, seed)
        gc.collect()
        out = workload.run_instance(ep, instances[0])
        traced_s = sum(cell.seconds for cell in out)
    finally:
        probe.uninstall()
    same = workload.fingerprint(ep, out) == untraced_print
    out = instances = None
    metrics = probe.metrics()
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    for lane, exponent in scaling_exponents(ep, seed).items():
        metrics[f"simnet.run.{lane}.exponent"] = (exponent, "ratio")
    return metrics, same


def percentile_ms(delays: list[float], pct: int) -> float:
    if len(delays) < 2:
        return delays[0] * 1e3 if delays else 0.0
    return statistics.quantiles(delays, n=100, method="inclusive")[pct - 1] * 1e3


def environment(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "cpu_pinning": "none",
        "frequency_control": "none",
    }


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def run_all(args: argparse.Namespace) -> int:
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                f"--workload={name}",
                f"--seed={args.seed}",
                f"--seconds={args.seconds}",
                f"--trace={args.trace}",
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {child.returncode})")
            combined["correct"] = False
            status = 1
            continue
        status = status or child.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
