#!/usr/bin/env python3
"""Thread CPU seconds per event category of a workload's ``dapp`` runs.

Usage::

    python3 tools/event_costs.py [--src DIR] [--workload churn] [--seed 1]
        [--instances 3] [--passes 5]

The package is imported from ``DIR/src`` (default: this checkout), the
workload's inputs from this checkout's ``bench/workloads.py`` (``churn``
or ``burst``, its first ``--instances`` instances at ``--seed``), and
each is run in the protocol lane, ``--passes`` times.  Every event the
engine runs is timed with ``time.thread_time`` and charged to its
category: ``trace <kind>`` for an arrival, a move or a departure,
``timer <kind>`` for a batch timer and ``message <type>`` for a delivered
message.  A message a node replays from inside another event (a
push-down's deferred traffic) is part of that event.  Runs use
``PYTHONHASHSEED=0``, as the benchmark's do.  The wrappers sit on
the classes, at the names the engine looks its handlers up by, and add
their own cost to every event, so the figures are for comparing
categories and checkouts, not for reading as ``cpu_s``.

Prints one line per category, largest first: its events per pass, the
median over the passes of its CPU seconds per pass, and that median per
event in microseconds.  Two more lines give the median run time outside
any event (``engine``: the simulator's set-up, its main loop and its
result) and the median total.
Standard library only; the benchmark files are only read.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

TOOLS = Path(__file__).resolve().parent
BENCH = TOOLS.parent / "bench"

#: trace kind -> the ``Simulator`` method that handles it
TRACE_HANDLERS = {"arrive": "_on_arrive", "move": "_on_move", "depart": "_on_depart"}


class EventMeter:
    """CPU seconds and counts per event category, for the runs made while
    :meth:`installed` is active."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._inside = False

    def _timed(self, fn: Callable[..., Any], category: Callable[[tuple], str]) -> Any:
        clock = time.thread_time

        def timed(owner: Any, *args: Any) -> Any:
            if self._inside:  # part of the event that called it
                return fn(owner, *args)
            self._inside = True
            start = clock()
            try:
                return fn(owner, *args)
            finally:
                name = category(args)
                self.seconds[name] += clock() - start
                self.counts[name] += 1
                self._inside = False

        return timed

    @contextmanager
    def installed(self, ep: Any) -> Iterator[None]:
        """Wrap the engine's trace handlers and the nodes' ``on_timer`` and
        ``on_message``, and put the originals back on leaving."""
        wrapped = [
            (ep.simnet.Simulator, method, lambda _args, kind=kind: f"trace {kind}")
            for kind, method in TRACE_HANDLERS.items()
        ]
        node = ep.protocol.ProtocolNode
        wrapped.append((node, "on_timer", lambda args: f"timer {args[0]}"))
        wrapped.append(
            (node, "on_message", lambda args: f"message {type(args[1]).__name__}")
        )
        originals = [(owner, name, getattr(owner, name)) for owner, name, _ in wrapped]
        try:
            for owner, name, category in wrapped:
                setattr(owner, name, self._timed(getattr(owner, name), category))
            yield
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)


def one_pass(ep: Any, scenarios: list[Any]) -> tuple[EventMeter, float, list[Any]]:
    """Run each scenario's ``dapp`` lane once under a fresh meter: the
    meter, the runs' total CPU seconds and their results."""
    meter = EventMeter()
    total = 0.0
    results = []
    with meter.installed(ep):
        for scenario in scenarios:
            start = time.thread_time()
            results.append(ep.harness.run_scenario(scenario, "dapp"))
            total += time.thread_time() - start
    return meter, total, results


def report(ep: Any, scenarios: list[Any], passes: int) -> list[tuple[str, int, float]]:
    """``(category, events per pass, median CPU seconds per pass)`` for
    each category, largest first, then ``engine`` (the run outside any
    event, with no count) and ``total``."""
    seconds: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, int] = {}
    for _ in range(passes):
        meter, total, _results = one_pass(ep, scenarios)
        counts = dict(meter.counts)
        for name, spent in meter.seconds.items():
            seconds[name].append(spent)
        seconds["engine"].append(total - sum(meter.seconds.values()))
        seconds["total"].append(total)
    rows = [
        (name, counts[name], statistics.median(seconds[name])) for name in counts
    ]
    rows.sort(key=lambda row: -row[2])
    for name in ("engine", "total"):
        rows.append((name, 0, statistics.median(seconds[name])))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=TOOLS.parent, help="checkout")
    parser.add_argument("--workload", choices=("churn", "burst"), default="churn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--instances", type=int, default=3)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args()
    if args.instances < 1 or args.passes < 1:
        parser.error("--instances and --passes must be at least 1")
    sys.path.insert(0, str(TOOLS))
    from ab_cpu import FIXED_ENV, import_from

    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, **FIXED_ENV},
        )
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    ep = import_from(args.src)
    scenarios = WORKLOADS[args.workload].build(ep, args.seed)[: args.instances]
    for name, count, spent in report(ep, scenarios, args.passes):
        per_event = f"{spent / count * 1e6:8.2f} us/event" if count else ""
        print(f"{name:24} {count:8} {spent:9.4f} s {per_event}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
