#!/usr/bin/env python3
"""Paired CPU comparison of two checkouts on one benchmark workload.

Usage::

    python3 tools/ab_cpu.py --a DIR --b DIR --workload churn --pairs 10 [--seed 1]

Both packages, ``DIR/src/edgeplace`` of each checkout, are imported into
this one process, side by side.  A pair times one pass of the workload's
timed part on each side, with the inputs (built from ``--seed``) and the
runs of this checkout's ``bench/workloads.py`` and its clock,
``bench/speed.CLOCK``: thread CPU seconds at the reference clock speed.
The side that goes first alternates from pair to pair, so a drift in the
machine's speed falls on both alike.  A pass's figure is ``cpu_s`` as
``bench/run.py`` takes it from one pass: the sum, over the runs or
searches of an instance, of each one's lower quartile over the instances.

Prints one JSON object: each side's median and quartiles, the number of
pairs in which ``b`` took less time (``b_wins``), the median of the
per-pair ratio ``b / a``, and every pair's figures.  ``per_run`` gives
each run or search alone (a lane of ``burst``, an algorithm and share of
``capacity``), its term of the sum as a pass's figure: each side's lower
quartile and median over the pairs, ``b_wins`` and the median ratio.  A
run's time has a long right tail, so its lower quartile moves less than
the summed median.  Beside them, ``a_gc_s`` and ``b_gc_s`` give the
collection seconds charged to the run: the thread CPU seconds the cyclic
collector spent inside it (taken with ``gc.callbacks``, not corrected for
the clock speed), its mean over the instances of a pass, median over the
pairs.  An automatic collection falls in whichever run crosses the
collector's threshold, so a run whose code did not change can read slower
by a collection it did not cause; its collection seconds tell.  Both
sides must produce the same outputs (the benchmark's digests); a pair
that does not stops the script.  Standard library only; the benchmark
files are only read.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parents[1] / "bench"
#: as in bench/run.py: dict and set layouts repeat from run to run
FIXED_ENV = {"PYTHONHASHSEED": "0"}


def import_from(root: Path) -> Any:
    """Import ``edgeplace`` from ``root/src``, leaving it loaded beside any
    other copy: each copy's modules keep references to their own."""
    for name in [m for m in sys.modules if m.split(".")[0] == "edgeplace"]:
        del sys.modules[name]
    src = str(root.resolve() / "src")
    sys.path.insert(0, src)
    try:
        ep = importlib.import_module("edgeplace")
    finally:
        sys.path.remove(src)
    if Path(ep.__file__).resolve().parent != Path(src) / "edgeplace":
        raise ImportError(f"edgeplace came from {ep.__file__}, not {src}")
    return ep


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def cell_name(cell: Any) -> str:
    """A run's lane, or a search's algorithm and tight share."""
    return cell.label if hasattr(cell, "label") else f"{cell.algo} p_rt={cell.p_rt}"


class CollectionMeter:
    """The thread CPU seconds the cyclic collector spends inside each call
    that ``clock`` times, one figure per call in call order (``taken``).
    It wraps the clock's ``call`` on the instance and listens on
    ``gc.callbacks``; a collection outside a timed call is not counted."""

    def __init__(self, clock: Any) -> None:
        self.taken: list[float] = []
        self._inside = False
        self._spent = self._started = 0.0
        timed = clock.call

        def call(fn: Any, *args: Any, **kwargs: Any) -> Any:
            self._spent, self._inside = 0.0, True
            try:
                return timed(fn, *args, **kwargs)
            finally:
                self._inside = False
                self.taken.append(self._spent)

        clock.call = call
        gc.callbacks.append(self._on_collection)

    def _on_collection(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = time.thread_time()
        elif self._inside:
            self._spent += time.thread_time() - self._started


def one_pass(
    workload: Any, ep: Any, inputs: list[Any], meter: CollectionMeter
) -> tuple[dict[str, float], dict[str, float], list[Any]]:
    """CPU seconds of each run or search in one pass over ``inputs``, its
    lower quartile over the instances; the collection seconds charged to
    each, its mean over the instances; and the outputs' digests."""
    cells: dict[str, list[float]] = {}
    collections: dict[str, list[float]] = {}
    digests = []
    for instance in inputs:
        gc.collect()
        meter.taken.clear()
        out = workload.run_instance(ep, instance)
        for cell, collected in zip(out, meter.taken, strict=True):
            cells.setdefault(cell_name(cell), []).append(cell.seconds)
            collections.setdefault(cell_name(cell), []).append(collected)
        digests.append(workload.fingerprint(ep, out))
    return (
        {name: lower_quartile(times) for name, times in cells.items()},
        {name: statistics.fmean(spent) for name, spent in collections.items()},
        digests,
    )


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compared(a: list[float], b: list[float]) -> dict[str, float]:
    """``b``'s wins and median ratio over ``a``, pair by pair."""
    return {
        "b_wins": sum(tb < ta for ta, tb in zip(a, b)),
        "median_ratio": statistics.median(tb / ta for ta, tb in zip(a, b)),
    }


def one_run(
    a: list[float], b: list[float], a_gc: list[float], b_gc: list[float]
) -> dict[str, float]:
    """One run's or search's figures: each side's lower quartile and
    median over the pairs, ``b``'s wins and median ratio, then each side's
    median collection seconds."""
    return {
        "a_q1": lower_quartile(a),
        "b_q1": lower_quartile(b),
        "a_median": statistics.median(a),
        "b_median": statistics.median(b),
        **compared(a, b),
        "a_gc_s": statistics.median(a_gc),
        "b_gc_s": statistics.median(b_gc),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, type=Path, help="baseline checkout")
    parser.add_argument("--b", required=True, type=Path, help="changed checkout")
    parser.add_argument(
        "--workload", required=True, choices=("churn", "burst", "capacity")
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, **FIXED_ENV},
        )
    sys.path.insert(0, str(BENCH))
    from speed import CLOCK
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    meter = CollectionMeter(CLOCK)
    sides = {}
    for side in ("a", "b"):
        ep = import_from(getattr(args, side))
        sides[side] = (ep, workload.build(ep, args.seed))
    # side -> run or search -> its figure in each pass
    runs: dict[str, dict[str, list[float]]] = {"a": {}, "b": {}}
    # side -> run or search -> its collection seconds in each pass
    collected: dict[str, dict[str, list[float]]] = {"a": {}, "b": {}}
    for pair in range(args.pairs):
        digests = {}
        for side in ("a", "b") if pair % 2 == 0 else ("b", "a"):
            ep, inputs = sides[side]
            taken, spent, digests[side] = one_pass(workload, ep, inputs, meter)
            for name, seconds in taken.items():
                runs[side].setdefault(name, []).append(seconds)
                collected[side].setdefault(name, []).append(spent[name])
        if digests["a"] != digests["b"]:
            print(f"pair {pair}: the two sides' outputs differ", file=sys.stderr)
            return 2
    a = [sum(taken) for taken in zip(*runs["a"].values())]
    b = [sum(taken) for taken in zip(*runs["b"].values())]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "pairs": args.pairs,
                "a": {"dir": str(args.a), **summary(a)},
                "b": {"dir": str(args.b), **summary(b)},
                **compared(a, b),
                "a_s": a,
                "b_s": b,
                "per_run": {
                    name: one_run(
                        ra, runs["b"][name], collected["a"][name], collected["b"][name]
                    )
                    for name, ra in runs["a"].items()
                },
            },
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
