"""Command line for experiments: ``python -m edgeplace <subcommand>``.

Subcommands
-----------
``run``
    Run one or more algorithms over a scenario family and emit one metrics
    row per (algorithm, seed); exit 2 when any run diverged or failed.
``replay``
    Re-run a built-in fixture and compare its event log against the frozen
    golden copy, reporting the first difference.
``sweep-overhead``
    Grid sweep of signaling bytes per request over the tight-class share
    and the scan accumulation window.
``min-cpu``
    Binary-search the least leaf capacity at which an algorithm serves a
    scenario family.

Exit codes: 0 success, 1 configuration error, 2 diverged/failed run (or a
replay mismatch).  A capacity search of ``min-cpu`` or ``sweep-overhead``
that gives up exits 2 when its last run diverged or failed, else 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .baselines import NODE_BUDGET, NoUpperBoundError
from .golden_logs import GOLDEN_LOGS
from .harness import (
    ALGO_CHOICES,
    metrics_rows_for,
    min_cpu_for,
    refuse_repeats,
    render_rows,
    replay_fixture,
    sweep_overhead,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    check_trace,
    load_config,
)
from .simnet import EVENT_BUDGET, EventLog, load_trace

__all__ = ["main", "build_parser"]

#: run verdicts that make the command exit 2
_FAILED_VERDICTS = ("diverged", "failure")


class _CliError(Exception):
    """Configuration problem; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


def _parse_algos(raw: str) -> list[str]:
    algos = [a.strip() for a in raw.split(",") if a.strip()]
    if not algos:
        raise _CliError("no algorithm given")
    for algo in algos:
        if algo not in ALGO_CHOICES:
            raise _CliError(
                f"unknown algorithm {algo!r}; pick from {', '.join(ALGO_CHOICES)}"
            )
    return refuse_repeats(algos, "--algo")


def _parse_seeds(raw: str) -> list[int]:
    """Either a count (``5`` means seeds 1..5) or an explicit ``1,7,9`` list."""
    if "," in raw:
        seeds = [int(part) for part in raw.split(",") if part.strip()]
        if not seeds:
            raise _CliError("--seeds lists no seed")
        return refuse_repeats(seeds, "--seeds")
    count = int(raw)
    if count < 1:
        raise _CliError("--seeds must be at least 1")
    return list(range(1, count + 1))


def _parse_floats(raw: str, flag: str) -> list[float]:
    values = [float(part) for part in raw.split(",") if part.strip()]
    if not values:
        raise _CliError(f"{flag} needs at least one value")
    return refuse_repeats(values, flag)


def _scenario_for(args: argparse.Namespace, seed: int):
    family_flags = {
        "users": args.users,
        "p_rt": args.p_rt,
        "leaf_capacity": args.leaf_capacity,
        "levels": args.levels,
        "arity": args.arity,
    }
    overrides = {k: v for k, v in family_flags.items() if v is not None}
    if args.config is not None:
        given = ["scenario"] if args.scenario is not None else []
        given += overrides
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise _CliError(f"{flags} cannot be given with --config, which sets them")
        scenario = load_config(args.config, seed=seed)
    else:
        scenario = builtin_scenario(args.scenario or "rand", seed=seed, **overrides)
    if args.trace is not None:
        scenario = replace(
            scenario,
            trace=tuple(load_trace(args.trace)),
            name=f"{scenario.name}+{Path(args.trace).stem}",
        )
        check_trace(scenario, f"--trace {args.trace}")
    return scenario


def _emit(rows, args) -> None:
    text = render_rows(rows, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, newline="")


def _cmd_run(args: argparse.Namespace) -> int:
    algos = _parse_algos(args.algo)
    seeds = _parse_seeds(args.seeds)
    if args.log is not None and (len(algos) != 1 or len(seeds) != 1):
        raise _CliError("--log needs exactly one algorithm and one seed")
    rows = []
    log_lines: EventLog | None = None
    for seed in seeds:
        scenario = _scenario_for(args, seed)
        seed_rows, results = metrics_rows_for(
            scenario,
            algos,
            seed,
            event_budget=args.budget,
            bnb_budget=args.bnb_budget,
            check_invariants=args.check_invariants,
            normalize=not args.no_normalize,
        )
        rows.extend(seed_rows)
        if args.log is not None:
            log_lines = results[algos[0]].event_log
    rows.sort(key=lambda r: (r["scenario"], r["algorithm"], r["seed"]))
    _emit(rows, args)
    if log_lines is not None:
        log_text = "\n".join(log_lines) + ("\n" if log_lines else "")
        if args.log == "-":
            sys.stdout.write(log_text)
        else:
            Path(args.log).write_text(log_text)
    if any(row["verdict"] in _FAILED_VERDICTS for row in rows):
        return 2
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    outcome = replay_fixture(args.fixture)
    if outcome.ok:
        print(f"replay {args.fixture}: PASS ({len(outcome.result.event_log)} events)")
        return 0
    print(f"replay {args.fixture}: FAIL")
    for line in outcome.diff:
        print(line)
    return 2


def _cmd_sweep_overhead(args: argparse.Namespace) -> int:
    rows = sweep_overhead(
        _parse_floats(args.p_rt, "--p-rt"),
        _parse_floats(args.t_ad, "--t-ad"),
        _parse_seeds(args.seeds),
        users=args.users,
        levels=args.levels,
        arity=args.arity,
        event_budget=args.budget,
        leaf_capacity=args.leaf_capacity,
    )
    _emit(rows, args)
    if any(row["verdict"] in _FAILED_VERDICTS for row in rows):
        return 2
    return 0


def _cmd_min_cpu(args: argparse.Namespace) -> int:
    algos = _parse_algos(args.algo)
    shares = _parse_floats(args.p_rt, "--p-rt")
    seeds = _parse_seeds(args.seeds)
    rows = []
    for algo in algos:
        for p_rt in shares:
            for seed in seeds:
                value = min_cpu_for(
                    algo,
                    seed=seed,
                    users=args.users,
                    p_rt=p_rt,
                    levels=args.levels,
                    arity=args.arity,
                    family=args.family,
                    event_budget=args.budget,
                    bnb_budget=args.bnb_budget,
                )
                rows.append(
                    {
                        "algorithm": algo,
                        "p_rt": p_rt,
                        "seed": seed,
                        "min_cpu": value,
                    }
                )
    rows.sort(key=lambda r: (r["algorithm"], r["p_rt"], r["seed"]))
    _emit(rows, args)
    return 0


def _add_report_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="report format (default csv)",
    )


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--budget", type=int, default=EVENT_BUDGET,
        help="event budget before a run is declared diverged",
    )
    sub.add_argument(
        "--bnb-budget", type=int, default=NODE_BUDGET,
        help="search-node budget for the exact solver",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="edgeplace", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run algorithms over a scenario")
    run.add_argument(
        "--scenario", choices=BUILTIN_SCENARIOS,
        help="built-in scenario name (default rand, unless --config is given)",
    )
    run.add_argument("--config", help="JSON scenario config file, instead of --scenario")
    run.add_argument("--trace", help="user trace CSV replacing the scenario's trace")
    run.add_argument(
        "--algo", default="dapp",
        help=f"comma list from: {', '.join(ALGO_CHOICES)} (default dapp)",
    )
    run.add_argument(
        "--seeds", default="1",
        help="seed count (N means 1..N) or explicit comma list (default 1)",
    )
    run.add_argument("--users", type=int, help="family scenarios: user count")
    run.add_argument("--p-rt", type=float, help="family scenarios: tight-class share")
    run.add_argument("--leaf-capacity", type=int, help="family scenarios: leaf CPU units")
    run.add_argument("--levels", type=int, help="family scenarios: tree height")
    run.add_argument("--arity", type=int, help="family scenarios: children per node")
    run.add_argument(
        "--log", help="write the run's event log to this file ('-' for stdout)"
    )
    run.add_argument(
        "--no-normalize", action="store_true",
        help="skip the exact-solver reference run (normalized_cost left blank)",
    )
    run.add_argument(
        "--check-invariants", action="store_true",
        help="assert capacity/bookkeeping invariants after every event",
    )
    _add_report_flags(run)
    _add_budget_flags(run)
    run.set_defaults(func=_cmd_run)

    rep = commands.add_parser(
        "replay", help="check a fixture against its frozen event log"
    )
    rep.add_argument("fixture", choices=sorted(GOLDEN_LOGS), help="fixture name")
    rep.set_defaults(func=_cmd_replay)

    sweep = commands.add_parser(
        "sweep-overhead", help="signaling bytes/request over (share, window) grids"
    )
    sweep.add_argument("--p-rt", default="0,0.25,0.5,0.75,1")
    sweep.add_argument("--t-ad", default="1e-6,1e-5,1e-4")
    sweep.add_argument("--seeds", default="1")
    sweep.add_argument("--users", type=int, default=24)
    sweep.add_argument("--levels", type=int, default=6)
    sweep.add_argument("--arity", type=int, default=2)
    sweep.add_argument(
        "--leaf-capacity", type=int,
        help="skip the sizing run and use this capacity directly",
    )
    sweep.add_argument("--budget", type=int, default=EVENT_BUDGET)
    _add_report_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep_overhead)

    mincpu = commands.add_parser(
        "min-cpu", help="least leaf capacity at which an algorithm succeeds"
    )
    mincpu.add_argument("--algo", default="dapp")
    mincpu.add_argument("--p-rt", default="0.5", help="comma list of shares")
    mincpu.add_argument("--seeds", default="1")
    mincpu.add_argument("--users", type=int, default=12)
    mincpu.add_argument("--levels", type=int, default=4)
    mincpu.add_argument("--arity", type=int, default=2)
    mincpu.add_argument("--family", choices=("rand", "jitter"), default="rand")
    _add_report_flags(mincpu)
    _add_budget_flags(mincpu)
    mincpu.set_defaults(func=_cmd_min_cpu)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, NoUpperBoundError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        gave_up = isinstance(err, NoUpperBoundError)
        return 2 if gave_up and err.verdict in _FAILED_VERDICTS else 1
