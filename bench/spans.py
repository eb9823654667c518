"""The traced run: spans around the package's public functions, from outside.

``install`` replaces functions and methods at the names their callers look
them up by (module globals and class attributes) with wrappers that record
a span each: name, start, end and the enclosing span.  Spans stay in memory
as flat arrays; a span's self time is its duration minus that of its
children.  ``uninstall`` puts the originals back.

Traced times are not comparable with untraced ``cpu_s``: every wrapper adds
call overhead, and its frame shifts the stack depth the recursive exact
solver starts at, which alone can change that solver's speed several-fold.
Span times are wall seconds and include the speed probes of speed.py
(about 1% of the time).
Solver claims should cite ``baselines.exact.nodes_expanded``.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

#: ProtocolNode handlers reported with call counts and self time.
HANDLERS = (
    "run_scan",
    "run_fallback_scan",
    "run_push_up",
    "run_fallback_push_up",
    "handle_push_up_acks",
    "start_push_down",
    "accept_push_down",
    "handle_push_down_ack",
    "notify_gone",
    "buffer_scan_input",
)
#: Further ProtocolNode and Simulator methods wrapped as spans
#: (``Simulator.run`` is wrapped separately, to keep its counters).
NODE_METHODS = ("on_message", "on_timer")
SIM_METHODS = ("send", "commit_placement", "log")
ALGOS = ("ffit", "bupu", "cpvnf", "multiscaler", "exact")


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory spans with parent links."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def totals(self) -> dict[str, SpanTotals]:
        """Calls, inclusive time and self time per span name."""
        count = len(self.start)
        child_s = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        out = {name: SpanTotals() for name in self.names}
        for i in range(count):
            t = out[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            t.calls += 1
            t.total_s += duration
            t.self_s += duration - child_s[i]
        return out

    def children_of(self, parent_name: str, child_name: str) -> SpanTotals:
        """Calls and inclusive time of ``child_name`` spans directly under
        ``parent_name`` spans."""
        pid = self._ids.get(parent_name)
        cid = self._ids.get(child_name)
        out = SpanTotals()
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name_id[i] == cid and p >= 0 and self.name_id[p] == pid:
                out.calls += 1
                out.total_s += self.end[i] - self.start[i]
        return out


class Probe:
    """Wrappers installed on the package, plus what they captured."""

    def __init__(self, ep: Any, tracer: Tracer) -> None:
        self.ep = ep
        self.tracer = tracer
        self.runs: list[tuple[str, Any]] = []  # (mode, Counters) per run
        self.exact_calls: list[tuple[int, bool]] = []  # (nodes, exhausted)
        self._undo: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, self.tracer.wrap(getattr(owner, attr), name))

    def install(self) -> None:
        ep, tracer = self.ep, self.tracer
        node = ep.protocol.ProtocolNode
        sim = ep.simnet.Simulator
        for method in HANDLERS + NODE_METHODS:
            self._span(node, method, f"protocol.{method}")
        for method in SIM_METHODS:
            self._span(sim, method, f"simnet.{method}")
        self._span(ep.simnet, "message_bits", "simnet.message_bits")
        self._span(ep.simnet, "feasible_set_for", "model.feasible_set_for")
        self._span(ep.scenarios, "synthesize_trace", "scenarios.synthesize_trace")
        self._span(ep.harness, "rand_scenario", "harness.rand_scenario")
        self._span(ep.harness, "run_scenario", "harness.run_scenario")
        self._span(ep.harness, "min_cpu_for", "harness.min_cpu_for")

        # The wrapper below ``simnet.run`` keeps each run's counters.
        run = sim.run
        runs = self.runs

        @functools.wraps(run)
        def counted_run(self_sim: Any, *args: Any, **kwargs: Any) -> Any:
            result = run(self_sim, *args, **kwargs)
            runs.append((self_sim.mode, result.counters))
            return result

        self._patch(sim, "run", tracer.wrap(counted_run, "simnet.run"))

        exact = ep.harness.exact_optimal
        exact_calls = self.exact_calls
        stats_type = ep.baselines.ExactSolverStats

        @functools.wraps(exact)
        def exact_with_stats(problem: Any, *args: Any, **kwargs: Any) -> Any:
            stats = stats_type()
            decision = exact(problem, *args, stats=stats, **kwargs)
            exact_calls.append((stats.nodes_expanded, decision.exhausted_budget))
            return decision

        self._patch(
            ep.harness, "exact_optimal", tracer.wrap(exact_with_stats, "harness.exact_optimal")
        )

        build = ep.harness.build_simulator

        @functools.wraps(build)
        def build_traced_algorithm(scenario: Any, algo: str, **kwargs: Any) -> Any:
            simulator = build(scenario, algo, **kwargs)
            if simulator.algorithm is not None:
                simulator.algorithm = tracer.wrap(
                    simulator.algorithm, f"baselines.{algo}"
                )
            return simulator

        self._patch(
            ep.harness,
            "build_simulator",
            tracer.wrap(build_traced_algorithm, "harness.build_simulator"),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer figures, each as (value, unit)."""
        t = self.tracer.totals()

        def get(name: str) -> SpanTotals:
            return t.get(name, SpanTotals())

        events = sum(c.events for _mode, c in self.runs)
        protocol = [c for mode, c in self.runs if mode == "protocol"]
        proto_messages = sum(c.total_messages() for c in protocol)
        proto_placements = sum(c.placements for c in protocol)
        run = get("simnet.run")
        m: dict[str, tuple[float, str]] = {
            "simnet.events": (events, "count"),
            "simnet.us_per_event": (ratio(run.self_s * 1e6, events), "us"),
            "simnet.run_self_s": (run.self_s, "s"),
            "simnet.messages": (sum(c.total_messages() for _m, c in self.runs), "count"),
            "simnet.bits": (sum(c.total_bits() for _m, c in self.runs), "bit"),
            "simnet.send.s": (get("simnet.send").total_s, "s"),
            "simnet.message_bits.s": (get("simnet.message_bits").total_s, "s"),
            "simnet.log.calls": (get("simnet.log").calls, "count"),
            "simnet.log.s": (get("simnet.log").total_s, "s"),
            "simnet.commit_placement.calls": (get("simnet.commit_placement").calls, "count"),
            "simnet.commit_placement.s": (get("simnet.commit_placement").total_s, "s"),
            "simnet.build_s": (get("harness.build_simulator").total_s, "s"),
        }
        for handler in HANDLERS:
            h = get(f"protocol.{handler}")
            m[f"protocol.{handler}.calls"] = (h.calls, "count")
            m[f"protocol.{handler}.self_s"] = (h.self_s, "s")
        m["protocol.push_downs"] = (sum(c.push_downs for c in protocol), "count")
        m["protocol.migrations"] = (sum(c.migrations for c in protocol), "count")
        m["protocol.messages_per_placement"] = (
            ratio(proto_messages, proto_placements),
            "count",
        )
        for algo in ALGOS:
            a = get(f"baselines.{algo}")
            m[f"baselines.{algo}.calls"] = (a.calls, "count")
            m[f"baselines.{algo}.s"] = (a.total_s, "s")
        nodes = sum(n for n, _exhausted in self.exact_calls)
        exhausted = sum(1 for _n, e in self.exact_calls if e)
        calls = len(self.exact_calls)
        m["baselines.exact.nodes_expanded"] = (nodes, "count")
        m["baselines.exact.nodes_per_s"] = (
            ratio(nodes, get("harness.exact_optimal").total_s),
            "1/s",
        )
        m["baselines.exact.exhausted_calls"] = (exhausted, "count")
        m["baselines.exact.proven_share"] = (ratio(calls - exhausted, calls), "share")
        probes = self.tracer.children_of("harness.min_cpu_for", "harness.run_scenario")
        m["harness.probes"] = (probes.calls, "count")
        m["harness.probe_s"] = (probes.total_s, "s")
        m["harness.scenario_build_s"] = (get("harness.rand_scenario").total_s, "s")
        fs = get("model.feasible_set_for")
        m["model.feasible_set_for.calls"] = (fs.calls, "count")
        m["model.feasible_set_for.s"] = (fs.total_s, "s")
        m["scenarios.synthesize_trace_s"] = (get("scenarios.synthesize_trace").total_s, "s")
        return m


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
