"""Service placement on edge-cloud trees: a distributed placement protocol,
centralized baselines, an exact solver, and a deterministic event simulator.

Users attach at the leaves of a datacenter tree and each service request may
run only on a latency-bounded prefix of its leaf-to-root path.  The package
offers two lanes over one simulated world: an asynchronous protocol in which
datacenters decide by exchanging messages (scan / push-up / push-down), and
centralized algorithms that re-place everything once per epoch.  The
``harness`` module and the ``python -m edgeplace`` CLI drive experiments:
single runs, golden-log replays, signaling-overhead sweeps, and
minimum-capacity searches.
"""

from __future__ import annotations

from .baselines import (
    ALGORITHMS,
    ExactSolverStats,
    NoUpperBoundError,
    availability_scaler,
    bottom_up_push_up,
    cheapest_feasible,
    exact_optimal,
    first_fit,
    min_cpu_binary_search,
)
from .harness import (
    ALGO_CHOICES,
    build_simulator,
    metrics_rows_for,
    min_cpu_for,
    replay_fixture,
    run_scenario,
    sweep_overhead,
)
from .model import (
    CostModel,
    FeasibilityReport,
    Request,
    ServiceClass,
    Topology,
    build_tree,
    check_feasible,
    feasible_set_for,
)
from .protocol import (
    ProtocolNode,
    ProtocolTiming,
    Record,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    builtin_scenario,
    default_profile,
    load_config,
    synthesize_trace,
)
from .simnet import (
    Counters,
    EpochDecision,
    EpochProblem,
    InvariantError,
    LinkModel,
    RunResult,
    Simulator,
    TraceEvent,
    load_trace,
    message_bits,
    overhead_per_request,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Topology",
    "build_tree",
    "ServiceClass",
    "CostModel",
    "Request",
    "FeasibilityReport",
    "feasible_set_for",
    "check_feasible",
    # protocol
    "ProtocolNode",
    "ProtocolTiming",
    "Record",
    # simulation
    "Simulator",
    "RunResult",
    "Counters",
    "InvariantError",
    "LinkModel",
    "TraceEvent",
    "load_trace",
    "message_bits",
    "overhead_per_request",
    "EpochProblem",
    "EpochDecision",
    # algorithms
    "ALGORITHMS",
    "first_fit",
    "bottom_up_push_up",
    "cheapest_feasible",
    "availability_scaler",
    "exact_optimal",
    "ExactSolverStats",
    "min_cpu_binary_search",
    "NoUpperBoundError",
    # scenarios
    "Scenario",
    "BUILTIN_SCENARIOS",
    "builtin_scenario",
    "default_profile",
    "load_config",
    "synthesize_trace",
    # harness
    "ALGO_CHOICES",
    "build_simulator",
    "run_scenario",
    "metrics_rows_for",
    "replay_fixture",
    "sweep_overhead",
    "min_cpu_for",
]
