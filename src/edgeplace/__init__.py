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

The modules are the API: each module's ``__all__`` lists its public names,
and each name has one import path, through the module that defines it.
``import edgeplace`` loads every module listed in ``__all__`` below, so
``edgeplace.harness.run_scenario`` works without a further import; the
command line is ``edgeplace.cli``.
"""

from . import baselines, harness, model, protocol, scenarios, simnet

__version__ = "0.1.0"

__all__ = ["baselines", "harness", "model", "protocol", "scenarios", "simnet"]
