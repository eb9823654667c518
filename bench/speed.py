"""CPU seconds of a timed call, corrected for the machine's clock speed.

On a small shared virtual machine the same Python code runs up to twice as
fast in some seconds as in others: the host's clock speed follows the load
of its other tenants.  Wall time also counts the time other processes hold
the core.  Neither is steady enough to compare two commits run minutes
apart.

``SpeedClock.call`` therefore measures a call's thread CPU time and, while
the call runs, times a fixed probe loop from a ``SIGPROF`` handler every
``PROBE_PERIOD`` CPU seconds.  Each probe gives the speed of the interval
it ends, relative to the reference: ``REFERENCE_PROBE_S`` over its time.
The call's seconds are its CPU time minus the probes', times the mean of
those speeds: the CPU seconds the call would take at the reference speed.
The speed can change within a call; the mean weighs each interval by the
CPU time it took, which a median would not.  The
reference is a constant, so the figures of two commits measured with the
same benchmark code compare directly.  A probe is a small dict loop that
fits in the first-level cache; it tracks the clock speed, not contention
for the shared caches, which stays in the figures.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

#: CPU seconds between probes while a call runs.
PROBE_PERIOD = 0.02
#: Iterations of the probe loop, and its thread CPU seconds at the
#: reference speed (its median on a 2-core Intel Xeon virtual machine in
#: its usual, unboosted state).
PROBE_ITERATIONS = 1000
REFERENCE_PROBE_S = 1.6e-4
#: Least probes a call's speed is taken from; a short call borrows the
#: latest probes of the calls before it.
MIN_PROBES = 9


def _probe() -> float:
    start = time.thread_time()
    d: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        d[i & 63] = d.get(i & 63, 0) + i
    return time.thread_time() - start


class SpeedClock:
    """Times calls in CPU seconds at the reference speed (see module doc)."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._installed = False

    def _record(self) -> None:
        # The probe cannot run four times faster than the reference; a
        # shorter reading (a CPU clock that did not advance) is dropped.
        taken = _probe()
        if taken > REFERENCE_PROBE_S / 4:
            self.probes.append(taken)

    def _on_timer(self, signum: int, frame: Any) -> None:
        self._record()

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float, float]:
        """Run ``fn``; return its result (or the exception it raised), its
        seconds at the reference speed, and its wall seconds."""
        if not self._installed:
            # The handler stays installed: a timer signal that is still in
            # flight after a call must not end the process.
            signal.signal(signal.SIGPROF, self._on_timer)
            self._installed = True
        while len(self.probes) < MIN_PROBES:
            self._record()
        first = len(self.probes)
        wall = time.perf_counter()
        cpu = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD, PROBE_PERIOD)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a crash is a failed operation, not a stop
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu = time.thread_time() - cpu
        wall = time.perf_counter() - wall
        probed = sum(self.probes[first:])
        cpu -= probed
        wall -= probed
        around = self.probes[min(first, len(self.probes) - MIN_PROBES):]
        speed = statistics.fmean(REFERENCE_PROBE_S / t for t in around)
        return result, cpu * speed, wall


#: The one clock of the process: the ``SIGPROF`` handler and the
#: ``ITIMER_PROF`` timer it drives are process-wide.
CLOCK = SpeedClock()
