"""Host-speed calibration: timings scaled to a reference host speed.

The benchmark host switches between faster and slower states (shared
cores, frequency changes) for seconds to minutes at a time; pure-Python
work runs up to 1.9x slower in a slow state. A run sees these states in a
proportion that differs from run to run, so raw timings spread far more
between runs than the program's speed does.

The driver therefore times a fixed pure-Python kernel (dict and int work)
throughout the timed phase and reports each request's latency scaled to
the host speed at which that kernel takes REFERENCE_S:

    latency * (REFERENCE_S / kernel) ** sensitivity

where kernel is the median kernel time within WINDOW_S of the request.
REFERENCE_S is about what the kernel takes in the host's fast state.
sensitivity is how strongly the workload's latency follows the kernel: the
slope of log latency over log kernel time across the host's states,
measured once per workload. The kernel never calls spreadbent, so a faster
program still reports a smaller time; only the host's state cancels out.

A workload that computes in the driver's own process samples the kernel in
bursts just before each request (and once after the last): a sampling
thread would contend with it for the GIL and time the contention instead
of the host. A workload whose work runs in worker processes leaves the
driver's process idle, so a thread samples the kernel every
SAMPLE_EVERY_S while each request runs.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from contextlib import contextmanager

REFERENCE_S = 0.002
ROUNDS = 9000
WINDOW_S = 0.25
SAMPLE_EVERY_S = 0.1


def calibrate() -> float:
    """CPU seconds the fixed kernel takes now. CPU time, not wall time, so
    that waiting for a CPU that the workload's own worker processes hold
    does not count; a slow host state slows the CPU time as well."""
    t0 = time.thread_time()
    table: dict[int, int] = {}
    for i in range(ROUNDS):
        key = i * 40503 & 1023
        table[key] = table.get(key, 0) ^ (i * 2654435761 >> 7)
    sorted(table.values())
    return time.thread_time() - t0


class Probe:
    """Kernel samples taken around (burst > 0) or during (burst == 0) each
    request, and the latencies they scale."""

    def __init__(self, burst: int, sensitivity: float):
        self.burst = burst
        self.sensitivity = sensitivity
        self.starts: list[float] = []
        self.kernel_s: list[float] = []

    def _sample(self) -> None:
        start = time.perf_counter()
        self.kernel_s.append(calibrate())
        self.starts.append(start)

    def before(self) -> None:
        """Before each request, and once after the last."""
        for _ in range(self.burst):
            self._sample()

    @contextmanager
    def during(self):
        """Around each request."""
        if self.burst:
            yield
            return
        stop = threading.Event()

        def sample_until_stopped():
            while not stop.wait(SAMPLE_EVERY_S):
                self._sample()

        thread = threading.Thread(target=sample_until_stopped)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scale(self, spans: list[tuple[float, float]]) -> list[float]:
        """The latency of each (start, end) request at the reference speed."""
        out = []
        for t0, t1 in spans:
            lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
            hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
            kernel = statistics.median(self.kernel_s[lo:hi])
            out.append((t1 - t0) * (REFERENCE_S / kernel) ** self.sensitivity)
        return out
