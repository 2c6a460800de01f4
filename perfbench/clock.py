"""A clock that runs at a fixed reference machine speed.

On a shared machine the speed of pure-Python code drifts by a factor of up to
about two over seconds to minutes while other tenants load it, which no
amount of repetition inside one run averages out.  This clock removes that
drift: every ``INTERVAL`` seconds a SIGALRM handler times a fixed
calibration kernel (small tuple and dict work like the engine's inner loops),
and until the next probe, elapsed real time is scaled by
``KERNEL_REF / kernel time``.  The kernel's own run time is excluded.  The
result reads in seconds at the speed where the kernel takes ``KERNEL_REF``,
the fastest it ran on the 2-vCPU Xeon VM the benchmark was written on.

Work done by lieinduct is not rescaled away: the kernel does not call it, so
a slower engine still reads slower.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

KERNEL_REF = 0.0007  # seconds; the kernel's fastest time on the reference VM
INTERVAL = 0.04  # seconds between probes while the clock runs


def kernel() -> None:
    """Fixed work: 600 small tuple builds and dict updates."""
    d: dict = {}
    v = (0,) * 8
    step = (1, 0, 2, 0, 1, 3, 0, 1)
    for i in range(600):
        v = tuple(a + b for a, b in zip(v, step))
        key = (v[i & 7] % 97, v[(i + 3) & 7] % 89, i & 15)
        d[key] = d.get(key, 0) + 1


class CalibratedClock:
    def __init__(self) -> None:
        # (reading at the end of the last probe, perf_counter then, scale)
        self._state = (0.0, time.perf_counter(), 1.0)
        self.scales: list[float] = []

    def now(self) -> float:
        t = time.perf_counter()
        v0, t0, scale = self._state
        if t < t0:  # a probe ran between the two reads above
            return v0
        return v0 + (t - t0) * scale

    def probe(self) -> None:
        """Time the kernel once and rescale from here on; the reading does
        not advance while the kernel runs."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            v = self.now()
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        scale = KERNEL_REF / (t1 - t0)
        self._state = (v, t1, scale)
        self.scales.append(scale)

    @contextlib.contextmanager
    def running(self):
        """Probe now and then every INTERVAL seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def median_speed(self) -> float:
        """Median machine speed over the probes, relative to the reference."""
        return statistics.median(self.scales) if self.scales else 1.0
