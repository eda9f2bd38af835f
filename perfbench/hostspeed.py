"""Host-speed correction for timings on a shared machine.

On a machine shared with other tenants the speed of a core drifts by tens
of percent in phases lasting seconds, longer than many invocations.  While
a ``HostSpeed`` region is open, a SIGALRM timer runs a fixed arithmetic
loop every ``INTERVAL_S`` seconds and records how long it took; one more
sample is taken when the region opens, so short regions have one too.
``reference_seconds`` turns a wall time measured inside the region into
seconds at the reference speed: the time the program itself ran (the
samples' own time removed) times ``factor``, the mean ratio of reference
to measured loop time.  Sampling costs about 1% of the region.

The loop touches no memory beyond a few registers' worth, on purpose:
probes that read a buffer were tried, and their time depends on how much
of the buffer the program evicted from the caches between samples, which
would let the program's own memory behaviour leak into the correction.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
LOOP_STEPS = 4000
REFERENCE_LOOP_S = 1.5e-4  # loop time that defines one reference second


def _loop_seconds() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(LOOP_STEPS):
        x += i
    return time.perf_counter() - start


class HostSpeed:
    """Context manager sampling host speed; main thread only (signals)."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(_loop_seconds())

    def __enter__(self) -> "HostSpeed":
        self.samples = [_loop_seconds()]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self) -> float:
        """Mean host speed over the region, relative to the reference speed."""
        return sum(REFERENCE_LOOP_S / s for s in self.samples) / len(self.samples)

    def reference_seconds(self, wall: float) -> float:
        """Wall seconds of work in this thread during the region, rescaled to
        the reference speed; the samples that interrupted it are taken out."""
        return (wall - sum(self.samples[1:])) * self.factor
