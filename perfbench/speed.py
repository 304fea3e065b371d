"""The speed of the core this process runs on, sampled while a pass runs.

The benchmark was defined on a shared 2-vCPU virtual machine whose speed
swings by up to a factor of two within seconds, with no steal time showing:
one run's blocks of E7 queries took from 0.42 s to 0.85 s.  Raw times of one
run then differ from the next by more than any useful regression bound: over
five seeds per workload, the quartile spread of `wall_s` was 0.24 to 0.46 of
its median.

So while a pass runs, an interval timer interrupts this process every 10 ms
and times a fixed micro-loop of integer arithmetic and small-dict lookups on
the same core, between two bytecodes of the program.  A pass's time is
multiplied by ``REFERENCE_S / median(samples during the pass)``: seconds at
the speed the machine had when the reference was taken.  In five seeds per
workload run back to back, this brought the largest quartile spread of an
end-to-end time from 0.23 raw to 0.10 scaled.  A loop timed in another
process, or between passes, did not track: it ran on the other core or at
another time, and scaling by it widened the spread of whole-group passes.

The micro-loop costs about 0.5% of a pass, the same on every commit.  Its
data is tiny, but the program evicts it from the caches between samples, so
a change to the program's memory traffic can move the scale a little.  Raw
times are printed beside the scaled ones; compare them too before trusting a
small difference.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median sample on the machine the benchmark was defined on (2 vCPUs,
# CPython 3.11.7).
REFERENCE_S = 50e-6
INTERVAL_S = 0.01
_KEYS = [tuple((7 * i + j) % 11 - 5 for j in range(7)) for i in range(64)]


class Speedometer:
    """Samples the micro-loop while the ``with`` block runs."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._table = {key: i for i, key in enumerate(_KEYS)}
        self._probes = [tuple(list(key)) for key in _KEYS]  # equal keys, other objects
        self._previous = None

    def _tick(self, signum, frame) -> None:
        perf = time.perf_counter
        start = perf()
        x = 0
        for i in range(300):
            x = (x * 31 + i) & 0xFFFF
        total = 0
        for key in self._probes:
            total += self._table[key]
        self.samples.append(perf() - start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Multiply a raw time by this to get seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples) if self.samples else 1.0
