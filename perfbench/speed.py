"""Speed probe: a fixed piece of pure-Python work that measures how fast the
machine is running right now.

The machines this benchmark runs on drift between fast and slow states that
last from seconds to minutes (shared cores, frequency changes), and a pass
of unchanged code can take twice as long in one state as in the other. So
the benchmark times the probe alongside the code it measures and scales the
measured time to the reference speed, at which the probe takes
``REFERENCE_S``; the state the machine was in then largely cancels out.

- Set-up is short: the probe is timed just before and just after it.
- A pass is long, and the state can change in the middle of it, so a
  ``Sampler`` times a short probe every ``INTERVAL_S`` of the pass, from a
  timer signal. The samples' own time is taken out of the pass's time.

The probe exercises what the library's hot loops do (hashing, set and dict
lookups, small-int arithmetic, list growth and sorting, function calls) and
touches nothing of the library, so no change to the library moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

# Near the probe's median time in a fresh interpreter on the machine the
# baselines were measured on (2 vCPUs of an Intel Xeon at 2.1 GHz, Python
# 3.11.7), where it read from 8 to 17 ms as the machine changed state. It
# only sets the scale: keep it fixed, or every scaled time moves with it.
REFERENCE_S = 0.015
SIZE = 40000
REPS = 7

# The sampler's probe is SAMPLE_SIZE / SIZE of the full one, and so is its
# reference time.
SAMPLE_SIZE = 2000
INTERVAL_S = 0.05


def _step(a: int, members: set) -> int:
    members.add(a & 0x3FF)
    return a | 5


def unit(size: int = SIZE) -> int:
    members: set = set()
    hits = []
    for i in range(size):
        a = (i * 2654435761) & 0xFFFF
        b = _step(a, members)
        if b in members:
            hits.append((b & 7, a >> 3))
    hits.sort()
    tally: dict = {}
    for key, _ in hits:
        tally[key] = tally.get(key, 0) + 1
    return len(tally)


def probe(reps: int = REPS) -> float:
    """Median seconds of ``reps`` runs of ``unit``."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at the
    reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class Sampler:
    """Times a short probe every ``interval`` seconds of wall time while
    active (``with Sampler() as s: ...``), from a SIGALRM timer.

    ``factor`` is the mean of reference time over sample time, that is the
    machine's mean speed over the interval relative to the reference: work
    that took ``t`` seconds would take ``t * factor`` at the reference speed.
    ``spent_s`` is the time the samples themselves took.
    """

    def __init__(self, interval: float = INTERVAL_S, size: int = SAMPLE_SIZE):
        self.interval, self.size = interval, size
        self.reference = REFERENCE_S * size / SIZE
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        unit(self.size)
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # the work ended within one interval
            self._sample(None, None)

    def factor(self) -> float:
        return statistics.fmean(self.reference / t for t in self.samples)
