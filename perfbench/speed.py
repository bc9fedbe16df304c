"""Machine-speed normalisation of the benchmark's times.

On a small shared VM the effective CPU speed drifts: a fixed pure-Python
loop took anywhere from 0.20 s to 0.33 s on the 2-core VM this benchmark
was built on, in phases lasting seconds to over a minute.  Raw wall times
of the same study-0.02 round then varied by 13% (coefficient of
variation over 21 rounds), more than any bound worth having.

:class:`SpeedProbe` samples the speed *during* the measured work: every
``SAMPLE_INTERVAL_S`` a ``SIGALRM`` handler times a fixed pure-Python
reference workload (about 0.6% of the run).  A phase's speed factor is
``REFERENCE_S`` over the median reference time sampled inside it, and
the harness reports ``raw seconds x factor``: the phase's time at the
reference speed.  Over ten seeds per workload on that VM, the spread
(quartile distance over median) of a run's median round time fell from
0.19 / 0.11 / 0.35 raw to about 0.055 (study-0.1, study-0.02, serve)
with one factor per round; the harness now takes one per phase, since
the speed can change within a 20-second study-0.1 round.  Raw seconds
and factors are kept in the result file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

SAMPLE_INTERVAL_S = 0.1
#: The reference workload's time at the nominal speed (a typical reading
#: on the VM above), so normalised times read like wall seconds there.
REFERENCE_S = 6.0e-4
#: Fewest samples a factor is taken over; short phases borrow the
#: nearest samples on either side.
MIN_SAMPLES = 5

_WORDS = [f"w{i:04d}x" for i in range(512)]


def reference_loop() -> int:
    """Fixed interpreter work shaped like the program's: string-keyed
    dict counting, split/join, small dicts and a keyed sort.  Of the
    variants tried, this one tracked the study rounds' drift best."""
    counts = {}
    for i in range(2500):
        word = _WORDS[(i * 7919) & 511]
        counts[word] = counts.get(word, 0) + 1
    records = [{"k": token, "n": len(token)}
               for token in " ".join(_WORDS).split()]
    records.sort(key=lambda record: record["k"][::-1])
    return len(counts) + len(records)


class SpeedProbe:
    """Timed reference samples over the whole run."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.times.append(end)
        self.durations.append(end - start)

    def factor(self, start: float, end: float) -> float:
        """Speed factor of the window ``[start, end]`` (perf_counter)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        if lo == hi:
            return 1.0
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
