"""Micro-benchmark: enabled telemetry must stay within noise of disabled.

The telemetry layer promises to be off-by-default cheap (a handful of
no-op calls) and cheap enough when enabled that instrumenting the
pipeline does not distort benchmark numbers.  This bench runs the same
small study with telemetry disabled and enabled and asserts the enabled
run stays within 5% wall time (plus a small absolute epsilon so
sub-second runs aren't judged on scheduler jitter).

The crawl-health watchdogs run whenever telemetry is enabled — they are
counter arithmetic and must fit inside the same budget.  The
fidelity scorecard is excluded: turning it on runs the study's one
analysis suite (the full NLP pipeline), whose reports it scores, which
is real work, not instrumentation overhead.

Not part of tier-1 (pytest's testpaths only collects ``tests/``); run it
with ``python -m pytest benchmarks/test_telemetry_overhead.py -q``.
"""

from __future__ import annotations

import time

from repro.core import Study, StudyConfig
from repro.obs import Telemetry

BENCH_CONFIG = StudyConfig(
    seed=2024, scale=0.01, iterations=2, scorecard_enabled=False,
)
REPEATS = 3
#: Relative overhead budget for enabled telemetry.
MAX_OVERHEAD = 0.05
#: Absolute slack (seconds) so sub-second runs aren't flaky.
EPSILON_SECONDS = 0.05


def _timed(telemetry_factory) -> float:
    telemetry = telemetry_factory()
    start = time.perf_counter()
    Study(BENCH_CONFIG, telemetry=telemetry).run()
    return time.perf_counter() - start


def test_telemetry_overhead_within_noise():
    # Interleave warmup: one throwaway run so imports/JIT-ish caches are hot.
    Study(BENCH_CONFIG, telemetry=Telemetry.disabled()).run()
    # The sides alternate, each going first in turn, so a slow phase of a
    # shared machine lands on both; each keeps its best of REPEATS runs.
    sides = {"disabled": Telemetry.disabled, "enabled": Telemetry}
    best = dict.fromkeys(sides, float("inf"))
    for repeat in range(REPEATS):
        for side in list(sides)[:: 1 if repeat % 2 == 0 else -1]:
            best[side] = min(best[side], _timed(sides[side]))
    disabled, enabled = best["disabled"], best["enabled"]
    budget = disabled * (1.0 + MAX_OVERHEAD) + EPSILON_SECONDS
    assert enabled <= budget, (
        f"telemetry overhead too high: enabled={enabled:.3f}s "
        f"disabled={disabled:.3f}s budget={budget:.3f}s"
    )
