"""The telemetry facade the pipeline threads through every layer.

A :class:`Telemetry` bundles the three observability primitives —
metrics registry, span tracer, event log — behind one object that is
either fully enabled or a set of shared no-ops.  Call sites never branch
on whether telemetry is on: they hold a ``Telemetry`` (defaulting to the
module-level :data:`NULL_TELEMETRY`) and record unconditionally; the
disabled path costs one attribute lookup and an empty method call.

``set_clock`` binds the simulated clock once the :class:`Internet`
exists, so spans and events are stamped in simulated seconds and stay
deterministic across same-seed runs.

The span tracer is the only timer.  A ``--profile`` run passes a
:class:`~repro.obs.prof.StageProfiler`, which becomes the tracer's
observer; it adds memory, counts and per-client tallies to the phase
spans, and needs enabled telemetry to see any.
"""

from __future__ import annotations

import logging
import os
from typing import List, Optional, Union

from repro.obs.events import EventLog, NullEventLog
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.prof import NULL_PROFILER, PROFILE_FILENAME, StageProfiler
from repro.obs.trace import NullTracer, SpanTracer
from repro.util.simtime import SimClock

METRICS_FILENAME = "metrics.json"
TRACE_FILENAME = "trace.jsonl"
EVENTS_FILENAME = "events.jsonl"


class Telemetry:
    """Metrics + tracing + events (+ optional profiler) behind one switch."""

    def __init__(self, enabled: bool = True,
                 clock: Optional[SimClock] = None,
                 profiler: Optional[StageProfiler] = None) -> None:
        self.enabled = enabled
        #: The performance profiler (``--profile``); the shared no-op
        #: unless one is supplied.
        self.profiler = profiler or NULL_PROFILER
        if enabled:
            self.metrics: Union[MetricsRegistry, NullRegistry] = MetricsRegistry()
            self.tracer: Union[SpanTracer, NullTracer] = SpanTracer(clock)
            self.events: Union[EventLog, NullEventLog] = EventLog(clock)
        else:
            self.metrics = NullRegistry()
            self.tracer = NullTracer()
            self.events = NullEventLog()
        if profiler is not None:
            self.tracer.observer = profiler

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared no-op instance (see :data:`NULL_TELEMETRY`)."""
        return NULL_TELEMETRY

    def set_clock(self, clock: SimClock) -> None:
        self.tracer.set_clock(clock)
        self.events.set_clock(clock)

    def export(self, directory: str) -> List[str]:
        """Write metrics.json, trace.jsonl, events.jsonl — plus
        profile.json when the run was profiled — to a dir.

        Returns the written paths; a disabled telemetry writes nothing.
        """
        if not self.enabled:
            return []
        os.makedirs(directory, exist_ok=True)
        paths = [
            os.path.join(directory, METRICS_FILENAME),
            os.path.join(directory, TRACE_FILENAME),
            os.path.join(directory, EVENTS_FILENAME),
        ]
        self.metrics.write_json(paths[0])
        self.tracer.export_jsonl(paths[1])
        self.events.export_jsonl(paths[2])
        if self.profiler.enabled:
            profile_path = os.path.join(directory, PROFILE_FILENAME)
            self.profiler.export_json(profile_path)
            paths.append(profile_path)
        return paths


#: Shared no-op used as the default everywhere telemetry is optional.
NULL_TELEMETRY = Telemetry(enabled=False)


def configure_logging(level: str = "warning",
                      stream=None) -> logging.Logger:
    """Configure the ``repro`` logger hierarchy for CLI runs."""
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level.upper(), logging.WARNING))
    if not logger.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
    return logger


__all__ = [
    "EVENTS_FILENAME",
    "METRICS_FILENAME",
    "NULL_TELEMETRY",
    "TRACE_FILENAME",
    "Telemetry",
    "configure_logging",
]
