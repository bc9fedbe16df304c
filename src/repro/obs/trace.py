"""Span tracing charged to both the simulated clock and wall time.

A span covers one unit of pipeline work (study -> module -> marketplace
-> page -> request).  Each span records its duration twice: against the
:class:`~repro.util.simtime.SimClock` the crawl runs on (deterministic —
two runs with the same seed produce identical sim durations) and against
``time.perf_counter()`` wall time (for real profiling; never compared
across runs).

Spans nest through an explicit stack: ``tracer.span(...)`` parents the
new span under whichever span is currently open.  Finished spans land in
``tracer.spans`` in completion order and export to JSONL one object per
line (:func:`~repro.util.jsonl.write_records`).

The tracer is the pipeline's only timer.  An optional ``observer`` (the
``--profile`` :class:`~repro.obs.prof.StageProfiler`) hears
``span_opened(record, depth)`` before a span's wall clock starts and
``span_closed(record)`` after it stops, so whatever the observer does —
tracemalloc snapshots, say — is never charged to the span it observes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.util.jsonl import read_records, write_records
from repro.util.simtime import SimClock


@dataclass
class SpanRecord:
    """One completed (or open) span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    attrs: Dict[str, object] = field(default_factory=dict)
    sim_start: float = 0.0
    sim_end: float = 0.0
    wall_start: float = 0.0
    wall_end: float = 0.0

    @property
    def sim_duration(self) -> float:
        return self.sim_end - self.sim_start

    @property
    def wall_duration(self) -> float:
        return self.wall_end - self.wall_start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "sim_duration": self.sim_duration,
            "wall_duration": self.wall_duration,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        record = cls(
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            sim_start=data.get("sim_start", 0.0),
            sim_end=data.get("sim_end", 0.0),
        )
        record.wall_start = 0.0
        record.wall_end = data.get("wall_duration", 0.0)
        return record


class _OpenSpan:
    """Context manager handle returned by :meth:`SpanTracer.span`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "SpanTracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> SpanRecord:
        return self.record

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.record.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self.record)


class SpanTracer:
    """Collects nested spans; span ids are sequential and deterministic."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self._clock = clock
        self._stack: List[SpanRecord] = []
        self._next_id = 1
        self.spans: List[SpanRecord] = []
        #: Notified as spans open and close; None when nothing listens.
        self.observer = None

    def set_clock(self, clock: SimClock) -> None:
        self._clock = clock

    def _sim_now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    def span(self, name: str, **attrs: object) -> _OpenSpan:
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            name=name,
            attrs=attrs,
            sim_start=self._sim_now(),
        )
        self._next_id += 1
        if self.observer is not None:
            self.observer.span_opened(record, len(self._stack))
        record.wall_start = time.perf_counter()
        self._stack.append(record)
        return _OpenSpan(self, record)

    def _finish(self, record: SpanRecord) -> None:
        record.wall_end = time.perf_counter()
        record.sim_end = self._sim_now()
        # Pop through abandoned children too, so an exception that skips
        # inner __exit__ calls cannot wedge the stack.
        while self._stack:
            top = self._stack.pop()
            if top.span_id == record.span_id:
                break
        self.spans.append(record)
        if self.observer is not None:
            self.observer.span_closed(record)

    @property
    def current(self) -> Optional[SpanRecord]:
        return self._stack[-1] if self._stack else None

    # -- reporting -----------------------------------------------------------

    def stage_summary(self) -> List[dict]:
        """Durations of the top-level pipeline stages (see module fn)."""
        return stage_summary(self.spans)

    def export_jsonl(self, path: str) -> None:
        write_records(path, (span.to_dict() for span in self.spans))

    @staticmethod
    def load_jsonl(path: str) -> List[SpanRecord]:
        return [SpanRecord.from_dict(data) for data in read_records(path)]


def stage_summary(spans: List[SpanRecord]) -> List[dict]:
    """Per-stage summary rows from a span list.

    A *stage* is a span one level below a root (e.g. the children of the
    ``study`` span: deploy, iteration_crawl, profile_collection, ...)
    plus any childless root (e.g. a span recorded outside any run).
    Container roots themselves are omitted; rows come out in completion
    order.
    """
    children_of: Dict[Optional[int], int] = {}
    for span in spans:
        children_of[span.parent_id] = children_of.get(span.parent_id, 0) + 1
    root_ids = {s.span_id for s in spans if s.parent_id is None}
    stages = [
        s for s in spans
        if (s.parent_id in root_ids)
        or (s.parent_id is None and not children_of.get(s.span_id))
    ]
    return [
        {
            "name": span.name,
            "sim_seconds": round(span.sim_duration, 6),
            "wall_seconds": round(span.wall_duration, 6),
            "spans": children_of.get(span.span_id, 0),
            "attrs": span.attrs,
        }
        for span in stages
    ]


class _NullSpan:
    """Shared, stateless no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class NullTracer:
    """Tracer stand-in for disabled telemetry; ``span`` allocates nothing."""

    _span = _NullSpan()
    spans: List[SpanRecord] = []

    def set_clock(self, clock) -> None:
        pass

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return self._span

    @property
    def current(self) -> None:
        return None

    def stage_summary(self) -> List[dict]:
        return []

    def export_jsonl(self, path: str) -> None:
        pass


__all__ = [
    "NullTracer",
    "SpanRecord",
    "SpanTracer",
    "stage_summary",
]
