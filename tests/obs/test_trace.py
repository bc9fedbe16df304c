"""Span tracer: nesting, sim-clock charging, observer, JSONL round-trip."""

import time

from repro.obs.trace import NullTracer, SpanTracer, stage_summary
from repro.util.simtime import SimClock


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = SpanTracer()
        with tracer.span("study"):
            with tracer.span("crawl"):
                with tracer.span("page"):
                    pass
            with tracer.span("profiles"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["study"].parent_id is None
        assert by_name["crawl"].parent_id == by_name["study"].span_id
        assert by_name["page"].parent_id == by_name["crawl"].span_id
        assert by_name["profiles"].parent_id == by_name["study"].span_id

    def test_completion_order_and_sequential_ids(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert [s.span_id for s in tracer.spans] == [2, 1]

    def test_exception_marks_span_and_unwinds_stack(self):
        tracer = SpanTracer()
        try:
            with tracer.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.current is None
        assert tracer.spans[0].attrs["error"] == "RuntimeError"


class TestSimClockCharging:
    def test_sim_durations_follow_the_clock(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        with tracer.span("outer"):
            clock.advance(10.0)
            with tracer.span("inner"):
                clock.advance(5.0)
            clock.advance(1.0)
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].sim_duration == 5.0
        assert by_name["inner"].sim_start == 10.0
        assert by_name["outer"].sim_duration == 16.0

    def test_set_clock_after_construction(self):
        tracer = SpanTracer()
        clock = SimClock(start=100.0)
        tracer.set_clock(clock)
        with tracer.span("s"):
            clock.advance(2.0)
        assert tracer.spans[0].sim_start == 100.0
        assert tracer.spans[0].sim_duration == 2.0

    def test_wall_duration_is_non_negative(self):
        tracer = SpanTracer()
        with tracer.span("s"):
            pass
        assert tracer.spans[0].wall_duration >= 0.0


class TestObserver:
    def test_observer_is_never_charged_to_a_span(self):
        calls = []

        class SlowObserver:
            def span_opened(self, record, depth):
                calls.append(("opened", record.name, depth))
                time.sleep(0.02)

            def span_closed(self, record):
                calls.append(("closed", record.name))
                time.sleep(0.02)

        tracer = SpanTracer()
        tracer.observer = SlowObserver()
        with tracer.span("root"):
            pass
        assert calls == [("opened", "root", 0), ("closed", "root")]
        assert tracer.spans[0].wall_duration < 0.02


class TestJsonlRoundTrip:
    def test_export_and_load(self, tmp_path):
        clock = SimClock()
        tracer = SpanTracer(clock)
        with tracer.span("study", seed=7):
            clock.advance(3.0)
            with tracer.span("crawl", marketplace="Z2U"):
                clock.advance(1.0)
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(str(path))
        loaded = SpanTracer.load_jsonl(str(path))
        assert [(s.name, s.span_id, s.parent_id, s.sim_start, s.sim_end)
                for s in loaded] == \
               [(s.name, s.span_id, s.parent_id, s.sim_start, s.sim_end)
                for s in tracer.spans]
        assert loaded[1].attrs == {"seed": 7}


class TestStageSummary:
    def test_children_of_root_plus_childless_roots(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        with tracer.span("study"):
            with tracer.span("crawl"):
                with tracer.span("page"):  # depth 2: not a stage
                    clock.advance(1.0)
            with tracer.span("profiles"):
                clock.advance(2.0)
        with tracer.span("nlp.embed"):  # childless root after the study
            clock.advance(4.0)
        names = [row["name"] for row in tracer.stage_summary()]
        assert names == ["crawl", "profiles", "nlp.embed"]
        rows = {row["name"]: row for row in tracer.stage_summary()}
        assert rows["crawl"]["sim_seconds"] == 1.0
        assert rows["crawl"]["spans"] == 1
        assert rows["nlp.embed"]["sim_seconds"] == 4.0

    def test_flat_spans_are_their_own_stages(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [r["name"] for r in stage_summary(tracer.spans)] == ["a", "b"]


class TestNullTracer:
    def test_noop(self, tmp_path):
        tracer = NullTracer()
        with tracer.span("anything", attr=1):
            pass
        assert tracer.spans == []
        assert tracer.stage_summary() == []
        tracer.export_jsonl(str(tmp_path / "t.jsonl"))  # writes nothing
        assert not (tmp_path / "t.jsonl").exists()
