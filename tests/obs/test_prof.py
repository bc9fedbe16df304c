"""StageProfiler: phases, memory, determinism, coverage, health wiring."""

import json
import os

import pytest

from repro.analysis.suite import STAGE_NAMES
from repro.core import Study, StudyConfig
from repro.obs import Telemetry, health_problems, trace_document
from repro.obs.prof import (
    MACHINE_KEYS,
    NULL_PROFILER,
    PROFILE_FILENAME,
    PROFILE_SCHEMA,
    StageProfiler,
    deterministic_view,
    load_profile,
    profile_stage_coverage,
)
from repro.obs.trace import SpanTracer
from repro.util.simtime import SimClock

CONFIG = StudyConfig(seed=515, scale=0.01, iterations=2)


@pytest.fixture(scope="module")
def profiled_run():
    study = Study(CONFIG, telemetry=Telemetry(
        profiler=StageProfiler(stages_expected=STAGE_NAMES)
    ))
    result = study.run()
    return result, study.telemetry


def profiled_tracer(profiler, clock=None):
    """A span tracer with ``profiler`` as its observer."""
    tracer = SpanTracer(clock)
    tracer.observer = profiler
    return tracer


class TestStageProfiler:
    def test_phase_records_sim_and_wall(self):
        clock = SimClock()
        profiler = StageProfiler(memory=False)
        tracer = profiled_tracer(profiler, clock)
        with tracer.span("run"):
            with tracer.span("crawl"):
                clock.advance(120.0)
        (record,) = profiler.phases
        assert record.name == "crawl"
        assert record.sim_seconds == pytest.approx(120.0)
        assert record.wall_seconds >= 0.0

    def test_stage_phases_carry_prefix_and_kind(self):
        profiler = StageProfiler(memory=False)
        tracer = profiled_tracer(profiler)
        with tracer.span("run"):
            with tracer.span("stage.network"):
                pass
        (record,) = profiler.phases
        assert record.name == "stage.network"
        assert record.kind == "stage"
        assert profiler.stage_names() == ["network"]

    def test_nested_phases_all_recorded(self):
        profiler = StageProfiler(memory=False)
        tracer = profiled_tracer(profiler)
        with tracer.span("run"):
            with tracer.span("outer"):
                with tracer.span("stage.inner"):
                    pass
        names = [record.name for record in profiler.phases]
        assert names == ["stage.inner", "outer"]

    def test_phases_are_root_children_and_stage_spans(self):
        clock = SimClock()
        profiler = StageProfiler(memory=False)
        tracer = profiled_tracer(profiler, clock)
        with tracer.span("run"):
            with tracer.span("crawl"):
                with tracer.span("page"):
                    clock.advance(5.0)
                with tracer.span("stage.deep"):
                    pass
        with tracer.span("second_root"):
            with tracer.span("late"):
                pass
        assert [record.name for record in profiler.phases] \
            == ["stage.deep", "crawl"]
        root = next(span for span in tracer.spans if span.name == "run")
        totals = profiler.snapshot()["totals"]
        assert totals["sim_seconds"] == 5.0
        assert totals["wall_seconds"] == round(root.wall_duration, 6)

    def test_memory_tracks_allocations_and_child_peaks(self):
        profiler = StageProfiler(memory=True)
        tracer = profiled_tracer(profiler)
        keep = []
        with tracer.span("run"):
            with tracer.span("outer"):
                with tracer.span("stage.inner"):
                    keep.append(bytearray(4_000_000))
        inner, outer = profiler.phases
        assert inner.mem_peak_bytes >= 4_000_000
        # The child's peak propagates into the enclosing phase.
        assert outer.mem_peak_bytes >= inner.mem_peak_bytes
        del keep

    def test_add_counts_and_throughput(self):
        profiler = StageProfiler(memory=False)
        tracer = profiled_tracer(profiler)
        with tracer.span("run"):
            with tracer.span("crawl"):
                pass
        profiler.add_counts("crawl", pages=100, records=250)
        (record,) = profiler.phases
        assert record.counts == {"pages": 100, "records": 250}
        exported = record.to_dict()
        if exported["wall_seconds"] > 0:
            assert "pages_per_second" in exported["throughput"]

    def test_add_counts_to_unknown_phase_is_a_noop(self):
        profiler = StageProfiler(memory=False)
        profiler.add_counts("never-profiled", pages=3)
        assert profiler.phases == []

    def test_add_client_sorts_hosts(self):
        class Stats:
            requests_sent = 7
            bytes_received = 900
            by_host = {"b.example": 4, "a.example": 3}
            bytes_by_host = {"b.example": 500, "a.example": 400}

        profiler = StageProfiler(memory=False)
        profiler.add_client("crawler", Stats())
        (client,) = profiler.clients
        assert client["requests_total"] == 7
        assert [h["host"] for h in client["hosts"]] == ["a.example", "b.example"]
        assert client["hosts"][0]["bytes"] == 400

    def test_null_profiler_is_inert(self):
        NULL_PROFILER.add_counts("x", pages=1)
        assert NULL_PROFILER.enabled is False

    def test_snapshot_totals_do_not_double_count_stage_records(self):
        profiler = StageProfiler(memory=False)
        tracer = profiled_tracer(profiler)
        with tracer.span("run"):
            with tracer.span("analysis"):
                with tracer.span("stage.anatomy"):
                    pass
        profiler.add_counts("analysis", records=10)
        profiler.add_counts("stage.anatomy", records=10)
        snapshot = profiler.snapshot()
        assert snapshot["totals"]["counts"]["records"] == 10


class TestDeterministicView:
    def test_strips_machine_keys_recursively(self):
        profile = {
            "wall_seconds": 1.0,
            "env": {"python": "3.11"},
            "phases": [
                {"name": "a", "wall_seconds": 0.5, "sim_seconds": 2.0,
                 "throughput": {"pages_per_second": 3.0},
                 "memory": {"peak_bytes": 10}},
            ],
            "totals": {"sim_seconds": 2.0, "memory": {"rss_max_kb": 5}},
        }
        view = deterministic_view(profile)
        assert "wall_seconds" not in view
        assert "env" not in view
        assert view["phases"][0] == {"name": "a", "sim_seconds": 2.0}
        assert view["totals"] == {"sim_seconds": 2.0}

    def test_machine_keys_cover_every_nondeterministic_field(self):
        assert {"wall_seconds", "throughput", "memory", "env"} <= MACHINE_KEYS


class TestProfileCoverage:
    def test_full_roster_covers(self):
        profile = {
            "stages_expected": list(STAGE_NAMES),
            "phases": [
                {"name": f"stage.{name}", "kind": "stage"}
                for name in STAGE_NAMES
            ],
        }
        assert profile_stage_coverage(profile) == []

    def test_missing_stage_reported(self):
        profile = {
            "stages_expected": list(STAGE_NAMES),
            "phases": [
                {"name": f"stage.{name}", "kind": "stage"}
                for name in STAGE_NAMES if name != "network"
            ],
        }
        assert profile_stage_coverage(profile) == ["network"]

    def test_unprofiled_file_has_nothing_missing(self):
        assert profile_stage_coverage({"phases": []}) == []


class TestProfiledStudy:
    def test_profile_covers_phases_and_all_stages(self, profiled_run):
        _result, telemetry = profiled_run
        profiler = telemetry.profiler
        assert profiler.enabled
        names = [record.name for record in profiler.phases]
        for phase in ("build_world", "deploy", "iteration_crawl",
                      "payment_pages", "profile_collection", "status_sweep",
                      "underground_collection", "contracts",
                      "analysis_suite", "scorecard"):
            assert phase in names, phase
        assert sorted(profiler.stage_names()) == sorted(STAGE_NAMES)

    def test_crawl_phase_has_throughput_counts(self, profiled_run):
        result, telemetry = profiled_run
        crawl = next(
            record for record in telemetry.profiler.phases
            if record.name == "iteration_crawl"
        )
        assert crawl.counts["pages"] > 0
        assert crawl.counts["records"] == len(result.dataset.listings)

    def test_clients_record_per_host_bytes(self, profiled_run):
        _result, telemetry = profiled_run
        clients = {c["client"]: c for c in telemetry.profiler.clients}
        assert "crawler" in clients
        assert clients["crawler"]["bytes_total"] > 0
        assert all(h["requests"] > 0 for h in clients["crawler"]["hosts"])

    def test_export_writes_profile_json(self, profiled_run, tmp_path):
        _result, telemetry = profiled_run
        paths = telemetry.export(str(tmp_path))
        assert os.path.join(str(tmp_path), PROFILE_FILENAME) in paths
        profile = load_profile(str(tmp_path))
        assert profile["schema"] == PROFILE_SCHEMA
        assert profile["stages_expected"] == list(STAGE_NAMES)
        assert profile_stage_coverage(profile) == []

    def test_twin_runs_identical_once_machine_fields_masked(self, profiled_run):
        _result, telemetry = profiled_run
        # The twin runs without tracemalloc: memory is a machine field,
        # so its deterministic view must match the traced run's exactly.
        twin = Study(CONFIG, telemetry=Telemetry(
            profiler=StageProfiler(memory=False, stages_expected=STAGE_NAMES)
        ))
        twin.run()
        view_a = deterministic_view(telemetry.profiler.snapshot())
        view_b = deterministic_view(twin.telemetry.profiler.snapshot())
        assert json.dumps(view_a, sort_keys=True) \
            == json.dumps(view_b, sort_keys=True)

    def test_phase_times_are_their_spans(self, profiled_run):
        _result, telemetry = profiled_run
        phases = telemetry.profiler.snapshot()["phases"]
        rows = {row["name"]: row for row in telemetry.tracer.stage_summary()}
        pipeline_phases = [p for p in phases if p["kind"] == "phase"]
        assert {p["name"] for p in pipeline_phases} == set(rows)
        for phase in pipeline_phases:
            row = rows[phase["name"]]
            assert phase["wall_seconds"] == row["wall_seconds"], phase["name"]
            assert phase["sim_seconds"] == row["sim_seconds"], phase["name"]
        spans = {span.name: span for span in telemetry.tracer.spans}
        for phase in phases:
            if phase["kind"] == "stage":
                span = spans[phase["name"]]
                assert phase["wall_seconds"] == round(span.wall_duration, 6)
        nlp = [s for s in telemetry.tracer.spans if s.name.startswith("nlp.")]
        assert nlp
        assert all(s.parent_id == spans["stage.scam_posts"].span_id
                   for s in nlp)

    def test_unprofiled_run_stays_on_null_profiler(self):
        study = Study(StudyConfig(seed=515, scale=0.01, iterations=1),
                      telemetry=Telemetry())
        assert study.telemetry.profiler is NULL_PROFILER


class TestHealthStrictProfile:
    def _telemetry_dir(self, tmp_path, profile: dict) -> str:
        run_dir = tmp_path / "telemetry"
        run_dir.mkdir()
        (run_dir / "metrics.json").write_text('{"metrics": []}')
        (run_dir / PROFILE_FILENAME).write_text(json.dumps(profile))
        return str(run_dir)

    def test_profile_missing_stage_is_a_health_problem(self, tmp_path):
        doctored = {
            "schema": PROFILE_SCHEMA,
            "stages_expected": list(STAGE_NAMES),
            "phases": [
                {"name": f"stage.{name}", "kind": "stage"}
                for name in STAGE_NAMES if name != "efficacy"
            ],
        }
        problems = health_problems(
            trace_document(self._telemetry_dir(tmp_path, doctored)))
        assert any("efficacy" in problem for problem in problems)

    def test_complete_profile_is_healthy(self, tmp_path):
        profile = {
            "schema": PROFILE_SCHEMA,
            "stages_expected": list(STAGE_NAMES),
            "phases": [
                {"name": f"stage.{name}", "kind": "stage"}
                for name in STAGE_NAMES
            ],
        }
        document = trace_document(self._telemetry_dir(tmp_path, profile))
        assert health_problems(document) == []
