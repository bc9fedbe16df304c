"""The central schema-id registry and the invariant it exists for:
every emitted JSON artifact carries a known, versioned schema id."""

import json
import os

import pytest

from repro.archive.writer import ARCHIVE_SCHEMA as WRITER_ARCHIVE_SCHEMA
from repro.obs import schemas
from repro.obs.alerts import AlertReport
from repro.obs.bench import BENCH_SCHEMA as BENCH_MODULE_SCHEMA
from repro.obs.manifest import build_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import StageProfiler
from repro.obs.quality import Scorecard
from repro.obs.registry import RunRegistry
from repro.obs.summary import trace_document
from repro.obs.telemetry import NULL_TELEMETRY
from repro.obs.trends import trends_document

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


class TestRegistryOfIds:
    def test_every_constant_is_known(self):
        for name in dir(schemas):
            if name.endswith("_SCHEMA"):
                assert getattr(schemas, name) in schemas.KNOWN_SCHEMAS, name

    def test_artifact_map_values_are_known(self):
        for name, schema_id in schemas.ARTIFACT_SCHEMAS.items():
            assert schema_id in schemas.KNOWN_SCHEMAS, name

    def test_ids_are_versioned(self):
        for schema_id in schemas.KNOWN_SCHEMAS:
            assert schema_id.startswith("repro."), schema_id
            assert "/v" in schema_id, schema_id

    def test_emitters_reexport_the_same_objects(self):
        assert WRITER_ARCHIVE_SCHEMA is schemas.ARCHIVE_SCHEMA
        assert BENCH_MODULE_SCHEMA is schemas.BENCH_SCHEMA

    def test_serving_layer_ids_registered(self):
        assert schemas.CATALOG_SCHEMA == "repro.catalog/v1"
        assert schemas.BENCH_SERVE_SCHEMA == "repro.bench-serve/v1"
        assert schemas.CATALOG_API_SCHEMA in schemas.KNOWN_SCHEMAS
        assert schemas.ARTIFACT_SCHEMAS["catalog.json"] \
            is schemas.CATALOG_SCHEMA
        assert schemas.ARTIFACT_SCHEMAS["BENCH_serve.json"] \
            is schemas.BENCH_SERVE_SCHEMA


class TestChecks:
    def test_check_schema_passes_on_match(self):
        schemas.check_schema({"schema": schemas.MANIFEST_SCHEMA},
                             schemas.MANIFEST_SCHEMA)

    def test_check_schema_raises_on_mismatch(self):
        with pytest.raises(schemas.SchemaError):
            schemas.check_schema({"schema": "bogus/v1"},
                                 schemas.MANIFEST_SCHEMA)

    def test_check_schema_raises_on_missing(self):
        with pytest.raises(schemas.SchemaError):
            schemas.check_schema({}, schemas.MANIFEST_SCHEMA)
        with pytest.raises(schemas.SchemaError):
            schemas.check_schema(None, schemas.MANIFEST_SCHEMA)

    def test_check_artifact_by_filename(self):
        schemas.check_artifact(
            "scorecard.json", {"schema": schemas.SCORECARD_SCHEMA})
        with pytest.raises(schemas.SchemaError):
            schemas.check_artifact(
                "scorecard.json", {"schema": schemas.PROFILE_SCHEMA})

    def test_unknown_filenames_pass(self):
        schemas.check_artifact("whatever.json", {"schema": "anything"})


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        assert schemas.config_hash({"a": 1, "b": 2}) == \
            schemas.config_hash({"b": 2, "a": 1})

    def test_different_configs_differ(self):
        assert schemas.config_hash({"seed": 1}) != \
            schemas.config_hash({"seed": 2})

    def test_none_and_empty_agree(self):
        assert schemas.config_hash(None) == schemas.config_hash({})

    def test_short_hex(self):
        digest = schemas.config_hash({"seed": 1})
        assert len(digest) == 16
        int(digest, 16)  # must be hex


class TestEveryEmittedArtifactCarriesAKnownId:
    """The satellite invariant: each JSON document the pipeline writes
    self-identifies with an id from the central registry."""

    def _assert_known(self, document):
        assert document.get("schema") in schemas.KNOWN_SCHEMAS, \
            document.get("schema")

    def test_metrics_snapshot(self):
        self._assert_known(MetricsRegistry().snapshot())

    def test_scorecard(self):
        self._assert_known(Scorecard(seed=1, scale=1.0).to_dict())

    def test_profile_snapshot(self):
        profiler = StageProfiler(memory=False)
        self._assert_known(profiler.snapshot())

    def test_manifest(self):
        manifest = build_manifest({"seed": 3}, object(), NULL_TELEMETRY)
        self._assert_known(manifest)
        assert manifest["config_hash"] == schemas.config_hash({"seed": 3})

    def test_committed_bench_baseline(self):
        path = os.path.join(REPO_ROOT, "BENCH_pipeline.json")
        with open(path, encoding="utf-8") as handle:
            self._assert_known(json.load(handle))

    def test_alerts_document(self):
        report = AlertReport(run_id="r", runs_considered=1)
        self._assert_known(report.to_dict())

    def test_trends_document(self):
        self._assert_known(trends_document([]))

    def test_trace_document(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        manifest = build_manifest({"seed": 1}, object(), NULL_TELEMETRY)
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        self._assert_known(trace_document(str(run_dir)))

    def test_catalog_manifest_and_serve_bench(self, tmp_path):
        from repro.core.dataset import ListingRecord, MeasurementDataset
        from repro.serve import build_catalog, manifest_document
        from repro.serve.bench import run_serve_bench
        from repro.store import save_dataset

        run_dir = tmp_path / "run"
        save_dataset(MeasurementDataset(listings=[
            ListingRecord(offer_url=f"http://m/offer/{i}", marketplace="m",
                          price_usd=10.0 + i)
            for i in range(3)
        ]), str(run_dir))
        catalog_dir = str(tmp_path / "catalog")
        build_catalog([str(run_dir)], catalog_dir)
        manifest = manifest_document(catalog_dir)
        self._assert_known(manifest)
        schemas.check_artifact("catalog.json", manifest)
        bench = run_serve_bench(catalog_dir, clients=4,
                                requests_per_client=2, distinct_queries=4)
        self._assert_known(bench)
        schemas.check_artifact("BENCH_serve.json", bench)

    def test_registry_meta(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        with RunRegistry.open(path) as registry:
            assert registry._meta("schema") == schemas.REGISTRY_SCHEMA
        # Reopening validates the stored id instead of trusting it.
        with RunRegistry.open_existing(path):
            pass
