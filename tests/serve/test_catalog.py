"""Catalog builder: determinism, idempotency, store contents, corruption."""

import json
import os
import shutil

import pytest

from repro.core.dataset import ListingRecord
from repro.serve import (
    CATALOG_DB_FILENAME,
    CATALOG_FILENAME,
    Catalog,
    CatalogError,
    build_catalog,
    catalog_digest,
    source_digest,
)
from repro.store import save_dataset

from tests.serve.conftest import scorecard_doc, small_dataset, write_run


class TestBuild:
    def test_tables_and_manifest(self, catalog_dir):
        manifest = json.load(
            open(os.path.join(catalog_dir, CATALOG_FILENAME))
        )
        assert manifest["schema"] == "repro.catalog/v1"
        assert manifest["cycles"] == 2
        assert manifest["tables"]["listings"] == 24
        assert manifest["tables"]["sellers"] == 6
        assert manifest["tables"]["runs"] == 2
        assert manifest["tables"]["scorecards"] == 4
        assert len(manifest["db_sha256"]) == 64
        for source in manifest["sources"]:
            assert source["label"] == f"cycle-{source['cycle']:03d}"
            for name in source["files"]:
                assert not os.path.isabs(name)

    def test_open_and_stats(self, catalog_dir):
        with Catalog.open(catalog_dir) as catalog:
            assert catalog.cycles() == [0, 1]
            assert catalog.latest_cycle() == 1
            stats = catalog.stats()
            assert stats["listings"] == 24
            assert stats["price_history"] > 0
            assert catalog.digest == catalog_digest(catalog_dir)

    def test_seller_ids_sorted_by_url(self, catalog_dir):
        with Catalog.open(catalog_dir) as catalog:
            rows = catalog.conn.execute(
                "SELECT id, seller_url FROM sellers ORDER BY id"
            ).fetchall()
        urls = [row["seller_url"] for row in rows]
        assert urls == sorted(urls)
        assert [row["id"] for row in rows] == list(range(1, len(rows) + 1))

    def test_empty_sources_refused(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CatalogError, match="no dataset artifacts"):
            build_catalog([str(empty)], str(tmp_path / "catalog"))
        # What an interrupted run leaves: a meta file but no store.
        (empty / "study_meta.json").write_text('{"partial": "interrupted"}')
        with pytest.raises(CatalogError, match="no dataset artifacts"):
            build_catalog([str(empty)], str(tmp_path / "catalog"))
        with pytest.raises(CatalogError, match="does not exist"):
            build_catalog([str(tmp_path / "absent")],
                          str(tmp_path / "catalog"))
        with pytest.raises(CatalogError, match="no run directories"):
            build_catalog([], str(tmp_path / "catalog"))


class TestDeterminism:
    def test_twin_runs_byte_identical_catalog(self, tmp_path):
        """Same-seed twins in differently named dirs -> identical bytes
        of both the manifest and the database."""
        run_a = write_run(str(tmp_path / "first-location"),
                          small_dataset(), scorecard=scorecard_doc())
        run_b = write_run(str(tmp_path / "second-location"),
                          small_dataset(), scorecard=scorecard_doc())
        out_a = str(tmp_path / "cat_a")
        out_b = str(tmp_path / "cat_b")
        result_a = build_catalog([run_a], out_a)
        result_b = build_catalog([run_b], out_b)
        assert result_a.content_digest == result_b.content_digest
        assert open(os.path.join(out_a, CATALOG_FILENAME), "rb").read() \
            == open(os.path.join(out_b, CATALOG_FILENAME), "rb").read()
        assert open(os.path.join(out_a, CATALOG_DB_FILENAME), "rb").read() \
            == open(os.path.join(out_b, CATALOG_DB_FILENAME), "rb").read()

    def test_rebuild_is_noop(self, run_dir, tmp_path):
        out = str(tmp_path / "catalog")
        first = build_catalog([run_dir], out)
        assert first.rebuilt
        before = open(os.path.join(out, CATALOG_DB_FILENAME), "rb").read()
        second = build_catalog([run_dir], out)
        assert not second.rebuilt
        assert second.content_digest == first.content_digest
        assert second.tables == first.tables
        after = open(os.path.join(out, CATALOG_DB_FILENAME), "rb").read()
        assert before == after

    def test_changed_data_changes_digest_and_rebuilds(self, run_dir,
                                                      tmp_path):
        out = str(tmp_path / "catalog")
        first = build_catalog([run_dir], out)
        changed = small_dataset()
        changed.listings.append(ListingRecord(
            offer_url="http://alphabay/offer/99", marketplace="alphabay",
            price_usd=123.0,
        ))
        shutil.rmtree(run_dir)
        write_run(run_dir, changed, scorecard=scorecard_doc())
        second = build_catalog([run_dir], out)
        assert second.rebuilt
        assert second.content_digest != first.content_digest
        assert second.tables["listings"] == first.tables["listings"] + 1

    def test_source_digest_ignores_location(self, tmp_path):
        run_a = write_run(str(tmp_path / "a"), small_dataset())
        run_b = write_run(str(tmp_path / "nested" / "b"), small_dataset())
        assert source_digest([run_a]) == source_digest([run_b])

    def test_source_digest_covers_cycle_order(self, tmp_path):
        run_a = write_run(str(tmp_path / "a"), small_dataset())
        run_b = write_run(str(tmp_path / "b"), small_dataset(5.0))
        assert source_digest([run_a, run_b]) != source_digest([run_b, run_a])


class TestLayouts:
    def test_corrupt_jsonl_lines_skipped(self, tmp_path):
        # A flipped byte quarantines its whole sealed segment (4 of the
        # 12 listings); the catalog indexes the rest.
        run = str(tmp_path / "run")
        save_dataset(small_dataset(), run, segment_max_records=4)
        segment = os.path.join(run, "segments", "listings-000000.seg")
        with open(segment, "r+b") as handle:
            byte = handle.read(1)
            handle.seek(0)
            handle.write(bytes([byte[0] ^ 0x01]))
        result = build_catalog([run], str(tmp_path / "catalog"))
        assert result.tables["listings"] == 8

    def test_invalid_prices_nulled(self, tmp_path):
        dataset = small_dataset()
        dataset.listings.append(ListingRecord(
            offer_url="http://alphabay/offer/bad", marketplace="alphabay",
            price_usd=-4.0,
        ))
        run = write_run(str(tmp_path / "run"), dataset)
        out = str(tmp_path / "catalog")
        build_catalog([run], out)
        with Catalog.open(out) as catalog:
            row = catalog.conn.execute(
                "SELECT price_usd FROM listings WHERE offer_url = ?",
                ("http://alphabay/offer/bad",),
            ).fetchone()
        assert row[0] is None


class TestCorruption:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CatalogError, match="not a catalog"):
            Catalog.open(str(tmp_path))

    def test_flipped_db_byte_refused(self, catalog_dir):
        db_path = os.path.join(catalog_dir, CATALOG_DB_FILENAME)
        with open(db_path, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)
            handle.seek(100)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CatalogError, match="does not match"):
            Catalog.open(catalog_dir)
        # verify=False serves it anyway (the caller opted out).
        Catalog.open(catalog_dir, verify=False).close()

    def test_wrong_schema_id_refused(self, catalog_dir):
        manifest_path = os.path.join(catalog_dir, CATALOG_FILENAME)
        manifest = json.load(open(manifest_path))
        manifest["schema"] = "repro.catalog/v999"
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CatalogError, match="schema id"):
            Catalog.open(catalog_dir)
        with pytest.raises(CatalogError):
            catalog_digest(catalog_dir)

    def test_missing_db_refused(self, catalog_dir):
        os.remove(os.path.join(catalog_dir, CATALOG_DB_FILENAME))
        with pytest.raises(CatalogError, match="missing"):
            Catalog.open(catalog_dir)
