"""The read-optimized serving catalog.

:func:`build_catalog` ingests one or more **run directories** — each a
segmented store (``repro run --out``) plus ``study_meta.json`` /
``scorecard.json`` when present — into a single SQLite database shaped
for reads:

* ``listings`` with secondary indexes by marketplace+category, price,
  and seller, so the search endpoint never scans;
* ``sellers`` — one aggregated row per seller (listing counts, price
  stats, platforms sold) joined against the seller-page records;
* ``price_history`` — per ``(cycle, marketplace, category)`` price
  aggregates, the timestamped series *BuyTheBy* treats as the core
  artifact (each ingested run dir is one cycle, in argument order —
  e.g. successive monitor re-crawls);
* ``scorecards`` — every fidelity-scorecard entry per cycle, powering
  the scorecard and run-diff endpoints.

The build is **deterministic and rebuild-idempotent**.  A
``catalog.json`` manifest (``repro.catalog/v1``) records a
``content_digest``: the SHA-256 folded over every *deterministic*
source artifact (store manifest and segments, ``study_meta.json``,
``scorecard.json`` — never ``manifest.json``, whose wall-clock stage
timings differ between same-seed twins).  Same-seed twin runs therefore
produce byte-identical digests, and rebuilding over an unchanged run
dir compares digests and returns without touching a file.  The digest
is also the serving layer's cache-invalidation token: it changes
exactly when the data does (see :mod:`repro.serve.cache`).

All rows are inserted in sorted key order with no timestamps, so the
catalog itself is as deterministic as SQLite's file format allows; the
manifest additionally records ``db_sha256`` so :meth:`Catalog.open`
can refuse a corrupted or hand-edited database (``repro serve query``
exits 2 on that).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.schemas import CATALOG_SCHEMA, artifact_schema, canonical_json
from repro.store.segments import StoreReader, existing_store_artifact
from repro.util.fileio import atomic_write_json, file_sha256
from repro.util.money import is_valid_price
from repro.util.stats import median

CATALOG_FILENAME = "catalog.json"
CATALOG_DB_FILENAME = "catalog.db"

#: Deterministic side artifacts folded into the digest when present.
#: ``manifest.json`` is deliberately absent: it records wall-clock
#: timings, which would split same-seed twins into different digests.
_SIDE_FILES = ("study_meta.json", "scorecard.json")

_SCHEMA_SQL = """
CREATE TABLE catalog_info (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE runs (
    cycle INTEGER PRIMARY KEY,
    label TEXT NOT NULL,
    seed INTEGER,
    scale REAL,
    iterations INTEGER,
    partial TEXT,
    n_listings INTEGER NOT NULL,
    n_sellers INTEGER NOT NULL,
    n_profiles INTEGER NOT NULL,
    scorecard_passed INTEGER
);
CREATE TABLE listings (
    id INTEGER PRIMARY KEY,
    cycle INTEGER NOT NULL REFERENCES runs (cycle),
    offer_url TEXT NOT NULL,
    marketplace TEXT NOT NULL,
    platform TEXT,
    category TEXT,
    price_usd REAL,
    title TEXT,
    seller_id INTEGER,
    seller_url TEXT,
    seller_name TEXT,
    followers_claimed INTEGER,
    verified_claim INTEGER NOT NULL DEFAULT 0,
    first_seen_iteration INTEGER NOT NULL DEFAULT 0,
    last_seen_iteration INTEGER NOT NULL DEFAULT 0,
    provenance TEXT
);
CREATE INDEX listings_by_market ON listings (marketplace, category);
CREATE INDEX listings_by_category ON listings (category);
CREATE INDEX listings_by_price ON listings (price_usd);
CREATE INDEX listings_by_seller ON listings (seller_id);
CREATE TABLE sellers (
    id INTEGER PRIMARY KEY,
    seller_url TEXT NOT NULL UNIQUE,
    marketplace TEXT NOT NULL,
    name TEXT,
    country TEXT,
    rating REAL,
    joined TEXT,
    n_listings INTEGER NOT NULL,
    n_priced INTEGER NOT NULL,
    median_price_usd REAL,
    min_price_usd REAL,
    max_price_usd REAL,
    platforms TEXT NOT NULL DEFAULT ''
);
CREATE INDEX sellers_by_market ON sellers (marketplace);
CREATE TABLE price_history (
    cycle INTEGER NOT NULL REFERENCES runs (cycle),
    marketplace TEXT NOT NULL,
    category TEXT NOT NULL,
    n INTEGER NOT NULL,
    median_price_usd REAL NOT NULL,
    mean_price_usd REAL NOT NULL,
    min_price_usd REAL NOT NULL,
    max_price_usd REAL NOT NULL,
    PRIMARY KEY (cycle, marketplace, category)
);
CREATE TABLE scorecards (
    cycle INTEGER NOT NULL REFERENCES runs (cycle),
    name TEXT NOT NULL,
    kind TEXT,
    value REAL,
    lo REAL,
    hi REAL,
    passed INTEGER,
    detail TEXT,
    PRIMARY KEY (cycle, name)
);
"""


class CatalogError(RuntimeError):
    """The catalog directory is missing, corrupt, or not a catalog.
    The message is a single printable line."""


@dataclass
class BuildResult:
    """What one :func:`build_catalog` call did."""

    directory: str
    content_digest: str
    rebuilt: bool
    tables: Dict[str, int] = field(default_factory=dict)


# -- source digest ----------------------------------------------------------


def _run_source_files(run_dir: str) -> List[str]:
    """Relative paths of the digestable artifacts inside one run dir."""
    names: List[str] = []
    if os.path.exists(os.path.join(run_dir, "store.json")):
        names.append("store.json")
    segments = os.path.join(run_dir, "segments")
    if os.path.isdir(segments):
        names.extend(
            os.path.join("segments", entry)
            for entry in sorted(os.listdir(segments))
            if entry.endswith(".seg")
        )
    names.extend(n for n in _SIDE_FILES
                 if os.path.exists(os.path.join(run_dir, n)))
    return names


def source_digest(run_dirs: Iterable[str]) -> str:
    """The content digest over every deterministic source artifact.

    Folds ``cycle index, relative name, file sha256`` triples — never
    absolute paths, so twin runs in different directories digest
    identically.
    """
    digest = hashlib.sha256(b"repro.catalog/v1\n")
    for cycle, run_dir in enumerate(run_dirs):
        for name in _run_source_files(run_dir):
            file_hash = file_sha256(os.path.join(run_dir, name))
            digest.update(f"{cycle}\0{name}\0{file_hash}\n".encode("utf-8"))
    return digest.hexdigest()


# -- reading one run dir ----------------------------------------------------


def _iter_run_records(run_dir: str,
                      record_type: str) -> Iterator[dict]:
    """Record payload dicts of one type from a run dir's store.  Corrupt
    segments are skipped — the catalog indexes what is readable."""
    for payload in StoreReader.open(run_dir).iter_records(record_type):
        if isinstance(payload, dict):
            yield payload


def _load_json(run_dir: str, name: str) -> Optional[dict]:
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return document if isinstance(document, dict) else None


# -- building ---------------------------------------------------------------


def _insert_run_rows(conn: sqlite3.Connection, cycle: int,
                     run_dir: str,
                     seller_ids: Dict[str, int]) -> Dict[str, int]:
    """Ingest one run dir as one cycle; returns per-table row counts."""
    listings = sorted(
        _iter_run_records(run_dir, "listings"),
        key=lambda p: (str(p.get("marketplace") or ""),
                       str(p.get("offer_url") or "")),
    )
    sellers = list(_iter_run_records(run_dir, "sellers"))
    n_profiles = sum(1 for _ in _iter_run_records(run_dir, "profiles"))

    for payload in listings:
        price = payload.get("price_usd")
        if price is not None and not is_valid_price(price):
            price = None
        seller_url = payload.get("seller_url")
        conn.execute(
            "INSERT INTO listings (cycle, offer_url, marketplace, platform,"
            " category, price_usd, title, seller_id, seller_url, seller_name,"
            " followers_claimed, verified_claim, first_seen_iteration,"
            " last_seen_iteration, provenance)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                cycle,
                str(payload.get("offer_url") or ""),
                str(payload.get("marketplace") or ""),
                payload.get("platform"),
                payload.get("category"),
                price,
                payload.get("title"),
                seller_ids.get(seller_url) if seller_url else None,
                seller_url,
                payload.get("seller_name"),
                payload.get("followers_claimed"),
                1 if payload.get("verified_claim") else 0,
                int(payload.get("first_seen_iteration") or 0),
                int(payload.get("last_seen_iteration") or 0),
                payload.get("provenance"),
            ),
        )

    # Price history: one row per (marketplace, category) with a price.
    series: Dict[Tuple[str, str], List[float]] = {}
    for payload in listings:
        price = payload.get("price_usd")
        if price is None or not is_valid_price(price):
            continue
        key = (str(payload.get("marketplace") or ""),
               str(payload.get("category") or "uncategorized"))
        series.setdefault(key, []).append(float(price))
    for (marketplace, category), prices in sorted(series.items()):
        conn.execute(
            "INSERT INTO price_history (cycle, marketplace, category, n,"
            " median_price_usd, mean_price_usd, min_price_usd,"
            " max_price_usd) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (cycle, marketplace, category, len(prices),
             round(median(prices), 6),
             round(sum(prices) / len(prices), 6),
             min(prices), max(prices)),
        )

    scorecard = _load_json(run_dir, "scorecard.json")
    scorecard_passed: Optional[int] = None
    n_scorecard = 0
    if scorecard is not None:
        scorecard_passed = 1 if scorecard.get("passed") else 0
        for entry in scorecard.get("entries", []):
            if not isinstance(entry, dict) or not entry.get("name"):
                continue
            conn.execute(
                "INSERT OR REPLACE INTO scorecards (cycle, name, kind,"
                " value, lo, hi, passed, detail)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (cycle, entry.get("name"), entry.get("kind"),
                 entry.get("value"), entry.get("low"), entry.get("high"),
                 1 if entry.get("passed") else 0, entry.get("detail")),
            )
            n_scorecard += 1

    meta = _load_json(run_dir, "study_meta.json") or {}
    conn.execute(
        "INSERT INTO runs (cycle, label, seed, scale, iterations,"
        " partial, n_listings, n_sellers, n_profiles, scorecard_passed)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        # The label is content-derived (cycle index), never path-derived:
        # twin runs ingested from differently-named directories must
        # produce byte-identical catalog databases.
        (cycle, f"cycle-{cycle:03d}",
         meta.get("seed"), meta.get("scale"), meta.get("iterations"),
         meta.get("partial"), len(listings), len(sellers), n_profiles,
         scorecard_passed),
    )
    return {"listings": len(listings), "price_history": len(series),
            "scorecards": n_scorecard}


def _insert_sellers(conn: sqlite3.Connection,
                    run_dirs: List[str]) -> Dict[str, int]:
    """Aggregate sellers across every cycle; returns seller_url -> id.

    Ids are 1-based positions in sorted ``seller_url`` order — fully
    deterministic and stable across rebuilds of the same sources.
    """
    seller_pages: Dict[str, dict] = {}
    stats: Dict[str, dict] = {}
    for run_dir in run_dirs:
        for payload in _iter_run_records(run_dir, "sellers"):
            url = payload.get("seller_url")
            if url:
                seller_pages.setdefault(str(url), payload)
        for payload in _iter_run_records(run_dir, "listings"):
            url = payload.get("seller_url")
            if not url:
                continue
            entry = stats.setdefault(str(url), {
                "marketplace": str(payload.get("marketplace") or ""),
                "n_listings": 0, "prices": [], "platforms": set(),
            })
            entry["n_listings"] += 1
            price = payload.get("price_usd")
            if price is not None and is_valid_price(price):
                entry["prices"].append(float(price))
            if payload.get("platform"):
                entry["platforms"].add(str(payload["platform"]))

    urls = sorted(set(seller_pages) | set(stats))
    ids: Dict[str, int] = {}
    for seller_id, url in enumerate(urls, start=1):
        ids[url] = seller_id
        page = seller_pages.get(url, {})
        entry = stats.get(url, {"marketplace": "", "n_listings": 0,
                                "prices": [], "platforms": set()})
        prices = entry["prices"]
        conn.execute(
            "INSERT INTO sellers (id, seller_url, marketplace, name,"
            " country, rating, joined, n_listings, n_priced,"
            " median_price_usd, min_price_usd, max_price_usd, platforms)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (seller_id, url,
             str(page.get("marketplace") or entry["marketplace"]),
             page.get("name"), page.get("country"), page.get("rating"),
             page.get("joined"), entry["n_listings"], len(prices),
             round(median(prices), 6) if prices else None,
             min(prices) if prices else None,
             max(prices) if prices else None,
             ",".join(sorted(entry["platforms"]))),
        )
    return ids


def build_catalog(run_dirs: List[str], out_dir: str) -> BuildResult:
    """Ingest ``run_dirs`` (one cycle each, in order) into ``out_dir``.

    Idempotent: when ``out_dir`` already holds a catalog whose
    ``content_digest`` matches the sources and whose database still
    hashes to the recorded ``db_sha256``, nothing is written.
    """
    if not run_dirs:
        raise CatalogError("no run directories to ingest")
    for run_dir in run_dirs:
        if not os.path.isdir(run_dir):
            raise CatalogError(f"run directory {run_dir} does not exist")
        if existing_store_artifact(run_dir) is None:
            raise CatalogError(
                f"{run_dir} holds no dataset artifacts "
                f"(no segmented store)"
            )

    digest = source_digest(run_dirs)
    manifest_path = os.path.join(out_dir, CATALOG_FILENAME)
    db_path = os.path.join(out_dir, CATALOG_DB_FILENAME)
    existing = _load_json(out_dir, CATALOG_FILENAME) \
        if os.path.exists(manifest_path) else None
    if (existing is not None
            and artifact_schema(existing) == CATALOG_SCHEMA
            and existing.get("content_digest") == digest
            and os.path.exists(db_path)
            and file_sha256(db_path) == existing.get("db_sha256")):
        return BuildResult(out_dir, digest, rebuilt=False,
                           tables=dict(existing.get("tables") or {}))

    os.makedirs(out_dir, exist_ok=True)
    tmp_path = db_path + ".tmp"
    if os.path.exists(tmp_path):
        os.remove(tmp_path)
    conn = sqlite3.connect(tmp_path)
    try:
        conn.executescript(_SCHEMA_SQL)
        seller_ids = _insert_sellers(conn, run_dirs)
        tables = {"listings": 0, "price_history": 0, "scorecards": 0}
        for cycle, run_dir in enumerate(run_dirs):
            counts = _insert_run_rows(conn, cycle, run_dir, seller_ids)
            for key, value in counts.items():
                tables[key] += value
        tables["sellers"] = len(seller_ids)
        tables["runs"] = len(run_dirs)
        conn.execute(
            "INSERT INTO catalog_info (key, value) VALUES (?, ?)",
            ("content_digest", digest),
        )
        conn.commit()
    finally:
        conn.close()
    os.replace(tmp_path, db_path)

    atomic_write_json(manifest_path, {
        "schema": CATALOG_SCHEMA,
        "content_digest": digest,
        "db_sha256": file_sha256(db_path),
        "cycles": len(run_dirs),
        # Sources are described by cycle label and relative file names
        # only — no absolute or basename paths — so twin runs ingested
        # from anywhere yield a byte-identical manifest.
        "sources": [
            {"cycle": cycle,
             "label": f"cycle-{cycle:03d}",
             "files": _run_source_files(run_dir)}
            for cycle, run_dir in enumerate(run_dirs)
        ],
        "tables": tables,
    })
    return BuildResult(out_dir, digest, rebuilt=True, tables=tables)


# -- reading ----------------------------------------------------------------


class Catalog:
    """Read-side handle: the manifest plus a read-only SQLite connection.

    :meth:`open` verifies the manifest's schema id and, unless
    ``verify=False``, re-hashes the database against the recorded
    ``db_sha256`` — a flipped byte is refused, not served.
    """

    def __init__(self, directory: str, manifest: dict,
                 conn: sqlite3.Connection) -> None:
        self.directory = directory
        self.manifest = manifest
        self.conn = conn
        self.digest: str = manifest["content_digest"]

    @classmethod
    def open(cls, directory: str, verify: bool = True) -> "Catalog":
        manifest_path = os.path.join(directory, CATALOG_FILENAME)
        db_path = os.path.join(directory, CATALOG_DB_FILENAME)
        if not os.path.isdir(directory) or not os.path.exists(manifest_path):
            raise CatalogError(
                f"{directory} is not a catalog (no {CATALOG_FILENAME}); "
                f"build one with 'repro serve build'"
            )
        manifest = _load_json(directory, CATALOG_FILENAME)
        if manifest is None:
            raise CatalogError(f"unreadable catalog manifest {manifest_path}")
        if artifact_schema(manifest) != CATALOG_SCHEMA:
            raise CatalogError(
                f"{manifest_path}: schema id {artifact_schema(manifest)!r} "
                f"does not match expected {CATALOG_SCHEMA!r}"
            )
        if not isinstance(manifest.get("content_digest"), str):
            raise CatalogError(f"{manifest_path}: missing content_digest")
        if not os.path.exists(db_path):
            raise CatalogError(f"catalog database {db_path} is missing")
        if verify and file_sha256(db_path) != manifest.get("db_sha256"):
            raise CatalogError(
                f"catalog database {db_path} does not match the manifest "
                f"db_sha256 — rebuild with 'repro serve build'"
            )
        conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
        conn.row_factory = sqlite3.Row
        return cls(directory, manifest, conn)

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- small helpers the API layer leans on ------------------------------

    def cycles(self) -> List[int]:
        return [row[0] for row in
                self.conn.execute("SELECT cycle FROM runs ORDER BY cycle")]

    def latest_cycle(self) -> int:
        row = self.conn.execute("SELECT MAX(cycle) FROM runs").fetchone()
        if row is None or row[0] is None:
            raise CatalogError("catalog holds no runs")
        return int(row[0])

    def stats(self) -> Dict[str, int]:
        return {
            table: self.conn.execute(
                f"SELECT COUNT(*) FROM {table}"  # noqa: S608 - fixed names
            ).fetchone()[0]
            for table in ("runs", "listings", "sellers", "price_history",
                          "scorecards")
        }


def catalog_digest(directory: str) -> str:
    """The catalog's content digest without opening the database."""
    manifest = _load_json(directory, CATALOG_FILENAME)
    if manifest is None or artifact_schema(manifest) != CATALOG_SCHEMA \
            or not isinstance(manifest.get("content_digest"), str):
        raise CatalogError(f"{directory} holds no valid {CATALOG_FILENAME}")
    return manifest["content_digest"]


def manifest_document(directory: str) -> dict:
    """The parsed ``catalog.json`` (canonical-JSON re-serializable)."""
    manifest = _load_json(directory, CATALOG_FILENAME)
    if manifest is None:
        raise CatalogError(f"{directory} holds no valid {CATALOG_FILENAME}")
    json.loads(canonical_json(manifest))  # must stay canonicalizable
    return manifest


__all__ = [
    "BuildResult",
    "CATALOG_DB_FILENAME",
    "CATALOG_FILENAME",
    "Catalog",
    "CatalogError",
    "build_catalog",
    "catalog_digest",
    "manifest_document",
    "source_digest",
]
