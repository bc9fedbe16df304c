"""The serving layer: read-optimized catalog, HTTP query API, cache, bench.

``repro.serve`` turns a finished run directory (its segmented store,
plus its scorecard) into a queryable product:

- :mod:`repro.serve.catalog` — builds the SQLite catalog and its
  deterministic ``catalog.json`` manifest (``repro.catalog/v1``).
- :mod:`repro.serve.api` — the HTTP query API, registered as a
  :class:`~repro.web.server.Site` on the in-process internet.
- :mod:`repro.serve.cache` — the content-hash response cache whose keys
  include the catalog digest, so invalidation is free.
- :mod:`repro.serve.bench` — the seeded load generator behind
  ``repro serve bench`` (``BENCH_serve.json``).
"""

from repro.serve.api import CATALOG_HOST, CatalogApi, build_catalog_site
from repro.serve.bench import (
    BENCH_SERVE_FILENAME,
    render_serve_bench,
    run_serve_bench,
    write_serve_bench,
)
from repro.serve.cache import DEFAULT_MAX_ENTRIES, ResponseCache, cache_key
from repro.serve.catalog import (
    CATALOG_DB_FILENAME,
    CATALOG_FILENAME,
    BuildResult,
    Catalog,
    CatalogError,
    build_catalog,
    catalog_digest,
    manifest_document,
    source_digest,
)

__all__ = [
    "BENCH_SERVE_FILENAME",
    "BuildResult",
    "CATALOG_DB_FILENAME",
    "CATALOG_FILENAME",
    "CATALOG_HOST",
    "Catalog",
    "CatalogApi",
    "CatalogError",
    "DEFAULT_MAX_ENTRIES",
    "ResponseCache",
    "build_catalog",
    "build_catalog_site",
    "cache_key",
    "catalog_digest",
    "manifest_document",
    "run_serve_bench",
    "render_serve_bench",
    "source_digest",
    "write_serve_bench",
]
