"""Load-generator bench for the serving layer (``repro serve bench``).

Drives thousands of seeded simulated clients through the catalog API —
the same :class:`~repro.web.server.Internet` dispatch path the crawler
uses — and reports wall-clock p50/p95 request latency (via the existing
:meth:`Histogram.quantile <repro.obs.metrics.Histogram.quantile>`),
per-endpoint breakdowns, status counts, throughput, and the response
cache's hit rate.

The workload is a **repeated-query** mix, as real read traffic is: a
seeded pool of ``distinct_queries`` unique requests (searches with
filters drawn from the catalog's actual marketplaces/categories,
listing and seller lookups, price-history, scorecard, diff) is sampled
uniformly by every client.  With the default pool of 200 queries and
5,000 total requests the only misses are each query's first render, so
the content-hash cache sits above a 0.9 hit rate — the number the
acceptance gate checks.

The result document is schema-versioned (``repro.bench-serve/v1``) and
written as ``BENCH_serve.json``.  Latency and throughput are
machine-dependent; the request/status/cache-count fields are
deterministic for a fixed catalog digest and seed.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.bench import env_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.obs.schemas import BENCH_SERVE_SCHEMA
from repro.obs.telemetry import Telemetry
from repro.serve.api import CATALOG_HOST, build_catalog_site
from repro.serve.cache import ResponseCache
from repro.serve.catalog import Catalog
from repro.util.fileio import atomic_write_json
from repro.util.simtime import SimClock
from repro.web.http import Request
from repro.web.server import Internet

BENCH_SERVE_FILENAME = "BENCH_serve.json"

#: Latency buckets in seconds, sized for in-process serving (tens of
#: microseconds for a cache hit up to milliseconds for a cold query).
_LATENCY_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Workload mix: (endpoint kind, weight).  Searches dominate, exactly
#: as listing browse/search traffic dominates a marketplace.
_MIX = (
    ("listings", 45),
    ("listing", 15),
    ("seller", 12),
    ("sellers", 8),
    ("price_history", 10),
    ("scorecard", 5),
    ("diff", 3),
    ("catalog", 2),
)


def _distinct(catalog: Catalog, column: str, table: str) -> List[str]:
    return [
        row[0]
        for row in catalog.conn.execute(
            f"SELECT DISTINCT {column} FROM {table}"
            f" WHERE {column} IS NOT NULL ORDER BY {column}"
        )
    ]


def _ids(catalog: Catalog, table: str, limit: int = 500) -> List[int]:
    return [
        row[0]
        for row in catalog.conn.execute(
            f"SELECT id FROM {table} ORDER BY id LIMIT ?", (limit,)
        )
    ]


def build_query_pool(catalog: Catalog, rng: random.Random,
                     size: int) -> List[Tuple[str, str]]:
    """A deterministic pool of ``size`` distinct (endpoint, url) pairs."""
    marketplaces = _distinct(catalog, "marketplace", "listings")
    categories = _distinct(catalog, "category", "listings")
    platforms = _distinct(catalog, "platform", "listings")
    listing_ids = _ids(catalog, "listings")
    seller_ids = _ids(catalog, "sellers")
    cycles = catalog.cycles()
    base = f"http://{CATALOG_HOST}"
    kinds = [kind for kind, _ in _MIX]
    weights = [weight for _, weight in _MIX]

    def one_query() -> Tuple[str, str]:
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        if kind == "listings":
            params = [f"limit={rng.choice((10, 20, 50))}",
                      f"offset={rng.choice((0, 0, 20, 40))}"]
            if marketplaces and rng.random() < 0.7:
                params.append(f"marketplace={rng.choice(marketplaces)}")
            if categories and rng.random() < 0.5:
                params.append(f"category={rng.choice(categories)}")
            if platforms and rng.random() < 0.3:
                params.append(f"platform={rng.choice(platforms)}")
            if rng.random() < 0.3:
                params.append(f"price_min={rng.choice((10, 50, 100))}")
                params.append(f"price_max={rng.choice((500, 1000, 5000))}")
            if rng.random() < 0.4:
                params.append(f"sort={rng.choice(('price', '-price'))}")
            return kind, f"{base}/api/listings?{'&'.join(params)}"
        if kind == "listing" and listing_ids:
            return kind, f"{base}/api/listings/{rng.choice(listing_ids)}"
        if kind == "seller" and seller_ids:
            return kind, f"{base}/api/sellers/{rng.choice(seller_ids)}"
        if kind == "sellers":
            suffix = f"?min_listings={rng.choice((1, 2, 3))}"
            if marketplaces and rng.random() < 0.5:
                suffix += f"&marketplace={rng.choice(marketplaces)}"
            return kind, f"{base}/api/sellers{suffix}"
        if kind == "price_history":
            suffix = ""
            if marketplaces and rng.random() < 0.7:
                suffix = f"?marketplace={rng.choice(marketplaces)}"
                if categories and rng.random() < 0.5:
                    suffix += f"&category={rng.choice(categories)}"
            return kind, f"{base}/api/price-history{suffix}"
        if kind == "scorecard":
            if cycles and rng.random() < 0.5:
                return kind, f"{base}/api/scorecard?cycle={rng.choice(cycles)}"
            return kind, f"{base}/api/scorecard"
        if kind == "diff" and len(cycles) >= 1:
            left = rng.choice(cycles)
            right = rng.choice(cycles)
            return kind, f"{base}/api/diff?from={left}&to={right}"
        return "catalog", f"{base}/api/catalog"

    pool: List[Tuple[str, str]] = []
    seen = set()
    attempts = 0
    while len(pool) < size and attempts < size * 50:
        attempts += 1
        endpoint, url = one_query()
        if url in seen:
            continue
        seen.add(url)
        pool.append((endpoint, url))
    return pool


def run_serve_bench(catalog_dir: str,
                    clients: int = 1000,
                    requests_per_client: int = 5,
                    distinct_queries: int = 200,
                    seed: int = 7,
                    telemetry: Optional[Telemetry] = None,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> dict:
    """Run the load generator and return the bench document."""
    if clients <= 0 or requests_per_client <= 0:
        raise ValueError("clients and requests_per_client must be positive")
    catalog = Catalog.open(catalog_dir)
    try:
        clock = SimClock()
        internet = Internet(clock=clock, telemetry=telemetry)
        cache = ResponseCache(telemetry=telemetry)
        site, api = build_catalog_site(
            catalog, cache=cache, clock=clock, telemetry=telemetry,
        )
        internet.register(site)

        rng = random.Random(seed)
        pool = build_query_pool(catalog, rng, distinct_queries)
        if not pool:
            raise ValueError("catalog produced an empty query pool")

        metrics = MetricsRegistry()
        latency = metrics.histogram(
            "serve_request_seconds", "wall latency per catalog API request",
            labels=("endpoint",), buckets=_LATENCY_BUCKETS,
        )
        overall = metrics.histogram(
            "serve_request_seconds_all", "wall latency, all endpoints",
            buckets=_LATENCY_BUCKETS,
        )
        statuses: Dict[str, int] = {}
        requests_total = clients * requests_per_client
        if progress is not None:
            progress(
                f"serve bench: {clients} clients x {requests_per_client} "
                f"requests over {len(pool)} distinct queries"
            )
        started = time.perf_counter()
        for index in range(requests_total):
            endpoint, url = pool[rng.randrange(len(pool))]
            client_id = f"client-{index % clients:05d}"
            request = Request(method="GET", url=url)
            t0 = time.perf_counter()
            response = internet.fetch(request, client_id=client_id)
            elapsed = time.perf_counter() - t0
            latency.observe(elapsed, endpoint=endpoint)
            overall.observe(elapsed)
            statuses[str(response.status)] = \
                statuses.get(str(response.status), 0) + 1
        wall_seconds = time.perf_counter() - started

        per_endpoint = {
            endpoint: {
                "count": latency.count(endpoint=endpoint),
                "p50_ms": round(
                    latency.quantile(0.5, endpoint=endpoint) * 1000.0, 4),
                "p95_ms": round(
                    latency.quantile(0.95, endpoint=endpoint) * 1000.0, 4),
            }
            for endpoint in sorted({kind for kind, _ in pool})
            if latency.count(endpoint=endpoint)
        }
        document = {
            "schema": BENCH_SERVE_SCHEMA,
            "catalog_digest": catalog.digest,
            "seed": seed,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "requests_total": requests_total,
            "distinct_queries": len(pool),
            "statuses": dict(sorted(statuses.items())),
            "latency": {
                "p50_ms": round(overall.quantile(0.5) * 1000.0, 4),
                "p95_ms": round(overall.quantile(0.95) * 1000.0, 4),
                "mean_ms": round(
                    overall.sum() / overall.count() * 1000.0, 4),
            },
            "per_endpoint": per_endpoint,
            "cache": cache.stats(),
            "wall_seconds": round(wall_seconds, 4),
            "requests_per_second": round(
                requests_total / wall_seconds, 1) if wall_seconds else 0.0,
            "server_requests": site.request_count,
            "env": env_fingerprint(),
        }
        return document
    finally:
        catalog.close()


def write_serve_bench(path: str, document: dict) -> str:
    """Write the bench document (``path`` may be a directory)."""
    import os

    if os.path.isdir(path):
        path = os.path.join(path, BENCH_SERVE_FILENAME)
    atomic_write_json(path, document)
    return path


def render_serve_bench(document: dict) -> str:
    """The human one-screen summary the CLI prints."""
    latency = document["latency"]
    cache = document["cache"]
    lines = [
        f"serve bench: {document['requests_total']} requests from "
        f"{document['clients']} clients "
        f"({document['distinct_queries']} distinct queries)",
        f"  latency   p50 {latency['p50_ms']:.3f} ms, "
        f"p95 {latency['p95_ms']:.3f} ms, mean {latency['mean_ms']:.3f} ms",
        f"  cache     hit rate {cache['hit_rate']:.3f} "
        f"({cache['hits']} hits / {cache['misses']} misses)",
        f"  wall      {document['wall_seconds']:.2f} s, "
        f"{document['requests_per_second']:,.0f} req/s",
        "  statuses  " + ", ".join(
            f"{status}={count}"
            for status, count in document["statuses"].items()
        ),
    ]
    for endpoint, stats in document["per_endpoint"].items():
        lines.append(
            f"    {endpoint:<14} {stats['count']:>6}  "
            f"p50 {stats['p50_ms']:.3f} ms  p95 {stats['p95_ms']:.3f} ms"
        )
    return "\n".join(lines)


__all__ = [
    "BENCH_SERVE_FILENAME",
    "BENCH_SERVE_SCHEMA",
    "build_query_pool",
    "render_serve_bench",
    "run_serve_bench",
    "write_serve_bench",
]
