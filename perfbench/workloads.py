"""The benchmark's workloads: what one round runs, times and checks.

A *round* is one repetition of a workload's measured calls.  Each round
returns its timed phases (program calls only; the harness's own checks
run outside the timed windows), a sha256 of its outputs, and the
problems its output checks found.  Same seed, same inputs: every round
of a run must produce the same digest.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import store
from repro.analysis import suite
from repro.analysis.scam_posts import ScamPipelineConfig
from repro.contracts.supervisor import StageSupervisor
from repro.core import pipeline
from repro.obs import quality
from repro.obs.schemas import CATALOG_API_SCHEMA, canonical_json
from repro.serve import catalog as catalog_module
from repro.serve.api import CATALOG_HOST, build_catalog_site
from repro.serve.cache import ResponseCache
from repro.web.http import Request
from repro.web.server import Internet

from tracing import Tracer

_HERE = os.path.dirname(os.path.abspath(__file__))

#: Study seeds whose scorecard is in band at this commit at scale 0.02
#: (2 and 3 crawl iterations) and at scale 0.1.  Some seeds put an entry
#: out of band (seed 2 at scale 0.1: network_pair_precision 0.754 below
#: 0.80), which the output check rightly fails; the benchmark needs
#: inputs on which nothing fails, so ``--seed`` picks among these.
VETTED_SEEDS = (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
                19, 20, 21, 22, 99)
#: Crawl iterations of a study workload.
STUDY_ITERATIONS = 3
#: Serve sources: scale-0.02 cycles (see cycles.py), one per vetted seed.
SERVE_CYCLES = 3
#: Distinct queries (about 3x ``ResponseCache``'s default 4,096 entries)
#: and the length of the request sequence each round replays.
DISTINCT_QUERIES = 12_000
ROUND_REQUESTS = 20_000
#: Endpoint weights of ``repro serve bench``: listing search first.
ENDPOINT_MIX = (
    ("listings", 45), ("listing", 15), ("seller", 12), ("sellers", 8),
    ("price_history", 10), ("scorecard", 5), ("diff", 3), ("catalog", 2),
)


def vetted_seeds(seed: int, count: int) -> List[int]:
    """``count`` consecutive vetted seeds, starting at ``seed`` itself
    when it is vetted (99, the default, is) and otherwise at the entry
    ``seed`` indexes modulo the table."""
    start = (VETTED_SEEDS.index(seed) if seed in VETTED_SEEDS
             else seed % len(VETTED_SEEDS))
    return [VETTED_SEEDS[(start + i) % len(VETTED_SEEDS)]
            for i in range(count)]


@dataclass
class Round:
    """One repetition of a workload's measured calls."""

    #: Timed phases in call order: name -> (start, end, seconds).  Start
    #: and end bound the phase on the ``perf_counter`` clock; seconds is
    #: its raw time (serve's ``read`` counts request latency only).
    #: ``write`` and ``read`` are the end-to-end metrics of those names;
    #: ``total_s`` sums every phase.
    phases: Dict[str, Tuple[float, float, float]]
    digest: str
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: Counts the per-layer metrics and the report need.
    facts: Dict[str, float] = field(default_factory=dict)
    #: Per-request latencies in seconds (serve only).
    latencies: Optional[array] = None
    #: Machine-speed factor per phase, sampled while it ran (speed.py):
    #: a phase is reported as its raw seconds times its factor.
    factors: Dict[str, float] = field(default_factory=dict)


class StudyWorkload:
    """Seed to stored dataset and scorecard, through the public API:
    ``Study.run`` (collect), ``save_dataset`` into a fresh segmented
    store, ``run_analysis_suite`` and ``compute_scorecard`` (analyze)."""

    def __init__(self, scale: float, scalable: bool) -> None:
        self.scale = scale
        #: Which side of the large-corpus threshold the English posts
        #: must fall on (True: the ``ScalableDensityClusterer`` path).
        self.scalable = scalable
        self.threshold = ScamPipelineConfig().large_corpus_threshold

    def setup(self, seed: int, work_dir: str) -> None:
        self.seed = vetted_seeds(seed, 1)[0]
        self.work_dir = work_dir

    def run_round(self, index: int, tracer: Optional[Tracer] = None) -> Round:
        store_dir = os.path.join(self.work_dir, f"store-{index}")
        config = pipeline.StudyConfig(seed=self.seed, scale=self.scale,
                                      iterations=STUDY_ITERATIONS)
        t0 = time.perf_counter()
        result = pipeline.Study(config).run()
        t1 = time.perf_counter()
        saved = store.save_dataset(result.dataset, store_dir)
        t2 = time.perf_counter()
        analyses = suite.run_analysis_suite(result.dataset, StageSupervisor())
        card = quality.compute_scorecard(result, analyses=analyses)
        t3 = time.perf_counter()

        with open(os.path.join(store_dir, "store.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        shutil.rmtree(store_dir)
        digest = hashlib.sha256(
            (canonical_json(card.to_dict()) + "\n"
             + canonical_json(manifest)).encode("utf-8")
        ).hexdigest()

        problems = []
        scam = analyses.report("scam_posts")
        english = scam.posts_english if scam is not None else 0
        if (english > self.threshold) != self.scalable:
            side = "above" if self.scalable else "at or below"
            problems.append(
                f"path guard: {english} English posts, expected {side} "
                f"the {self.threshold} large-corpus threshold")
        for entry in card.failures():
            problems.append(f"scorecard entry {entry.name}={entry.value:.4f} "
                            f"outside [{entry.low}, {entry.high}]")
        for failure in analyses.failures:
            problems.append(f"degraded stage {failure.stage}: {failure.kind}")
        if saved.partial:
            problems.append(f"store save partial: {saved.partial}")

        dataset = result.dataset
        records = sum(saved.counts.values())
        pages = sum(report.pages_fetched for report in result.crawl_reports)
        crawl_errors = sum(report.errors for report in result.crawl_reports)
        stored_bytes = sum(segment["bytes"] for segment in manifest["segments"])
        return Round(
            phases={"write": (t0, t1, t1 - t0), "save": (t1, t2, t2 - t1),
                    "read": (t2, t3, t3 - t2)},
            digest=digest,
            attempted=pages + len(analyses.reports),
            failed=crawl_errors + len(analyses.failures),
            problems=problems,
            facts={
                "records": records,
                "pages": pages,
                "bytes_per_record": stored_bytes / records if records else 0.0,
                "listings": len(dataset.listings),
                "profiles": len(dataset.profiles),
                "posts": len(dataset.posts),
                "underground": len(dataset.underground),
                "english_posts": english,
            },
        )

class ServeWorkload:
    """The catalog API: ``build_catalog`` over study cycles in the
    segmented-store layout, then one in-process caller in a closed loop
    through ``Internet.fetch`` to ``build_catalog_site``."""

    def setup(self, seed: int, work_dir: str) -> None:
        self.work_dir = work_dir
        cycles_dir = os.path.join(work_dir, "cycles")
        # The cycles are studies; writing them in a child process keeps
        # their memory out of this process's peak RSS.
        subprocess.run(
            [sys.executable, os.path.join(_HERE, "cycles.py"), cycles_dir,
             *map(str, vetted_seeds(seed, SERVE_CYCLES))],
            check=True,
        )
        self.cycle_dirs = [os.path.join(cycles_dir, name)
                           for name in sorted(os.listdir(cycles_dir))]
        first = os.path.join(work_dir, "catalog-setup")
        catalog_module.build_catalog(self.cycle_dirs, first)
        catalog = catalog_module.Catalog.open(first)
        try:
            self.digest = catalog.digest
            rng = random.Random(seed)
            pool = query_pool(catalog, rng, DISTINCT_QUERIES)
            self.requests = zipf_sequence(pool, rng, ROUND_REQUESTS)
            self.cache = ResponseCache()
            # One untimed pass leaves the cache in the state every timed
            # pass starts from: the LRU after this exact sequence.
            self._serve(catalog)
        finally:
            catalog.close()
        shutil.rmtree(first)

    def run_round(self, index: int, tracer: Optional[Tracer] = None) -> Round:
        out_dir = os.path.join(self.work_dir, f"catalog-{index}")
        t0 = time.perf_counter()
        built = catalog_module.build_catalog(self.cycle_dirs, out_dir)
        t1 = time.perf_counter()
        catalog = catalog_module.Catalog.open(out_dir)
        t2 = time.perf_counter()
        try:
            served = self._serve(catalog, tracer)
        finally:
            catalog.close()
        shutil.rmtree(out_dir)
        problems = served.problems
        # Path guard: every pass sees the same hits and misses, so each
        # round must exercise both cache paths and the LRU's eviction,
        # or the workload has turned into another one.
        if not 0 < served.facts["serve.hit_rate"] < 1:
            problems.append(f"path guard: hit rate "
                            f"{served.facts['serve.hit_rate']:.4f} is not "
                            f"strictly between 0 and 1")
        if served.facts["serve.evictions"] <= 0:
            problems.append("path guard: the response cache never evicted")
        if not built.rebuilt:
            problems.append("build_catalog into a fresh directory was a no-op")
        if built.content_digest != self.digest:
            problems.append("catalog content digest changed between builds")
        served.phases = {"write": (t0, t1, t1 - t0),
                         "open": (t1, t2, t2 - t1), **served.phases}
        return served

    def _serve(self, catalog, tracer: Optional[Tracer] = None) -> Round:
        internet = Internet()
        site, _api = build_catalog_site(catalog, cache=self.cache)
        internet.register(site)
        cache = self.cache
        hits0, misses0, evictions0 = cache.hits, cache.misses, cache.evictions
        schema_stamp = f'"schema":"{CATALOG_API_SCHEMA}"'
        digest_stamp = f'"digest":"{catalog.digest}"'
        stream = hashlib.sha256()
        latencies = array("d")
        clock = time.perf_counter
        handler_ns = tracer.incl_ns if tracer is not None else {}
        hit_ns = miss_ns = 0
        non_2xx = unstamped = 0
        started = clock()
        for url, is_catalog in self.requests:
            request = Request(method="GET", url=url)
            hits_before = cache.hits
            handler_before = handler_ns.get("serve.handler", 0)
            start = clock()
            response = internet.fetch(request, client_id="perfbench")
            latencies.append(clock() - start)
            handler_time = handler_ns.get("serve.handler", 0) - handler_before
            if cache.hits > hits_before:
                hit_ns += handler_time
            else:
                miss_ns += handler_time
            body = response.body
            if not 200 <= response.status < 300:
                non_2xx += 1
            if schema_stamp not in body or digest_stamp not in body:
                unstamped += 1
            if is_catalog:
                # /api/catalog embeds live cache counters; drop them so
                # the stream digest covers only catalog content.
                body = _CACHE_FIELD.sub("", body)
            stream.update(f"{url}\n{response.status}\n{body}\n".encode("utf-8"))
        ended = clock()
        hits = cache.hits - hits0
        misses = cache.misses - misses0
        problems = []
        if unstamped:
            problems.append(f"{unstamped} responses lack the "
                            f"{CATALOG_API_SCHEMA} schema or catalog digest")
        return Round(
            phases={"read": (started, ended, sum(latencies))},
            digest=stream.hexdigest(),
            attempted=len(self.requests),
            failed=non_2xx,
            problems=problems,
            facts={
                "serve.hits": hits,
                "serve.misses": misses,
                "serve.evictions": cache.evictions - evictions0,
                "serve.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "serve.hit_s": hit_ns / 1e9,
                "serve.miss_s": miss_ns / 1e9,
            },
            latencies=latencies,
        )


_CACHE_FIELD = re.compile(r'"cache":\{[^{}]*\},?')


def query_pool(catalog, rng: random.Random,
               size: int) -> List[Tuple[str, bool]]:
    """``size`` distinct (url, is-catalog-endpoint) requests over all
    eight endpoints, drawn with ``ENDPOINT_MIX`` weights from the
    catalog's own marketplaces, categories, platforms, ids and cycles.

    The benchmark draws its own queries instead of calling the program's
    ``build_query_pool``, so no program change can alter its inputs (that
    pool also draws ids from the first 500 only)."""

    def column(sql: str) -> list:
        return [row[0] for row in catalog.conn.execute(sql)]

    def distinct(name: str) -> list:
        return column(f"SELECT DISTINCT {name} FROM listings"
                      f" WHERE {name} IS NOT NULL ORDER BY {name}")

    marketplaces = distinct("marketplace")
    categories = distinct("category")
    platforms = distinct("platform")
    listing_ids = column("SELECT id FROM listings ORDER BY id")
    seller_ids = column("SELECT id FROM sellers ORDER BY id")
    cycles = catalog.cycles()
    base = f"http://{CATALOG_HOST}/api"
    kinds = [kind for kind, _ in ENDPOINT_MIX]
    weights = [weight for _, weight in ENDPOINT_MIX]

    def one() -> str:
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "listings":
            params = [f"limit={rng.choice((10, 20, 50))}",
                      f"offset={rng.choice((0, 0, 20, 40))}"]
            if rng.random() < 0.7:
                params.append(f"marketplace={rng.choice(marketplaces)}")
            if rng.random() < 0.5:
                params.append(f"category={rng.choice(categories)}")
            if rng.random() < 0.3:
                params.append(f"platform={rng.choice(platforms)}")
            if rng.random() < 0.3:
                params.append(f"price_min={rng.choice((10, 50, 100))}")
                params.append(f"price_max={rng.choice((500, 1000, 5000))}")
            if rng.random() < 0.4:
                params.append(f"sort={rng.choice(('price', '-price'))}")
            return f"{base}/listings?{'&'.join(params)}"
        if kind == "listing":
            return f"{base}/listings/{rng.choice(listing_ids)}"
        if kind == "seller":
            return f"{base}/sellers/{rng.choice(seller_ids)}"
        if kind == "sellers":
            suffix = f"?min_listings={rng.choice((1, 2, 3))}"
            if rng.random() < 0.5:
                suffix += f"&marketplace={rng.choice(marketplaces)}"
            return f"{base}/sellers{suffix}"
        if kind == "price_history":
            suffix = ""
            if rng.random() < 0.7:
                suffix = f"?marketplace={rng.choice(marketplaces)}"
                if rng.random() < 0.5:
                    suffix += f"&category={rng.choice(categories)}"
            return f"{base}/price-history{suffix}"
        if kind == "scorecard":
            if rng.random() < 0.5:
                return f"{base}/scorecard?cycle={rng.choice(cycles)}"
            return f"{base}/scorecard"
        if kind == "diff":
            return f"{base}/diff?from={rng.choice(cycles)}&to={rng.choice(cycles)}"
        return f"{base}/catalog"

    pool: List[Tuple[str, bool]] = []
    seen = set()
    for _ in range(size * 50):
        url = one()
        if url not in seen:
            seen.add(url)
            pool.append((url, url.endswith("/api/catalog")))
            if len(pool) == size:
                return pool
    raise RuntimeError(f"catalog yields fewer than {size} distinct queries")


def zipf_sequence(pool: list, rng: random.Random, length: int) -> list:
    """``length`` draws from ``pool`` with Zipf(1.0) popularity by position."""
    cumulative = list(itertools.accumulate(
        1.0 / rank for rank in range(1, len(pool) + 1)))
    total = cumulative[-1]
    return [pool[bisect.bisect_left(cumulative, rng.random() * total)]
            for _ in range(length)]


WORKLOADS = {
    "study-0.02": lambda: StudyWorkload(0.02, scalable=False),
    "study-0.1": lambda: StudyWorkload(0.1, scalable=True),
    "serve": ServeWorkload,
}
