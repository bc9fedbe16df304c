"""The layers a traced round times, and the per-layer metrics they give.

Layers are named by the program's modules.  :func:`install` wraps each
layer's public entry points (see :mod:`tracing` for how);
:func:`per_layer_metrics` turns the spans of one traced round into the
``per_layer`` metrics of ``BENCHMARK.json``.  A layer a workload never
calls reports 0 — the bypass zeros are measured, not assumed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.suite import STAGE_NAMES

from tracing import Installation, Tracer

#: Module-level functions: (module, attribute, layer span).
_FUNCTIONS = (
    ("repro.web.html", "render_document", "web.render"),
    ("repro.web.html_parser", "parse_html", "web.parse"),
    ("repro.web.url", "normalize_url", "web.url"),
    ("repro.crawler.extractor", "extract_listing_index", "crawler.extract"),
    ("repro.crawler.extractor", "extract_offer", "crawler.extract"),
    ("repro.crawler.extractor", "extract_seller", "crawler.extract"),
    ("repro.crawler.extractor", "extract_payment_methods", "crawler.extract"),
    ("repro.crawler.extractor", "extract_thread_list", "crawler.extract"),
    ("repro.crawler.extractor", "extract_section_links", "crawler.extract"),
    ("repro.crawler.extractor", "extract_underground_posting",
     "crawler.extract"),
    ("repro.store.dataset_store", "save_dataset", "store.save"),
    ("repro.nlp.keywords", "class_tfidf_keywords", "nlp.keywords"),
    ("repro.nlp.cluster", "kmeans", "nlp.kmeans"),
    ("repro.obs.quality", "compute_scorecard", "obs.scorecard"),
    ("repro.serve.catalog", "build_catalog", "serve.build"),
)

#: Methods, patched on their class: (module, class, method, layer span).
_METHODS = (
    ("repro.synthetic.world", "WorldBuilder", "build", "synthetic.build"),
    ("repro.web.server", "Internet", "fetch", "web.fetch"),
    ("repro.web.html", "Element", "find", "web.query"),
    ("repro.web.html", "Element", "find_all", "web.query"),
    ("repro.crawler.crawler", "IterationCrawl", "run", "crawler.crawl"),
    ("repro.crawler.profile_collector", "ProfileCollector", "collect",
     "crawler.profiles"),
    ("repro.crawler.profile_collector", "ProfileCollector", "sweep_status",
     "crawler.profiles"),
    ("repro.crawler.underground_collector", "UndergroundCollector",
     "collect_market", "crawler.underground"),
    ("repro.nlp.embeddings", "HashedTfidfEmbedder", "fit_transform",
     "nlp.embed"),
    ("repro.nlp.cluster", "DBSCAN", "fit_predict", "nlp.dbscan"),
    ("repro.nlp.cluster", "ScalableDensityClusterer", "fit_predict",
     "nlp.scalable"),
    ("repro.store.segments", "StoreReader", "open", "store.read"),
)

#: Every per-layer metric: (name, unit), in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("synthetic.build_s", "s"),
    ("marketplaces.handle_s", "s"),
    ("platforms.handle_s", "s"),
    ("web.render_s", "s"),
    ("web.render_calls", "count"),
    ("web.parse_s", "s"),
    ("web.parse_calls", "count"),
    ("web.query_s", "s"),
    ("web.query_calls", "count"),
    ("web.url_s", "s"),
    ("web.fetch_s", "s"),
    ("web.fetch_calls", "count"),
    ("crawler.crawl_s", "s"),
    ("crawler.extract_s", "s"),
    ("crawler.extract_calls", "count"),
    ("crawler.profiles_s", "s"),
    ("crawler.underground_s", "s"),
    ("crawler.pages", "count"),
    ("crawler.records_per_fetch", "ratio"),
    ("contracts.validate_s", "s"),
    ("contracts.records", "count"),
    ("store.save_s", "s"),
    ("store.bytes_per_record", "B/record"),
    ("store.read_s", "s"),
    ("nlp.langdetect_s", "s"),
    ("nlp.english_share", "ratio"),
    ("nlp.embed_s", "s"),
    ("nlp.tokenize_calls", "count"),
    ("nlp.keywords_s", "s"),
    ("nlp.dbscan_s", "s"),
    ("nlp.scalable_s", "s"),
    ("nlp.kmeans_s", "s"),
    ("nlp.kmeans_calls", "count"),
    ("analysis.vetting_s", "s"),
    ("analysis.clusters_vetted", "count"),
    *((f"analysis.{stage}_s", "s") for stage in STAGE_NAMES),
    ("obs.scorecard_s", "s"),
    ("serve.build_s", "s"),
    ("serve.hit_s", "s"),
    ("serve.hits", "count"),
    ("serve.miss_s", "s"),
    ("serve.misses", "count"),
    ("serve.hit_rate", "ratio"),
    ("serve.evictions", "count"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.samples", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
)

#: Which input-record count each timed layer scales with, for the
#: scaling report.  Analysis stages use the record type the suite feeds
#: them (``run_analysis_suite``'s ``sizes``).
_BASIS = {
    "nlp.langdetect": "posts",
    "nlp.embed": "english_posts",
    "nlp.keywords": "english_posts",
    "nlp.dbscan": "english_posts",
    "nlp.scalable": "english_posts",
    "nlp.kmeans": "english_posts",
    "analysis.vetting": "english_posts",
    "analysis.anatomy": "listings",
    "analysis.account_setup": "profiles",
    "analysis.scam_posts": "posts",
    "analysis.network": "listings",
    "analysis.efficacy": "profiles",
    "analysis.underground": "underground",
    "analysis.sellers": "listings",
    "analysis.infrastructure": "posts",
    "analysis.indicators": "listings",
    "crawler.underground": "underground",
}
#: Collection, contracts, store and scorecard scale with records collected.
_DEFAULT_BASIS = "records"


def basis_of(layer: str) -> str:
    return _BASIS.get(layer, _DEFAULT_BASIS)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer for ``tracer``; call ``remove()`` on the result."""
    from repro.marketplaces.public import PublicMarketplaceSite
    from repro.marketplaces.underground import UndergroundForumSite
    from repro.platforms.base import PlatformSite
    from repro.serve.api import CATALOG_HOST

    def site_layer(site, *args, **kwargs) -> Optional[str]:
        if isinstance(site, (PublicMarketplaceSite, UndergroundForumSite)):
            return "marketplaces.handle"
        if isinstance(site, PlatformSite):
            return "platforms.handle"
        return None  # the catalog site: routing stays with web dispatch

    def stage_layer(supervisor, stage, *args, **kwargs) -> str:
        return f"analysis.{stage}"

    def route_with_handler_span(route):
        # Catalog API handlers registered while tracing run inside a
        # ``serve.handler`` span: the cache lookup, plus SQLite and JSON
        # rendering on a miss.
        def wrapped(site, method, pattern, handler):
            if site.host == CATALOG_HOST:
                handler = tracer.span("serve.handler", handler)
            return route(site, method, pattern, handler)
        return wrapped

    def tally(key: str, measure):
        return lambda result: tracer.count(key, measure(result))

    patches = Installation()
    for module, attr, layer in _FUNCTIONS:
        patches.function(module, attr,
                         lambda fn, layer=layer: tracer.span(layer, fn))
    patches.function(
        "repro.contracts.schema", "validate_dataset",
        lambda fn: tracer.span(
            "contracts.validate", fn,
            after=tally("contracts.records",
                        lambda report: report.checked_total if report else 0)))
    patches.function("repro.nlp.tokenize", "tokenize",
                     lambda fn: tracer.counter("nlp.tokenize_calls", fn))
    for module, cls, attr, layer in _METHODS:
        patches.method(module, cls, attr,
                       lambda fn, layer=layer: tracer.span(layer, fn))
    patches.method(
        "repro.nlp.langdetect", "LanguageDetector", "is_english",
        lambda fn: tracer.span("nlp.langdetect", fn,
                               after=tally("nlp.english", bool)))
    patches.method(
        "repro.analysis.scam_posts", "ClusterVetter", "vet",
        lambda fn: tracer.span("analysis.vetting", fn,
                               after=tally("analysis.clusters_vetted", len)))
    patches.method("repro.store.segments", "StoreReader", "iter_records",
                   lambda fn: tracer.span_iter("store.read", fn))
    for module, cls in (("repro.web.server", "Site"),
                        ("repro.marketplaces.underground",
                         "UndergroundForumSite")):
        patches.method(module, cls, "handle",
                       lambda fn: tracer.span_by(site_layer, fn))
    patches.method("repro.contracts.supervisor", "StageSupervisor", "run",
                   lambda fn: tracer.span_by(stage_layer, fn))
    patches.method("repro.web.server", "Site", "route",
                   route_with_handler_span)
    patches.apply()
    return patches


def per_layer_metrics(tracer: Tracer, facts: Dict[str, float],
                      wall_s: float, untraced_s: float,
                      factor: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced round.

    ``facts`` carries what the round itself counted: records collected
    and pages fetched (study), hit/miss split and latency percentiles
    (serve).  ``wall_s`` is the round's raw time and ``factor`` its speed
    factor: every metric in seconds is reported at reference speed, like
    ``untraced_s``, the untraced median the overhead is taken against.
    """
    layers = tracer.layers()

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    # ``<layer>_s`` is the layer's self time and ``<layer>_calls`` its
    # outermost calls; the metrics that are not span totals follow.
    values: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        if metric.endswith("_s"):
            values[metric] = self_s(metric[:-2])
        elif metric.endswith("_calls"):
            values[metric] = calls(metric[:-6])
    langdetect_calls = calls("nlp.langdetect")
    fetch_calls = calls("web.fetch")
    values.update({
        "nlp.tokenize_calls": tracer.tally.get("nlp.tokenize_calls", 0),
        "nlp.english_share": (tracer.tally.get("nlp.english", 0)
                              / langdetect_calls if langdetect_calls else 0.0),
        "contracts.records": tracer.tally.get("contracts.records", 0),
        "analysis.clusters_vetted":
            tracer.tally.get("analysis.clusters_vetted", 0),
        "crawler.pages": facts.get("pages", 0),
        "crawler.records_per_fetch": (facts.get("records", 0) / fetch_calls
                                      if fetch_calls else 0.0),
        "store.bytes_per_record": facts.get("bytes_per_record", 0.0),
        "trace.wall_s": wall_s,
        "trace.uncovered_s": wall_s - tracer.top_level_s(),
    })
    for key in ("serve.hit_s", "serve.hits", "serve.miss_s", "serve.misses",
                "serve.hit_rate", "serve.evictions", "serve.p50_ms",
                "serve.p99_ms", "serve.samples"):
        values[key] = facts.get(key, 0)
    for metric, unit in PER_LAYER:
        if unit == "s":
            values[metric] *= factor
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_s
    return values


def layer_table(tracer: Tracer, wall_s: float, factor: float) -> List[dict]:
    """One row per span layer: self and inclusive seconds at reference
    speed, calls, and the self share of traced wall time (the ceiling on
    what a change to that layer alone can save end to end, everything
    being on one thread)."""
    rows = []
    for name, entry in tracer.layers().items():
        rows.append({
            "layer": name,
            "self_s": entry["self_s"] * factor,
            "incl_s": entry["incl_s"] * factor,
            "calls": entry["calls"],
            "share": entry["self_s"] / wall_s if wall_s else 0.0,
        })
    rows.sort(key=lambda row: -row["self_s"])
    return rows
