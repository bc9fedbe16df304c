"""The catalog's HTTP query API — a :class:`~repro.web.server.Site`.

The serving layer is deliberately built on the same in-process web
substrate the crawler crawls: the catalog registers as a virtual host
on :class:`repro.web.server.Internet`, so every existing facility —
routing (with the 405/404 distinction), token buckets, telemetry's
``server_requests_total`` — applies to the product surface too.

Endpoints (all ``GET``, all JSON, all carrying
``"schema": "repro.catalog-api/v1"`` and the catalog's content digest):

======================  ====================================================
``/api/catalog``        manifest summary: digest, tables, cycles
``/api/listings``       search with filters + pagination (marketplace,
                        category, platform, seller, price_min/max, cycle,
                        sort=url|price|-price, limit, offset)
``/api/listings/<id>``  one listing row
``/api/sellers``        seller directory (marketplace, min_listings,
                        limit, offset)
``/api/sellers/<id>``   one seller's aggregated stats + their listings
``/api/price-history``  per (marketplace, category) price series across
                        cycles
``/api/scorecard``      fidelity scorecard entries of one cycle
``/api/diff``           run diff between two cycles (?from=A&to=B)
======================  ====================================================

Every response is rendered at most once per catalog content digest:
handlers are wrapped by the :class:`~repro.serve.cache.ResponseCache`,
keyed ``(endpoint, params, digest)``.  Bodies are canonical JSON
(sorted keys), so a cached byte stream and a fresh render are
indistinguishable.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.schemas import CATALOG_API_SCHEMA
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.serve.cache import ResponseCache, cache_key
from repro.serve.catalog import Catalog, CatalogError
from repro.util.simtime import SimClock
from repro.web import http
from repro.web.http import Request, Response
from repro.web.server import Site

#: The catalog's hostname on the in-process Internet.
CATALOG_HOST = "catalog.serve.repro"

#: Pagination guard rails.
DEFAULT_LIMIT = 20
MAX_LIMIT = 100

_LISTING_COLUMNS = (
    "id", "cycle", "offer_url", "marketplace", "platform", "category",
    "price_usd", "title", "seller_id", "seller_url", "seller_name",
    "followers_claimed", "verified_claim", "first_seen_iteration",
    "last_seen_iteration", "provenance",
)
_SELLER_COLUMNS = (
    "id", "seller_url", "marketplace", "name", "country", "rating",
    "joined", "n_listings", "n_priced", "median_price_usd",
    "min_price_usd", "max_price_usd", "platforms",
)

_LISTING_SORTS = {
    "url": "offer_url ASC, id ASC",
    "price": "price_usd ASC, id ASC",
    "-price": "price_usd DESC, id ASC",
}


class _BadParam(ValueError):
    """A query parameter failed validation (rendered as a 400)."""


def _json_response(status: int, document: dict) -> Response:
    body = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return Response(status=status, body=body,
                    headers={"Content-Type": "application/json"})


def _listing_dict(row) -> dict:
    payload = {column: row[column] for column in _LISTING_COLUMNS}
    payload["verified_claim"] = bool(payload["verified_claim"])
    return payload


def _seller_dict(row) -> dict:
    payload = {column: row[column] for column in _SELLER_COLUMNS}
    payload["platforms"] = \
        payload["platforms"].split(",") if payload["platforms"] else []
    return payload


def _int_param(params: Dict[str, str], name: str,
               default: Optional[int] = None,
               minimum: Optional[int] = None,
               maximum: Optional[int] = None) -> Optional[int]:
    raw = params.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise _BadParam(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise _BadParam(f"{name} must be >= {minimum}")
    if maximum is not None:
        value = min(value, maximum)
    return value


def _float_param(params: Dict[str, str], name: str) -> Optional[float]:
    raw = params.get(name)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise _BadParam(f"{name} must be a number, got {raw!r}") from None


class CatalogApi:
    """Route handlers over one opened :class:`Catalog`.

    Construct once, then :meth:`register` onto a site (or use
    :func:`build_catalog_site`).  The instance owns the response cache;
    its hit/miss counters are what ``repro serve bench`` reports.
    """

    def __init__(self, catalog: Catalog,
                 cache: Optional[ResponseCache] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.catalog = catalog
        self.telemetry = telemetry or NULL_TELEMETRY
        self.cache = cache if cache is not None \
            else ResponseCache(telemetry=self.telemetry)

    # -- caching dispatch ---------------------------------------------------

    def _cached(self, endpoint: str, request: Request, compute) -> Response:
        params = {**request.params, **request.path_params}
        key = cache_key(endpoint, params, self.catalog.digest)
        entry = self.cache.get(key)
        if entry is not None:
            status, body = entry
            return Response(status=status, body=body,
                            headers={"Content-Type": "application/json"})
        try:
            status, document = compute(params)
        except _BadParam as exc:
            status, document = http.BAD_REQUEST, {"error": str(exc)}
        except CatalogError as exc:
            status, document = http.NOT_FOUND, {"error": str(exc)}
        document.setdefault("schema", CATALOG_API_SCHEMA)
        document.setdefault("endpoint", endpoint)
        document.setdefault("digest", self.catalog.digest)
        response = _json_response(status, document)
        # Every response is a pure function of (params, digest) — error
        # answers included — so everything is cacheable.
        self.cache.put(key, response.status, response.body)
        return response

    def register(self, site: Site) -> Site:
        site.route("GET", "/api/catalog",
                   lambda r: self._cached("catalog", r, self._catalog))
        site.route("GET", "/api/listings",
                   lambda r: self._cached("listings", r, self._listings))
        site.route("GET", "/api/listings/<listing_id>",
                   lambda r: self._cached("listing", r, self._listing))
        site.route("GET", "/api/sellers",
                   lambda r: self._cached("sellers", r, self._sellers))
        site.route("GET", "/api/sellers/<seller_id>",
                   lambda r: self._cached("seller", r, self._seller))
        site.route("GET", "/api/price-history",
                   lambda r: self._cached("price_history", r,
                                          self._price_history))
        site.route("GET", "/api/scorecard",
                   lambda r: self._cached("scorecard", r, self._scorecard))
        site.route("GET", "/api/diff",
                   lambda r: self._cached("diff", r, self._diff))
        return site

    # -- endpoints ----------------------------------------------------------

    def _catalog(self, params: Dict[str, str]) -> Tuple[int, dict]:
        return http.OK, {
            "cycles": self.catalog.cycles(),
            "tables": self.catalog.stats(),
            "cache": self.cache.stats(),
        }

    def _listings(self, params: Dict[str, str]) -> Tuple[int, dict]:
        clauses: List[str] = []
        arguments: List[object] = []
        for column in ("marketplace", "category", "platform"):
            value = params.get(column)
            if value:
                clauses.append(f"{column} = ?")
                arguments.append(value)
        seller = _int_param(params, "seller")
        if seller is not None:
            clauses.append("seller_id = ?")
            arguments.append(seller)
        cycle = _int_param(params, "cycle")
        if cycle is not None:
            clauses.append("cycle = ?")
            arguments.append(cycle)
        price_min = _float_param(params, "price_min")
        if price_min is not None:
            clauses.append("price_usd >= ?")
            arguments.append(price_min)
        price_max = _float_param(params, "price_max")
        if price_max is not None:
            clauses.append("price_usd <= ?")
            arguments.append(price_max)
        sort = params.get("sort", "url")
        if sort not in _LISTING_SORTS:
            raise _BadParam(
                f"sort must be one of {sorted(_LISTING_SORTS)}, got {sort!r}"
            )
        limit = _int_param(params, "limit", default=DEFAULT_LIMIT,
                           minimum=1, maximum=MAX_LIMIT)
        offset = _int_param(params, "offset", default=0, minimum=0)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        total = self.catalog.conn.execute(
            f"SELECT COUNT(*) FROM listings{where}", arguments
        ).fetchone()[0]
        rows = self.catalog.conn.execute(
            f"SELECT * FROM listings{where}"
            f" ORDER BY {_LISTING_SORTS[sort]} LIMIT ? OFFSET ?",
            [*arguments, limit, offset],
        ).fetchall()
        return http.OK, {
            "total": total,
            "limit": limit,
            "offset": offset,
            "results": [_listing_dict(row) for row in rows],
        }

    def _listing(self, params: Dict[str, str]) -> Tuple[int, dict]:
        try:
            listing_id = int(params["listing_id"])
        except (KeyError, ValueError):
            raise _BadParam("listing id must be an integer") from None
        row = self.catalog.conn.execute(
            "SELECT * FROM listings WHERE id = ?", (listing_id,)
        ).fetchone()
        if row is None:
            return http.NOT_FOUND, {"error": f"no listing {listing_id}"}
        return http.OK, {"listing": _listing_dict(row)}

    def _sellers(self, params: Dict[str, str]) -> Tuple[int, dict]:
        clauses: List[str] = []
        arguments: List[object] = []
        marketplace = params.get("marketplace")
        if marketplace:
            clauses.append("marketplace = ?")
            arguments.append(marketplace)
        min_listings = _int_param(params, "min_listings")
        if min_listings is not None:
            clauses.append("n_listings >= ?")
            arguments.append(min_listings)
        limit = _int_param(params, "limit", default=DEFAULT_LIMIT,
                           minimum=1, maximum=MAX_LIMIT)
        offset = _int_param(params, "offset", default=0, minimum=0)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        total = self.catalog.conn.execute(
            f"SELECT COUNT(*) FROM sellers{where}", arguments
        ).fetchone()[0]
        rows = self.catalog.conn.execute(
            f"SELECT * FROM sellers{where}"
            f" ORDER BY n_listings DESC, id ASC LIMIT ? OFFSET ?",
            [*arguments, limit, offset],
        ).fetchall()
        return http.OK, {
            "total": total,
            "limit": limit,
            "offset": offset,
            "results": [_seller_dict(row) for row in rows],
        }

    def _seller(self, params: Dict[str, str]) -> Tuple[int, dict]:
        try:
            seller_id = int(params["seller_id"])
        except (KeyError, ValueError):
            raise _BadParam("seller id must be an integer") from None
        row = self.catalog.conn.execute(
            "SELECT * FROM sellers WHERE id = ?", (seller_id,)
        ).fetchone()
        if row is None:
            return http.NOT_FOUND, {"error": f"no seller {seller_id}"}
        listings = self.catalog.conn.execute(
            "SELECT * FROM listings WHERE seller_id = ?"
            " ORDER BY offer_url ASC, id ASC",
            (seller_id,),
        ).fetchall()
        return http.OK, {
            "seller": _seller_dict(row),
            "listings": [_listing_dict(entry) for entry in listings],
        }

    def _price_history(self, params: Dict[str, str]) -> Tuple[int, dict]:
        clauses: List[str] = []
        arguments: List[object] = []
        for column in ("marketplace", "category"):
            value = params.get(column)
            if value:
                clauses.append(f"{column} = ?")
                arguments.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self.catalog.conn.execute(
            f"SELECT * FROM price_history{where}"
            f" ORDER BY marketplace, category, cycle",
            arguments,
        ).fetchall()
        series: Dict[Tuple[str, str], List[dict]] = {}
        for row in rows:
            series.setdefault(
                (row["marketplace"], row["category"]), []
            ).append({
                "cycle": row["cycle"],
                "n": row["n"],
                "median_price_usd": row["median_price_usd"],
                "mean_price_usd": row["mean_price_usd"],
                "min_price_usd": row["min_price_usd"],
                "max_price_usd": row["max_price_usd"],
            })
        return http.OK, {
            "series": [
                {"marketplace": marketplace, "category": category,
                 "points": points}
                for (marketplace, category), points in sorted(series.items())
            ],
        }

    def _scorecard(self, params: Dict[str, str]) -> Tuple[int, dict]:
        cycle = _int_param(params, "cycle")
        if cycle is None:
            cycle = self.catalog.latest_cycle()
        if cycle not in self.catalog.cycles():
            return http.NOT_FOUND, {"error": f"no cycle {cycle}"}
        rows = self.catalog.conn.execute(
            "SELECT * FROM scorecards WHERE cycle = ? ORDER BY name",
            (cycle,),
        ).fetchall()
        return http.OK, {
            "cycle": cycle,
            "entries": [
                {"name": row["name"], "kind": row["kind"],
                 "value": row["value"], "low": row["lo"],
                 "high": row["hi"], "passed": bool(row["passed"]),
                 "detail": row["detail"]}
                for row in rows
            ],
        }

    def _diff(self, params: Dict[str, str]) -> Tuple[int, dict]:
        left = _int_param(params, "from")
        right = _int_param(params, "to")
        if left is None or right is None:
            raise _BadParam("diff needs ?from=CYCLE&to=CYCLE")
        cycles = set(self.catalog.cycles())
        for cycle in (left, right):
            if cycle not in cycles:
                return http.NOT_FOUND, {"error": f"no cycle {cycle}"}

        def counts_of(cycle: int) -> Dict[str, int]:
            return {
                row["marketplace"]: row[1]
                for row in self.catalog.conn.execute(
                    "SELECT marketplace, COUNT(*) FROM listings"
                    " WHERE cycle = ? GROUP BY marketplace"
                    " ORDER BY marketplace",
                    (cycle,),
                )
            }

        def medians_of(cycle: int) -> Dict[str, float]:
            return {
                f"{row['marketplace']}/{row['category']}":
                    row["median_price_usd"]
                for row in self.catalog.conn.execute(
                    "SELECT marketplace, category, median_price_usd"
                    " FROM price_history WHERE cycle = ?"
                    " ORDER BY marketplace, category",
                    (cycle,),
                )
            }

        def scores_of(cycle: int) -> Dict[str, float]:
            return {
                row["name"]: row["value"]
                for row in self.catalog.conn.execute(
                    "SELECT name, value FROM scorecards WHERE cycle = ?"
                    " ORDER BY name",
                    (cycle,),
                )
                if row["value"] is not None
            }

        def delta_map(before: Dict[str, float],
                      after: Dict[str, float]) -> Dict[str, dict]:
            return {
                key: {
                    "from": before.get(key),
                    "to": after.get(key),
                    "delta": (
                        round(after[key] - before[key], 6)
                        if key in before and key in after else None
                    ),
                }
                for key in sorted(set(before) | set(after))
            }

        return http.OK, {
            "from": left,
            "to": right,
            "listings_by_marketplace":
                delta_map(counts_of(left), counts_of(right)),
            "median_price_by_series":
                delta_map(medians_of(left), medians_of(right)),
            "scorecard_values":
                delta_map(scores_of(left), scores_of(right)),
        }


def build_catalog_site(catalog: Catalog,
                       cache: Optional[ResponseCache] = None,
                       host: str = CATALOG_HOST,
                       clock: Optional[SimClock] = None,
                       telemetry: Optional[Telemetry] = None
                       ) -> Tuple[Site, CatalogApi]:
    """A ready-to-register :class:`Site` serving ``catalog``.

    Returns the site together with its :class:`CatalogApi` (whose cache
    holds the hit/miss counters callers report on).
    """
    api = CatalogApi(catalog, cache=cache, telemetry=telemetry)
    # The catalog answers in process: no simulated network latency.
    site = Site(host, clock=clock, latency_seconds=0.0)
    api.register(site)
    return site, api


__all__ = [
    "CATALOG_HOST",
    "CatalogApi",
    "DEFAULT_LIMIT",
    "MAX_LIMIT",
    "build_catalog_site",
]
