"""The public marketplace site.

Serves what the paper's crawler saw: a paginated listing index, one offer
page per listing, seller profile pages (on markets that show sellers), and
a payments/help page (the source for Table 3).  Pages are rendered in one
of three themes so extraction requires per-site adaptation:

* ``cards`` — semantic classes and ``data-prop`` attributes;
* ``table`` — an ``offer-details`` table with textual labels;
* ``dl`` — a definition list keyed by lowercase field names.

The site is *iteration-aware*: set :attr:`current_iteration` between crawl
rounds and only listings active at that iteration are served, which is
what produces the Figure-2 cumulative/active dynamics.

Offer and seller pages are rendered once per site and memoized by
listing id and seller id: an offer page reads only its listing, the
seller's name and the account's handle, all frozen once
:class:`~repro.synthetic.world.WorldBuilder` has built the world.  The
iteration and ``sellers_public`` checks run before the lookup, so a
delisted offer still gets 404.  Index and landing pages change with the
iteration; they and the payments page are rendered per request.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.marketplaces.registry import MarketplaceSpec
from repro.platforms.base import profile_url
from repro.synthetic.model import Listing, Seller, World
from repro.util.simtime import SimClock
from repro.util.textutil import compact_number
from repro.web import http
from repro.web.html import E, Element, document, render_document
from repro.web.http import Request, Response
from repro.web.server import Site


class PublicMarketplaceSite(Site):
    """One public marketplace's virtual host."""

    def __init__(
        self,
        spec: MarketplaceSpec,
        world: World,
        clock: Optional[SimClock] = None,
    ) -> None:
        super().__init__(
            spec.host,
            clock=clock,
            latency_seconds=0.2,
            robots_text="User-agent: *\nDisallow: /checkout\nDisallow: /account\n",
        )
        self.spec = spec
        self.current_iteration = 0
        self._world = world
        self._listings: List[Listing] = sorted(
            world.listings_for_market(spec.name), key=lambda l: l.listing_id
        )
        self._by_id: Dict[str, Listing] = {l.listing_id: l for l in self._listings}
        self._sellers: Dict[str, Seller] = {
            s.seller_id: s for s in world.sellers.values() if s.marketplace == spec.name
        }
        #: Rendered offer and seller pages, by listing id and seller id.
        self._offer_markup: Dict[str, str] = {}
        self._seller_markup: Dict[str, str] = {}
        self.route("GET", "/", self._landing)
        self.route("GET", "/listings", self._listing_index)
        self.route("GET", "/offer/<listing_id>", self._offer_page)
        self.route("GET", "/seller/<seller_id>", self._seller_page)
        self.route("GET", "/payments", self._payments_page)

    # -- current inventory -----------------------------------------------------

    def active_listings(self) -> List[Listing]:
        return [l for l in self._listings if l.active_at(self.current_iteration)]

    # -- handlers -------------------------------------------------------------

    def _landing(self, request: Request) -> Response:
        doc = document(
            self.spec.name,
            E.h1(self.spec.name),
            E.p(f"Buy and sell social media accounts. {len(self.active_listings())} offers live."),
            E.a("Browse listings", href="/listings", class_="browse-link"),
            E.a("Payment options", href="/payments", class_="payments-link"),
        )
        return http.html_response(render_document(doc))

    def _listing_index(self, request: Request) -> Response:
        active = self.active_listings()
        page_size = self.spec.page_size
        pages = max(1, math.ceil(len(active) / page_size))
        page = int(request.params.get("page", "1"))
        if page < 1 or page > pages:
            return http.error_response(http.NOT_FOUND)
        window = active[(page - 1) * page_size : page * page_size]
        items = [
            E.li(
                E.a(
                    listing.title,
                    href=f"/offer/{listing.listing_id}",
                    class_="offer-link",
                )
            )
            for listing in window
        ]
        children = [
            E.h1(f"{self.spec.name} listings"),
            E.ul(*items, class_="offer-list"),
            E.span(f"page {page} of {pages}", class_="page-indicator"),
        ]
        if page < pages:
            children.append(
                E.a("next", href=f"/listings?page={page + 1}", class_="next-page")
            )
        return http.html_response(render_document(document("Listings", *children)))

    def _offer_page(self, request: Request) -> Response:
        listing = self._by_id.get(request.path_params["listing_id"])
        if listing is None or not listing.active_at(self.current_iteration):
            return http.error_response(http.NOT_FOUND)
        markup = self._offer_markup.get(listing.listing_id)
        if markup is None:
            theme = self.spec.theme
            if theme == "cards":
                body = self._render_cards(listing)
            elif theme == "table":
                body = self._render_table(listing)
            else:
                body = self._render_dl(listing)
            markup = self._offer_markup[listing.listing_id] = render_document(
                document(listing.title, body))
        return http.html_response(markup)

    # -- themes ------------------------------------------------------------------

    def _common_fields(self, listing: Listing) -> Dict[str, str]:
        fields = {
            "platform": listing.platform.value,
            "price": f"${listing.price.as_dollars:,.0f}",
        }
        if listing.category:
            fields["category"] = listing.category
        if listing.followers_claimed is not None:
            fields["followers"] = compact_number(listing.followers_claimed)
        if listing.monetization is not None:
            fields["monthly-revenue"] = f"${listing.monetization.monthly_revenue.as_dollars:,.0f}"
        return fields

    def _seller_bits(self, listing: Listing) -> List[Element]:
        bits: List[Element] = []
        if self.spec.sellers_public and listing.seller_id:
            seller = self._sellers.get(listing.seller_id)
            name = seller.name if seller else listing.seller_id
            bits.append(
                E.a(name, href=f"/seller/{listing.seller_id}", class_="seller-link")
            )
        return bits

    def _extras(self, listing: Listing) -> List[Element]:
        extras: List[Element] = []
        if listing.visible_account_id:
            account = self._world.accounts[listing.visible_account_id]
            extras.append(
                E.a(
                    "View profile",
                    href=profile_url(account.platform, account.handle),
                    class_="profile-link",
                )
            )
        if listing.verified_claim:
            extras.append(E.span("Verified", class_="verified-badge"))
        if listing.description:
            extras.append(E.div(listing.description, class_="offer-description"))
        if listing.monetization and listing.monetization.income_source:
            extras.append(
                E.div(listing.monetization.income_source, class_="income-source")
            )
        return extras

    def _render_cards(self, listing: Listing) -> Element:
        fields = self._common_fields(listing)
        price = fields.pop("price")
        props = [
            E.li(value, data_prop=name) for name, value in fields.items()
        ]
        return E.div(
            E.h1(listing.title, class_="offer-title"),
            E.span(price, class_="offer-price"),
            E.ul(*props, class_="offer-props"),
            *self._seller_bits(listing),
            *self._extras(listing),
            class_="offer-card",
            data_offer_id=listing.listing_id,
        )

    def _render_table(self, listing: Listing) -> Element:
        fields = self._common_fields(listing)
        labels = {
            "platform": "Platform",
            "price": "Price",
            "category": "Category",
            "followers": "Followers",
            "monthly-revenue": "Monthly revenue",
        }
        rows = [
            E.tr(E.th(labels[name]), E.td(value)) for name, value in fields.items()
        ]
        return E.div(
            E.h1(listing.title, class_="offer-title"),
            E.table(*rows, class_="offer-details"),
            *self._seller_bits(listing),
            *self._extras(listing),
            class_="offer-page",
            data_offer_id=listing.listing_id,
        )

    def _render_dl(self, listing: Listing) -> Element:
        fields = self._common_fields(listing)
        pairs: List[Element] = []
        for name, value in fields.items():
            pairs.append(E.dt(name))
            pairs.append(E.dd(value))
        return E.div(
            E.h1(listing.title, class_="offer-title"),
            E.dl(*pairs, class_="offer-info"),
            *self._seller_bits(listing),
            *self._extras(listing),
            class_="offer-page",
            data_offer_id=listing.listing_id,
        )

    # -- seller & payments ---------------------------------------------------------

    def _seller_page(self, request: Request) -> Response:
        if not self.spec.sellers_public:
            return http.error_response(http.NOT_FOUND)
        seller = self._sellers.get(request.path_params["seller_id"])
        if seller is None:
            return http.error_response(http.NOT_FOUND)
        markup = self._seller_markup.get(seller.seller_id)
        if markup is None:
            children = [
                E.h1(seller.name, class_="seller-name"),
                E.span(f"{seller.rating:.1f}", class_="seller-rating"),
            ]
            if seller.country:
                children.append(E.span(seller.country, class_="seller-country"))
            if seller.joined:
                children.append(E.span(seller.joined.isoformat(), class_="seller-joined"))
            markup = self._seller_markup[seller.seller_id] = render_document(
                document(f"Seller {seller.name}", *children))
        return http.html_response(markup)

    def _payments_page(self, request: Request) -> Response:
        items = [
            E.li(method, data_group=group, class_="payment-method")
            for group, method in self.spec.payment_methods
            if group != "Unknown"
        ]
        children: List[Element] = [E.h1("Payment options")]
        if items:
            children.append(E.ul(*items, class_="payment-list"))
        else:
            children.append(
                E.p("Contact support for payment instructions.", class_="payment-unknown")
            )
        return http.html_response(render_document(document("Payments", *children)))


__all__ = ["PublicMarketplaceSite"]
