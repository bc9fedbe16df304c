"""The underground (Tor) forum simulator.

Section 4.2 describes the collection constraints these markets imposed:
registration with "complex, site-specific, non-standard CAPTCHAs", and
navigation so restricted that "attempts to access pages not linked within
the current page resulted in blocks".  Both are enforced here:

* every request needs a registered session cookie (after solving a
  CAPTCHA at ``/register``);
* per session, the server remembers the links shown on the last served
  page; requesting any path that was not among them (except the forum
  root and the search endpoint) returns 403.

Content surfaces mirror the paper's protocol: platform sections with
paginated thread lists, a keyword search, and thread pages with the
posting body, author, optional date/price, and reply count.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

from repro.synthetic.model import Platform, UndergroundPosting
from repro.util.rng import RngTree
from repro.util.simtime import SimClock
from repro.util.textutil import slugify
from repro.web import http
from repro.web.captcha import CaptchaGate
from repro.web.html import E, Element, document, render_document
from repro.web.http import Request, Response
from repro.web.server import Site

#: Threads shown per section/search page; the paper recorded data "from
#: the first five pages of results, up to 25 postings per social media
#: platform" — five pages of five.
PAGE_SIZE = 5


def onion_host(market: str) -> str:
    """A deterministic .onion hostname for a market."""
    slug = slugify(market).replace("-", "")
    fake_hash = (slug * 4)[:16]
    return f"{slug}{fake_hash}.onion"


class UndergroundForumSite(Site):
    """One underground market's hidden-service forum."""

    def __init__(
        self,
        market: str,
        postings: List[UndergroundPosting],
        rng: RngTree,
        clock: Optional[SimClock] = None,
    ) -> None:
        super().__init__(onion_host(market), clock=clock, latency_seconds=1.2)
        self.market = market
        self._postings = sorted(postings, key=lambda p: p.posting_id)
        self._by_id = {p.posting_id: p for p in self._postings}
        self._captcha = CaptchaGate(rng.child("captcha"))
        self._sessions: Set[str] = set()
        self._session_counter = 0
        #: session -> set of paths linked from the last page served.
        self._last_links: Dict[str, Set[str]] = {}
        self.route("GET", "/register", self._register_form)
        self.route("POST", "/register", self._register_submit)
        self.route("GET", "/forum", self._forum_root)
        self.route("GET", "/section/<slug>", self._section)
        self.route("GET", "/search", self._search)
        self.route("GET", "/thread/<posting_id>", self._thread)

    # -- session & navigation policy ---------------------------------------

    def handle(self, request: Request, client_id: str = "anon") -> Response:
        path = request.url.split(self.host, 1)[-1].split("?")[0]
        if path.startswith("/register"):
            return super().handle(request, client_id)
        session = request.cookies.get("session")
        if session not in self._sessions:
            return self._finish(
                request,
                http.error_response(http.UNAUTHORIZED, "<html><body>register first</body></html>"),
            )
        if not self._navigation_allowed(session, path):
            return self._finish(
                request,
                http.error_response(http.FORBIDDEN, "<html><body>blocked: follow links</body></html>"),
            )
        return super().handle(request, client_id)

    def _navigation_allowed(self, session: str, path: str) -> bool:
        if path in ("/forum", "/search"):
            return True
        allowed = self._last_links.get(session, set())
        return path in allowed

    def _remember_links(self, request: Request, element: Element) -> None:
        session = request.cookies.get("session")
        if session is None:
            return
        links = {href.split("?")[0] for href in element.links()}
        self._last_links[session] = links

    # -- registration ---------------------------------------------------------

    def _register_form(self, request: Request) -> Response:
        challenge = self._captcha.issue()
        doc = document(
            f"{self.market} - register",
            E.h1(f"Join {self.market}"),
            E.form(
                E.label(challenge.prompt, class_="captcha-prompt"),
                E.input(type="hidden", name="challenge_id", value=challenge.challenge_id),
                E.input(type="text", name="captcha_answer"),
                E.input(type="text", name="username"),
                action="/register",
                method="post",
                class_="register-form",
            ),
        )
        return http.html_response(render_document(doc))

    def _register_submit(self, request: Request) -> Response:
        challenge_id = request.form.get("challenge_id", "")
        answer = request.form.get("captcha_answer", "")
        username = request.form.get("username", "")
        if not username or not self._captcha.verify(challenge_id, answer):
            return http.error_response(
                http.BAD_REQUEST, "<html><body>captcha failed</body></html>"
            )
        self._session_counter += 1
        session = f"{self.host}-s{self._session_counter:04d}"
        self._sessions.add(session)
        response = http.redirect_response("/forum")
        response.set_cookies["session"] = session
        return response

    # -- content -------------------------------------------------------------------

    def _platforms(self) -> List[Platform]:
        return sorted({p.platform for p in self._postings}, key=lambda p: p.value)

    def _forum_root(self, request: Request) -> Response:
        sections = [
            E.li(
                E.a(
                    f"{platform.value} accounts",
                    href=f"/section/{slugify(platform.value)}",
                    class_="section-link",
                )
            )
            for platform in self._platforms()
        ]
        doc = document(
            self.market,
            E.h1(self.market),
            E.ul(*sections, class_="section-list"),
            E.form(
                E.input(type="text", name="q"),
                action="/search",
                method="get",
                class_="search-form",
            ),
        )
        self._remember_links(request, doc)
        return http.html_response(render_document(doc))

    def _thread_list_page(
        self, request: Request, title: str, postings: List[UndergroundPosting],
        base_path: str, page: int,
    ) -> Response:
        pages = max(1, math.ceil(len(postings) / PAGE_SIZE))
        if page < 1 or page > pages:
            return http.error_response(http.NOT_FOUND)
        window = postings[(page - 1) * PAGE_SIZE : page * PAGE_SIZE]
        items = [
            E.li(
                E.a(p.title, href=f"/thread/{p.posting_id}", class_="thread-link"),
                E.span(p.author, class_="thread-author"),
                E.span(str(p.replies), class_="thread-replies"),
            )
            for p in window
        ]
        children: List[Element] = [
            E.h1(title),
            E.ul(*items, class_="thread-list"),
            E.span(f"page {page} of {pages}", class_="page-indicator"),
        ]
        if page < pages:
            joiner = "&" if "?" in base_path else "?"
            children.append(
                E.a("next", href=f"{base_path}{joiner}page={page + 1}", class_="next-page")
            )
        doc = document(title, *children)
        self._remember_links(request, doc)
        return http.html_response(render_document(doc))

    def _section(self, request: Request) -> Response:
        slug = request.path_params["slug"]
        matches = [p for p in self._postings if slugify(p.platform.value) == slug]
        if not matches:
            return http.error_response(http.NOT_FOUND)
        page = int(request.params.get("page", "1"))
        return self._thread_list_page(
            request, f"{self.market}: {matches[0].platform.value}", matches,
            f"/section/{slug}", page,
        )

    def _search(self, request: Request) -> Response:
        query = request.params.get("q", "").lower()
        terms = [t for t in query.split() if t]
        matches = [
            p for p in self._postings
            if all(t in (p.title + " " + p.body).lower() for t in terms)
        ]
        page = int(request.params.get("page", "1"))
        return self._thread_list_page(
            request, f"search: {query}", matches, f"/search?q={query}", page
        )

    def _thread(self, request: Request) -> Response:
        posting = self._by_id.get(request.path_params["posting_id"])
        if posting is None:
            return http.error_response(http.NOT_FOUND)
        children: List[Element] = [
            E.h1(posting.title, class_="post-title"),
            E.span(posting.author, class_="post-author"),
            E.div(posting.body, class_="post-body"),
            E.span(str(posting.quantity), class_="post-quantity"),
            E.span(str(posting.replies), class_="post-replies"),
        ]
        if posting.date is not None:
            children.append(E.span(posting.date.isoformat(), class_="post-date"))
        if posting.price is not None:
            children.append(
                E.span(f"${posting.price.as_dollars:,.0f}", class_="post-price")
            )
        doc = document(posting.title, *children)
        # Thread pages do not refresh the per-session link set: the allowed
        # links stay those of the last *list* page, so a reader can open
        # every thread it links — but cannot guess URLs (Section 4.2's
        # "attempts to access pages not linked ... resulted in blocks").
        return http.html_response(render_document(doc))


__all__ = ["PAGE_SIZE", "UndergroundForumSite", "onion_host"]
