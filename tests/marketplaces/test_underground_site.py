"""Tests for the underground forum simulator."""

import pytest

from repro.marketplaces.underground import UndergroundForumSite, onion_host
from repro.synthetic.names import NameForge
from repro.synthetic.underground import UndergroundGenerator
from repro.util.rng import RngTree
from repro.web.captcha import HumanSolver
from repro.web.client import HttpClient
from repro.web.html_parser import parse_html
from repro.web.server import Internet


@pytest.fixture()
def forum():
    rng = RngTree(51)
    postings = UndergroundGenerator(rng.child("gen"), NameForge(rng.child("n"))).build()
    nexus = [p for p in postings if p.market == "Nexus"]
    net = Internet()
    site = UndergroundForumSite("Nexus", nexus, rng.child("site"), clock=net.clock)
    net.register(site)
    client = HttpClient(
        net, client_id="t", via_tor=True
    )
    return site, client, nexus


def register(site, client, accuracy=1.0, seed=5):
    page = client.get(f"http://{site.host}/register")
    tree = parse_html(page.body)
    prompt = tree.find(class_="captcha-prompt").text
    challenge_id = tree.find("input", name="challenge_id").get("value")
    answer = HumanSolver(RngTree(seed).child("solve"), accuracy=accuracy).solve(prompt)
    return client.post(
        f"http://{site.host}/register",
        form={"challenge_id": challenge_id, "captcha_answer": answer, "username": "reader"},
    )


class TestHost:
    def test_onion_host_format(self):
        host = onion_host("We The North")
        assert host.endswith(".onion")
        assert " " not in host

    def test_requires_tor(self, forum):
        site, _client, _postings = forum
        net = Internet()
        net.register(UndergroundForumSite("Other", [], RngTree(1), clock=net.clock))
        plain = HttpClient(net)
        from repro.web.http import ConnectionFailed

        with pytest.raises(ConnectionFailed):
            plain.get(f"http://{net.hosts[0]}/forum")


class TestRegistration:
    def test_unregistered_access_denied(self, forum):
        site, client, _postings = forum
        assert client.get(f"http://{site.host}/forum").status == 401

    def test_registration_with_solved_captcha(self, forum):
        site, client, _postings = forum
        response = register(site, client)
        assert response.ok  # redirect followed to /forum
        assert "section-link" in response.body

    def test_wrong_captcha_rejected(self, forum):
        site, client, _postings = forum
        page = client.get(f"http://{site.host}/register")
        tree = parse_html(page.body)
        challenge_id = tree.find("input", name="challenge_id").get("value")
        response = client.post(
            f"http://{site.host}/register",
            form={"challenge_id": challenge_id, "captcha_answer": "wrong",
                  "username": "reader"},
        )
        assert response.status == 400

    def test_username_required(self, forum):
        site, client, _postings = forum
        page = client.get(f"http://{site.host}/register")
        tree = parse_html(page.body)
        prompt = tree.find(class_="captcha-prompt").text
        challenge_id = tree.find("input", name="challenge_id").get("value")
        answer = HumanSolver(RngTree(3).child("s"), accuracy=1.0).solve(prompt)
        response = client.post(
            f"http://{site.host}/register",
            form={"challenge_id": challenge_id, "captcha_answer": answer, "username": ""},
        )
        assert response.status == 400


class TestNavigation:
    def test_sections_listed(self, forum):
        site, client, postings = forum
        register(site, client)
        response = client.get(f"http://{site.host}/forum")
        tree = parse_html(response.body)
        sections = tree.find_all("a", class_="section-link")
        platforms = {p.platform.value for p in postings}
        assert len(sections) == len(platforms)

    def test_linked_thread_accessible(self, forum):
        site, client, _postings = forum
        register(site, client)
        forum_page = client.get(f"http://{site.host}/forum")
        section_href = parse_html(forum_page.body).find("a", class_="section-link").get("href")
        section = client.get(f"http://{site.host}{section_href}")
        thread_href = parse_html(section.body).find("a", class_="thread-link").get("href")
        thread = client.get(f"http://{site.host}{thread_href}")
        assert thread.ok
        assert parse_html(thread.body).find(class_="post-body") is not None

    def test_url_guessing_blocked(self, forum):
        site, client, postings = forum
        register(site, client)
        client.get(f"http://{site.host}/forum")
        # Jump straight to a thread that no visited page linked.
        response = client.get(f"http://{site.host}/thread/{postings[-1].posting_id}")
        assert response.status == 403

    def test_search_finds_postings(self, forum):
        site, client, _postings = forum
        register(site, client)
        response = client.get(f"http://{site.host}/search", q="accounts")
        tree = parse_html(response.body)
        assert tree.find_all("a", class_="thread-link")

    def test_pagination_capped_at_five_per_page(self, forum):
        site, client, postings = forum
        register(site, client)
        forum_page = client.get(f"http://{site.host}/forum")
        section_href = parse_html(forum_page.body).find("a", class_="section-link").get("href")
        section = client.get(f"http://{site.host}{section_href}")
        tree = parse_html(section.body)
        assert len(tree.find_all("a", class_="thread-link")) <= 5
