"""Cross-version pin: study outputs are byte-identical across commits.

Every twin check in the suite compares two runs of one version, so a
change that moves results deterministically passes them all.  These pin
what ``repro run`` (seed 99, scale 0.01, two crawl iterations) writes
and what the commands that read it print, to literals:

- the store manifest ``store.json`` lists every segment with its record
  count and sha256, so it covers every collected record;
- the telemetry dir's ``scorecard.json`` covers the fidelity scorecard;
- ``repro report`` stdout covers every rendered table and figure;
- ``catalog.json`` from ``repro serve build`` carries the catalog's
  ``db_sha256``, so it covers ``catalog.db`` too;
- ``profile.json`` (the run is profiled) through ``deterministic_view``,
  which drops its wall, throughput, memory and env fields;
- ``repro trace --json`` with the machine-dependent keys dropped at any
  depth (``TRACE_MACHINE_KEYS``).

The run goes through ``cli.main`` so the store is saved under the run's
own chaos profile, disk faults included.

There is no update flag.  A change that moves a value edits the literal
here and names the moved output and the reason in CHANGES.md.
"""

import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.obs.prof import MACHINE_KEYS, deterministic_view

STORE_MANIFEST_SHA256 = {
    "off": "7f186465e4d1b3975d23edbf084fe396acaea00830c300ba201ce799aeb9d889",
    "moderate": "cb80ee12999b8952f84f8054557df8ea60cbdfdb6acc8afa151dd49d4e075726",
}
SCORECARD_SHA256 = {
    "off": "9b757fd593e5e16b09a563c591a2eb600f77c26d878bcfd457e472ee093ec95c",
    "moderate": "0eb926709138f9ad35032963911d8f6492058cad6f621af72906869c725e996e",
}
REPORT_SHA256 = {
    "off": "d384fbae78f9dac917a49b6e5386275c198079750b4f6b0d18c1025a4453380b",
    "moderate": "cec3fc1516250349769d226c84ddf595c6363dc4788e018126ac1d31fbaa895b",
}
CATALOG_MANIFEST_SHA256 = {
    "off": "25039d43f71f7b751ab120e89203ae2d3da1eff0da3e3c54e7cc2dee381692d5",
    "moderate": "b9dacb9eeb637ff49599dee3213dcc18adc5d9fc82269baf13b1b0ee6fe5dfeb",
}
PROFILE_SHA256 = {
    "off": "5366a152addb3583522af52ceebd895a368ad6517167f5ed2ca794db8a764855",
    "moderate": "30ce3ef0c328b039c3a30fc31756422fb75e561b14125270edc76230c6fc4e71",
}
TRACE_SHA256 = {
    "off": "efdde7cebc3075eaa6b056a8e79af48f60705b065b98d70c9f24450e364db99f",
    "moderate": "367eea8e3b92b9a12c7ebd283413934092d5116df1603e390d134980fb9a8231",
}

#: ``trace --json`` keys that differ between machines or checkouts: the
#: profile's machine fields, the telemetry dir's path, the commit, the
#: Python release, and the two memory totals the document flattens.
TRACE_MACHINE_KEYS = MACHINE_KEYS | {
    "path", "git", "python", "rss_max_kb", "tracemalloc_peak_bytes",
}


def _file_sha256(*parts: str) -> str:
    with open(os.path.join(*parts), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _json_sha256(document) -> str:
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _strip(node, keys):
    """``node`` without the dict entries named in ``keys``, at any depth."""
    if isinstance(node, dict):
        return {key: _strip(value, keys) for key, value in node.items()
                if key not in keys}
    if isinstance(node, list):
        return [_strip(item, keys) for item in node]
    return node


@pytest.fixture(scope="module", params=sorted(STORE_MANIFEST_SHA256))
def pinned_run(request, tmp_path_factory):
    """``(chaos, run dir, telemetry dir)`` of one pinned run."""
    chaos = request.param
    root = tmp_path_factory.mktemp(f"pin-{chaos}")
    out, telemetry = str(root / "run"), str(root / "telemetry")
    assert main(["run", "--seed", "99", "--scale", "0.01", "--iterations", "2",
                 "--chaos", chaos, "--out", out,
                 "--telemetry-out", telemetry, "--profile"]) == 0
    return chaos, out, telemetry


def test_store_manifest_is_pinned(pinned_run):
    chaos, out, _ = pinned_run
    assert _file_sha256(out, "store.json") == STORE_MANIFEST_SHA256[chaos]


def test_scorecard_is_pinned(pinned_run):
    chaos, _, telemetry = pinned_run
    assert _file_sha256(telemetry, "scorecard.json") == SCORECARD_SHA256[chaos]


def test_report_is_pinned(pinned_run, capsys):
    chaos, out, _ = pinned_run
    capsys.readouterr()
    assert main(["report", out]) == 0
    report = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[chaos]


def test_catalog_manifest_is_pinned(pinned_run, tmp_path):
    chaos, out, _ = pinned_run
    catalog = str(tmp_path / "catalog")
    assert main(["serve", "build", out, "--out", catalog]) == 0
    assert _file_sha256(catalog, "catalog.json") == \
        CATALOG_MANIFEST_SHA256[chaos]


def test_profile_is_pinned(pinned_run):
    chaos, _, telemetry = pinned_run
    with open(os.path.join(telemetry, "profile.json")) as handle:
        profile = json.load(handle)
    assert _json_sha256(deterministic_view(profile)) == PROFILE_SHA256[chaos]


def test_trace_document_is_pinned(pinned_run, capsys):
    chaos, _, telemetry = pinned_run
    capsys.readouterr()
    assert main(["trace", "--json", telemetry]) == 0
    document = json.loads(capsys.readouterr().out)
    assert _json_sha256(_strip(document, TRACE_MACHINE_KEYS)) == \
        TRACE_SHA256[chaos]
