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
  ``db_sha256``, so it covers ``catalog.db`` too.

The run goes through ``cli.main`` so the store is saved under the run's
own chaos profile, disk faults included.

There is no update flag.  A change that moves a value edits the literal
here and names the moved output and the reason in CHANGES.md.
"""

import hashlib
import os

import pytest

from repro.cli import main

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
    "off": "36c9dd8462cf75794a521e93e83c874d55efb88300fd1c024e710c1e9d7256b7",
    "moderate": "a45f50fcd5b5a866a50d34130821cb4b39e6667a4e4ae58b55f14aadb4a3dd0a",
}


def _file_sha256(*parts: str) -> str:
    with open(os.path.join(*parts), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.fixture(scope="module", params=sorted(STORE_MANIFEST_SHA256))
def pinned_run(request, tmp_path_factory):
    """``(chaos, run dir, telemetry dir)`` of one pinned run."""
    chaos = request.param
    root = tmp_path_factory.mktemp(f"pin-{chaos}")
    out, telemetry = str(root / "run"), str(root / "telemetry")
    assert main(["run", "--seed", "99", "--scale", "0.01", "--iterations", "2",
                 "--chaos", chaos, "--out", out,
                 "--telemetry-out", telemetry]) == 0
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
