"""Cross-version pin: collection output is byte-identical across commits.

Every twin check in the suite compares two runs of one version, so a
change that moves results deterministically passes them all.  These pin
the store manifest ``repro run`` writes (seed 99, scale 0.01, two crawl
iterations) to literals: ``store.json`` lists every segment with its
record count and sha256, so it covers every collected record.  The run
goes through ``cli.main`` so the store is saved under the run's own
chaos profile, disk faults included.

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


@pytest.mark.parametrize("chaos", sorted(STORE_MANIFEST_SHA256))
def test_store_manifest_is_pinned(tmp_path, chaos):
    out = str(tmp_path / "run")
    assert main(["run", "--seed", "99", "--scale", "0.01", "--iterations", "2",
                 "--chaos", chaos, "--out", out]) == 0
    with open(os.path.join(out, "store.json"), "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert digest == STORE_MANIFEST_SHA256[chaos]
