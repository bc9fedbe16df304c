"""Archiving composes with --resume and --chaos: twin archives match.

A chaos-profile run that is killed at an iteration boundary and resumed
from its checkpoint must seal an archive *byte-identical* to the one an
uninterrupted twin seals — same index files, same blobs, same manifest
(including the hash chain).  That is what makes an archived crawl safe
to interrupt: the replayable record has no seam where the crash was.
"""

import os

import pytest

import repro.core.pipeline as pipeline_module
from repro.archive import ArchiveReader, run_replay
from repro.core.pipeline import Study, StudyConfig

from tests.conftest import tree_bytes

CONFIG = dict(
    seed=97, scale=0.01, iterations=3, include_underground=False,
    chaos_profile="moderate", scorecard_enabled=False,
)


class SimulatedKill(RuntimeError):
    """Stands in for a SIGKILL at an iteration boundary."""


def test_killed_and_resumed_archive_is_byte_identical_twin(
    tmp_path, monkeypatch
):
    twin_dir = str(tmp_path / "twin_archive")
    Study(StudyConfig(archive_dir=twin_dir, **CONFIG)).run()

    # Kill the archived run at iteration 2 — checkpoint covers 0-1, and
    # the archive is left unsealed with a torn iteration_0002 index.
    checkpoint = str(tmp_path / "checkpoint")
    archive_dir = str(tmp_path / "resumed_archive")
    real_set_iteration = pipeline_module.set_iteration

    def dying_set_iteration(sites, iteration):
        if iteration == 2:
            raise SimulatedKill("killed at iteration 2")
        real_set_iteration(sites, iteration)

    monkeypatch.setattr(pipeline_module, "set_iteration", dying_set_iteration)
    with pytest.raises(SimulatedKill):
        Study(StudyConfig(
            checkpoint_dir=checkpoint, archive_dir=archive_dir, **CONFIG
        )).run()
    monkeypatch.setattr(pipeline_module, "set_iteration", real_set_iteration)
    assert not os.path.exists(os.path.join(archive_dir, "archive.json"))

    Study(StudyConfig(
        checkpoint_dir=checkpoint, archive_dir=archive_dir, resume=True,
        **CONFIG
    )).run()

    twin, resumed = tree_bytes(twin_dir), tree_bytes(archive_dir)
    assert sorted(twin) == sorted(resumed)
    differing = [name for name in twin if twin[name] != resumed[name]]
    assert differing == []

    # And the seam-free archive replays like any other.
    reader = ArchiveReader.open(archive_dir)
    assert reader.verify() == []
    result = run_replay(archive_dir)
    assert result.dataset.listings


def test_fresh_archived_run_overwrites_stale_archive(tmp_path):
    archive_dir = str(tmp_path / "archive")
    first = Study(StudyConfig(archive_dir=archive_dir, **CONFIG)).run()
    rerun = Study(StudyConfig(archive_dir=archive_dir, **CONFIG)).run()
    # Same seed, fresh start: the second seal must equal the first, not
    # accumulate on top of it.
    assert rerun.archive == first.archive
    assert ArchiveReader.open(archive_dir).verify() == []
