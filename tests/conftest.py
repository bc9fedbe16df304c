"""Shared fixtures.

The expensive artifacts — a built world and a full study run — are
session-scoped: analyses are read-only over them, so tests share one
instance.  Tests that mutate records build their own small worlds.
"""

from __future__ import annotations

import os

import pytest

from repro.core import Study, StudyConfig
from repro.synthetic import WorldBuilder, WorldConfig

#: Scale used by the shared fixtures; small enough to keep the suite
#: fast, large enough that every per-platform marginal is populated.
TEST_SCALE = 0.04
TEST_SEED = 1307


@pytest.fixture(scope="session")
def world():
    """A built synthetic world (ground truth)."""
    return WorldBuilder(WorldConfig(seed=TEST_SEED, scale=TEST_SCALE, iterations=4)).build()


@pytest.fixture(scope="session")
def study_result():
    """A full study run: crawl, profile collection, underground, sweep."""
    return Study(StudyConfig(seed=TEST_SEED, scale=TEST_SCALE, iterations=4)).run()


@pytest.fixture(scope="session")
def dataset(study_result):
    return study_result.dataset


def tree_bytes(root: str) -> dict:
    """{relative path: bytes} for every file under ``root``."""
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out
