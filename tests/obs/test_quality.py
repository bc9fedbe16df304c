"""The fidelity scorecard: scoring, determinism, persistence."""

import json

import pytest

from repro.analysis.suite import run_analysis_suite
from repro.contracts.supervisor import StageSupervisor
from repro.core import Study, StudyConfig
from repro.obs.quality import (
    SCORECARD_FILENAME,
    Scorecard,
    ScoreEntry,
    compute_scorecard,
    load_scorecard,
    precision_recall,
    write_scorecard,
)


class TestPrecisionRecall:
    def test_perfect(self):
        assert precision_recall({1, 2}, {1, 2}) == (1.0, 1.0)

    def test_empty_prediction_has_perfect_precision(self):
        precision, recall = precision_recall(set(), {1, 2})
        assert precision == 1.0
        assert recall == 0.0

    def test_empty_truth_has_perfect_recall(self):
        precision, recall = precision_recall({1}, set())
        assert precision == 0.0
        assert recall == 1.0

    def test_partial_overlap(self):
        precision, recall = precision_recall({1, 2, 3, 4}, {3, 4, 5})
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(2 / 3)


class TestScoreEntry:
    def test_band_inclusion(self):
        entry = ScoreEntry("x", "calibration", 0.5, 0.5, 1.0)
        assert entry.passed
        assert not ScoreEntry("x", "calibration", 0.49, 0.5, 1.0).passed

    def test_scorecard_failures_and_lookup(self):
        card = Scorecard(seed=1, scale=0.1, entries=[
            ScoreEntry("good", "ground_truth", 0.9, 0.5, 1.0),
            ScoreEntry("bad", "ground_truth", 0.1, 0.5, 1.0),
        ])
        assert not card.passed
        assert [e.name for e in card.failures()] == ["bad"]
        assert card.entry("good").value == 0.9
        assert card.entry("missing") is None


#: The ground-truth and calibration metrics every seeded run must emit.
EXPECTED_METRICS = (
    "scam_account_precision",
    "scam_account_recall",
    "scam_post_precision",
    "scam_post_recall",
    "network_pair_precision",
    "network_pair_recall",
    "efficacy_precision",
    "efficacy_recall",
    "underground_reuse_precision",
    "underground_reuse_recall",
    "calib_visible_listing_share",
    "calib_listing_share_l1",
    "calib_scam_posts_per_account",
    "calib_clustered_account_fraction",
    "calib_efficacy_rate",
)


@pytest.fixture(scope="module")
def small_result():
    """A second, smaller world scale than the session fixture's 0.04."""
    return Study(StudyConfig(seed=1307, scale=0.02, iterations=3)).run()


@pytest.fixture(scope="module")
def small_scorecard(small_result):
    return compute_scorecard(
        small_result,
        analyses=run_analysis_suite(small_result.dataset, StageSupervisor()),
    )


class TestScorecardOnSeededWorlds:
    def test_session_scale_passes(self, study_result):
        card = compute_scorecard(
            study_result,
            analyses=run_analysis_suite(study_result.dataset, StageSupervisor()),
        )
        assert card.scale == study_result.world.scale
        failed = [f"{e.name}={e.value}" for e in card.failures()]
        assert card.passed, f"out of band: {failed}"

    def test_small_scale_passes(self, small_scorecard):
        assert small_scorecard.passed, [
            f"{e.name}={e.value}" for e in small_scorecard.failures()
        ]

    def test_expected_metrics_present(self, small_scorecard):
        names = {entry.name for entry in small_scorecard.entries}
        for metric in EXPECTED_METRICS:
            assert metric in names, metric

    def test_ground_truth_scores_are_meaningful(self, small_scorecard):
        """The pipeline really detects the planted structure: precision
        and recall against ground truth are high, not vacuous."""
        for name in ("scam_account_precision", "scam_post_precision",
                     "efficacy_precision", "efficacy_recall"):
            assert small_scorecard.entry(name).value >= 0.9, name
        assert small_scorecard.entry("scam_account_recall").value >= 0.7

    def test_calibration_tracks_paper_shape(self, small_scorecard):
        visible = small_scorecard.entry("calib_visible_listing_share")
        assert 0.2 < visible.value < 0.4  # Table 2: ~30%
        efficacy = small_scorecard.entry("calib_efficacy_rate")
        assert 0.1 < efficacy.value < 0.35  # Table 8: 19.71%

    def test_gauges_registered(self, small_result, small_scorecard):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        small_scorecard.register_gauges(metrics)
        gauge = metrics.get("fidelity_score")
        entry = small_scorecard.entries[0]
        assert gauge.value(metric=entry.name) == pytest.approx(
            entry.value, abs=1e-6
        )
        passed = metrics.get("fidelity_passed")
        assert passed.value(metric=entry.name) == (1.0 if entry.passed else 0.0)


class TestDeterminismAndPersistence:
    def test_same_seed_byte_identical_scorecards(self, small_result, tmp_path):
        other = Study(StudyConfig(seed=1307, scale=0.02, iterations=3)).run()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_scorecard(str(a_dir), compute_scorecard(
            small_result,
            analyses=run_analysis_suite(small_result.dataset, StageSupervisor()),
        ))
        write_scorecard(str(b_dir), compute_scorecard(
            other, analyses=run_analysis_suite(other.dataset, StageSupervisor()),
        ))
        bytes_a = (a_dir / SCORECARD_FILENAME).read_bytes()
        bytes_b = (b_dir / SCORECARD_FILENAME).read_bytes()
        assert bytes_a == bytes_b

    def test_write_load_roundtrip(self, small_scorecard, tmp_path):
        path = write_scorecard(str(tmp_path), small_scorecard)
        assert path.endswith(SCORECARD_FILENAME)
        loaded = load_scorecard(str(tmp_path))
        assert loaded["schema"] == "repro.scorecard/v1"
        assert loaded["passed"] == small_scorecard.passed
        assert loaded["n_entries"] == len(small_scorecard.entries)
        names = [entry["name"] for entry in loaded["entries"]]
        assert names == sorted(names)

    def test_load_missing_returns_none(self, tmp_path):
        assert load_scorecard(str(tmp_path)) is None

    def test_json_is_plain_sorted_dump(self, small_scorecard, tmp_path):
        path = write_scorecard(str(tmp_path), small_scorecard)
        with open(path) as handle:
            data = json.load(handle)
        redumped = json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / SCORECARD_FILENAME).read_text() == redumped


class TestPipelineIntegration:
    def test_study_with_telemetry_computes_scorecard(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        result = Study(
            StudyConfig(seed=1307, scale=0.01, iterations=2),
            telemetry=telemetry,
        ).run()
        assert result.scorecard is not None
        assert result.scorecard.entries
        gauge = telemetry.metrics.get("fidelity_score")
        assert gauge is not None
        stage_names = [s["name"] for s in telemetry.tracer.stage_summary()]
        assert "scorecard" in stage_names

    def test_disabled_when_configured_off(self):
        from repro.obs import Telemetry

        result = Study(
            StudyConfig(seed=1307, scale=0.01, iterations=2,
                        scorecard_enabled=False),
            telemetry=Telemetry(),
        ).run()
        assert result.scorecard is None

    def test_no_telemetry_no_scorecard(self, study_result):
        # The session fixture runs without telemetry: no scorecard cost.
        assert study_result.scorecard is None
