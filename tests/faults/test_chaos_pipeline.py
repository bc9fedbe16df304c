"""End-to-end chaos: the pipeline completes and stays deterministic."""

from repro.core.pipeline import Study, StudyConfig
from repro.obs import Telemetry

CONFIG = dict(
    seed=53, scale=0.01, iterations=2, include_underground=False,
    chaos_profile="moderate", scorecard_enabled=False,
)


def test_chaos_run_completes_with_nonempty_dataset():
    result = Study(StudyConfig(**CONFIG), telemetry=Telemetry()).run()
    assert result.dataset.listings
    assert result.dataset.profiles
    # Chaos actually fired...
    assert result.fault_injector is not None
    assert sum(result.fault_injector.counts.values()) > 0
    # ...and every injected fault is visible as telemetry.
    kinds = {e.kind for e in result.telemetry.events.events}
    assert any(kind.startswith("fault.") for kind in kinds)
    counter = result.telemetry.metrics.get("faults_injected_total")
    assert counter is not None


def test_same_seed_chaos_runs_are_identical():
    a = Study(StudyConfig(**CONFIG)).run()
    b = Study(StudyConfig(**CONFIG)).run()
    assert a.dataset.listings == b.dataset.listings
    assert a.dataset.sellers == b.dataset.sellers
    assert a.dataset.profiles == b.dataset.profiles
    assert a.dataset.posts == b.dataset.posts
    assert a.active_per_iteration == b.active_per_iteration
    assert a.simulated_seconds == b.simulated_seconds
    assert a.fault_injector.counts == b.fault_injector.counts


def test_chaos_off_injects_nothing():
    result = Study(StudyConfig(**{**CONFIG, "chaos_profile": "off"})).run()
    assert result.fault_injector is None
    assert result.dataset.listings
