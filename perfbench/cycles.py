"""Write the serve workload's catalog sources.

Usage: ``python3 perfbench/cycles.py OUT_DIR SEED [SEED ...]``

Writes one scale-0.02 study cycle (2 crawl iterations, as CI's serve job
runs them) per SEED to ``OUT_DIR/cycle-NNN``, in argument order.  Each
cycle is a segmented store with ``study_meta.json`` and
``scorecard.json`` beside it.  Exits 1 if a cycle's scorecard is out of
band or a stage degraded.
"""

from __future__ import annotations

import os
import sys
from typing import List

import env

SCALE = 0.02
ITERATIONS = 2


def write_cycles(out_dir: str, seeds: List[int]) -> int:
    from repro.analysis.suite import run_analysis_suite
    from repro.contracts.supervisor import StageSupervisor
    from repro.core.pipeline import Study, StudyConfig
    from repro.obs.quality import compute_scorecard, write_scorecard
    from repro.store import save_dataset
    from repro.util.fileio import atomic_write_json

    for index, cycle_seed in enumerate(seeds):
        cycle_dir = os.path.join(out_dir, f"cycle-{index:03d}")
        result = Study(StudyConfig(seed=cycle_seed, scale=SCALE,
                                   iterations=ITERATIONS)).run()
        save_dataset(result.dataset, cycle_dir)
        atomic_write_json(os.path.join(cycle_dir, "study_meta.json"), {
            "seed": cycle_seed,
            "scale": SCALE,
            "iterations": ITERATIONS,
            "active_per_iteration": result.active_per_iteration,
            "cumulative_per_iteration": result.cumulative_per_iteration,
            "payment_methods": {
                market: [list(pair) for pair in pairs]
                for market, pairs in result.payment_methods.items()
            },
            "simulated_seconds": result.simulated_seconds,
        })
        analyses = run_analysis_suite(result.dataset, StageSupervisor())
        card = compute_scorecard(result, analyses=analyses)
        write_scorecard(cycle_dir, card)
        if analyses.failures or not card.passed:
            print(f"cycle {index} (seed {cycle_seed}) failed its scorecard",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        sys.exit(2)
    env.prepare()
    sys.exit(write_cycles(sys.argv[1], [int(seed) for seed in sys.argv[2:]]))
