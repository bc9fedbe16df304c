"""Human-readable output: one run's report and the two-scale scaling report.

``python3 perfbench/report.py [--seed N]`` prints the scaling report from
the traced results of both study workloads already in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Optional

import env

_UNITS = {"s": "s", "mb": "MB", "ms": "ms", "rps": "req/s", "rate": "",
          "samples": ""}


def _unit(name: str) -> str:
    return _UNITS.get(name.rsplit("_", 1)[-1], "")


def print_run(result: dict) -> None:
    fp = result["env"]
    print(f"perfbench {result['workload']} seed {result['seed']}: "
          f"{result['rounds']} measured round(s), budget {result['seconds']:g} s,"
          f" output digest {result['digest'][:16]}")
    print(f"env: nproc {fp['nproc']} (usable {fp['cpus_usable']}), "
          f"BLAS threads {fp['blas_threads']}, python {fp['python']}, "
          f"numpy {fp['numpy']}, commit {fp['commit'] or 'n/a'}, "
          f"source {fp['source_sha256'][:12]}")
    named = result["named"]
    for name, value in named.items():
        if name == "serve_samples":
            continue
        suffix = ""
        if name in ("serve_p50_ms", "serve_p99_ms"):
            suffix = f"  (n={named['serve_samples']} raw samples)"
        if name == "error_rate":
            suffix = (f"  ({result['failed']} failed of "
                      f"{result['attempted']} attempted)")
        print(f"  {name:<16} {value:>12.4f} {_unit(name):<5}{suffix}")
    print("problems: " + ("; ".join(result["problems"]) or "none"))
    if "layers" in result:
        _print_layers(result)


def _print_layers(result: dict) -> None:
    per_layer = result["per_layer"]
    print(f"traced round: wall {per_layer['trace.wall_s']:.3f} s, tracing "
          f"overhead {per_layer['trace.overhead_s']:+.3f} s, not covered by "
          f"any span {per_layer['trace.uncovered_s']:.3f} s")
    print(f"  {'layer':<24} {'self_s':>9} {'incl_s':>9} {'share':>6} "
          f"{'calls':>9}")
    for row in result["layers"]:
        print(f"  {row['layer']:<24} {row['self_s']:>9.3f} "
              f"{row['incl_s']:>9.3f} {row['share']:>6.1%} {row['calls']:>9}")


def _load(workload: str, seed: int) -> Optional[dict]:
    path = os.path.join(env.WORK, f"result-{workload}-seed{seed}-trace1.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def print_scaling(seed: int) -> None:
    """Per layer: (self time ratio) / (input record ratio) from study-0.02
    to study-0.1; above 1 the layer grows faster than its input."""
    from layers import basis_of

    small, large = _load("study-0.02", seed), _load("study-0.1", seed)
    if small is None or large is None:
        return
    rows_small = {row["layer"]: row for row in small["layers"]}
    rows_large = {row["layer"]: row for row in large["layers"]}
    print(f"scaling, study-0.02 -> study-0.1 (seed {seed}): "
          f"time ratio / record ratio, > 1 grows superlinearly")
    print(f"  {'layer':<24} {'self_s':>17} {'records (basis)':>31} "
          f"{'scaling':>8}")
    for layer in sorted(set(rows_small) | set(rows_large)):
        a, b = rows_small.get(layer), rows_large.get(layer)
        if a is None or b is None or not a["self_s"] or not b["self_s"]:
            side = "study-0.02" if b is None or not b["self_s"] else "study-0.1"
            print(f"  {layer:<24} only on {side}")
            continue
        basis = basis_of(layer)
        n_small, n_large = small["bases"][basis], large["bases"][basis]
        time_ratio = b["self_s"] / a["self_s"]
        record_ratio = n_large / n_small
        scaling = time_ratio / record_ratio
        flag = "  SUPERLINEAR" if scaling > 1 else ""
        print(f"  {layer:<24} {a['self_s']:>7.3f}->{b['self_s']:<7.3f}"
              f"(x{time_ratio:<5.2f}) {basis:>13} {n_small:>6}->{n_large:<6}"
              f"(x{record_ratio:<5.2f}) {scaling:>6.2f}{flag}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=99)
    seed = parser.parse_args().seed
    env.prepare()
    print_scaling(seed)
