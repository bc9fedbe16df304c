"""The repository benchmark: one command for every workload and metric.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload study-0.02 --seed 99 --seconds 20 --trace 0

Workloads: ``study-0.02``, ``study-0.1``, ``serve`` (see README.md).
The run sets up, then repeats the workload's measured round until
``--seconds`` are spent (at least one round) and reports medians over
rounds.  ``--trace 1`` adds one traced round after the untraced ones and
reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it are a human report.
Full results, span logs and per-layer tables land in ``.perfbench/``.
Exit status: 0 correct, 1 an output check failed, 2 the run could not
start (bad arguments, no ``src/repro`` in the checkout, or BENCHMARK.json
and the harness list different metrics).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import env
import speed

#: End-to-end metrics: name -> unit.  For the study workloads a round is
#: Study.run (write), save_dataset (save), then the analysis suite and
#: scorecard (read); for serve it is build_catalog (write), Catalog.open
#: (open), then one replay of the request sequence (read, summed request
#: latency).  total_s sums a round's phases.
END_TO_END = {
    "total_s": "s",
    "write_s": "s",
    "read_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("study-0.02", "study-0.1", "serve"))
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float, probe: speed.SpeedProbe) -> list:
    """Rounds until ``seconds`` are spent; no round starts that would
    likely end more than half a round past the budget."""
    rounds = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        rounds.append(apply_speed(workload.run_round(len(rounds)), probe))
        gc.collect()
        now = time.perf_counter()
        if now - started + (now - round_started) / 2 >= seconds:
            return rounds


def apply_speed(round_, probe: speed.SpeedProbe):
    """Give each phase of ``round_`` the speed factor sampled while it ran."""
    round_.factors = {name: probe.factor(start, end)
                      for name, (start, end, _) in round_.phases.items()}
    return round_


def at_reference(round_, phase: str = "") -> float:
    """One phase (or, by default, all phases) at the reference speed."""
    return sum(seconds * round_.factors[name]
               for name, (_, _, seconds) in round_.phases.items()
               if not phase or name == phase)


def percentile_ms(ordered, fraction: float) -> float:
    """Nearest-rank percentile of sorted raw samples, in milliseconds."""
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1] * 1000.0


def named_metrics(workload_name: str, rounds: list, e2e: dict,
                  attempted: int, failed: int) -> dict:
    """The same run in the workload's own vocabulary."""
    named = {"peak_rss_mb": e2e["peak_rss_mb"], "setup_s": e2e["setup_s"],
             "error_rate": failed / attempted}
    if workload_name == "serve":
        ordered = sorted(x * r.factors["read"]
                         for r in rounds for x in r.latencies)
        named.update({
            "catalog_build_s": e2e["write_s"],
            "serve_rps": len(ordered) / sum(ordered),
            "serve_p50_ms": percentile_ms(ordered, 0.50),
            "serve_p99_ms": percentile_ms(ordered, 0.99),
            "serve_samples": len(ordered),
        })
    else:
        named.update({"study_s": e2e["total_s"], "collect_s": e2e["write_s"],
                      "analyze_s": e2e["read_s"]})
    return named


def benchmark_file_mismatch(harness: dict) -> str:
    """Why BENCHMARK.json and this harness disagree on metric names or
    units (one was edited without the other), or "" when they agree."""
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for key, metrics in harness.items():
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != metrics:
            differ = sorted(set(listed.items()) ^ set(metrics.items()))
            return f"BENCHMARK.json {key} differs from the harness: {differ}"
    return ""


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        return run(args, started, probe)
    finally:
        probe.stop()


def run(args, started: float, probe: speed.SpeedProbe) -> int:
    try:
        env.prepare()
    except env.MissingProgram as exc:
        print(exc, file=sys.stderr)
        return 2
    import layers
    import report
    import tracing
    import workloads

    mismatch = benchmark_file_mismatch(
        {"end_to_end": END_TO_END, "per_layer": dict(layers.PER_LAYER)})
    if mismatch:
        print(mismatch, file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    work_dir = os.path.join(env.WORK, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workload.setup(args.seed, work_dir)
        setup_end = time.perf_counter()
        setup_factor = probe.factor(started, setup_end)
        rounds = measure(workload, args.seconds, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            installation = layers.install(tracer)
            traced_start = time.perf_counter()
            try:
                traced = apply_speed(workload.run_round(len(rounds), tracer),
                                     probe)
            finally:
                installation.remove()
            traced_factor = probe.factor(traced_start, time.perf_counter())
        problems = [p for r in rounds + ([traced] if traced else [])
                    for p in r.problems]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    all_rounds = rounds + ([traced] if traced else [])
    digests = sorted({r.digest for r in all_rounds})
    if len(digests) > 1:
        problems.append(f"rounds disagree: {len(digests)} distinct output "
                        f"digests over {len(all_rounds)} rounds")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    e2e = {
        "total_s": statistics.median(at_reference(r) for r in rounds),
        "write_s": statistics.median(at_reference(r, "write") for r in rounds),
        "read_s": statistics.median(at_reference(r, "read") for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": (setup_end - started) * setup_factor,
    }
    named = named_metrics(args.workload, rounds, e2e, attempted, failed)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env.fingerprint(),
        "rounds": len(rounds),
        "raw_setup_s": setup_end - started,
        "setup_factor": setup_factor,
        "raw_round_phases": [{name: seconds for name, (_, _, seconds)
                              in r.phases.items()} for r in rounds],
        "round_factors": [r.factors for r in rounds],
        "speed_samples": len(probe.durations),
        "digest": digests[0],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "named": named,
    }
    metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
    if traced is not None:
        facts = dict(traced.facts)
        if named.get("serve_samples"):
            facts.update({"serve.p50_ms": named["serve_p50_ms"],
                          "serve.p99_ms": named["serve_p99_ms"],
                          "serve.samples": named["serve_samples"]})
        traced_s = sum(seconds for _, _, seconds in traced.phases.values())
        per_layer = layers.per_layer_metrics(
            tracer, facts, traced_s, e2e["total_s"], traced_factor)
        result.update({
            "per_layer": per_layer,
            "layers": layers.layer_table(tracer, traced_s, traced_factor),
            "bases": traced.facts,
            "traced_factor": traced_factor,
        })
        metrics = {name: (per_layer[name], unit)
                   for name, unit in layers.PER_LAYER}
        tracer.write_spans(
            os.path.join(env.WORK, f"spans-{args.workload}-seed{args.seed}.json.gz"),
            {"workload": args.workload, "seed": args.seed,
             "raw_wall_s": traced_s, "speed_factor": traced_factor})
    result_path = os.path.join(
        env.WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)

    report.print_run(result)
    if traced is not None and args.workload.startswith("study-"):
        report.print_scaling(args.seed)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
