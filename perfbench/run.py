"""Benchmark of `tiler`: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload extremal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run sets up (importing `tiler` and building the inputs, repeated
SETUP_REPEATS times; `setup_s` is the median), then runs whole rounds of
operations until `--seconds` have passed and at least MIN_OPERATIONS have
completed, then checks every output.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
functions of each `tiler` module are wrapped in spans and the metrics are
per layer, for one set-up plus one round.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
MIN_OPERATIONS = 40  # fewest operations that still leave ten beyond p75
# Highest tail percentile reported.  On the shared 2-core host this
# benchmark was built on, stalls of 3-10 ms hit 0.5-1% of the
# sub-millisecond enumerate operations, so p99 there read 1.3-1.9 ms on
# unchanged code while p95 held within 2%.
TAIL_CAP = 95
# Traced runs stop starting rounds once this many spans are held (about
# 24 bytes each in memory and on disk).
SPAN_CAP = 1_500_000
OUT_DIR = HERE / "out"


class Clock:
    """Times operations; a raising operation counts as failed."""

    FAILED = object()

    def __init__(self, tracer=None):
        self.times = []
        self.failures = []
        self.tracer = tracer

    def op(self, label, fn, *args):
        span = self.tracer.open_operation() if self.tracer is not None else None
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # any error is a failed operation; the checks judge it
            self.failures.append((label, type(exc).__name__))
            return self.FAILED
        finally:
            elapsed = perf_counter() - t0
            if span is not None:
                self.tracer.close_operation(span)
        self.times.append(elapsed)
        return out

    def discard(self):
        """Drop the last timing: it was not an operation."""
        self.times.pop()


def import_tiler():
    """Import `tiler` afresh, so that each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "tiler" or n.startswith("tiler.")]:
        del sys.modules[name]
    return importlib.import_module("tiler")


def tail_percentile(n):
    """Highest whole percentile p <= TAIL_CAP with ten or more of n
    operations beyond its nearest-rank position, or None below
    MIN_OPERATIONS."""
    if n < MIN_OPERATIONS:
        return None
    return max(p for p in range(1, TAIL_CAP + 1) if n - math.ceil(p * n / 100) >= 10)


def end_to_end(times, wall, setup_s):
    ordered = sorted(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / wall, "1/s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
    }
    p = tail_percentile(len(ordered))
    if p is not None:
        metrics["op_tail_ms"] = (ordered[math.ceil(p * len(ordered) / 100) - 1] * 1e3, "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, p


def per_layer(tracer, boundary, counts_at_boundary, rounds, memory):
    """Per-layer metrics for one set-up plus one round: set-up spans
    (before `boundary`) count once, timed spans are divided by `rounds`."""
    setup, setup_self = tracer.totals(0, boundary)
    timed, timed_self = tracer.totals(boundary)

    def calls(name):
        return setup[name][0] + timed[name][0] / rounds

    def seconds(name):
        return setup[name][1] + timed[name][1] / rounds

    def count(key):
        before = counts_at_boundary[key]
        return before + (tracer.counts[key] - before) / rounds

    tries = calls("flips.try_flip_inplace")
    applied = count("flips.applied")
    gen_self = setup_self.get("generation", 0.0) + timed_self.get("generation", 0.0) / rounds
    metrics = {
        "grid.parse_s": (seconds("grid.parse_figure"), "s"),
        "grid.build_graph_s": (seconds("grid.build_graph"), "s"),
        "equilibrium.build_s": (seconds("equilibrium.build_equilibrium"), "s"),
        "grid.kib_per_cell": (memory, "KiB"),
        "lattice.minimal_height_s": (seconds("lattice.minimal_height"), "s"),
        "lattice.maximal_height_s": (seconds("lattice.maximal_height"), "s"),
        "lattice.calls": (calls("lattice.minimal_height") + calls("lattice.maximal_height"), "count"),
        "lattice.passes": (count("lattice.passes"), "count"),
        "tiling.decode_s": (seconds("tiling.tiling_of_height"), "s"),
        "tiling.encode_s": (seconds("tiling.height_of_tiling"), "s"),
        "tiling.validate_s": (seconds("tiling.validate_tiling"), "s"),
        "components.forced_s": (seconds("components.forced_components"), "s"),
        "components.count": (calls("components.forced_components"), "count"),
        "flips.try_flip_calls": (tries, "count"),
        "flips.applied_per_attempt": (applied / tries if tries else 0.0, "ratio"),
        "flips.component_status_s": (seconds("flips.component_status"), "s"),
        "flips.flip_path_s": (seconds("flips.flip_path"), "s"),
        "flips.path_flips": (count("flips.path_flips"), "count"),
        "generation.self_s": (gen_self, "s"),
        "generation.cftp_updates": (calls("generation.plan_update"), "count"),
        "generation.cftp_windows": (count("generation.cftp_windows"), "count"),
        "render.from_json_s": (seconds("render.dominoes_from_json"), "s"),
        "render.to_json_s": (seconds("render.tiling_to_json"), "s"),
    }
    return metrics


def kib_per_cell(tiler, texts):
    """tracemalloc peak of `pipeline()` per cell, over the given figures."""
    peak_bytes = cells = 0
    for text in texts:
        gc.collect()
        tracemalloc.start()
        figure, *_ = tiler.pipeline(text)
        peak_bytes += tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        cells += len(figure)
    return peak_bytes / 1024 / cells


def run_workload(name, seed, seconds, trace, small=False):
    """One workload in this process; returns the result object."""
    workload = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        tiler = import_tiler()
        inputs = workload.build(tiler, seed, small)
        setups.append(perf_counter() - t0)
    setup_s = statistics.median(setups)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        inputs = workload.build(tiler, seed, small)
    boundary = len(tracer) if tracer is not None else 0
    counts_at_boundary = dict(tracer.counts) if tracer is not None else {}

    clock = Clock(tracer)
    records = {"rounds": []}
    min_ops = 1 if small else MIN_OPERATIONS
    gc.collect()
    start = perf_counter()
    while True:
        records["rounds"].append(workload.run_round(tiler, inputs, len(records["rounds"]), clock))
        wall = perf_counter() - start
        if tracer is not None and len(tracer) > SPAN_CAP:
            break
        if wall >= seconds and len(clock.times) >= min_ops:
            break
    rounds = len(records["rounds"])

    if tracer is not None:
        tracer.uninstall()
        memory = kib_per_cell(tiler, workload.memory_texts(inputs))
        metrics = per_layer(tracer, boundary, counts_at_boundary, rounds, memory)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{name}")
        print(f"{name}: traced, {len(tracer)} spans in {wall:.2f} s, "
              f"{len(clock.times) / wall:.4g} operations/s")
    else:
        metrics, p = end_to_end(clock.times, wall, setup_s)
        print(f"{name}: {len(clock.times)} operations in {rounds} rounds, {wall:.2f} s; "
              f"op_tail_ms is p{p}")

    records["failures"] = clock.failures
    problems = workload.check(tiler, inputs, records)
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": len(clock.times) + len(clock.failures),
        "failed": len(clock.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        result = json.loads(last)
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest inputs, one round at least (for the smoke tests)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.small)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
