#!/usr/bin/env python3
"""One benchmark for the whole system.  See README.md beside this file.

    python3 benchmarks/harness/run.py --seed 1                 # all four workloads
    python3 benchmarks/harness/run.py --workload batch --seed 1 --seconds 15 --trace 0
    python3 benchmarks/harness/run.py --workload batch --seed 1 --seconds 15 --trace 1
    python3 benchmarks/harness/run.py --agree --runs 5          # is the benchmark quiet?
    python3 benchmarks/harness/run.py --smoke                   # 20k jobs, 1 s

A single-workload run prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: BLAS / OpenMP pools would add a second source of
# scheduling noise on a 2-core box.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: The one size knob.  Everything else (bulk = n/2, append batch = n/50,
#: sibling members = n/4) derives from it.  100k keeps a run near 25 s, which
#: is what 92 driver runs inside 3420 s allow; see README.md "Sizing".
N_JOBS = 100_000
SMOKE_N_JOBS = 20_000
#: setup_s is the median of this many complete set-ups (one in --smoke).
SETUPS = 3
WORKLOAD_NAMES = ("ingest", "batch", "interactive", "serve")


def load_spec():
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy

    import spans
    import workloads

    load_start = os.getloadavg()[0]
    recorder = spans.Recorder()
    if trace:
        spans.install(recorder)
    ops = workloads.Ops(recorder)
    n_jobs = SMOKE_N_JOBS if smoke else N_JOBS
    workload = workloads.WORKLOADS[name](seed, n_jobs, recorder, ops, SRC, smoke)
    work_dir = os.path.join(WORK, "%s-%d" % (name, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)

    setup_walls = []
    traced_wall = 0.0
    rounds = 0
    try:
        # Set-up, several times over: what a user pays before the first
        # answer (corpus, store, index, daemon).  The last one is kept.
        for attempt in range(1 if smoke else SETUPS):
            if attempt:
                workload.teardown()
                shutil.rmtree(work_dir)
            start = time.perf_counter()
            os.makedirs(work_dir)
            workload.setup(work_dir)
            setup_walls.append(time.perf_counter() - start)

        def one_round(bucket: str) -> float:
            ops.bucket = bucket
            ops.round += 1
            recorder.enabled = bucket == "traced"
            start = time.perf_counter()
            failed_before = ops.failed
            try:
                workload.round()
            except Exception as exc:  # keep measuring; Ops.timed counted its own
                if ops.failed == failed_before:
                    ops.fail("round raised outside an operation: %r" % (exc,))
            finally:
                recorder.enabled = False
            return time.perf_counter() - start

        one_round("warmup")  # first repeat of everything: discarded
        measured_start = time.perf_counter()
        while time.perf_counter() - measured_start < seconds:
            # The traced run alternates traced and plain rounds, so tracing
            # overhead is the ratio of the two within one process.
            if trace and rounds % 2 == 0:
                traced_wall += one_round("traced")
            else:
                one_round("plain")
            rounds += 1
        ops.bucket = "checks"
        workload.final_checks()
        rss_mb = workload.peak_rss_mb()
        disk = workload.disk_bytes_per_job()
        if trace:
            ops.bucket = "plain"
            workload.probes()
    finally:
        workload.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)

    env = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg()[0],
        "corpus_sha256": workload.corpus_sha256, "seed": seed, "n_jobs": n_jobs,
        "rounds": rounds, "setups": len(setup_walls),
    }
    if trace:
        metrics = layer_metrics(workload, ops, recorder, traced_wall, (rounds + 1) // 2)
        trace_path = os.path.join(WORK, "trace-%s.json" % name)
        recorder.write(trace_path, dict(env, workload=name))
    else:
        metrics = dict(workload.headlines())
        metrics["setup_s"] = statistics.median(setup_walls)
        metrics["peak_rss_mb"] = rss_mb
        metrics["disk_bytes_per_job"] = disk
    return {"workload": name, "metrics": metrics, "attempted": ops.attempted,
            "failed": ops.failed, "errors": ops.errors, "env": env,
            "samples": {op_class: len(samples)
                        for op_class, samples in ops.samples["plain"].items()}}


def layer_metrics(workload, ops, recorder, traced_wall: float, traced_rounds: int) -> dict:
    """Per-layer metrics of the traced run (every name, zero where the
    workload does not touch the layer)."""
    import spans
    import workloads

    metrics = {}
    self_s = recorder.self_seconds()
    calls = recorder.calls()
    total = sum(self_s.values())
    for layer in spans.LAYERS:
        metrics[layer + ".busy_frac"] = self_s.get(layer, 0.0) / total if total else 0.0
        metrics[layer + ".calls_per_round"] = calls.get(layer, 0) / float(max(traced_rounds, 1))
    for cls in workloads.WORKLOADS.values():
        for op_class in cls.classes:
            metrics["op.%s.%s.p50_ms" % (cls.name, op_class)] = (
                ops.p50_ms(op_class) if cls is type(workload) else 0.0)
    for counter in COUNTERS:
        metrics[counter] = float(workload.counters.get(counter, 0.0))
    # Operations recorded on the main thread / wall of the traced rounds: the
    # part of the measured time the harness can attribute to a layer.
    metrics["trace.coverage_frac"] = (recorder.root_seconds("MainThread") / traced_wall
                                      if traced_wall else 0.0)
    # Same operation classes, traced rounds against plain rounds.
    traced_cost = plain_cost = 0.0
    for op_class, samples in ops.samples["traced"].items():
        plain = ops.of(op_class)
        if samples and plain:
            traced_cost += statistics.median(samples) * len(samples)
            plain_cost += statistics.median(plain) * len(samples)
    metrics["trace.overhead_frac"] = traced_cost / plain_cost - 1.0 if plain_cost else 0.0
    return metrics


#: Counts and ratios the workloads collect at layer boundaries.
COUNTERS = (
    "engine.store.bytes_per_job",
    "engine.indexes.bytes_per_job",
    "engine.codecs.dictionary_bytes",
    "engine.pipeline.resume_chunks_folded",
    "engine.pipeline.rescanned_consumers",
    "engine.planner.path.index-probe",
    "engine.planner.path.index-count",
    "engine.planner.path.index-topk",
    "engine.planner.path.index-skip",
    "engine.planner.path.zone-scan",
    "engine.planner.path.scan",
    "engine.planner.chunks_touched_frac.lookup",
    "engine.planner.chunks_touched_frac.range_agg",
    "engine.planner.rows_scanned_per_row_returned.lookup",
    "engine.planner.rows_scanned_per_row_returned.range_agg",
    "service.cache_hit_ratio",
    "service.cache_invalidations",
    "service.scans_started",
    "service.scans_resumed",
    "service.index_probes",
    "service.full_scans",
    "service.open.offered_rps",
    "service.open.achieved_rps",
    "service.open.late_p50_ms",
    "service.open.late_p99_ms",
    "service.open.p95_ms",
    "service.open.p99_ms",
)


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def units_of(spec) -> dict:
    return {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}


def contract_line(result: dict, spec: dict) -> str:
    units = units_of(spec)
    metrics = {name: {"value": value, "unit": units.get(name, "")}
               for name, value in result["metrics"].items()}
    correct = (result["failed"] == 0
               and all(math.isfinite(value) for value in result["metrics"].values()))
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_result(result: dict, spec: dict) -> None:
    units = units_of(spec)
    gated = {entry["name"] for entry in spec["end_to_end"]}
    env = result["env"]
    print("== %s  seed=%d  n_jobs=%d  rounds=%d  (python %s, numpy %s, nproc %s, commit %s, "
          "load %.2f -> %.2f)" % (result["workload"], env["seed"], env["n_jobs"], env["rounds"],
                                  env["python"], env["numpy"], env["nproc"], env["commit"],
                                  env["loadavg_start"], env["loadavg_end"]))
    print("   corpus sha256 %s" % env["corpus_sha256"])
    for name, value in result["metrics"].items():
        if value or name in gated:
            print("   %-58s %14.4f %s" % (name, value, units.get(name, "")))
    print("   operations attempted %d, failed %d; samples %s"
          % (result["attempted"], result["failed"],
             " ".join("%s=%d" % item for item in sorted(result["samples"].items()))))
    for error in result["errors"]:
        print("   FAILED: %s" % error.strip().replace("\n", "\n      "))


# ---------------------------------------------------------------------------
# Many workloads / many runs, each in a fresh subprocess
# ---------------------------------------------------------------------------
def child(workload: str, seed: int, seconds, trace: int, smoke: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("%s exited with code %d" % (" ".join(command), done.returncode))
    lines = done.stdout.strip().splitlines()
    return {"text": "\n".join(lines[:-1]), "result": json.loads(lines[-1])}


def run_all(args) -> int:
    failed = 0
    for workload in WORKLOAD_NAMES:
        for trace in ((0, 1) if args.trace else (0,)):
            outcome = child(workload, args.seed, args.seconds, trace, args.smoke)
            print(outcome["text"])
            failed += outcome["result"]["failed"] or not outcome["result"]["correct"]
    return 1 if failed else 0


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def agree(args) -> int:
    """Two sets of runs of this tree, each run with another seed.  A metric
    disagrees when its two medians differ by more than **half** its bound, or
    when either set's spread exceeds the bound (setup_s: medians only)."""
    spec = load_spec()
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    workload_names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    disagreements = 0
    print("%-12s %-20s %12s %12s %8s %8s %8s %6s" % (
        "workload", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound"))
    for workload in workload_names:
        sets = []
        for set_index in range(2):
            runs = []
            for run_index in range(args.runs):
                seed = args.seed + set_index * args.runs + run_index
                runs.append(child(workload, seed, args.seconds, 0, args.smoke)["result"])
            sets.append(runs)
        for name, entry in bounds.items():
            a = [run["metrics"][name]["value"] for run in sets[0]]
            b = [run["metrics"][name]["value"] for run in sets[1]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            difference = abs(median_b - median_a) / median_a
            spread_a, spread_b = spread(a), spread(b)
            bad = difference > entry["bound"] / 2.0 or (
                name != "setup_s" and max(spread_a, spread_b) > entry["bound"])
            disagreements += bad
            print("%-12s %-20s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%% %s" % (
                workload, name, median_a, median_b, 100 * difference, 100 * spread_a,
                100 * spread_b, 100 * entry["bound"], "DISAGREE" if bad else ""))
        if any(run["failed"] for runs in sets for run in runs):
            disagreements += 1
            print("%-12s operations failed" % workload)
    print("%d disagreement(s)" % disagreements)
    return 1 if disagreements else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all four, "
                             "each in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the corpus and every operation schedule")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of "
                             "BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans, print the per-layer metrics, write "
                             ".work/trace-<workload>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="%d jobs, one set-up, 1 s: checks the plumbing, not speed"
                             % SMOKE_N_JOBS)
    parser.add_argument("--agree", action="store_true",
                        help="run two sets of --runs runs and compare their medians")
    parser.add_argument("--runs", type=int, default=5, help="runs per set for --agree")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("run.py: no product to measure: %s is missing\n"
                         % os.path.join(SRC, "repro"))
        return 2
    if args.agree:
        return agree(args)
    if args.workload is None:
        return run_all(args)
    spec = load_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    print_result(result, spec)
    print(contract_line(result, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
