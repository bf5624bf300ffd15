"""Out-of-core characterization benchmark: shared scan vs. per-analysis vs. materialized.

Run directly (not collected by pytest — the workload is deliberately large)::

    PYTHONPATH=src python benchmarks/bench_characterize.py --jobs 1000000

The benchmark writes a synthetic FB-2010-shaped trace of ``--jobs`` jobs
(with hashed file paths and framework-style job names, so every figure
pipeline has data) to a chunked columnar store, then reproduces **Table 1,
Figures 1-10 and Table 2** in fresh subprocesses (for clean peak-RSS
numbers) along four paths:

1. **per-analysis**  — every experiment issues its own streaming scans over
   the store (the pre-shared-scan behaviour: the store is re-opened and
   re-decompressed once per analysis);
2. **shared**        — one :class:`ScanPipeline` decodes the store exactly
   once for the whole suite;
3. **shared-pN**     — the same shared scan fanned over ``--processes N``
   worker processes (skipped unless ``--processes`` is given);
4. **materialized**  — the store is fully converted to an in-memory job-list
   :class:`Trace` first (the historical analysis path).

The parent process then checks the acceptance contract of the shared-scan
pipeline:

* **every** experiment's table rows are identical between the shared scan
  (serial and parallel) and the per-analysis streaming path;
* against the materialized path the rows are identical except Figure 1,
  whose store-side medians are sketch-backed (agree within histogram-bin
  resolution, ≤ 15% relative; below-1GB fractions within 2 points; the
  map-only fraction exact);
* the shared scan's peak RSS is at most **one third** of the materialized
  peak RSS, and its wall clock at least ``--min-speedup`` (default 2.5×)
  faster than the per-analysis path (both bars skipped with ``--smoke``,
  where interpreter baseline and fixed costs dominate).

A calibration note on the speedup bar: the per-analysis baseline here is
**this repo's current code** with scan sharing disabled — it already uses the
vectorized consumer folds, so it is a far stronger baseline than the
pre-pipeline (PR 3) per-analysis path, which measured 13.8 s on this trace
and machine against ~3.5 s for the shared scan (≈4×).  The enforced bar is
set with headroom below the measured ~2.8–3× against the strong baseline
because both children share ~2 s of fixed non-scan cost (the Figure-7
utilization replay, Table-2 clustering, report rendering) that compresses
the ratio, and single-core container timings jitter by ±20%.

**Incremental lane** (the checkpointed-ingest contract): a second store is
seeded with the first 90% of the jobs and characterized once with
``checkpoint_to=`` (the "yesterday" run); the remaining 10% are then
*appended* via the store appender, and the suite is re-run twice in fresh
subprocesses — a **cold full rescan** and an **incremental resume** from the
checkpoint (both without the replay-simulated Figure-7 utilization column, so
the comparison measures the scan pipeline, not the simulator).  Enforced:
every experiment's rows **bit-identical** between the two (the consumers
restore exact states — sketch bins, path statistics, per-hour aggregates, the
Table-2 bottom-k sample), **every consumer resumed** (a non-empty
``rescanned`` report fails the lane: the appended 10% follows the base in
submit time, so nothing has a reason to rescan), and the incremental wall
clock below ``--max-incremental-ratio`` (default 0.35×) of the cold rescan.
``--incremental-only`` runs just this lane (the CI docs job uses it with
``--smoke``).

``--output`` (default: ``BENCH_characterize.json`` at the repo root, so the
perf trajectory is tracked across PRs) writes the measured numbers as JSON —
also uploaded as a CI artifact by the ``bench-characterize-smoke`` job.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import ChunkedTraceStore
from repro.traces import Job

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_characterize.json")


# ---------------------------------------------------------------------------
# Synthetic trace: FB-2010 shaped, with paths and names for the full suite
# ---------------------------------------------------------------------------
def synthetic_characterize_jobs(n_jobs: int, horizon_days: float = 30.0, seed: int = 2012):
    """Yield ``n_jobs`` jobs lazily, sorted by submission time.

    Small jobs dominate (§6.2), byte sizes are log-normal across many orders
    of magnitude (§4.1), input paths are drawn Zipf-ish from a bounded pool so
    the Figure 2-6 access analyses see realistic reuse, and names follow the
    framework vocabulary of §6.1.
    """
    rng = np.random.default_rng(seed)
    horizon_s = horizon_days * 86400.0
    submits = np.cumsum(rng.exponential(horizon_s / n_jobs, size=n_jobs))
    kind = rng.random(n_jobs)
    map_s = np.where(kind < 0.80, rng.uniform(5.0, 45.0, size=n_jobs),
                     np.where(kind < 0.99, rng.uniform(60.0, 600.0, size=n_jobs),
                              rng.uniform(600.0, 5000.0, size=n_jobs)))
    has_reduce = rng.random(n_jobs) < 0.4
    reduce_s = np.where(has_reduce, map_s * 0.3, 0.0)
    input_b = rng.lognormal(17.0, 3.0, size=n_jobs)
    shuffle_b = np.where(has_reduce, input_b * 0.3, 0.0)
    output_b = rng.lognormal(14.0, 3.0, size=n_jobs)
    # Zipf-ish path reuse over a pool that grows with the trace.
    n_paths = max(64, n_jobs // 20)
    path_ids = (np.minimum(rng.pareto(0.9, size=n_jobs) * 8.0, n_paths - 1)).astype(int)
    out_ids = rng.integers(0, n_paths, size=n_jobs)
    words = np.array(["insert", "select", "from", "piglatin", "oozie", "ad", "distcp"])
    word_ids = rng.choice(words.size, size=n_jobs,
                          p=[0.35, 0.2, 0.1, 0.15, 0.1, 0.07, 0.03])
    for index in range(n_jobs):
        yield Job(
            job_id="char_%07d" % index,
            submit_time_s=float(submits[index]),
            duration_s=float(map_s[index] + reduce_s[index]),
            input_bytes=float(input_b[index]),
            shuffle_bytes=float(shuffle_b[index]),
            output_bytes=float(output_b[index]),
            map_task_seconds=float(map_s[index]),
            reduce_task_seconds=float(reduce_s[index]),
            name="%s job %d" % (words[word_ids[index]], index % 97),
            input_path="/data/%05d" % path_ids[index],
            output_path="/out/%05d" % out_ids[index],
        )


# ---------------------------------------------------------------------------
# Suite children (fresh subprocesses for clean VmHWM peak-RSS numbers)
# ---------------------------------------------------------------------------
_CHILD_SNIPPET = """
import json, resource, sys, time

def peak_rss_mb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

from repro.engine import ChunkedTraceStore
from repro.bench.suite import CHARACTERIZATION_EXPERIMENT_IDS, run_suite
from repro.core.datasizes import analyze_data_sizes
from repro.core.sharedscan import run_characterization_scan

store_path, mode, processes = sys.argv[1], sys.argv[2], int(sys.argv[3])
checkpoint_path = sys.argv[4] if len(sys.argv) > 4 else ""
start = time.perf_counter()
store = ChunkedTraceStore(store_path)
if mode in ("checkpoint", "cold", "incremental"):
    # The incremental lane: one explicit shared scan (optionally resumed
    # from / saved to a checkpoint), its bundle handed to the suite.  No
    # simulated Figure-7 utilization, so the lane times the scan pipeline.
    bundle = run_characterization_scan(
        store, experiments=list(CHARACTERIZATION_EXPERIMENT_IDS), seed=0,
        resume_from=(checkpoint_path if mode == "incremental" else None),
        checkpoint_to=(checkpoint_path if mode == "checkpoint" else None))
    results = run_suite(traces={store.name: store},
                        experiments=list(CHARACTERIZATION_EXPERIMENT_IDS),
                        include_ablations=False, include_simulation=False,
                        analyses={store.name: bundle})
    payload = {
        "rows": {result.experiment_id: result.rows for result in results},
        "wall_s": time.perf_counter() - start,
        "resume": bundle.resume,
    }
else:
    source = store.to_trace() if mode == "materialized" else store
    results = run_suite(traces={store.name: source},
                        experiments=list(CHARACTERIZATION_EXPERIMENT_IDS),
                        include_ablations=False, include_simulation=True,
                        shared_scan=(mode != "per-analysis"),
                        processes=processes or None)
    payload = {
        "rows": {result.experiment_id: result.rows for result in results},
        "wall_s": time.perf_counter() - start,
    }
    if mode in ("per-analysis", "materialized"):
        sizes = analyze_data_sizes(source)
        payload["figure1_medians"] = sizes.medians
        payload["figure1_below_gb"] = sizes.fraction_below_gb
        payload["map_only_fraction"] = sizes.map_only_fraction
payload["rss_mb"] = peak_rss_mb()
print(json.dumps(payload))
"""


def _run_child(store_path: str, mode: str, processes: int = 0,
               checkpoint_path: str = "") -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run([sys.executable, "-c", _CHILD_SNIPPET, store_path, mode,
                             str(processes), checkpoint_path],
                            capture_output=True, text=True, env=env)
    if output.returncode != 0:
        raise RuntimeError("characterize child (%s) failed:\n%s" % (mode, output.stderr))
    return json.loads(output.stdout)


# ---------------------------------------------------------------------------
def _check_shared_equals_streamed(shared: dict, streamed: dict, label: str) -> list:
    """The shared scan must match the per-analysis streaming rows exactly."""
    failures = []
    for experiment_id, streamed_rows in streamed["rows"].items():
        shared_rows = shared["rows"].get(experiment_id)
        if shared_rows != streamed_rows:
            failures.append("%s rows mismatch on %r:\n  shared:       %r\n"
                            "  per-analysis: %r"
                            % (label, experiment_id, shared_rows, streamed_rows))
    return failures


def _check_equivalence(streamed: dict, full: dict) -> list:
    failures = []
    for experiment_id, full_rows in full["rows"].items():
        streamed_rows = streamed["rows"].get(experiment_id)
        if experiment_id == "figure1":
            continue  # sketch-backed medians checked numerically below
        if streamed_rows != full_rows:
            failures.append("rows mismatch on %r:\n  streamed:     %r\n"
                            "  materialized: %r" % (experiment_id, streamed_rows, full_rows))
    for dimension, exact in full["figure1_medians"].items():
        approx = streamed["figure1_medians"][dimension]
        if exact > 0 and abs(approx - exact) / exact > 0.15:
            failures.append("figure1 %s median drifts beyond bin resolution: "
                            "exact %.4g vs sketch %.4g" % (dimension, exact, approx))
    for dimension, exact in full["figure1_below_gb"].items():
        approx = streamed["figure1_below_gb"][dimension]
        if abs(approx - exact) > 0.02:
            failures.append("figure1 %s below-1GB fraction drifts: exact %.4f vs "
                            "sketch %.4f" % (dimension, exact, approx))
    if streamed["map_only_fraction"] != full["map_only_fraction"]:
        failures.append("map-only fraction not exact: %r vs %r"
                        % (streamed["map_only_fraction"], full["map_only_fraction"]))
    return failures


def _run_incremental_lane(n_jobs: int, chunk_rows: int, store_dir: str,
                          check_ratio: bool, max_ratio: float,
                          append_fraction: float = 0.1):
    """The checkpointed-ingest lane: seed 90%, checkpoint, append 10%, resume.

    Returns ``(failures, payload)``.  Every experiment's rows must be
    bit-identical between the cold full rescan and the incremental resume of
    the grown store; the resume must finish in under ``max_ratio`` of the
    cold wall clock (when ``check_ratio``).
    """
    inc_path = os.path.join(store_dir, "store-incremental")
    checkpoint_path = os.path.join(store_dir, "incremental.ck.json")
    base_jobs = int(n_jobs * (1.0 - append_fraction))
    print("\n== incremental lane: append %d%% of chunks, resume from checkpoint =="
          % round(append_fraction * 100))

    start = time.perf_counter()
    # One deterministic generator sliced twice: the seeded prefix and the
    # appended tail are exactly the full trace's jobs.
    base_store = ChunkedTraceStore.write(
        inc_path, itertools.islice(synthetic_characterize_jobs(n_jobs), base_jobs),
        chunk_rows=chunk_rows, name="FB-2010")
    print("wrote incremental base  (%d chunks, %d jobs) in %.1f s"
          % (base_store.n_chunks, base_store.n_jobs, time.perf_counter() - start))

    print("characterizing base store + saving checkpoint...")
    baseline = _run_child(inc_path, "checkpoint", checkpoint_path=checkpoint_path)

    start = time.perf_counter()
    grown = ChunkedTraceStore.open_append(inc_path).append(
        itertools.islice(synthetic_characterize_jobs(n_jobs), base_jobs, None))
    append_s = time.perf_counter() - start
    print("appended %d jobs in %d chunks in %.1f s (sorted=%s)"
          % (grown.n_jobs - base_jobs, grown.n_chunks - base_store.n_chunks,
             append_s, grown.sorted_by_submit_time))

    print("characterizing grown store cold (full rescan)...")
    cold = _run_child(inc_path, "cold")
    print("characterizing grown store incrementally (resume from checkpoint)...")
    incremental = _run_child(inc_path, "incremental", checkpoint_path=checkpoint_path)

    failures = []
    for experiment_id, cold_rows in cold["rows"].items():
        resumed_rows = incremental["rows"].get(experiment_id)
        if resumed_rows != cold_rows:
            failures.append("incremental rows mismatch on %r:\n  cold:        %r\n"
                            "  incremental: %r"
                            % (experiment_id, cold_rows, resumed_rows))
    resume = incremental.get("resume") or {}
    if not resume.get("resumed"):
        failures.append("incremental child resumed no consumers: %r" % (resume,))
    if resume.get("rescanned"):
        failures.append("incremental child rescanned consumers instead of "
                        "resuming them: %r" % (resume["rescanned"],))

    ratio = (incremental["wall_s"] / cold["wall_s"]
             if cold["wall_s"] else float("inf"))
    header = "%-14s %12s %12s" % ("lane", "wall s", "peak RSS MB")
    print("\n" + header)
    print("-" * len(header))
    for name, result in (("checkpoint", baseline), ("cold-rescan", cold),
                         ("incremental", incremental)):
        print("%-14s %12.1f %12.1f" % (name, result["wall_s"], result["rss_mb"]))
    print("\nincremental/cold wall ratio after appending %d%% of chunks: "
          "%.3f (target < %.2f)" % (round(append_fraction * 100), ratio, max_ratio))
    print("resumed: %s" % ", ".join(resume.get("resumed", [])))
    print("full rescan: %s" % ", ".join(sorted(resume.get("rescanned", {}))))
    if check_ratio and ratio >= max_ratio:
        failures.append("incremental/cold wall ratio %.3f not below %.2f"
                        % (ratio, max_ratio))

    payload = {
        "append_fraction": append_fraction,
        "base_jobs": base_jobs,
        "appended_jobs": n_jobs - base_jobs,
        "append_wall_s": append_s,
        "lanes": {
            "checkpoint": {"wall_s": baseline["wall_s"], "rss_mb": baseline["rss_mb"]},
            "cold_rescan": {"wall_s": cold["wall_s"], "rss_mb": cold["rss_mb"]},
            "incremental": {"wall_s": incremental["wall_s"],
                            "rss_mb": incremental["rss_mb"]},
        },
        "ratio_incremental_vs_cold": ratio,
        "resumed": resume.get("resumed", []),
        "rescanned": resume.get("rescanned", {}),
    }
    return failures, payload


def run_benchmark(n_jobs: int, chunk_rows: int, keep_store: str = "",
                  check_rss: bool = True, check_speedup: bool = True,
                  min_speedup: float = 2.5, processes: int = 0,
                  output: str = DEFAULT_OUTPUT,
                  check_incremental: bool = True,
                  max_incremental_ratio: float = 0.35,
                  incremental_only: bool = False) -> int:
    print("== out-of-core characterization benchmark: %d jobs ==" % n_jobs)
    store_dir = keep_store or tempfile.mkdtemp(prefix="bench_characterize_")
    failures = []
    payload = {
        "benchmark": "characterize",
        "n_jobs": n_jobs,
        "chunk_rows": chunk_rows,
    }

    if not incremental_only:
        store_path = os.path.join(store_dir, "store")

        start = time.perf_counter()
        store = ChunkedTraceStore.write(store_path, synthetic_characterize_jobs(n_jobs),
                                        chunk_rows=chunk_rows, name="FB-2010")
        disk_mb = store.info()["on_disk_bytes"] / 1e6
        print("wrote store  (%d chunks, %7.1f MB) in %.1f s\n"
              % (store.n_chunks, disk_mb, time.perf_counter() - start))

        print("characterizing per-analysis (one scan per experiment)...")
        streamed = _run_child(store_path, "per-analysis")
        print("characterizing shared scan (one decoded pass)...")
        shared = _run_child(store_path, "shared")
        shared_parallel = None
        if processes:
            print("characterizing shared scan with %d worker processes..." % processes)
            shared_parallel = _run_child(store_path, "shared", processes=processes)
        print("characterizing materialized (store -> Trace -> suite)...")
        full = _run_child(store_path, "materialized")

        named = [("per-analysis", streamed), ("shared", shared)]
        if shared_parallel is not None:
            named.append(("shared-p%d" % processes, shared_parallel))
        named.append(("materialized", full))
        header = "%-14s %12s %12s" % ("path", "wall s", "peak RSS MB")
        print("\n" + header)
        print("-" * len(header))
        for name, result in named:
            print("%-14s %12.1f %12.1f" % (name, result["wall_s"], result["rss_mb"]))

        failures += _check_shared_equals_streamed(shared, streamed, "shared")
        if shared_parallel is not None:
            failures += _check_shared_equals_streamed(shared_parallel, shared,
                                                      "shared-p%d" % processes)
        failures += _check_equivalence(streamed, full)

        ratio = shared["rss_mb"] / full["rss_mb"] if full["rss_mb"] else float("inf")
        speedup = streamed["wall_s"] / shared["wall_s"] if shared["wall_s"] else float("inf")
        print("\nshared/materialized peak-RSS ratio:  %.3f (target <= 1/3)" % ratio)
        print("shared-scan speedup vs per-analysis: %.2fx (target >= %.1fx)"
              % (speedup, min_speedup))
        if check_rss and ratio > 1.0 / 3.0:
            failures.append("peak RSS ratio %.3f exceeds 1/3" % ratio)
        if check_speedup and speedup < min_speedup:
            failures.append("shared-scan speedup %.2fx below %.1fx" % (speedup, min_speedup))

        payload["store_disk_mb"] = disk_mb
        payload["paths"] = {
            name.replace("-", "_"): {"wall_s": result["wall_s"],
                                     "rss_mb": result["rss_mb"]}
            for name, result in named
        }
        payload["speedup_shared_vs_per_analysis"] = speedup
        payload["rss_ratio_shared_vs_materialized"] = ratio

    incremental_failures, incremental_payload = _run_incremental_lane(
        n_jobs, chunk_rows, store_dir,
        check_ratio=check_incremental, max_ratio=max_incremental_ratio)
    failures += incremental_failures
    payload["incremental"] = incremental_payload
    payload["failures"] = failures

    if output:
        if incremental_only and os.path.isfile(output):
            # Merge into an existing full-benchmark JSON instead of dropping
            # its speedup/RSS history.
            try:
                with open(output, "r", encoding="utf-8") as handle:
                    previous = json.load(handle)
                previous["incremental"] = incremental_payload
                previous["failures"] = failures
                payload = previous
            except (IOError, ValueError):
                pass
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print("wrote results JSON to %s" % output)

    if not keep_store:
        shutil.rmtree(store_dir, ignore_errors=True)

    if failures:
        print("\nFAIL:\n" + "\n".join(failures))
        return 1
    print("OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1_000_000,
                        help="synthetic trace size (default 1M)")
    parser.add_argument("--chunk-rows", type=int, default=65536,
                        help="rows per on-disk chunk")
    parser.add_argument("--keep-store", default="",
                        help="write the stores here and keep them")
    parser.add_argument("--processes", type=int, default=0, metavar="N",
                        help="also time the shared scan over N worker processes")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="write the measured numbers as JSON here "
                             "(default: BENCH_characterize.json at the repo root)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke: 50k jobs, small chunks, no RSS/speed bars "
                             "(row-equality checks still enforced)")
    parser.add_argument("--skip-rss-check", action="store_true",
                        help="report but do not enforce the 1/3 peak-RSS bar")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="required shared-scan speedup vs the (already "
                             "consumer-optimized) per-analysis path")
    parser.add_argument("--skip-speed-check", action="store_true",
                        help="report but do not enforce the speedup bar")
    parser.add_argument("--incremental-only", action="store_true",
                        help="run only the append-10%%-and-resume lane (row "
                             "equality always enforced; used by the CI docs job)")
    parser.add_argument("--max-incremental-ratio", type=float, default=0.35,
                        help="required incremental/cold wall-clock ratio bound")
    parser.add_argument("--skip-incremental-check", action="store_true",
                        help="report but do not enforce the incremental ratio bar")
    args = parser.parse_args(argv)
    n_jobs = 50_000 if args.smoke else args.jobs
    chunk_rows = min(args.chunk_rows, 8192) if args.smoke else args.chunk_rows
    check_rss = not (args.smoke or args.skip_rss_check)
    check_speedup = not (args.smoke or args.skip_speed_check)
    check_incremental = not (args.smoke or args.skip_incremental_check)
    return run_benchmark(n_jobs, chunk_rows, keep_store=args.keep_store,
                         check_rss=check_rss, check_speedup=check_speedup,
                         min_speedup=args.min_speedup, processes=args.processes,
                         output=args.output,
                         check_incremental=check_incremental,
                         max_incremental_ratio=args.max_incremental_ratio,
                         incremental_only=args.incremental_only)


if __name__ == "__main__":
    sys.exit(main())
