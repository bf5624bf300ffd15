"""Interactive-query benchmark: secondary indexes vs. the scan path.

Run directly (not collected by pytest — the full workload is deliberately
large)::

    PYTHONPATH=src python benchmarks/bench_query.py            # 1M jobs
    PYTHONPATH=src python benchmarks/bench_query.py --smoke    # CI: tiny, equality only

Measures the interactive query classes the planner exists for, on a v3 store
of ``--jobs`` synthetic jobs (long-tailed sizes, a ~2000-name dictionary
column, submit-time-clustered phase labels):

1. **point_numeric**  — exact-value lookup on ``input_bytes`` (index-probe);
2. **point_string**   — exact count of one dict-encoded ``name`` value,
   answered from the inverted index's postings alone (index-count);
3. **top_k**          — 100 largest ``submit_time_s`` rows (index-topk);
4. **limit_clustered**— LIMIT 100 on a clustered phase label: early
   termination must touch < 10% of the chunks;
5. **range_agg**      — a wide-range sum, honest about the planner *keeping*
   the scan when the index proves nearly every chunk matches.

Every lane runs twice — through the planner and with the planner disabled
(the zone-map scan path) — and the results must be **bit-identical**.  The
full-size acceptance bars: point lookup and top-k >= 20x faster via the
index, the LIMIT lane touching < 10% of chunks.  ``--output`` (default
``BENCH_query.json`` at the repo root) records everything; ``--smoke`` runs
a small store and enforces only result equality.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import (ChunkedTraceStore, Query, build_indexes,
                          clear_block_cache, execute)
from repro.traces import Job, Trace

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_query.json")

POINT_SPEEDUP_TARGET = 20.0
TOPK_SPEEDUP_TARGET = 20.0
LIMIT_CHUNK_FRACTION_TARGET = 0.10


def synthetic_jobs(n_jobs: int, seed: int = 2012):
    """Paper-like long-tailed jobs with indexable string structure."""
    rng = np.random.default_rng(seed)
    submit = np.sort(rng.uniform(0, 30 * 86400, size=n_jobs))
    duration = rng.lognormal(4.0, 1.8, size=n_jobs)
    input_b = rng.lognormal(17.0, 4.0, size=n_jobs)
    map_only = rng.random(n_jobs) < 0.35
    shuffle_b = np.where(map_only, 0.0, rng.lognormal(15.0, 4.0, size=n_jobs))
    output_b = rng.lognormal(14.0, 4.0, size=n_jobs)
    map_s = rng.lognormal(5.0, 1.5, size=n_jobs)
    reduce_s = np.where(map_only, 0.0, rng.lognormal(4.0, 1.5, size=n_jobs))
    frameworks = np.array(["hive", "pig", "oozie", "native"])[
        rng.integers(0, 4, size=n_jobs)]
    # recurring job names (~2000 distinct at 1M jobs, scaled down with the
    # trace so the first chunk stays under the v3 dictionary threshold and
    # the column is dict-encoded — hence inverted-indexable — at every size)
    n_names = max(16, min(2000, n_jobs // 50))
    names = rng.integers(0, n_names, size=n_jobs)
    # phase labels clustered in submit-time order: runs of ~20k consecutive
    # rows share one label, so each phase lives in a handful of chunks
    phase_rows = max(1, n_jobs // 50)
    jobs = []
    append = jobs.append
    for i in range(n_jobs):
        append(Job(
            job_id="bench_%07d" % i,
            submit_time_s=float(submit[i]),
            duration_s=float(duration[i]),
            input_bytes=float(input_b[i]),
            shuffle_bytes=float(shuffle_b[i]),
            output_bytes=float(output_b[i]),
            map_task_seconds=float(map_s[i]),
            reduce_task_seconds=float(reduce_s[i]),
            framework=str(frameworks[i]),
            name="q%04d" % names[i],
            workload="phase%04d" % (i // phase_rows),
        ))
    return jobs


def timed(fn, repeat=3):
    """Best wall of ``repeat`` runs, each from an empty decoded-block cache:
    the index-vs-scan ratios compare a cold decode on both sides."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        clear_block_cache()
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def results_identical(left, right):
    """Bit-identical comparison across access paths (no tolerance)."""
    if left.aggregates is not None or right.aggregates is not None:
        return left.aggregates == right.aggregates
    if left.groups is not None or right.groups is not None:
        return left.groups == right.groups
    return left.row_dicts() == right.row_dicts()


def run_benchmark(n_jobs: int, chunk_rows: int, output: str, smoke: bool,
                  keep_store: str = "") -> int:
    mode = "smoke" if smoke else "full"
    print("== query benchmark (%s): %d jobs, chunk_rows=%d ==" % (
        mode, n_jobs, chunk_rows))
    start = time.perf_counter()
    trace = Trace(synthetic_jobs(n_jobs), name="bench-query")
    print("generated job list in %.1f s" % (time.perf_counter() - start))

    store_dir = keep_store or tempfile.mkdtemp(prefix="bench_query_")
    write_s, store = timed(lambda: ChunkedTraceStore.write(
        os.path.join(store_dir, "store"), trace, chunk_rows=chunk_rows,
        format_version=3), repeat=1)
    print("wrote v3 store (%d chunks) in %.2f s" % (store.n_chunks, write_s))

    build_s, indexes = timed(lambda: build_indexes(store), repeat=1)
    indexes.save()
    index_bytes = int(sum(indexes.sizes().values()))
    store = ChunkedTraceStore(store.directory)
    print("built index sidecar (%.1f MB) in %.2f s\n"
          % (index_bytes / 1e6, build_s))

    point_value = trace.jobs[n_jobs // 3].input_bytes
    point_name = trace.jobs[n_jobs // 2].name
    limit_phase = trace.jobs[(n_jobs * 2) // 5].workload
    range_cut = trace.jobs[n_jobs // 10].submit_time_s

    lanes_spec = [
        ("point_numeric",
         Query().filter("input_bytes", "==", point_value)
                .project(["job_id", "input_bytes"])),
        ("point_string",
         Query().filter("name", "==", point_name).count()),
        ("top_k",
         Query().top("submit_time_s", 100)
                .project(["job_id", "submit_time_s"])),
        ("limit_clustered",
         Query().filter("workload", "==", limit_phase).limit(100)
                .project(["job_id", "workload"])),
        ("range_agg",
         Query().filter("submit_time_s", ">", range_cut)
                .aggregate(n=("count", "input_bytes"),
                           total=("sum", "input_bytes"))),
    ]

    failures = []
    lanes = {}
    repeat = 1 if smoke else 3
    for name, query in lanes_spec:
        index_s, via_index = timed(lambda q=query: execute(store, q),
                                   repeat=repeat)
        scan_s, via_scan = timed(
            lambda q=query: execute(store, q, use_planner=False),
            repeat=repeat)
        identical = results_identical(via_index, via_scan)
        if not identical:
            failures.append("%s: planner result differs from scan" % name)
        plan = via_index.plan
        lanes[name] = {
            "index_s": index_s,
            "scan_s": scan_s,
            "speedup": scan_s / index_s if index_s else float("inf"),
            "access_path": plan.access_path,
            "used_index": plan.used_index,
            "chunks_touched": via_index.chunks_scanned,
            "chunks_total": store.n_chunks,
            "rows_scanned": via_index.rows_scanned,
            "bit_identical": identical,
        }
        print("%-16s %-12s %9.4fs vs %9.4fs scan  (%6.1fx, %d/%d chunks, %s)"
              % (name, plan.access_path, index_s, scan_s,
                 lanes[name]["speedup"], via_index.chunks_scanned,
                 store.n_chunks,
                 "identical" if identical else "MISMATCH"))

    limit_fraction = (lanes["limit_clustered"]["chunks_touched"]
                      / float(store.n_chunks))
    bars = {
        "point_speedup": lanes["point_numeric"]["speedup"],
        "point_speedup_target": POINT_SPEEDUP_TARGET,
        "topk_speedup": lanes["top_k"]["speedup"],
        "topk_speedup_target": TOPK_SPEEDUP_TARGET,
        "limit_chunk_fraction": limit_fraction,
        "limit_chunk_fraction_target": LIMIT_CHUNK_FRACTION_TARGET,
    }
    if not smoke:
        if bars["point_speedup"] < POINT_SPEEDUP_TARGET:
            failures.append("point lookup speedup %.1fx < %.0fx target"
                            % (bars["point_speedup"], POINT_SPEEDUP_TARGET))
        if bars["topk_speedup"] < TOPK_SPEEDUP_TARGET:
            failures.append("top-k speedup %.1fx < %.0fx target"
                            % (bars["topk_speedup"], TOPK_SPEEDUP_TARGET))
        if limit_fraction >= LIMIT_CHUNK_FRACTION_TARGET:
            failures.append("LIMIT lane touched %.0f%% of chunks (target < %.0f%%)"
                            % (100 * limit_fraction,
                               100 * LIMIT_CHUNK_FRACTION_TARGET))

    payload = {
        "benchmark": "query",
        "mode": mode,
        "n_jobs": n_jobs,
        "chunk_rows": chunk_rows,
        "n_chunks": store.n_chunks,
        "index_build_s": build_s,
        "index_bytes": index_bytes,
        "lanes": lanes,
        "bars": bars,
        "all_lanes_bit_identical": all(l["bit_identical"]
                                       for l in lanes.values()),
        "failures": failures,
    }
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print("\nwrote %s" % output)

    if not keep_store:
        shutil.rmtree(store_dir, ignore_errors=True)
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print("OK: all lanes bit-identical%s"
          % ("" if smoke else "; speedup and chunk-fraction bars met"))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1_000_000,
                        help="synthetic trace size (default 1M)")
    parser.add_argument("--chunk-rows", type=int, default=8192,
                        help="rows per chunk (default 8192: ~123 chunks at 1M)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="write the JSON report here "
                             "(default: BENCH_query.json at the repo root)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke: 20k jobs, 1k-row chunks, result "
                             "equality only (no speedup bars)")
    parser.add_argument("--keep-store", default="",
                        help="write the store under this directory and keep it")
    args = parser.parse_args(argv)
    n_jobs = 20_000 if args.smoke else args.jobs
    chunk_rows = 1024 if args.smoke else args.chunk_rows
    return run_benchmark(n_jobs, chunk_rows, args.output, args.smoke,
                         keep_store=args.keep_store)


if __name__ == "__main__":
    sys.exit(main())
