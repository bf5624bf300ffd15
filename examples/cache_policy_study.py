"""Storage cache policy study (the paper's §4.2-4.3 design argument).

The paper observes that MapReduce file accesses are heavily skewed (Zipf-like,
Figure 2), that 90% of jobs read files of at most a few GB holding a small
fraction of stored bytes (Figures 3-4), and that 75% of re-accesses happen
within about six hours (Figure 5).  From this it argues for caching small,
recently used files.

This example replays a Cloudera customer workload on the cluster simulator
under five cache policies and prints the hit-rate comparison, showing that a
size-threshold admission policy with LRU eviction captures most of the
achievable hit rate at a small fraction of the capacity an unlimited cache
would need.

Run with::

    python examples/cache_policy_study.py [workload] [capacity_gb]
"""

from __future__ import annotations

import sys

import repro
from repro.simulator import (
    ClusterConfig,
    LfuCache,
    LruCache,
    NoCache,
    SizeThresholdCache,
    UnlimitedCache,
    WorkloadReplayer,
)
from repro.units import GB, format_bytes


def main() -> int:
    workload = sys.argv[1] if len(sys.argv) > 1 else "CC-d"
    capacity_gb = float(sys.argv[2]) if len(sys.argv) > 2 else 512.0
    capacity = capacity_gb * GB

    print("Generating workload %s ..." % workload)
    trace = repro.load_workload(workload, seed=7)
    print("  %d jobs, %s moved" % (len(trace), format_bytes(trace.bytes_moved())))

    policies = {
        "no cache": NoCache(),
        "LRU (%.0f GB)" % capacity_gb: LruCache(capacity),
        "LFU (%.0f GB)" % capacity_gb: LfuCache(capacity),
        "size-threshold 4 GB + LRU (%.0f GB)" % capacity_gb: SizeThresholdCache(capacity, 4 * GB),
        "unlimited": UnlimitedCache(),
    }

    print("\nReplaying %s under each cache policy (first 5000 jobs) ...\n" % workload)
    print("%-40s %10s %14s %14s" % ("policy", "hit rate", "byte hit rate", "cache used"))
    results = {}
    for name, cache in policies.items():
        replayer = WorkloadReplayer(
            cluster_config=ClusterConfig(n_nodes=trace.machines or 100),
            cache=cache,
            max_simulated_jobs=5000,
        )
        metrics = replayer.replay(trace)
        stats = metrics.cache_stats
        results[name] = stats
        used_bytes = replayer.cache.used_bytes
        used = format_bytes(used_bytes) if used_bytes != float("inf") else "unbounded"
        print("%-40s %9.1f%% %13.1f%% %14s"
              % (name, 100 * stats.hit_rate, 100 * stats.byte_hit_rate, used))

    threshold_name = "size-threshold 4 GB + LRU (%.0f GB)" % capacity_gb
    achievable = results["unlimited"].hit_rate or 1.0
    print("\nThe size-threshold policy reaches %.0f%% of the unlimited cache's hit rate "
          "while storing only small files (paper §4.2: cache capacity growth can be "
          "decoupled from data growth)." % (100 * results[threshold_name].hit_rate / achievable))
    return 0


if __name__ == "__main__":
    sys.exit(main())
