"""Characterize your own Hadoop cluster's history logs.

The paper closes by inviting cluster operators to analyze their own workloads
with the released tools.  This example shows that path end to end on synthetic
input: it writes a small Hadoop-history-style log, parses it with the library's
log reader, runs the characterization, registers the workload's statistical
description as a custom spec, and synthesizes a scaled copy — the workflow an
operator would follow to compare their cluster against the paper's workloads.

Run with::

    python examples/custom_trace_analysis.py [history_log_path]

If a path is given it must contain Hadoop-style ``Job JOBID="..." ...`` summary
lines (see ``repro.traces.hadoop_log``); otherwise a demo log is generated.
"""

from __future__ import annotations

import sys
import tempfile

from repro.core import characterize
from repro.synth import SwimSynthesizer
from repro.traces import format_job_line, load_workload, read_history_log
from repro.units import HOUR


def write_demo_log(path: str) -> None:
    """Write a demo history log derived from a scaled CC-b workload."""
    trace = load_workload("CC-b", seed=13, scale=0.05)
    with open(path, "w", encoding="utf-8") as handle:
        for job in trace:
            handle.write(format_job_line(job) + "\n")


def main() -> int:
    if len(sys.argv) > 1:
        log_path = sys.argv[1]
    else:
        log_path = tempfile.mktemp(suffix=".log", prefix="repro-demo-history-")
        print("No log supplied; writing a demo history log to %s" % log_path)
        write_demo_log(log_path)

    print("Parsing Hadoop history log %s ..." % log_path)
    trace = read_history_log(log_path, name="my-cluster", machines=50)
    print("  parsed %d jobs spanning %.1f hours"
          % (len(trace), trace.duration_s() / 3600.0))

    print("\nCharacterizing ...\n")
    report = characterize(trace, max_k=6)
    print(report.render())

    print("\nSynthesizing a 1-hour, 500-job replayable workload from the log ...")
    plan = SwimSynthesizer(trace, source_machines=50, seed=0).synthesize(
        n_jobs=500, horizon_s=1 * HOUR, target_machines=10)
    print(plan.describe())
    print("\nThe synthetic trace can now be replayed with repro.simulator.replay() "
          "or exported with repro.traces.write_trace() for use elsewhere.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
