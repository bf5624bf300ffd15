"""Regenerate every table and figure of the paper in one run.

This drives the same harness as ``benchmarks/`` but prints the full plain-text
report (and optionally writes it to a file), in the format of
``tests/bench/data/bench_seed0_scale0005.txt`` — the report
``repro bench --seed 0 --scale 0.005`` renders.

Run with::

    python examples/benchmark_report.py [output_path] [scale]

``scale`` applies to the two Facebook workloads (default 0.01); the Cloudera
workloads are generated at full scale.
"""

from __future__ import annotations

import sys

from repro.bench import render_suite, run_suite


def main() -> int:
    output_path = sys.argv[1] if len(sys.argv) > 1 else None
    fb_scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.01

    print("Running the full benchmark suite (this takes several minutes) ...\n")
    results = run_suite(
        seed=2012,
        scale_overrides={"FB-2009": fb_scale, "FB-2010": fb_scale},
        include_ablations=True,
        include_simulation=True,
    )
    report = render_suite(results)
    print(report)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print("\nWrote report to %s" % output_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
