"""The rendered characterization report of two in-memory traces, pinned.

``data/characterization_report.txt`` is the report ``run_suite`` rendered for
Table 1, Figures 1-10 and Table 2 on the shared CC-e and down-scaled CC-b
fixtures (job-list traces, seed 0).  The other equivalence tests compare the
representations with each other; this one fixes what an in-memory source
prints, so a change to any fold that moves a rendered digit shows up here.
``data/characterization_report_store.txt`` does the same for the two traces
written to v3 stores of :data:`STORE_CHUNK_ROWS`-row chunks (several chunks
each; Figure 1 is then sketch-backed).
``data/bench_seed0_scale0005.txt`` is the whole suite — all 22 experiments,
the replay ablations and the SWIM replay included — as ``repro bench --seed 0
--scale 0.005`` renders it from freshly generated workloads.
Regenerate a file only for a change that means to move a published number.
"""

import os

from repro.bench.suite import (CHARACTERIZATION_EXPERIMENT_IDS, EXPERIMENT_IDS, render_suite,
                               run_suite)
from repro.engine import ChunkedTraceStore

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "characterization_report.txt")
STORE_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                            "characterization_report_store.txt")
SUITE_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "bench_seed0_scale0005.txt")

#: Rows per chunk of the stores behind :data:`STORE_GOLDEN`.
STORE_CHUNK_ROWS = 1000


def test_rendered_report_matches_the_golden_file(cc_e_trace, cc_b_small_trace):
    results = run_suite(traces={"CC-e": cc_e_trace, "CC-b": cc_b_small_trace},
                        include_simulation=False,
                        experiments=list(CHARACTERIZATION_EXPERIMENT_IDS))
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        assert render_suite(results) + "\n" == handle.read()


def test_store_rendered_report_matches_the_store_golden_file(tmp_path, cc_e_trace,
                                                             cc_b_small_trace):
    stores = {name: ChunkedTraceStore.write(tmp_path / name, trace,
                                            chunk_rows=STORE_CHUNK_ROWS)
              for name, trace in (("CC-e", cc_e_trace), ("CC-b", cc_b_small_trace))}
    results = run_suite(traces=stores, include_simulation=False,
                        experiments=list(CHARACTERIZATION_EXPERIMENT_IDS))
    with open(STORE_GOLDEN, "r", encoding="utf-8") as handle:
        assert render_suite(results) + "\n" == handle.read()


def test_small_scale_suite_matches_the_suite_golden_file():
    results = run_suite(seed=0, scale=0.005)
    assert len(results) == len(EXPERIMENT_IDS)
    with open(SUITE_GOLDEN, "r", encoding="utf-8") as handle:
        assert render_suite(results) + "\n" == handle.read()
