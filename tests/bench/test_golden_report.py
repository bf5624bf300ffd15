"""The rendered characterization report of two in-memory traces, pinned.

``data/characterization_report.txt`` is the report ``run_suite`` rendered for
Table 1, Figures 1-10 and Table 2 on the shared CC-e and down-scaled CC-b
fixtures (job-list traces, seed 0).  The other equivalence tests compare the
representations with each other; this one fixes what an in-memory source
prints, so a change to any fold that moves a rendered digit shows up here.
Regenerate the file only for a change that means to move a published number.
"""

import os

from repro.bench.suite import CHARACTERIZATION_EXPERIMENT_IDS, render_suite, run_suite

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "characterization_report.txt")


def test_rendered_report_matches_the_golden_file(cc_e_trace, cc_b_small_trace):
    results = run_suite(traces={"CC-e": cc_e_trace, "CC-b": cc_b_small_trace},
                        include_simulation=False,
                        experiments=list(CHARACTERIZATION_EXPERIMENT_IDS))
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        assert render_suite(results) + "\n" == handle.read()
