"""Source-equivalence contract: every refactored core statistic and every
bench table/figure produces identical results across the three trace
representations — job-list ``Trace``, in-memory ``ColumnarTrace``, and
out-of-core ``ChunkedTraceStore``.

Exceptions, exactly as documented in ``docs/architecture.md``:

* sketch-backed percentiles (store-side Figure-1 medians / below-1GB
  fractions) are tolerance-bounded at histogram-bin resolution;
* float sums folded over different chunkings may differ in the last ulp, so
  byte/task-second totals compare with a tight relative tolerance.
"""

import numpy as np
import pytest

from repro.core import (
    analyze_burstiness,
    characterize,
    cluster_jobs,
    consolidation_study,
    hourly_task_seconds,
)
from repro.bench.suite import CHARACTERIZATION_EXPERIMENT_IDS, run_suite
from repro.core.access import PathStatsConsumer, ReaccessConsumer, eighty_x_from_profile
from repro.core.naming import NamingConsumer
from repro.engine import ChunkedTraceStore, ParallelExecutor, append_store
from repro.engine.pipeline import run_resumable_scan
from repro.traces import Job, Trace

REPRESENTATIONS = ("trace", "columnar", "store")

#: Relative tolerance for sketch-backed percentile read-outs (bin resolution).
SKETCH_REL = 0.16
#: Relative tolerance for float sums folded over different chunk boundaries.
SUM_REL = 1e-9


@pytest.fixture(scope="module")
def cc_e_reps(cc_e_trace, tmp_path_factory):
    """The CC-e workload in all three representations (multi-chunk store)."""
    directory = tmp_path_factory.mktemp("equivalence") / "cc-e.store"
    store = ChunkedTraceStore.write(directory, cc_e_trace, chunk_rows=2048,
                                    name=cc_e_trace.name)
    return {"trace": cc_e_trace,
            "columnar": cc_e_trace.to_columnar(),
            "store": store}


@pytest.fixture(scope="module")
def cc_b_reps(cc_b_small_trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("equivalence") / "cc-b.store"
    store = ChunkedTraceStore.write(directory, cc_b_small_trace, chunk_rows=512,
                                    name=cc_b_small_trace.name)
    return {"trace": cc_b_small_trace,
            "columnar": cc_b_small_trace.to_columnar(),
            "store": store}


@pytest.mark.parametrize("representation", REPRESENTATIONS)
class TestCoreStatisticEquivalence:
    def test_summary(self, cc_e_reps, representation, analysis):
        baseline = cc_e_reps["trace"].summary()
        summary = analysis(cc_e_reps[representation], "summary")
        assert summary.n_jobs == baseline.n_jobs
        assert summary.length_s == pytest.approx(baseline.length_s)
        assert summary.bytes_moved == pytest.approx(baseline.bytes_moved, rel=SUM_REL)
        assert summary.total_task_seconds == pytest.approx(
            baseline.total_task_seconds, rel=SUM_REL)

    def test_hourly_dimensions(self, cc_e_reps, representation, analysis):
        baseline = analysis(cc_e_reps["trace"], "hourly")
        dims = analysis(cc_e_reps[representation], "hourly")
        assert np.array_equal(dims.jobs_per_hour, baseline.jobs_per_hour)
        assert np.allclose(dims.bytes_per_hour, baseline.bytes_per_hour, rtol=SUM_REL)
        assert np.allclose(dims.task_seconds_per_hour,
                           baseline.task_seconds_per_hour, rtol=SUM_REL)

    def test_burstiness(self, cc_e_reps, representation):
        baseline = analyze_burstiness(cc_e_reps["trace"])
        burst = analyze_burstiness(cc_e_reps[representation])
        assert burst.hours == baseline.hours
        assert burst.peak_to_median == pytest.approx(baseline.peak_to_median, rel=SUM_REL)
        assert burst.p99_to_median == pytest.approx(baseline.p99_to_median, rel=SUM_REL)
        assert np.allclose(hourly_task_seconds(cc_e_reps[representation]),
                           hourly_task_seconds(cc_e_reps["trace"]), rtol=SUM_REL)

    def test_data_sizes(self, cc_e_reps, representation, analysis):
        baseline = analysis(cc_e_reps["trace"], "data_sizes")
        sizes = analysis(cc_e_reps[representation], "data_sizes")
        # Counts are exact for every representation.
        assert sizes.map_only_fraction == baseline.map_only_fraction
        for dimension, exact in baseline.medians.items():
            if representation == "store":  # sketch-backed: bin resolution
                assert sizes.medians[dimension] == pytest.approx(exact, rel=SKETCH_REL)
                assert sizes.fraction_below_gb[dimension] == pytest.approx(
                    baseline.fraction_below_gb[dimension], abs=0.02)
            else:
                assert sizes.medians[dimension] == exact
                assert sizes.fraction_below_gb[dimension] == baseline.fraction_below_gb[dimension]

    def test_zipf_ranks(self, cc_e_reps, representation, analysis):
        baseline = analysis(cc_e_reps["trace"], "input_ranks")
        ranks = analysis(cc_e_reps[representation], "input_ranks")
        assert np.array_equal(ranks.frequencies, baseline.frequencies)
        assert ranks.slope == baseline.slope

    def test_access_patterns(self, cc_e_reps, representation, analysis):
        baseline_fracs = analysis(cc_e_reps["trace"], "reaccess_fractions")
        fracs = analysis(cc_e_reps[representation], "reaccess_fractions")
        assert fracs == baseline_fracs
        baseline_intervals = analysis(cc_e_reps["trace"], "reaccess_intervals")
        intervals = analysis(cc_e_reps[representation], "reaccess_intervals")
        assert intervals.fraction_within_6h == baseline_intervals.fraction_within_6h
        assert np.array_equal(intervals.input_input.values,
                              baseline_intervals.input_input.values)
        profile = analysis(cc_e_reps[representation], "input_profile")
        baseline_profile = analysis(cc_e_reps["trace"], "input_profile")
        assert eighty_x_from_profile(profile) == eighty_x_from_profile(baseline_profile)
        assert np.array_equal(profile.file_sizes, baseline_profile.file_sizes)
        assert profile.jobs_below_gb_fraction == baseline_profile.jobs_below_gb_fraction

    def test_naming(self, cc_e_reps, representation, analysis):
        baseline = analysis(cc_e_reps["trace"], "naming")
        naming = analysis(cc_e_reps[representation], "naming")
        # Job-count shares are integer-weighted: exact for every chunking.
        assert naming.by_jobs.shares == baseline.by_jobs.shares
        # Byte-weighted shares group per chunk before summing, so a different
        # chunking (store vs in-memory chunk width) may differ in the last ulp.
        assert [word for word, _ in naming.by_bytes.shares] == \
            [word for word, _ in baseline.by_bytes.shares]
        assert [share for _, share in naming.by_bytes.shares] == pytest.approx(
            [share for _, share in baseline.by_bytes.shares], rel=SUM_REL)
        assert set(naming.framework_shares) == set(baseline.framework_shares)
        for weighting, shares in baseline.framework_shares.items():
            mine = naming.framework_shares[weighting]
            assert set(mine) == set(shares)
            for framework, share in shares.items():
                assert mine[framework] == pytest.approx(share, rel=SUM_REL)

    def test_clustering(self, cc_b_reps, representation):
        baseline = cluster_jobs(cc_b_reps["trace"], max_k=6, seed=0)
        clustering = cluster_jobs(cc_b_reps[representation], max_k=6, seed=0)
        assert clustering.k == baseline.k
        assert [cluster.n_jobs for cluster in clustering.clusters] == \
            [cluster.n_jobs for cluster in baseline.clusters]
        assert [cluster.label for cluster in clustering.clusters] == \
            [cluster.label for cluster in baseline.clusters]
        for mine, theirs in zip(clustering.clusters, baseline.clusters):
            assert mine.centroid == pytest.approx(theirs.centroid)

    def test_consolidation_study(self, cc_e_reps, cc_b_reps, representation):
        baseline = consolidation_study([cc_e_reps["trace"], cc_b_reps["trace"]])
        study = consolidation_study([cc_e_reps[representation], cc_b_reps[representation]])
        for name, burst in baseline.source_burstiness.items():
            assert study.source_burstiness[name].peak_to_median == pytest.approx(
                burst.peak_to_median, rel=SUM_REL)
        assert study.consolidated_burstiness.peak_to_median == pytest.approx(
            baseline.consolidated_burstiness.peak_to_median, rel=1e-6)
        assert study.remains_bursty == baseline.remains_bursty


class TestBenchSuiteEquivalence:
    @pytest.fixture(scope="class")
    def suite_results(self, cc_b_reps):
        return {
            representation: run_suite(
                traces={"CC-b": cc_b_reps[representation]},
                experiments=list(CHARACTERIZATION_EXPERIMENT_IDS),
                include_ablations=False, include_simulation=False)
            for representation in REPRESENTATIONS
        }

    @pytest.mark.parametrize("representation", ("columnar", "store"))
    def test_all_rows_identical_except_sketch_backed(self, suite_results, representation):
        baseline = {result.experiment_id: result for result in suite_results["trace"]}
        for result in suite_results[representation]:
            if representation == "store" and result.experiment_id == "figure1":
                continue  # sketch medians: checked numerically in the core tests
            assert result.rows == baseline[result.experiment_id].rows, result.experiment_id

    def test_figure1_store_rows_structurally_equal(self, suite_results):
        baseline = {r.experiment_id: r for r in suite_results["trace"]}["figure1"]
        store_result = {r.experiment_id: r for r in suite_results["store"]}["figure1"]
        assert len(store_result.rows) == len(baseline.rows)
        for mine, theirs in zip(store_result.rows, baseline.rows):
            assert mine[0] == theirs[0]  # workload name


class TestCharacterizeOnStore:
    def test_full_report_runs_out_of_core(self, cc_b_reps):
        report = characterize(cc_b_reps["store"], max_k=4)
        baseline = characterize(cc_b_reps["trace"], max_k=4)
        assert report.summary.n_jobs == baseline.summary.n_jobs
        assert report.clustering.k == baseline.clustering.k
        assert report.access.fractions == baseline.access.fractions
        rendered = report.render()
        assert "Per-job data sizes" in rendered and "Job types" in rendered


# ---------------------------------------------------------------------------
# Path- and name-keyed folds on both kinds of string column
# ---------------------------------------------------------------------------
PATH_JOBS = 630
PATH_CHUNK_ROWS = 64
#: Rows in the checkpointed prefix; the rest is appended, with new paths.
PATH_PREFIX = 480
NAME_WORDS = ("select", "insert", "piglatin", "oozie", "distcp", "adhoc")
#: Word ``i`` names ``6 - i`` of every 21 jobs: the ranking has no ties, so
#: it cannot depend on the order chunks brought the words in.
WORD_PATTERN = sum(([index] * (len(NAME_WORDS) - index)
                    for index in range(len(NAME_WORDS))), [])


def _path_jobs(pool):
    """Jobs whose paths and names are drawn from ``pool`` values each.

    A pool of 8 keeps every chunk's distinct values under half its rows, so
    a store dictionary-encodes the path and name columns; a pool of 100 000
    makes nearly every value distinct, so the store keeps them raw.  Some
    rows leave a path or the name unrecorded; some jobs read and write one
    path, read what the previous job wrote, or re-read an earlier input; the
    first row of every chunk reads what the chunk before wrote on its last
    row.  Jobs past :data:`PATH_PREFIX` draw paths and names the prefix never
    saw, so appending them grows the dictionaries.  Byte and task figures are
    integers, so every summation order gives the same totals.
    """
    rng = np.random.default_rng(pool)
    inputs, outputs, names = [], [], []
    for row in range(PATH_JOBS):
        era = "new" if row >= PATH_PREFIX else "old"
        inputs.append("/%s/in/%d" % (era, rng.integers(pool)))
        outputs.append("/%s/out/%d" % (era, rng.integers(pool)))
        word = NAME_WORDS[WORD_PATTERN[row % len(WORD_PATTERN)]]
        names.append("%s %s job %d" % (word, era, rng.integers(pool // 4)))
        if row % 11 == 0:
            outputs[row] = inputs[row]
        if row % 13 == 5 and outputs[row - 1]:
            inputs[row] = outputs[row - 1]
        if row % 19 == 7:
            inputs[row] = inputs[row - 3]
        if row % PATH_CHUNK_ROWS == 0 and row:
            outputs[row - 1] = "/%s/edge/%d" % (era, row // PATH_CHUNK_ROWS % 4)
            inputs[row] = outputs[row - 1]
        if row % 7 == 3:
            inputs[row] = None
        if row % 5 == 1 and row % PATH_CHUNK_ROWS != PATH_CHUNK_ROWS - 1:
            outputs[row] = None
        if row % 17 == 2:
            names[row] = None
    return [Job(job_id="p%04d" % row, submit_time_s=60.0 * row, duration_s=30.0,
                input_bytes=float(rng.integers(1, 10 ** 6) * 1000),
                shuffle_bytes=float(rng.integers(0, 10 ** 6) * 1000),
                output_bytes=float(rng.integers(0, 10 ** 6) * 1000),
                map_task_seconds=float(rng.integers(1, 5000)),
                reduce_task_seconds=float(rng.integers(0, 500)),
                name=names[row], framework="spark" if row % 9 == 0 else None,
                input_path=inputs[row], output_path=outputs[row])
            for row in range(PATH_JOBS)]


def _path_results(source, **scan_options):
    """Figures 2-6 and 10 folds of one scan, as plain comparable values."""
    consumers = [PathStatsConsumer("input"), PathStatsConsumer("output"),
                 ReaccessConsumer(has_input=True, has_output=True),
                 NamingConsumer(has_framework=True, workload="paths")]
    scan, _report, _saved = run_resumable_scan(source, consumers, **scan_options)
    reaccess, naming = scan.value("reaccess"), scan.value("naming")
    return {
        "input_stats": list(scan.value("path_stats_input").items()),
        "output_stats": list(scan.value("path_stats_output").items()),
        "input_input": reaccess.intervals.input_input.values.tolist(),
        "output_input": reaccess.intervals.output_input.values.tolist(),
        "within_6h": reaccess.intervals.fraction_within_6h,
        "fractions": reaccess.fractions,
        "naming": (naming.by_jobs, naming.by_bytes, naming.by_task_seconds,
                   naming.framework_shares, naming.top_words_cover),
    }


@pytest.fixture(scope="module", params=("dict", "raw"))
def path_sources(request, tmp_path_factory):
    """One job set as a Trace, a ColumnarTrace and a store, plus a store
    checkpointed on the prefix and then grown by the appended jobs."""
    jobs = _path_jobs(8 if request.param == "dict" else 100_000)
    trace = Trace(jobs, name="paths")
    root = tmp_path_factory.mktemp("paths-%s" % request.param)
    store = ChunkedTraceStore.write(root / "whole.store", trace,
                                    chunk_rows=PATH_CHUNK_ROWS, name="paths")
    prefix = ChunkedTraceStore.write(root / "grown.store", Trace(jobs[:PATH_PREFIX]),
                                     chunk_rows=PATH_CHUNK_ROWS, name="paths")
    checkpoint = str(root / "grown.ck.json")
    _path_results(prefix, checkpoint_to=checkpoint)
    grown = append_store(root / "grown.store", Trace(jobs[PATH_PREFIX:]))
    return {"kind": request.param, "trace": trace, "columnar": trace.to_columnar(),
            "store": store, "prefix": prefix, "grown": grown, "checkpoint": checkpoint,
            "baseline": _path_results(trace)}


class TestPathFoldsOnBothColumnKinds:
    def test_fixture_has_the_intended_encodings(self, path_sources):
        kind = path_sources["kind"]
        for store in (path_sources["store"], path_sources["grown"]):
            for column in ("input_path", "output_path", "name"):
                assert store.string_encodings[column] == kind, column
        if kind == "dict":
            for column in ("input_path", "output_path", "name"):
                assert len(path_sources["grown"].string_table(column)) > \
                    len(path_sources["prefix"].string_table(column)), column

    @pytest.mark.parametrize("representation", ("columnar", "store"))
    def test_every_representation_agrees(self, path_sources, representation):
        assert _path_results(path_sources[representation]) == path_sources["baseline"]

    def test_parallel_agrees(self, path_sources):
        assert _path_results(path_sources["store"],
                             executor=ParallelExecutor(processes=2)) == \
            path_sources["baseline"]

    @pytest.mark.parametrize("processes", (None, 2))
    def test_resumed_after_a_dictionary_growing_append_equals_cold(
            self, path_sources, processes):
        executor = ParallelExecutor(processes=processes) if processes else None
        grown = path_sources["grown"]
        assert _path_results(grown, executor=executor) == path_sources["baseline"]
        assert _path_results(grown, executor=executor,
                             resume_from=path_sources["checkpoint"]) == \
            path_sources["baseline"]
