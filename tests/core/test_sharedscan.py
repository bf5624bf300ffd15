"""Shared-scan equality contract (the PR's acceptance criterion).

Every characterization experiment must produce **identical** table/figure
rows whether it runs

* alone (``run_suite`` with just that experiment: a scan folding only the
  consumers it needs),
* beside every other experiment in one shared serial scan, or
* in that shared scan fanned over worker processes (``processes=2``),

and the same holds for each analysis key scanned alone against the full
shared-scan bundle.  Counts, dictionary statistics and sketches merge
exactly; the only permitted divergence is floating-point merge order on
parallel float sums, which the rendered rows absorb.
"""

import numpy as np
import pytest

from repro.bench.suite import CHARACTERIZATION_EXPERIMENT_IDS, run_suite
from repro.core import characterize, run_characterization_scan
from repro.engine import ChunkedTraceStore, ParallelExecutor


@pytest.fixture(scope="module")
def cc_e_store(cc_e_trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sharedscan") / "cc-e.store"
    return ChunkedTraceStore.write(directory, cc_e_trace, chunk_rows=1024,
                                   name=cc_e_trace.name)


@pytest.fixture(scope="module")
def suite_modes(cc_e_store):
    """Suite results per execution mode over the same store."""
    def run(experiments, **kwargs):
        return {
            result.experiment_id: result
            for result in run_suite(traces={cc_e_store.name: cc_e_store},
                                    experiments=experiments,
                                    include_ablations=False,
                                    include_simulation=False, **kwargs)
        }

    return {
        "per_analysis": {experiment_id: run([experiment_id])[experiment_id]
                         for experiment_id in CHARACTERIZATION_EXPERIMENT_IDS},
        "shared_serial": run(list(CHARACTERIZATION_EXPERIMENT_IDS)),
        "shared_parallel": run(list(CHARACTERIZATION_EXPERIMENT_IDS), processes=2),
    }


@pytest.mark.parametrize("experiment_id", CHARACTERIZATION_EXPERIMENT_IDS)
@pytest.mark.parametrize("mode", ("shared_serial", "shared_parallel"))
class TestSuiteRowEquality:
    def test_rows_identical_to_per_analysis(self, suite_modes, mode, experiment_id):
        baseline = suite_modes["per_analysis"][experiment_id]
        shared = suite_modes[mode][experiment_id]
        assert shared.rows == baseline.rows
        assert shared.headers == baseline.headers

    def test_series_identical_to_per_analysis(self, suite_modes, mode, experiment_id):
        baseline = suite_modes["per_analysis"][experiment_id]
        shared = suite_modes[mode][experiment_id]
        assert set(shared.series) == set(baseline.series)
        for key, points in baseline.series.items():
            mine = shared.series[key]
            assert len(mine) == len(points)
            assert np.allclose(np.asarray(mine, dtype=float),
                               np.asarray(points, dtype=float), rtol=1e-9), key


class TestBundleMatchesStandalone:
    """The shared-scan bundle fields equal each analysis scanned alone."""

    @pytest.fixture(scope="class")
    def bundles(self, cc_e_store):
        return {
            "serial": run_characterization_scan(cc_e_store),
            "parallel": run_characterization_scan(
                cc_e_store, executor=ParallelExecutor(processes=2)),
        }

    @pytest.mark.parametrize("mode", ("serial", "parallel"))
    def test_summary(self, bundles, cc_e_store, mode, analysis):
        assert bundles[mode].value("summary") == analysis(cc_e_store, "summary")

    @pytest.mark.parametrize("mode", ("serial", "parallel"))
    def test_data_sizes(self, bundles, cc_e_store, mode, analysis):
        standalone = analysis(cc_e_store, "data_sizes")
        bundled = bundles[mode].value("data_sizes")
        assert bundled.medians == standalone.medians  # sketches merge exactly
        assert bundled.fraction_below_gb == standalone.fraction_below_gb
        assert bundled.map_only_fraction == standalone.map_only_fraction

    @pytest.mark.parametrize("mode", ("serial", "parallel"))
    def test_ranks_and_profiles(self, bundles, cc_e_store, mode, analysis):
        bundle = bundles[mode]
        ranks = analysis(cc_e_store, "input_ranks")
        assert np.array_equal(bundle.value("input_ranks").frequencies, ranks.frequencies)
        assert bundle.value("input_ranks").slope == ranks.slope
        profile = analysis(cc_e_store, "input_profile")
        bundled = bundle.value("input_profile")
        assert np.array_equal(bundled.file_sizes, profile.file_sizes)
        assert bundled.jobs_below_gb_fraction == profile.jobs_below_gb_fraction
        assert bundled.bytes_below_gb_fraction == profile.bytes_below_gb_fraction

    @pytest.mark.parametrize("mode", ("serial", "parallel"))
    def test_reaccess(self, bundles, cc_e_store, mode, analysis):
        bundle = bundles[mode]
        assert bundle.value("reaccess_fractions") == analysis(cc_e_store, "reaccess_fractions")
        intervals = analysis(cc_e_store, "reaccess_intervals")
        bundled = bundle.value("reaccess_intervals")
        assert bundled.fraction_within_6h == intervals.fraction_within_6h
        assert np.array_equal(bundled.input_input.values, intervals.input_input.values)

    @pytest.mark.parametrize("mode", ("serial", "parallel"))
    def test_hourly(self, bundles, cc_e_store, mode, analysis):
        dims = analysis(cc_e_store, "hourly")
        bundled = bundles[mode].value("hourly")
        assert np.array_equal(bundled.jobs_per_hour, dims.jobs_per_hour)
        assert np.allclose(bundled.bytes_per_hour, dims.bytes_per_hour, rtol=1e-9)
        assert np.allclose(bundled.task_seconds_per_hour,
                           dims.task_seconds_per_hour, rtol=1e-9)

    @pytest.mark.parametrize("mode", ("serial", "parallel"))
    def test_naming(self, bundles, cc_e_store, mode, analysis):
        naming = analysis(cc_e_store, "naming")
        bundled = bundles[mode].value("naming")
        assert bundled.by_jobs.shares == naming.by_jobs.shares
        for (word, share), (ref_word, ref_share) in zip(bundled.by_bytes.shares,
                                                        naming.by_bytes.shares):
            assert word == ref_word
            assert share == pytest.approx(ref_share, rel=1e-12)

    def test_serial_bundle_matches_standalone_folds_exactly(self, bundles, cc_e_store, analysis):
        """Serial shared scan == folds scanned alone, bit-for-bit (same code path)."""
        naming = analysis(cc_e_store, "naming")
        assert bundles["serial"].value("naming").by_bytes.shares == naming.by_bytes.shares
        dims = analysis(cc_e_store, "hourly")
        assert np.array_equal(bundles["serial"].value("hourly").bytes_per_hour,
                              dims.bytes_per_hour)


class TestCharacterizeSharedScan:
    def test_store_report_parallel_matches_serial(self, cc_b_small_trace, tmp_path_factory):
        directory = tmp_path_factory.mktemp("charscan") / "cc-b.store"
        store = ChunkedTraceStore.write(directory, cc_b_small_trace, chunk_rows=256,
                                        name=cc_b_small_trace.name)
        serial = characterize(store, max_k=4)
        parallel = characterize(store, max_k=4, processes=2)
        assert parallel.render() == serial.render()

    def test_store_report_matches_trace_counts(self, cc_b_small_trace, tmp_path_factory):
        directory = tmp_path_factory.mktemp("charscan2") / "cc-b.store"
        store = ChunkedTraceStore.write(directory, cc_b_small_trace, chunk_rows=256,
                                        name=cc_b_small_trace.name)
        report = characterize(store, max_k=4)
        baseline = characterize(cc_b_small_trace, max_k=4)
        assert report.summary.n_jobs == baseline.summary.n_jobs
        assert report.access.fractions == baseline.access.fractions
        assert report.clustering.k == baseline.clustering.k


def _reference_reaccess(jobs):
    """Straight per-row port of the paper's sequential re-access walk."""
    last_read, last_write = {}, {}
    input_input, output_input = [], []
    jobs_with_paths = input_hits = output_hits = any_hits = 0
    for job in jobs:
        t, path, out = job.submit_time_s, job.input_path, job.output_path
        if path:
            write_t, read_t = last_write.get(path), last_read.get(path)
            if write_t is not None and (read_t is None or write_t >= read_t):
                output_input.append(t - write_t)
            elif read_t is not None:
                input_input.append(t - read_t)
            if write_t is not None:
                output_hits += 1
            elif read_t is not None:
                input_hits += 1
            if write_t is not None or read_t is not None:
                any_hits += 1
            last_read[path] = t
            jobs_with_paths += 1
        if out:
            last_write[out] = t
    return (sorted(input_input), sorted(output_input),
            jobs_with_paths, input_hits, output_hits, any_hits)


class TestReaccessVectorizedMatchesRowWalk:
    """The chunk-vectorized re-access fold equals the sequential row walk.

    Randomized tie-heavy traces: shared path pools, equal submit times,
    rows whose input path equals their own (or another row's) output path.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_traces(self, seed, tmp_path, analysis):
        from repro.traces import Job, Trace

        rng = np.random.default_rng(seed)
        n = 600
        pool = ["/p/%d" % index for index in range(12)]
        times = np.sort(rng.integers(0, 40, size=n)).astype(float)  # many ties
        jobs = []
        for index in range(n):
            has_in = rng.random() < 0.85
            has_out = rng.random() < 0.7
            jobs.append(Job(
                job_id="r%04d" % index, submit_time_s=float(times[index]),
                duration_s=1.0, input_bytes=1.0, shuffle_bytes=0.0,
                output_bytes=1.0, map_task_seconds=1.0, reduce_task_seconds=0.0,
                input_path=pool[rng.integers(len(pool))] if has_in else None,
                output_path=pool[rng.integers(len(pool))] if has_out else None))
        trace = Trace(jobs, name="ref")
        store = ChunkedTraceStore.write(tmp_path / ("s%d" % seed), trace,
                                        chunk_rows=37)  # odd width: many carries
        (ref_in, ref_out, ref_jobs, ref_ihits,
         ref_ohits, ref_any) = _reference_reaccess(trace.jobs)

        intervals = analysis(store, "reaccess_intervals")
        fractions = analysis(store, "reaccess_fractions")
        assert fractions.jobs_with_paths == ref_jobs
        assert fractions.input_reaccess == ref_ihits / ref_jobs
        assert fractions.output_reaccess == ref_ohits / ref_jobs
        assert fractions.any_reaccess == ref_any / ref_jobs
        got_in = intervals.input_input.values.tolist() if intervals.input_input else []
        got_out = intervals.output_input.values.tolist() if intervals.output_input else []
        assert got_in == ref_in
        assert got_out == ref_out


class TestSubsetScan:
    def test_experiment_subset_folds_only_needed(self, cc_e_store):
        bundle = run_characterization_scan(cc_e_store, experiments=["figure1"])
        assert bundle.value("data_sizes").medians
        assert not bundle.has("naming")
        assert not bundle.has("hourly")

    def test_unknown_key_raises(self, cc_e_store):
        from repro.errors import AnalysisError

        bundle = run_characterization_scan(cc_e_store, experiments=["figure1"])
        with pytest.raises(AnalysisError, match="did not compute"):
            bundle.value("naming")
