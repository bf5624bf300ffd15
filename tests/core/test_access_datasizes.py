"""Tests for data-size (Figure 1) and access-pattern (Figures 2-6) analyses."""

import numpy as np
import pytest

from repro.core import characterize, median_spread_orders
from repro.core.access import PathStatsConsumer, eighty_x_from_profile
from repro.errors import AnalysisError
from repro.traces import Job, Trace
from repro.units import GB, KB, MB


class TestDataSizes:
    def test_medians_and_fractions(self, tiny_trace, analysis):
        dist = analysis(tiny_trace, "data_sizes")
        # The empirical median is one of the observed values, with at least
        # half of the sample at or below it (lower-value convention for even n).
        inputs = sorted(job.input_bytes for job in tiny_trace)
        assert dist.medians["input_bytes"] in inputs
        assert dist.cdfs["input_bytes"].fraction_at_or_below(dist.medians["input_bytes"]) >= 0.5
        assert 0.0 <= dist.fraction_below_gb["input_bytes"] <= 1.0
        # j1, j3 and j5 are map-only (zero shuffle and zero reduce time).
        assert dist.map_only_fraction == pytest.approx(3 / 6)

    def test_empty_trace_rejected(self, analysis):
        with pytest.raises(AnalysisError):
            analysis(Trace([], name="e"), "data_sizes")

    def test_median_spread_orders(self, tiny_trace, cc_e_trace, analysis):
        spreads = median_spread_orders(
            [analysis(tiny_trace, "data_sizes"), analysis(cc_e_trace, "data_sizes")],
            "input_bytes")
        assert spreads >= 0.0

    def test_median_spread_needs_two_workloads(self, tiny_trace, analysis):
        with pytest.raises(AnalysisError):
            median_spread_orders([analysis(tiny_trace, "data_sizes")], "input_bytes")

    def test_generated_workload_mostly_small_jobs(self, cc_e_trace, analysis):
        """Figure 1 shape: most jobs move MB-GB of data."""
        dist = analysis(cc_e_trace, "data_sizes")
        assert dist.fraction_below_gb["input_bytes"] > 0.8


class TestSizeAccessProfile:
    def test_profile_on_tiny_trace(self, tiny_trace, analysis):
        profile = analysis(tiny_trace, "input_profile")
        assert 0.0 <= profile.jobs_below_gb_fraction <= 1.0
        assert profile.stored_bytes_cdf.fractions[-1] == pytest.approx(1.0)
        assert profile.file_sizes.size == len({job.input_path for job in tiny_trace})

    def test_unknown_kind_rejected(self):
        with pytest.raises(AnalysisError):
            PathStatsConsumer("shuffle")

    def test_no_paths_rejected(self, analysis):
        job = Job(job_id="x", submit_time_s=0, duration_s=1, input_bytes=1,
                  shuffle_bytes=0, output_bytes=1, map_task_seconds=1,
                  reduce_task_seconds=0)
        with pytest.raises(AnalysisError):
            analysis(Trace([job], name="np"), "input_profile")

    def test_eighty_x_rule_small_files_dominate_accesses(self, analysis):
        """When most accesses hit small files, 80% of accesses touch few bytes."""
        jobs = []
        for index in range(95):
            jobs.append(Job(job_id="s%d" % index, submit_time_s=index, duration_s=1,
                            input_bytes=1 * MB, shuffle_bytes=0, output_bytes=1 * KB,
                            map_task_seconds=1, reduce_task_seconds=0,
                            input_path="/small/%d" % (index % 10)))
        for index in range(5):
            jobs.append(Job(job_id="b%d" % index, submit_time_s=1000 + index, duration_s=1,
                            input_bytes=1000 * GB, shuffle_bytes=0, output_bytes=1 * KB,
                            map_task_seconds=1, reduce_task_seconds=0,
                            input_path="/big/%d" % index))
        trace = Trace(jobs, name="skewed")
        assert eighty_x_from_profile(analysis(trace, "input_profile")) < 10.0

    def test_eighty_x_rule_invalid_fraction(self, tiny_trace, analysis):
        with pytest.raises(AnalysisError):
            eighty_x_from_profile(analysis(tiny_trace, "input_profile"), job_fraction=1.0)

    def test_generated_workload_follows_80_x_rule(self, cc_e_trace, analysis):
        """Figure 3/4 shape: 80% of accesses go to a small share of stored bytes."""
        assert eighty_x_from_profile(analysis(cc_e_trace, "input_profile")) < 15.0


class TestReaccess:
    def test_intervals_on_tiny_trace(self, tiny_trace, analysis):
        intervals = analysis(tiny_trace, "reaccess_intervals")
        # j3 and j6 re-read /data/a (read at t=0); j5 reads /out/b written by j2.
        assert intervals.input_input is not None
        assert intervals.output_input is not None
        assert intervals.input_input.n == 2
        assert intervals.output_input.n == 1
        assert intervals.output_input.values[0] == pytest.approx(10800.0 - 600.0)
        assert intervals.fraction_within_6h == pytest.approx(1.0)

    def test_fractions_on_tiny_trace(self, tiny_trace, analysis):
        fractions = analysis(tiny_trace, "reaccess_fractions")
        assert fractions.jobs_with_paths == 6
        assert fractions.input_reaccess == pytest.approx(2 / 6)
        assert fractions.output_reaccess == pytest.approx(1 / 6)
        assert fractions.any_reaccess == pytest.approx(3 / 6)

    def test_fractions_require_paths(self, analysis):
        job = Job(job_id="x", submit_time_s=0, duration_s=1, input_bytes=1,
                  shuffle_bytes=0, output_bytes=1, map_task_seconds=1,
                  reduce_task_seconds=0)
        with pytest.raises(AnalysisError):
            analysis(Trace([job], name="np"), "reaccess_fractions")

    def test_generated_workload_reaccess_within_paper_range(self, cc_e_trace, analysis):
        """Figure 5/6 shape: majority of re-accesses happen within hours."""
        fractions = analysis(cc_e_trace, "reaccess_fractions")
        intervals = analysis(cc_e_trace, "reaccess_intervals")
        assert 0.5 < fractions.any_reaccess < 0.95
        assert intervals.fraction_within_6h > 0.6


class TestCombinedAccessAnalysis:
    """The combined §4 result :func:`characterize` assembles from one scan."""

    def test_all_components_present_with_paths(self, cc_e_trace):
        result = characterize(cc_e_trace, cluster=False).access
        assert result.input_ranks is not None and result.input_ranks.slope is not None
        assert result.output_ranks is not None
        assert result.input_profile is not None
        assert result.intervals is not None
        assert result.fractions is not None
        assert result.eighty_x_input is not None
        # Figure 2 shape: Zipf-like slope in a plausible band around 5/6.
        assert 0.4 < result.input_ranks.slope < 1.4

    def test_missing_paths_degrade_to_none(self, fb_2009_small_trace):
        result = characterize(fb_2009_small_trace, cluster=False).access
        assert result.input_ranks is None
        assert result.fractions is None

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            characterize(Trace([], name="e"), cluster=False)

    def test_input_rank_frequencies_match_manual_counts(self, tiny_trace, analysis):
        ranks = analysis(tiny_trace, "input_ranks")
        assert ranks.frequencies[0] == 3  # /data/a read three times
        assert ranks.frequencies.sum() == 6
