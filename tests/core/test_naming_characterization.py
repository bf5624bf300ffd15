"""Tests for the job-name analysis (Figure 10) and the full characterizer."""

import pytest

from repro.core import (
    WorkloadCharacterizer,
    characterize,
    classify_framework,
    render_table,
)
from repro.core.naming import NamingConsumer
from repro.engine.pipeline import fold_consumer
from repro.errors import AnalysisError
from repro.traces import Job, Trace


class TestClassifyFramework:
    @pytest.mark.parametrize("word,expected", [
        ("insert", "hive"), ("select", "hive"), ("from", "hive"),
        ("piglatin", "pig"), ("oozie", "oozie"), ("distcp", "native"),
        ("mycustomjob", "native"), (None, "unknown"),
    ])
    def test_keyword_classification(self, word, expected):
        assert classify_framework(word) == expected

    def test_declared_framework_wins(self):
        assert classify_framework("insert", declared="pig") == "pig"


class TestFirstWordBreakdown:
    def test_by_jobs(self, tiny_trace, analysis):
        breakdown = analysis(tiny_trace, "naming").by_jobs
        shares = dict(breakdown.shares)
        assert shares["select"] == pytest.approx(2 / 6)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_by_bytes_weights_large_jobs(self, tiny_trace, analysis):
        breakdown = analysis(tiny_trace, "naming").by_bytes
        # The oozie job moves ~2.6 TB of the ~2.6 TB total.
        assert dict(breakdown.shares).get("oozie", 0.0) > 0.9

    def test_top_n_folds_others(self):
        jobs = [Job(job_id=str(index), submit_time_s=index, duration_s=1, input_bytes=1,
                    shuffle_bytes=0, output_bytes=1, map_task_seconds=1,
                    reduce_task_seconds=0, name="%s run" % ("word" + "x" * index))
                for index in range(30)]
        breakdown = fold_consumer(Trace(jobs, name="many"),
                                  NamingConsumer(has_framework=False, top_n=5)).by_jobs
        assert breakdown.shares[-1][0] == "[others]"
        assert sum(share for _, share in breakdown.shares) == pytest.approx(1.0)


class TestAnalyzeNaming:
    def test_tiny_trace_framework_shares(self, tiny_trace, analysis):
        naming = analysis(tiny_trace, "naming")
        shares = naming.framework_shares["jobs"]
        assert shares["hive"] == pytest.approx(3 / 6)
        assert "hive" in naming.dominant_frameworks("jobs", 2)
        assert 0.0 < naming.framework_share("jobs") <= 1.0

    def test_unnamed_trace_rejected(self, fb_2009_small_trace, analysis):
        # FB-2009 generated traces do carry names; strip them to test the error.
        stripped = fb_2009_small_trace.filter(lambda job: False)
        with pytest.raises(AnalysisError):
            analysis(stripped if not stripped.is_empty() else Trace([
                Job(job_id="x", submit_time_s=0, duration_s=1, input_bytes=1,
                    shuffle_bytes=0, output_bytes=1, map_task_seconds=1,
                    reduce_task_seconds=0)], name="unnamed"), "naming")

    def test_generated_workload_two_frameworks_dominate(self, cc_e_trace, analysis):
        """Figure 10 shape: two frameworks account for the majority of jobs."""
        naming = analysis(cc_e_trace, "naming")
        top_two = naming.dominant_frameworks("jobs", 2)
        share = sum(naming.framework_shares["jobs"][name] for name in top_two)
        assert share > 0.5
        assert naming.framework_share("jobs") >= 0.2  # paper: at least 20%


class TestRenderTable:
    def test_render_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in lines[-1]


class TestCharacterizer:
    def test_full_report_on_generated_workload(self, cc_b_small_trace):
        report = characterize(cc_b_small_trace, max_k=6)
        assert report.workload == cc_b_small_trace.name
        assert report.data_sizes is not None
        assert report.access is not None
        assert report.burstiness is not None
        assert report.correlations is not None
        assert report.naming is not None
        assert report.clustering is not None
        text = report.render()
        assert "Per-job data sizes" in text
        assert "Job types" in text

    def test_report_degrades_without_names_or_paths(self, fb_2009_small_trace):
        report = characterize(fb_2009_small_trace, cluster=False)
        assert report.clustering is None
        assert any("paths" in note for note in report.notes)
        assert report.naming is not None  # FB-2009 has names
        # Rendering never fails even with missing sections.
        assert "Workload" in report.render()

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            WorkloadCharacterizer().characterize(Trace([], name="e"))

    def test_cluster_flag_skips_clustering(self, tiny_trace):
        report = characterize(tiny_trace, cluster=False)
        assert report.clustering is None
