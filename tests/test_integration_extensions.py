"""Cross-module integration tests for the extension subsystems.

These exercise the end-to-end pipelines that span several subpackages:
anonymization -> aggregation -> offsite comparison, SWIM synthesis ->
simulator and -> characterization, and the CLI entry points for the new
commands.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.core import (
    characterize,
    consolidation_study,
    select_workload_suite,
    workload_features,
)
from repro.simulator import ClusterConfig, WorkloadReplayer
from repro.synth import SwimSynthesizer
from repro.traces import (
    AggregatedMetrics,
    Anonymizer,
    aggregate_trace,
    anonymize_trace,
    load_workload,
    read_trace,
)


class TestOffsiteSharingPipeline:
    def test_two_sites_compare_aggregates(self, cc_b_small_trace, fb_2009_small_trace):
        payloads = []
        for trace, salt in ((cc_b_small_trace, "site-1"), (fb_2009_small_trace, "site-2")):
            anonymized = anonymize_trace(trace, Anonymizer(salt=salt))
            payloads.append(aggregate_trace(anonymized).to_json())
        received = [AggregatedMetrics.from_json(payload) for payload in payloads]
        # The offsite consumer can still rank the sites by job count and
        # compare their burstiness, without ever seeing a raw path.
        assert received[1].n_jobs != received[0].n_jobs
        for payload in payloads:
            assert "/data" not in payload
        for record in received:
            assert record.peak_to_median_task_seconds() >= 1.0


class TestSwimReplayPlanPipeline:
    def test_synthesize_replay(self, cc_b_small_trace):
        synthesizer = SwimSynthesizer(cc_b_small_trace, seed=5)
        plan = synthesizer.synthesize(n_jobs=300, horizon_s=3600.0, target_machines=10)
        metrics = WorkloadReplayer(cluster_config=ClusterConfig(n_nodes=10)).replay(plan.trace)
        assert metrics.finished_jobs == 300
        assert metrics.mean_utilization() > 0.0


class TestSuiteAndConsolidationOnPaperWorkloads:
    def test_suite_selection_over_generated_workloads(self, cc_b_small_trace,
                                                      cc_e_trace, fb_2009_small_trace):
        features = [workload_features(trace)
                    for trace in (cc_b_small_trace, cc_e_trace, fb_2009_small_trace)]
        suite = select_workload_suite(features, 2)
        assert len(suite.selected) == 2
        study = consolidation_study([cc_b_small_trace, fb_2009_small_trace])
        assert study.consolidated_burstiness.peak_to_median > 1.0


class TestCliExtensions:
    def test_anonymize_command_writes_trace_and_aggregate(self, tmp_path, capsys):
        out_trace = tmp_path / "anon.jsonl"
        out_aggregate = tmp_path / "agg.json"
        exit_code = cli_main([
            "anonymize", "--workload", "CC-a", "--scale", "0.2", "--seed", "3",
            "--salt", "cli-salt", "--output", str(out_trace), "--aggregate", str(out_aggregate),
        ])
        assert exit_code == 0
        reloaded = read_trace(str(out_trace))
        assert len(reloaded) > 0
        assert all("/" not in (job.name or "") for job in reloaded)
        aggregate = json.loads(out_aggregate.read_text(encoding="utf-8"))
        assert aggregate["n_jobs"] == len(reloaded)

    def test_compare_command_prints_summary(self, capsys):
        exit_code = cli_main([
            "compare", "--before-workload", "FB-2009", "--after-workload", "FB-2010",
            "--scale", "0.002", "--seed", "3",
        ])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Evolution" in captured
        assert "orders of magnitude" in captured

    def test_characterize_still_works_after_cli_changes(self, capsys):
        exit_code = cli_main(["characterize", "--workload", "CC-a", "--scale", "0.2",
                              "--seed", "3", "--no-cluster"])
        assert exit_code == 0
        assert "CC-a" in capsys.readouterr().out


class TestCharacterizationOnSynthesizedNames:
    def test_full_characterize_of_synthetic_workload(self, cc_b_small_trace):
        # Run the full paper characterization on the SWIM output — the
        # pipeline a benchmark user follows.
        plan = SwimSynthesizer(cc_b_small_trace, seed=2).synthesize(
            n_jobs=400, horizon_s=2 * 3600.0, target_machines=20)
        report = characterize(plan.trace, cluster=True, max_k=6)
        assert report.clustering is not None
        assert report.naming is not None
        assert report.data_sizes is not None
