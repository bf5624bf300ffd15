"""Tests for the benchmark harness (tables, figures, suite) and the CLI."""

import pytest

from repro.bench import (
    ExperimentResult,
    burstiness_metric_ablation,
    cache_policy_ablation,
    figure1,
    figure2,
    figure5,
    figure6,
    figure8,
    figure9,
    figure10,
    k_selection_ablation,
    run_suite,
    render_suite,
    series_preview,
    swim_replay,
    table1,
    table2,
)
from repro.cli import main
from repro.traces import load_workload


@pytest.fixture(scope="module")
def small_traces():
    """Two small workloads generated once for all harness tests."""
    return {
        "CC-b": load_workload("CC-b", seed=3, scale=0.08),
        "CC-e": load_workload("CC-e", seed=3, scale=0.2),
    }


class TestExperimentResult:
    def test_render_contains_table_and_notes(self):
        result = ExperimentResult(experiment_id="x", title="t", headers=["a"],
                                  rows=[["1"]], notes=["hello"])
        text = result.render()
        assert "== x: t ==" in text and "hello" in text

    def test_series_preview_thins_points(self):
        points = [(float(index), float(index)) for index in range(100)]
        preview = series_preview(points, max_points=4)
        assert preview.count("(") <= 6
        assert "(99," in preview


class TestTableExperiments:
    def test_table1_rows_per_workload(self, small_traces):
        result = table1(small_traces, scales={"CC-b": 0.08, "CC-e": 0.2})
        assert len(result.rows) == 2
        assert result.rows[0][0] == "CC-b"

    def test_table2_small_jobs_dominate(self, small_traces):
        result = table2(small_traces, max_k=6, max_jobs_per_workload=3000)
        assert any("Small jobs" in row[-1] for row in result.rows)
        assert all("small-job fraction" in note for note in result.notes)


class TestFigureExperiments:
    def test_figure1_has_cdfs_for_each_workload(self, small_traces):
        result = figure1(small_traces)
        assert len(result.rows) == 2
        assert "CC-b/input_bytes" in result.series

    def test_figure2_reports_slopes(self, small_traces):
        result = figure2(small_traces)
        assert any(row[0] == "CC-b" and row[1] == "input" for row in result.rows)
        slopes = [float(row[4]) for row in result.rows if row[4] != "-"]
        assert all(0.2 < slope < 2.0 for slope in slopes)

    def test_figure5_and_6_reaccess(self, small_traces):
        intervals = figure5(small_traces)
        fractions = figure6(small_traces)
        assert intervals.rows and fractions.rows
        for row in fractions.rows:
            for cell in row[1:]:
                assert cell.endswith("%")

    def test_figure8_includes_sine_references(self, small_traces):
        result = figure8(small_traces)
        labels = [row[0] for row in result.rows]
        assert "sine + 2" in labels and "sine + 20" in labels
        workload_peak = float(result.rows[0][1].split(":")[0])
        assert workload_peak > 1.0

    def test_figure9_has_average_row(self, small_traces):
        result = figure9(small_traces)
        assert result.rows[-1][0] == "average"

    def test_figure10_panels(self, small_traces):
        result = figure10(small_traces)
        weightings = {row[1] for row in result.rows}
        assert weightings == {"jobs", "bytes", "task-time"}


class TestSimulationExperiments:
    def test_swim_replay_rows(self, small_traces):
        result = swim_replay(small_traces["CC-e"], n_jobs=300, horizon_s=3600.0,
                             target_machines=10, seed=0)
        as_dict = dict((row[0], row[1]) for row in result.rows)
        assert as_dict["synthetic jobs"] == "300"
        assert int(as_dict["finished jobs"]) == 300

    def test_cache_ablation_orderings(self, small_traces):
        result = cache_policy_ablation(small_traces["CC-e"], max_simulated_jobs=600,
                                       n_nodes=20)
        rates = {row[0]: float(row[1].rstrip("%")) for row in result.rows}
        assert rates["no-cache"] == 0.0
        assert rates["unlimited"] >= rates["size-threshold+lru"] >= 0.0
        assert rates["size-threshold+lru"] > 0.0

    def test_burstiness_ablation_rows(self, small_traces):
        result = burstiness_metric_ablation(small_traces["CC-b"])
        assert any("outlier" in row[0] for row in result.rows)

    def test_k_selection_ablation(self, small_traces):
        result = k_selection_ablation(small_traces["CC-e"], max_k=6, max_jobs=1500)
        assert len(result.rows) == 5


class TestSuiteAndCli:
    def test_run_suite_subset_with_provided_traces(self, small_traces):
        results = run_suite(traces=small_traces, experiments=["table1", "figure8", "figure9"],
                            include_ablations=False, include_simulation=False)
        ids = [result.experiment_id for result in results]
        assert ids == ["table1", "figure8", "figure9"]
        report = render_suite(results)
        assert "figure9" in report

    def test_cli_generate_and_characterize(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["generate", "CC-e", "--scale", "0.02", "--seed", "1",
                     "--output", str(out)]) == 0
        assert out.exists()
        assert main(["characterize", "--trace", str(out), "--no-cluster"]) == 0
        captured = capsys.readouterr().out
        assert "Per-job data sizes" in captured

    def test_cli_synthesize_and_replay(self, tmp_path, capsys):
        out = tmp_path / "synthetic.jsonl"
        assert main(["synthesize", "--workload", "CC-e", "--scale", "0.05",
                     "--jobs", "150", "--hours", "1", "--machines", "5",
                     "--output", str(out)]) == 0
        assert out.exists()
        assert main(["replay", "--trace", str(out), "--nodes", "5"]) == 0
        captured = capsys.readouterr().out
        assert "replayed" in captured

    @pytest.mark.parametrize("command", [
        ["characterize", "--trace", "{missing}"],
        ["synthesize", "--trace", "{missing}", "--output", "{out}"],
        ["replay", "--trace", "{missing}"],
        ["anonymize", "--trace", "{missing}", "--output", "{out}"],
        ["compare", "--before-trace", "{missing}", "--after-workload", "CC-e",
         "--scale", "0.02"],
        ["engine", "convert", "--trace", "{missing}", "--output", "{out}"],
        ["engine", "ingest", "--store", "{store}", "--trace", "{missing}"],
    ], ids=lambda command: "-".join(word for word in command[:2] if not word.startswith("-")))
    def test_missing_trace_file_is_a_one_line_error(self, tmp_path, capsys, command):
        from repro.engine import ChunkedTraceStore

        store = ChunkedTraceStore.write(tmp_path / "store",
                                        load_workload("CC-e", seed=1, scale=0.02))
        paths = {"missing": str(tmp_path / "missing.jsonl.gz"), "out": str(tmp_path / "out"),
                 "store": store.directory}
        assert main([word.format(**paths) for word in command]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "missing.jsonl.gz" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_cli_bench_subset(self, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        assert main(["bench", "--scale", "0.02", "--experiments", "figure9",
                     "--no-simulation", "--output", str(report_path)]) == 0
        assert report_path.exists()
        assert "figure9" in report_path.read_text()
