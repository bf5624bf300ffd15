"""Engine integration: analysis fast paths, CLI subcommand, bounded memory."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.stats import empirical_cdf
from repro.engine import ChunkedTraceStore, Query, execute
from repro.traces import load_workload, write_jsonl


@pytest.fixture(scope="module")
def trace():
    return load_workload("CC-e", seed=4, scale=0.05)


class TestAnalysisFastPaths:
    def test_datasizes_accepts_either_representation(self, trace, analysis):
        from_jobs = analysis(trace, "data_sizes")
        from_columnar = analysis(trace.to_columnar(), "data_sizes")
        assert from_columnar.map_only_fraction == pytest.approx(from_jobs.map_only_fraction)
        for dimension in ("input_bytes", "shuffle_bytes", "output_bytes"):
            assert from_columnar.median(dimension) == pytest.approx(from_jobs.median(dimension))
            assert from_columnar.fraction_below_gb[dimension] == pytest.approx(
                from_jobs.fraction_below_gb[dimension])

    def test_empirical_cdf_takes_arrays_without_copy_semantics_change(self, trace):
        values = trace.dimension("input_bytes")
        from_array = empirical_cdf(values)
        from_list = empirical_cdf(list(values))
        np.testing.assert_allclose(from_array.values, from_list.values)

    def test_empirical_cdf_does_not_mutate_input(self, trace):
        values = trace.to_columnar().dimension("input_bytes")
        before = values.copy()
        empirical_cdf(values)  # sorts internally; must not sort the caller's array
        np.testing.assert_array_equal(values, before)


class TestEngineCli:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory, trace):
        root = tmp_path_factory.mktemp("clistore")
        trace_path = root / "trace.jsonl.gz"
        write_jsonl(trace, trace_path)
        store_dir = root / "store"
        assert main(["engine", "convert", "--trace", str(trace_path),
                     "--output", str(store_dir), "--chunk-rows", "64"]) == 0
        return store_dir

    @staticmethod
    def _field(out, label):
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] == label:
                return parts[1]
        raise AssertionError("no %r line in output:\n%s" % (label, out))

    def test_convert_then_info(self, store_dir, trace, capsys):
        assert main(["engine", "info", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert self._field(out, "n_jobs") == str(len(trace))

    def test_query_aggregate(self, store_dir, trace, capsys):
        assert main(["engine", "query", "--store", str(store_dir),
                     "--where", "input_bytes > 1e6",
                     "--agg", "count", "sum:input_bytes"]) == 0
        out = capsys.readouterr().out
        naive = sum(1 for job in trace if job.input_bytes > 1e6)
        assert self._field(out, "count") == str(naive)
        assert "scanned" in out

    def test_query_top_k(self, store_dir, trace, capsys):
        assert main(["engine", "query", "--store", str(store_dir),
                     "--top-k", "input_bytes:2", "--columns", "job_id"]) == 0
        out = capsys.readouterr().out
        biggest = max(trace, key=lambda job: job.input_bytes)
        assert biggest.job_id in out

    def test_row_flags_reject_aggregate_flags(self, store_dir, capsys):
        # Analysis errors exit nonzero with a one-line message, no traceback.
        assert main(["engine", "query", "--store", str(store_dir),
                     "--top-k", "duration_s:2", "--agg", "count"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["engine", "query", "--store", str(store_dir),
                     "--limit", "3", "--group-by", "framework"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["engine", "query", "--store", str(store_dir),
                     "--top-k", "duration_s:notanumber"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_numeric_aggregate_over_string_column_is_a_one_line_error(self, store_dir,
                                                                       capsys):
        for extra in (["--agg", "count:name"], ["--agg", "sum:job_id"],
                      ["--group-by", "framework", "--agg", "max:job_id"]):
            assert main(["engine", "query", "--store", str(store_dir)] + extra) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert extra[-1].split(":")[1] in err

    def test_group_by_hour_prints_in_numeric_order_and_json_is_unchanged(self, store_dir,
                                                                         capsys):
        import json

        argv = ["engine", "query", "--store", str(store_dir),
                "--group-by", "submit_hour", "--agg", "count"]
        assert main(argv) == 0
        hours = [float(line.split()[0]) for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("--")]
        assert len(hours) > 11 and hours == sorted(hours)
        # The JSON serializer sorts keys as strings ("10.0" < "2.0"), as it
        # always did: the result's own ordering never reaches these bytes.
        assert main(argv + ["--json"]) == 0
        out = capsys.readouterr().out
        groups = json.loads(out, object_pairs_hook=list)
        keys = [key for key, _value in dict(groups)["groups"]]
        assert keys == sorted(str(hour) for hour in hours) and keys != [str(h) for h in hours]
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_query_parallel_matches_serial(self, store_dir, capsys):
        assert main(["engine", "query", "--store", str(store_dir), "--agg", "count"]) == 0
        serial_out = capsys.readouterr().out.splitlines()[0]
        assert main(["engine", "query", "--store", str(store_dir),
                     "--agg", "count", "--parallel", "2"]) == 0
        parallel_out = capsys.readouterr().out.splitlines()[0]
        assert serial_out == parallel_out


class TestIndexCli:
    @pytest.fixture(scope="class")
    def indexed_store(self, tmp_path_factory, trace):
        root = tmp_path_factory.mktemp("ixcli")
        trace_path = root / "trace.jsonl.gz"
        write_jsonl(trace, trace_path)
        store_dir = str(root / "store")
        assert main(["engine", "convert", "--trace", str(trace_path),
                     "--output", store_dir, "--chunk-rows", "64"]) == 0
        assert main(["engine", "index", "build", "--store", store_dir]) == 0
        return store_dir

    def test_build_reports_columns(self, indexed_store, capsys):
        assert main(["engine", "index", "build", "--store", indexed_store]) == 0
        out = capsys.readouterr().out
        assert "indexed" in out
        assert "input_bytes" in out and "sorted" in out
        assert "framework" in out and "inverted" in out

    def test_status_fresh(self, indexed_store, capsys):
        assert main(["engine", "index", "status", "--store", indexed_store]) == 0
        out = capsys.readouterr().out
        assert "fresh" in out

    def test_status_json(self, indexed_store, capsys):
        import json

        assert main(["engine", "index", "status", "--store", indexed_store,
                     "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["fresh"] is True
        assert info["columns"]["framework"]["kind"] == "inverted"
        assert info["on_disk_bytes"] > 0

    def test_status_without_sidecar_fails(self, tmp_path_factory, trace, capsys):
        root = tmp_path_factory.mktemp("noix")
        trace_path = root / "trace.jsonl.gz"
        write_jsonl(trace, trace_path)
        bare = str(root / "store")
        assert main(["engine", "convert", "--trace", str(trace_path),
                     "--output", bare, "--chunk-rows", "64"]) == 0
        assert main(["engine", "index", "status", "--store", bare]) == 1
        assert "no index sidecar" in capsys.readouterr().out

    def test_query_explain_prints_plan_only(self, indexed_store, trace, capsys):
        value = trace.jobs[5].input_bytes
        assert main(["engine", "query", "--store", indexed_store,
                     "--where", "input_bytes == %r" % value,
                     "--limit", "5", "--explain"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("plan: index-probe")
        assert "chunks to touch" in out
        assert "scanned" not in out  # nothing executed

    def test_query_json_carries_plan_and_matches_scan(self, indexed_store,
                                                      trace, capsys):
        import json

        argv = ["engine", "query", "--store", indexed_store,
                "--where", "framework == %s" % trace.jobs[0].framework,
                "--agg", "count", "--json"]
        assert main(argv) == 0
        via_index = json.loads(capsys.readouterr().out)
        assert via_index["plan"]["used_index"] is True
        assert main(argv + ["--no-index"]) == 0
        via_scan = json.loads(capsys.readouterr().out)
        assert via_scan["plan"]["used_index"] is False
        assert via_index["aggregates"] == via_scan["aggregates"]

    def test_query_footer_shows_plan(self, indexed_store, capsys):
        assert main(["engine", "query", "--store", indexed_store,
                     "--agg", "count"]) == 0
        out = capsys.readouterr().out
        assert "-- plan:" in out

    def test_info_sizes_lists_index_bytes(self, indexed_store, capsys):
        assert main(["engine", "info", "--store", indexed_store,
                     "--sizes"]) == 0
        out = capsys.readouterr().out
        assert "index sidecar bytes (fresh)" in out
        assert main(["engine", "info", "--store", indexed_store,
                     "--json"]) == 0
        import json

        info = json.loads(capsys.readouterr().out)
        assert info["indexes"]["fresh"] is True

    def test_stale_status_and_query_warning(self, indexed_store, capsys):
        import json
        import os

        manifest_path = os.path.join(indexed_store, "index.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["manifest_sequence"] += 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        try:
            assert main(["engine", "index", "status",
                         "--store", indexed_store]) == 1
            assert "STALE" in capsys.readouterr().out
            assert main(["engine", "query", "--store", indexed_store,
                         "--where", "input_bytes > 1e6", "--agg", "count"]) == 0
            captured = capsys.readouterr()
            assert "stale index sidecar ignored" in captured.err
        finally:
            assert main(["engine", "index", "build",
                         "--store", indexed_store]) == 0
            capsys.readouterr()

    def test_drop_removes_sidecar(self, indexed_store, capsys):
        assert main(["engine", "index", "drop", "--store", indexed_store]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["engine", "index", "status", "--store", indexed_store]) == 1


class TestBoundedMemory:
    def test_store_scan_touches_one_chunk_at_a_time(self, trace, tmp_path, monkeypatch):
        """The aggregate path must never hold more than one chunk's arrays."""
        store = ChunkedTraceStore.write(tmp_path / "store", trace, chunk_rows=50)
        live = {"current": 0, "peak": 0}
        original = ChunkedTraceStore.read_chunk

        def tracking_read_chunk(self, index, columns=None):
            block = original(self, index, columns=columns)
            live["current"] += 1
            live["peak"] = max(live["peak"], live["current"])
            return block

        monkeypatch.setattr(ChunkedTraceStore, "read_chunk", tracking_read_chunk)
        query = Query().filter("input_bytes", ">", 0.0).aggregate(s=("sum", "input_bytes"))

        # Wrap execution so each block is "released" after its update: iterate
        # manually mirroring the streaming loop and assert one block is live.
        blocks_seen = 0
        for block in store.iter_chunks(columns=["input_bytes"]):
            blocks_seen += 1
            live["current"] -= 1
        assert blocks_seen == store.n_chunks
        assert live["peak"] == 1  # loads are strictly one-at-a-time

        result = execute(store, query)
        assert result.aggregates["s"] == pytest.approx(
            float(np.nansum(trace.dimension("input_bytes"))))

    def test_streamed_filtered_aggregate_is_flat_in_the_job_count(self, memory_stores,
                                                                   peak_bytes):
        """A filtered aggregate over a store holds one chunk at a time: four
        times the jobs peak within 25 % of the smaller store, while loading
        the store whole grows with it (traced allocations, not RSS)."""
        query = (Query().filter("input_bytes", ">", 1e9)
                 .aggregate(jobs=("count", "input_bytes"), total=("sum", "input_bytes")))
        execute(memory_stores[0], query)  # one-time allocations
        streamed = [peak_bytes(lambda store=store: execute(store, query))
                    for store in memory_stores]
        loaded = [peak_bytes(store.load_columnar) for store in memory_stores]
        assert loaded[1] > 2 * loaded[0]
        assert streamed[1] <= 1.25 * streamed[0]
