"""Cost-aware planner: access-path choices and bit-identical results."""

import numpy as np
import pytest

from repro.engine import (
    ChunkedTraceStore,
    ColumnBlock,
    Query,
    build_indexes,
    execute,
    execute_planned,
    plan_query,
)
from repro.traces import Job, Trace


def make_jobs(n, seed=0):
    rng = np.random.default_rng(seed)
    jobs = []
    for index in range(n):
        jobs.append(Job(
            job_id="pl%05d" % index,
            submit_time_s=float(index * 3),
            duration_s=float(rng.lognormal(3, 1.5)),
            input_bytes=float(10 ** rng.uniform(3, 11)),
            shuffle_bytes=float(rng.lognormal(10, 2)),
            output_bytes=float(rng.lognormal(9, 2)),
            map_task_seconds=float(rng.lognormal(4, 1)),
            reduce_task_seconds=float(rng.lognormal(3, 1)),
            map_tasks=int(rng.integers(1, 50)),
            reduce_tasks=int(rng.integers(0, 10)),
            framework=["hive", "pig", "native"][index % 3],
            # clustered: runs of 96 consecutive rows share a phase label, so
            # each phase lives in ~2 of the 64-row chunks
            workload="phase%03d" % (index // 96),
        ))
    return jobs


#: ``input_bytes`` of row 321 of the fixture store — held by that row alone.
POINT_VALUE = make_jobs(640, seed=1)[321].input_bytes


@pytest.fixture(scope="module")
def store(tmp_path_factory, store_origin, write_store_as):
    """Indexed, written directly or migrated from a legacy layout."""
    directory = tmp_path_factory.mktemp("plstore") / "store"
    trace = Trace(make_jobs(640, seed=1), name="plan")
    handle = write_store_as(store_origin, directory, trace, chunk_rows=64)
    build_indexes(handle).save()
    return ChunkedTraceStore(directory)


@pytest.fixture(scope="module")
def jobs():
    return make_jobs(640, seed=1)


def assert_identical(store, query):
    """Planner output must be bit-identical to the raw scan path."""
    planned = execute(store, query)
    scanned = execute(store, query, use_planner=False)
    assert planned.plan is not None
    if planned.aggregates is not None:
        assert planned.aggregates == scanned.aggregates
    elif planned.groups is not None:
        assert planned.groups == scanned.groups
    else:
        assert planned.row_dicts() == scanned.row_dicts()
    return planned


class TestAccessPaths:
    def test_unfiltered_count_is_metadata_only(self, store):
        result = assert_identical(store, Query().count())
        assert result.plan.access_path == "metadata"
        assert result.chunks_scanned == 0

    def test_point_count_answered_from_index(self, store):
        value = execute(store, Query().limit(1)).row_dicts()[0]["input_bytes"]
        result = assert_identical(
            store, Query().filter("input_bytes", "==", value).count())
        assert result.plan.access_path == "index-count"
        assert result.chunks_scanned == 0

    def test_point_lookup_probes_exact_rows(self, store, jobs):
        value = jobs[321].input_bytes
        result = assert_identical(
            store, Query().filter("input_bytes", "==", value))
        assert result.plan.access_path == "index-probe"
        assert result.chunks_scanned <= 1

    def test_top_k_reads_index_tail(self, store):
        result = assert_identical(store, Query().top("duration_s", 7))
        assert result.plan.access_path == "index-topk"
        assert result.chunks_scanned < store.n_chunks

    def test_top_k_smallest(self, store):
        result = assert_identical(
            store, Query().top("duration_s", 7, largest=False))
        assert result.plan.access_path == "index-topk"

    def test_unselective_count_still_answered_from_index(self, store):
        # even at 100% selectivity a pure count needs no chunk decoded
        result = assert_identical(
            store, Query().filter("input_bytes", ">", 0.0).count())
        assert result.plan.access_path == "index-count"
        assert result.chunks_scanned == 0

    def test_unselective_aggregate_falls_back_to_scan(self, store):
        # a sum must decode data; the index proves ~every chunk matches, so
        # probing buys nothing and the planner keeps the plain scan
        result = assert_identical(
            store, Query().filter("input_bytes", ">", 0.0)
                          .aggregate(total=("sum", "input_bytes")))
        assert result.plan.access_path in ("scan", "zone-scan")
        assert result.chunks_scanned == store.n_chunks

    def test_no_index_flag_disables_probing(self, store, jobs):
        value = jobs[321].input_bytes
        query = Query().filter("input_bytes", "==", value).count()
        planned = execute_planned(store, query, use_index=False)
        assert not planned.plan.used_index
        assert planned.aggregates == execute(
            store, query, use_planner=False).aggregates

    def test_plan_is_inspectable(self, store, jobs):
        query = Query().filter("input_bytes", "==", jobs[321].input_bytes)
        plan = plan_query(store, query)
        as_dict = plan.to_dict()
        assert as_dict["access_path"] == "index-probe"
        assert as_dict["chunks_total"] == store.n_chunks
        assert as_dict["chunks_planned"] <= 1
        assert "input_bytes" in as_dict["index_columns"]
        assert plan.describe()  # multi-line explain text renders
        assert plan.summary()


class TestLimitEarlyTermination:
    def test_clustered_limit_touches_few_chunks(self, store):
        # phase007 occupies rows 672..768 -> 2-3 of 10 chunks
        query = (Query().filter("workload", "==", "phase003")
                 .limit(5).project(["job_id", "workload"]))
        result = assert_identical(store, query)
        assert result.plan.used_index
        assert result.chunks_scanned + result.plan.chunks_planned <= 3

    def test_range_limit_stops_early(self, store):
        query = Query().filter("submit_time_s", "<", 300.0).limit(10)
        result = assert_identical(store, query)
        assert result.plan.used_index
        assert result.chunks_scanned <= 2


class TestEquivalenceBattery:
    QUERIES = [
        Query().filter("input_bytes", ">", 1e8).count(),
        Query().filter("input_bytes", ">", 1e8)
               .aggregate(total=("sum", "input_bytes"),
                          mean=("mean", "duration_s")),
        Query().filter("framework", "==", "pig").count(),
        Query().filter("framework", "!=", "pig").count(),
        Query().filter("framework", "==", "absent").count(),
        Query().filter("framework", "==", "hive").limit(13),
        Query().filter("map_tasks", "finite").count(),
        Query().filter("submit_time_s", ">=", 900.0)
               .filter("input_bytes", "<", 1e9).count(),
        Query().top("input_bytes", 25).project(["job_id", "input_bytes"]),
        Query().top("map_tasks", 25),  # heavily tied values
        Query().top("map_tasks", 25, largest=False),
        Query().filter("input_bytes", ">", 1e8).group_by("framework").count(),
        Query().filter("duration_s", "<=", 40.0).limit(7),
        Query().limit(9),
        # index-probe: one row, an absent value, a tie spread over chunks
        Query().filter("input_bytes", "==", POINT_VALUE)
               .project(["job_id", "input_bytes"]),
        Query().filter("input_bytes", "==", 12345.5),
        Query().filter("map_tasks", "==", 7),
        Query().filter("map_tasks", "==", 7).limit(3),
        # index-topk: every row in the last chunk, then rows across chunks
        Query().top("submit_time_s", 5),
        Query().top("duration_s", 12).project(["job_id", "duration_s"]),
    ]

    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    def test_planned_equals_scan(self, store, query_index):
        assert_identical(store, self.QUERIES[query_index])

    def test_results_match_naive_jobs(self, store, jobs):
        threshold = 1e8
        result = execute(
            store, Query().filter("input_bytes", ">", threshold).count())
        naive = sum(1 for job in jobs if job.input_bytes > threshold)
        assert result.aggregates["count"] == naive

    def test_top_k_ties_identical_across_paths(self, store):
        # map_tasks has ~50 distinct values over 640 rows: the boundary of
        # any top-k is tied, which is exactly where tie-break bugs live
        for k in (1, 5, 24, 50, 640):
            for largest in (True, False):
                query = (Query().top("map_tasks", k, largest=largest)
                         .project(["job_id", "map_tasks"]))
                assert_identical(store, query)

    def test_gathers_plan_exactly_the_chunks_holding_their_rows(self, store):
        rows_per_chunk = store.chunk_rows()[0]
        checked = set()
        for query in self.QUERIES:
            result = execute(store, query)
            rows = result.rows
            if (result.plan.access_path not in ("index-probe", "index-topk")
                    or (rows.n_rows and not rows.has_column("job_id"))):
                continue
            ids = rows.column("job_id").tolist() if rows.n_rows else []
            held = {int(job_id[2:]) // rows_per_chunk for job_id in ids}
            assert result.plan.chunks_planned == len(held) == result.chunks_scanned
            checked.add(len(held))
        assert {0, 1} <= checked and max(checked) > 1

    def test_tied_point_value_spans_chunks(self, store):
        result = execute(store, Query().filter("map_tasks", "==", 7))
        assert result.plan.access_path == "index-probe"
        assert result.plan.chunks_planned > 1
        assert result.rows.n_rows > result.plan.chunks_planned  # ties in a chunk


def _forbid(name):
    def forbidden(*args, **kwargs):
        raise AssertionError("%s called on an index gather" % name)
    return forbidden


class TestGatherCost:
    """Index gathers pay for their rows, not for sorting and grouping them."""

    def test_single_row_lookup_skips_numpy_bookkeeping(self, store, monkeypatch):
        query = (Query().filter("input_bytes", "==", POINT_VALUE)
                 .project(["job_id", "input_bytes"]))
        expected = execute(store, query).row_dicts()  # warms the block cache
        for name in ("unique", "lexsort", "bincount"):
            monkeypatch.setattr(np, name, _forbid("np." + name))
        monkeypatch.setattr(ColumnBlock, "concat", staticmethod(_forbid("concat")))
        result = execute(store, query)
        assert result.plan.access_path == "index-probe"
        assert result.row_dicts() == expected and len(expected) == 1

    def test_one_chunk_top_k_skips_concat(self, store, monkeypatch):
        query = Query().top("submit_time_s", 5)
        expected = execute(store, query).row_dicts()
        monkeypatch.setattr(ColumnBlock, "concat", staticmethod(_forbid("concat")))
        result = execute(store, query)
        assert result.plan.access_path == "index-topk"
        assert result.plan.chunks_planned == 1
        assert result.row_dicts() == expected
