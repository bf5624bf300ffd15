"""Operator correctness: engine queries vs. naive Job-list computations."""

import numpy as np
import pytest

from repro.engine import (
    ChunkedTraceStore,
    ColumnarTrace,
    HistogramSketch,
    Predicate,
    Query,
    execute,
    make_aggregate,
    parse_aggregate_spec,
)
from repro.errors import AnalysisError
from repro.traces import Job, Trace


def build_trace(n_jobs=200):
    rng = np.random.default_rng(42)
    jobs = []
    for index in range(n_jobs):
        jobs.append(Job(
            job_id="q%04d" % index,
            submit_time_s=float(index * 10),
            duration_s=float(rng.lognormal(3, 1.5)),
            input_bytes=float(10 ** rng.uniform(2, 12)),
            shuffle_bytes=0.0 if index % 3 == 0 else float(rng.lognormal(12, 3)),
            output_bytes=float(rng.lognormal(10, 3)),
            map_task_seconds=float(rng.lognormal(4, 1)),
            reduce_task_seconds=0.0 if index % 3 == 0 else float(rng.lognormal(3, 1)),
            framework=str(["hive", "pig", "native"][index % 3]),
        ))
    return Trace(jobs, name="ops")


@pytest.fixture(scope="module")
def trace():
    return build_trace()


@pytest.fixture(scope="module")
def columnar(trace):
    return trace.to_columnar()


@pytest.fixture(scope="module")
def store(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("opstore") / "store"
    return ChunkedTraceStore.write(directory, trace, chunk_rows=32)


@pytest.fixture(scope="module", params=["columnar", "store"])
def source(request, columnar, store):
    return columnar if request.param == "columnar" else store


class TestFilterAggregate:
    def test_count_sum_mean_min_max_match_naive(self, trace, source):
        threshold = 1e8
        query = (Query().filter("input_bytes", ">", threshold)
                 .aggregate(n=("count", "input_bytes"),
                            total=("sum", "input_bytes"),
                            mean=("mean", "duration_s"),
                            lo=("min", "duration_s"),
                            hi=("max", "duration_s")))
        result = execute(source, query)
        naive = [job for job in trace if job.input_bytes > threshold]
        assert result.aggregates["n"] == len(naive)
        assert result.aggregates["total"] == pytest.approx(sum(j.input_bytes for j in naive))
        assert result.aggregates["mean"] == pytest.approx(
            np.mean([j.duration_s for j in naive]))
        assert result.aggregates["lo"] == pytest.approx(min(j.duration_s for j in naive))
        assert result.aggregates["hi"] == pytest.approx(max(j.duration_s for j in naive))

    def test_multiple_predicates_are_anded(self, trace, source):
        query = (Query().filter("input_bytes", ">", 1e6)
                 .filter("framework", "==", "hive").count())
        result = execute(source, query)
        naive = [j for j in trace if j.input_bytes > 1e6 and j.framework == "hive"]
        assert result.aggregates["count"] == len(naive)

    def test_derived_column_aggregate(self, trace, source):
        query = Query().aggregate(moved=("sum", "total_bytes"))
        assert execute(source, query).aggregates["moved"] == pytest.approx(trace.bytes_moved())

    def test_percentile_sketch_close_to_exact(self, trace, source):
        query = Query().aggregate(p50=("p50", "input_bytes"), p95=("p95", "input_bytes"))
        result = execute(source, query)
        values = trace.dimension("input_bytes")
        for label, q in (("p50", 50), ("p95", 95)):
            exact = float(np.percentile(values, q))
            # The log-spaced sketch has ~7% bin resolution.
            assert result.aggregates[label] == pytest.approx(exact, rel=0.15)

    def test_cdf_sketch_fractions(self, source, trace):
        result = execute(source, Query().aggregate(cdf=("cdf", "input_bytes")))
        points = result.aggregates["cdf"]
        assert points[-1][1] == pytest.approx(1.0)
        fractions = [fraction for _value, fraction in points]
        assert fractions == sorted(fractions)
        # Compare with the exact CDF at the sketch's midpoint values.
        values = np.sort(trace.dimension("input_bytes"))
        mid_value, mid_fraction = points[len(points) // 2]
        exact_fraction = np.searchsorted(values, mid_value, side="right") / values.size
        assert mid_fraction == pytest.approx(exact_fraction, abs=0.05)

    def test_empty_match_aggregates(self, source):
        query = (Query().filter("input_bytes", ">", 1e30)
                 .aggregate(n=("count", "input_bytes"), m=("mean", "input_bytes"),
                            lo=("min", "input_bytes")))
        result = execute(source, query)
        assert result.aggregates == {"n": 0, "m": None, "lo": None}


class TestGroupBy:
    def test_grouped_aggregates_match_naive(self, trace, source):
        query = (Query().group_by("framework")
                 .aggregate(n=("count", "duration_s"), total=("sum", "input_bytes")))
        result = execute(source, query)
        expected = {}
        for job in trace:
            entry = expected.setdefault(job.framework, [0, 0.0])
            entry[0] += 1
            entry[1] += job.input_bytes
        assert set(result.groups) == set(expected)
        for key, (count, total) in expected.items():
            assert result.groups[key]["n"] == count
            assert result.groups[key]["total"] == pytest.approx(total)

    def test_group_by_without_aggregate_raises(self, source):
        with pytest.raises(AnalysisError):
            execute(source, Query().group_by("framework"))

    def test_group_by_numeric_with_missing_values(self, tmp_path):
        """NaN keys pool under one None group instead of being dropped."""
        jobs = []
        for index, map_tasks in enumerate([1, None, 1, None, 2, None]):
            jobs.append(Job(job_id="g%d" % index, submit_time_s=float(index),
                            duration_s=1.0, input_bytes=10.0, shuffle_bytes=0.0,
                            output_bytes=1.0, map_task_seconds=1.0,
                            reduce_task_seconds=0.0, map_tasks=map_tasks))
        store = ChunkedTraceStore.write(tmp_path / "store", Trace(jobs), chunk_rows=2)
        result = execute(store, Query().group_by("map_tasks")
                         .aggregate(n=("count", "input_bytes")))
        assert result.groups == {1.0: {"n": 2}, 2.0: {"n": 1}, None: {"n": 3}}

    def test_group_by_high_cardinality_column(self, tmp_path):
        jobs = [Job(job_id="u%03d" % index, submit_time_s=float(index), duration_s=1.0,
                    input_bytes=float(index), shuffle_bytes=0.0, output_bytes=1.0,
                    map_task_seconds=1.0, reduce_task_seconds=0.0)
                for index in range(50)]
        store = ChunkedTraceStore.write(tmp_path / "store", Trace(jobs), chunk_rows=16)
        result = execute(store, Query().group_by("job_id")
                         .aggregate(s=("sum", "input_bytes")))
        assert len(result.groups) == 50
        assert result.groups["u007"]["s"] == 7.0


    def test_numeric_keys_ascend_numerically_with_none_last(self, tmp_path):
        """Not in string order (0, 1, 10, 11, 2, ...), serial or parallel."""
        from repro.engine import ParallelExecutor

        jobs = [Job(job_id="h%03d" % index, submit_time_s=index * 1800.0, duration_s=1.0,
                    input_bytes=1.0, shuffle_bytes=0.0, output_bytes=1.0,
                    map_task_seconds=1.0, reduce_task_seconds=0.0,
                    map_tasks=None if index % 5 == 0 else index % 13)
                for index in range(60)]
        store = ChunkedTraceStore.write(tmp_path / "store", Trace(jobs), chunk_rows=16)
        hours = execute(store, Query().group_by("submit_hour").count("n"))
        assert list(hours.groups) == [float(hour) for hour in range(30)]
        query = Query().group_by("map_tasks").count("n")
        expected = [float(value) for value in range(13)] + [None]
        assert list(execute(store, query).groups) == expected
        assert list(ParallelExecutor(processes=2).run(store, query).groups) == expected

    def test_string_keys_stay_lexicographic(self, source):
        groups = execute(source, Query().group_by("job_id").count("n")).groups
        assert list(groups) == sorted(groups) and len(groups) == 200


class TestNumericAggregateOverStringColumn:
    """A typed error naming the column and the op, never a numpy TypeError."""

    @pytest.mark.parametrize("query", [
        Query().aggregate(n=("count", "framework")),
        Query().aggregate(s=("sum", "framework")),
        Query().aggregate(p=("p50", "job_id")),
        Query().group_by("framework").aggregate(m=("max", "job_id")),
        Query().group_by("submit_hour").aggregate(m=("mean", "framework")),
    ])
    def test_raises_analysis_error(self, source, query):
        (_label, op, column), = query.aggregates
        with pytest.raises(AnalysisError) as excinfo:
            execute(source, query)
        assert repr(column) in str(excinfo.value) and repr(op) in str(excinfo.value)

    def test_rows_op_still_counts_rows_whatever_the_column(self, source):
        assert execute(source, Query().count("n")).aggregates == {"n": 200}


class TestTopKAndLimit:
    def test_top_k_largest_matches_sort(self, trace, source):
        query = Query().top("duration_s", 7).project(["job_id", "duration_s"])
        result = execute(source, query)
        rows = result.row_dicts()
        expected = sorted(trace, key=lambda job: job.duration_s, reverse=True)[:7]
        assert [row["job_id"] for row in rows] == [job.job_id for job in expected]
        values = [row["duration_s"] for row in rows]
        assert values == sorted(values, reverse=True)

    def test_top_k_smallest(self, trace, source):
        query = Query().top("input_bytes", 5, largest=False).project(["job_id"])
        rows = execute(source, query).row_dicts()
        expected = sorted(trace, key=lambda job: job.input_bytes)[:5]
        assert [row["job_id"] for row in rows] == [job.job_id for job in expected]

    def test_top_k_with_filter(self, trace, source):
        query = (Query().filter("framework", "==", "pig")
                 .top("input_bytes", 3).project(["job_id", "framework"]))
        rows = execute(source, query).row_dicts()
        assert all(row["framework"] == "pig" for row in rows)
        expected = sorted((j for j in trace if j.framework == "pig"),
                          key=lambda job: job.input_bytes, reverse=True)[:3]
        assert [row["job_id"] for row in rows] == [job.job_id for job in expected]

    def test_limit_short_circuits_store_scan(self, store):
        query = Query().limit(5).project(["job_id"])
        result = execute(store, query)
        assert result.rows.n_rows == 5
        assert result.chunks_scanned == 1  # later chunks never read
        assert result.chunks_scanned + result.chunks_skipped < store.n_chunks

    def test_collect_all_columns_without_projection(self, source):
        result = execute(source, Query().filter("framework", "==", "native").limit(2))
        rows = result.row_dicts()
        assert len(rows) == 2
        assert {"job_id", "input_bytes", "submit_time_s"} <= set(rows[0])

    def test_aggregate_and_top_k_conflict(self, source):
        query = Query().count().top("duration_s", 2)
        with pytest.raises(AnalysisError):
            execute(source, query)


class TestZoneMaps:
    def test_unmatchable_filter_skips_all_chunks(self, store):
        query = Query().filter("input_bytes", ">", 1e30).count()
        result = execute(store, query)
        assert result.aggregates["count"] == 0
        assert result.chunks_scanned == 0
        assert result.chunks_skipped == store.n_chunks

    def test_time_range_filter_skips_some_chunks(self, store):
        # Data is sorted by submit time, so a tight window prunes most chunks.
        query = (Query().filter("submit_time_s", ">=", 0.0)
                 .filter("submit_time_s", "<", 300.0).count())
        result = execute(store, query)
        assert result.aggregates["count"] == 30
        assert result.chunks_skipped > 0
        assert result.chunks_scanned < store.n_chunks

    def test_pruning_never_changes_answers(self, store, columnar):
        query = Query().filter("duration_s", ">", 50.0).aggregate(
            n=("count", "duration_s"), s=("sum", "duration_s"))
        pruned = execute(store, query)
        unpruned = execute(columnar, query)
        assert pruned.aggregates["n"] == unpruned.aggregates["n"]
        assert pruned.aggregates["s"] == pytest.approx(unpruned.aggregates["s"])


class TestAggregateStates:
    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(10, 3, size=10000)
        for op in ("count", "sum", "min", "max", "mean", "p90"):
            whole = make_aggregate(op)
            whole.update(values)
            left, right = make_aggregate(op), make_aggregate(op)
            left.update(values[:3000])
            right.update(values[3000:])
            left.merge(right)
            assert left.result() == pytest.approx(whole.result())

    def test_sketch_handles_zeros_and_nans(self):
        sketch = HistogramSketch()
        sketch.update(np.array([0.0, 0.0, 1.0, 10.0, float("nan")]))
        assert sketch.n == 4
        assert sketch.zero_count == 2
        assert sketch.percentile(0) == 0.0
        assert sketch.percentile(100) == pytest.approx(10.0)

    def test_sketch_rejects_negative(self):
        with pytest.raises(AnalysisError):
            HistogramSketch().update(np.array([-1.0]))

    def test_unknown_op_raises(self):
        with pytest.raises(AnalysisError):
            make_aggregate("median-of-medians")

    def test_parse_aggregate_spec(self):
        assert parse_aggregate_spec("count") == ("count", "count", "submit_time_s")
        assert parse_aggregate_spec("sum:input_bytes") == ("sum:input_bytes", "sum", "input_bytes")
        label, op, column = parse_aggregate_spec("percentile:99.5:duration_s")
        assert op == "percentile:99.5" and column == "duration_s"
        with pytest.raises(AnalysisError):
            parse_aggregate_spec("nonsense")


class TestPredicates:
    def test_bad_op_raises(self):
        with pytest.raises(AnalysisError):
            Predicate("input_bytes", "~=", 1)

    def test_finite_keeps_recorded_rows(self):
        jobs = [
            Job(job_id="a", submit_time_s=0.0, duration_s=1.0, input_bytes=1.0,
                shuffle_bytes=0.0, output_bytes=1.0, map_task_seconds=1.0,
                reduce_task_seconds=0.0, map_tasks=4),
            Job(job_id="b", submit_time_s=1.0, duration_s=1.0, input_bytes=1.0,
                shuffle_bytes=0.0, output_bytes=1.0, map_task_seconds=1.0,
                reduce_task_seconds=0.0, map_tasks=None),
        ]
        columnar = ColumnarTrace.from_jobs(jobs)
        result = execute(columnar, Query().filter("map_tasks", "finite").count())
        assert result.aggregates["count"] == 1

    def test_numeric_column_vs_non_numeric_value_raises(self):
        jobs = [Job(job_id="a", submit_time_s=0.0, duration_s=1.0, input_bytes=1.0,
                    shuffle_bytes=0.0, output_bytes=1.0, map_task_seconds=1.0,
                    reduce_task_seconds=0.0)]
        columnar = ColumnarTrace.from_jobs(jobs)
        with pytest.raises(AnalysisError):
            execute(columnar, Query().filter("input_bytes", "==", "abc").count())

    def test_zone_admission_logic(self):
        predicate = Predicate("x", ">", 10.0)
        assert not predicate.admits_zone([0.0, 10.0])
        assert predicate.admits_zone([0.0, 10.5])
        assert predicate.admits_zone(None)
        equals = Predicate("x", "==", 5.0)
        assert equals.admits_zone([0.0, 10.0])
        assert not equals.admits_zone([6.0, 10.0])

    def test_zone_nan_bounds_admit(self):
        # A NaN bound means the zone is unreliable (hand-written / corrupted
        # manifest); skipping on it would silently drop rows, so it must admit.
        nan = float("nan")
        for zone in ([nan, nan], [0.0, nan], [nan, 5.0]):
            assert Predicate("x", ">", 10.0).admits_zone(zone)
            assert Predicate("x", "==", 1.0).admits_zone(zone)
            assert Predicate("x", "<=", -1.0).admits_zone(zone)

    def test_zone_infinite_bounds_admit(self):
        zone = [float("-inf"), float("inf")]
        assert Predicate("x", "==", 1.0).admits_zone(zone)
        assert Predicate("x", "<", 1.0).admits_zone(zone)
        assert Predicate("x", ">", 1.0).admits_zone(zone)

    def test_zone_absent_column_admits(self):
        # Absent and string columns have no zone in the manifest -> None -> scan.
        assert Predicate("framework", "==", "hive").admits_zone(None)
        assert Predicate("no_such_column", "<", 0.0).admits_zone(None)

    def test_zone_unparsable_value_admits(self):
        assert Predicate("x", "==", "abc").admits_zone([0.0, 1.0])

    def test_zone_finite_and_ne_always_admit(self):
        # "finite" matches NaN-free rows the zone says nothing about; "!="
        # can match inside any zone.
        assert Predicate("x", "finite").admits_zone([0.0, 1.0])
        assert Predicate("x", "!=", 5.0).admits_zone([6.0, 7.0])

    def test_zone_boundary_equality_semantics(self):
        zone = [0.0, 1.0]
        assert Predicate("x", "<=", 0.0).admits_zone(zone)
        assert not Predicate("x", "<", 0.0).admits_zone(zone)
        assert Predicate("x", ">=", 1.0).admits_zone(zone)
        assert not Predicate("x", ">", 1.0).admits_zone(zone)
        assert Predicate("x", "==", 0.0).admits_zone(zone)
        assert Predicate("x", "==", 1.0).admits_zone(zone)
        assert not Predicate("x", "==", 1.0000001).admits_zone(zone)
