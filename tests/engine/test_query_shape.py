"""What a query says about itself before it runs: the columns a scan must
decode, whether it is a pure aggregate, and the shapes it refuses."""

import pytest

from repro.engine import Predicate, Query
from repro.errors import AnalysisError


@pytest.mark.parametrize("query, columns", [
    (Query(), None),
    (Query().project(["input_bytes"]), ["input_bytes"]),
    (Query().filter("input_bytes", ">", 1.0).project(["job_id"]),
     ["input_bytes", "job_id"]),
    (Query().filter("input_bytes", ">", 1.0).count("n"),
     ["input_bytes", "submit_time_s"]),
    (Query().aggregate(total=("sum", "input_bytes")).group_by("submit_hour"),
     ["input_bytes", "submit_hour"]),
    (Query().top("duration_s", 3).project(["job_id", "duration_s"]),
     ["duration_s", "job_id"]),
    (Query().filter("input_bytes", ">", 1.0).filter("input_bytes", "<", 9.0)
     .aggregate(peak=("max", "input_bytes")), ["input_bytes"]),
])
def test_required_columns_are_the_minimal_ordered_set(query, columns):
    assert query.required_columns() == columns


@pytest.mark.parametrize("query, aggregate_only", [
    (Query(), False),
    (Query().count("n"), True),
    (Query().aggregate(total=("sum", "input_bytes")).group_by("submit_hour"), True),
    (Query().top("duration_s", 2), False),
])
def test_is_aggregate_only(query, aggregate_only):
    assert query.is_aggregate_only() is aggregate_only


@pytest.mark.parametrize("query, message", [
    (Query().count("n").top("duration_s", 2), "cannot combine aggregates with top-k"),
    (Query().group_by("submit_hour"), "group_by requires at least one aggregate"),
    (Query().aggregate(x=("median-ish", "input_bytes")), "unknown aggregate op"),
])
def test_validate_rejects_incoherent_queries(query, message):
    with pytest.raises(AnalysisError, match=message):
        query.validate()


@pytest.mark.parametrize("build, message", [
    (lambda: Query().top("duration_s", 0), "top-k needs k >= 1"),
    (lambda: Query().top("duration_s", -2), "top-k needs k >= 1"),
    (lambda: Query().limit(-1), "limit must be non-negative"),
    (lambda: Predicate("input_bytes", "~=", 1.0), "unknown predicate op"),
])
def test_builders_reject_invalid_arguments(build, message):
    with pytest.raises(AnalysisError, match=message):
        build()


def test_limit_zero_is_a_valid_empty_limit():
    assert Query().limit(0).row_limit == 0
