"""Per-hour series from one group-by scan: dense hours, horizon clamping,
and the same totals from every trace representation."""

import numpy as np
import pytest

from repro.core.temporal import hourly_series_from_groups, hourly_totals
from repro.engine import ChunkedTraceStore
from repro.errors import AnalysisError
from repro.traces import Job, Trace
from repro.units import HOUR


def test_idle_hours_are_zero_and_the_series_is_dense():
    series = hourly_series_from_groups({0: {"jobs": 2}, 2: {"jobs": 1}},
                                       0.0, 3 * HOUR - 1.0, ["jobs"])
    assert series["jobs"].tolist() == [2.0, 0.0, 1.0]


def test_hours_past_the_horizon_clamp_into_the_last_hour():
    series = hourly_series_from_groups({0: {"jobs": 1}, 5: {"jobs": 4}},
                                       0.0, 2 * HOUR, ["jobs"])
    assert series["jobs"].tolist() == [1.0, 4.0]


def test_unrecorded_values_and_absent_labels_add_nothing():
    series = hourly_series_from_groups({0: {"bytes": None}}, 0.0, HOUR,
                                       ["bytes", "jobs"])
    assert series["bytes"].tolist() == [0.0]
    assert series["jobs"].tolist() == [0.0]


def test_an_instantaneous_trace_spans_one_hour():
    series = hourly_series_from_groups({0: {"jobs": 3}}, 0.0, 0.0, ["jobs"])
    assert series["jobs"].tolist() == [3.0]


def test_negative_event_times_are_rejected():
    with pytest.raises(AnalysisError, match="non-negative"):
        hourly_series_from_groups({}, -1.0, HOUR, ["jobs"])


def hourly_trace():
    """Four jobs in hours 0, 0, 1 and 2; the last finishes at 7310 s."""
    submits = [0.0, 100.0, 4000.0, 7300.0]
    return Trace([Job(job_id="j%d" % index, submit_time_s=submit, duration_s=10.0,
                      input_bytes=float(10 ** index), shuffle_bytes=0.0,
                      output_bytes=1.0, map_task_seconds=5.0, reduce_task_seconds=0.0)
                  for index, submit in enumerate(submits)], name="hourly")


@pytest.mark.parametrize("representation", ["trace", "columnar", "store"])
def test_hourly_totals_agree_across_representations(representation, tmp_path):
    trace = hourly_trace()
    source = {
        "trace": lambda: trace,
        "columnar": trace.to_columnar,
        "store": lambda: ChunkedTraceStore.write(tmp_path / "hourly.store", trace,
                                                 chunk_rows=2),
    }[representation]()
    totals = hourly_totals(source, jobs=("count", "submit_time_s"),
                           bytes=("sum", "input_bytes"))
    assert totals["jobs"].tolist() == [2.0, 1.0, 1.0]
    np.testing.assert_array_equal(totals["bytes"], [11.0, 100.0, 1000.0])


def test_hourly_totals_of_an_empty_trace_raise():
    with pytest.raises(AnalysisError, match="empty trace"):
        hourly_totals(Trace([], name="empty"), jobs=("count", "submit_time_s"))
