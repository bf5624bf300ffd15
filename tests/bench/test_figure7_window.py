"""Figure 7's utilization column replays the first week as column blocks.

``_first_week_blocks`` windows any source to the jobs submitted in
``[0, week_end)`` and stops reading at the first job past it.  Stopping
early is only sound on a sorted stream, so disorder up to that job raises a
typed error; disorder after it is never read.
"""

import numpy as np
import pytest

from repro.bench.figures_temporal import _first_week_utilization
from repro.engine import ChunkedTraceStore, TraceSource
from repro.errors import AnalysisError
from repro.traces import Job, Trace
from repro.units import HOUR, WEEK


def job(index, submit_s, map_s=7200.0):
    return Job(job_id="j%03d" % index, submit_time_s=submit_s, duration_s=map_s,
               input_bytes=1e9, shuffle_bytes=0.0, output_bytes=1e8,
               map_task_seconds=map_s, reduce_task_seconds=0.0)


def utilization(source):
    return _first_week_utilization(TraceSource.wrap(source), max_simulated_jobs=None)


def test_every_representation_gives_the_same_column(tmp_path):
    # Submits from before the origin to past the first week.
    jobs = [job(index, -2 * HOUR + index * 5 * HOUR) for index in range(40)]
    trace = Trace(jobs, name="weeks")
    expected = utilization(trace)
    assert expected is not None and expected.sum() > 0.0
    store = ChunkedTraceStore.write(tmp_path / "weeks.store", trace, chunk_rows=7)
    for source in (trace.to_columnar(), store):
        assert np.array_equal(utilization(source), expected)


def test_disorder_inside_the_week_raises(tmp_path):
    jobs = [job(0, 0.0), job(1, 10 * HOUR), job(2, 5 * HOUR), job(3, WEEK + 10.0)]
    store = ChunkedTraceStore.write(tmp_path / "unsorted.store", iter(jobs),
                                    name="unsorted", chunk_rows=2)
    with pytest.raises(AnalysisError, match="'unsorted' is not sorted by submit time"):
        utilization(store)


def test_disorder_past_the_week_is_never_read(tmp_path):
    jobs = [job(0, 0.0), job(1, 10 * HOUR), job(2, WEEK + 10.0), job(3, WEEK + 5.0)]
    store = ChunkedTraceStore.write(tmp_path / "tail.store", iter(jobs),
                                    name="tail", chunk_rows=2)
    sorted_head = Trace(jobs[:2], name="head")
    assert np.array_equal(utilization(store)[:WEEK // int(HOUR)],
                          utilization(sorted_head)[:WEEK // int(HOUR)])
