"""Shared fixtures for the test suite.

Traces used across many tests are generated once per session at small scales
so the full suite stays fast while still exercising realistic job mixtures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces import Job, Trace, load_workload


@pytest.fixture(scope="session")
def cc_e_trace() -> Trace:
    """A full-scale CC-e trace (the smallest Cloudera workload, ~10.8k jobs)."""
    return load_workload("CC-e", seed=7)


@pytest.fixture(scope="session")
def cc_b_small_trace() -> Trace:
    """A down-scaled CC-b trace (~2.3k jobs) for faster analyses."""
    return load_workload("CC-b", seed=7, scale=0.1)


@pytest.fixture(scope="session")
def fb_2009_small_trace() -> Trace:
    """A heavily down-scaled FB-2009 trace (~2.3k jobs)."""
    return load_workload("FB-2009", seed=7, scale=0.002)


@pytest.fixture()
def tiny_trace() -> Trace:
    """A hand-built six-job trace with known values, for exact assertions."""
    jobs = [
        Job(job_id="j1", submit_time_s=0.0, duration_s=30.0, input_bytes=1e6,
            shuffle_bytes=0.0, output_bytes=2e5, map_task_seconds=40.0,
            reduce_task_seconds=0.0, map_tasks=2, reduce_tasks=0,
            name="select user counts", framework="hive",
            input_path="/data/a", output_path="/out/a", workload="tiny"),
        Job(job_id="j2", submit_time_s=600.0, duration_s=120.0, input_bytes=5e9,
            shuffle_bytes=1e9, output_bytes=1e8, map_task_seconds=900.0,
            reduce_task_seconds=300.0, map_tasks=10, reduce_tasks=4,
            name="insert into table daily", framework="hive",
            input_path="/data/b", output_path="/out/b", workload="tiny"),
        Job(job_id="j3", submit_time_s=3600.0, duration_s=60.0, input_bytes=1e6,
            shuffle_bytes=0.0, output_bytes=1e6, map_task_seconds=50.0,
            reduce_task_seconds=0.0, map_tasks=2, reduce_tasks=0,
            name="piglatin etl step", framework="pig",
            input_path="/data/a", output_path="/out/c", workload="tiny"),
        Job(job_id="j4", submit_time_s=7200.0, duration_s=2400.0, input_bytes=2e12,
            shuffle_bytes=5e11, output_bytes=1e11, map_task_seconds=80000.0,
            reduce_task_seconds=30000.0, map_tasks=200, reduce_tasks=50,
            name="oozie launcher workflow", framework="oozie",
            input_path="/data/huge", output_path="/out/huge", workload="tiny"),
        Job(job_id="j5", submit_time_s=10800.0, duration_s=45.0, input_bytes=2e6,
            shuffle_bytes=0.0, output_bytes=5e5, map_task_seconds=30.0,
            reduce_task_seconds=0.0, map_tasks=1, reduce_tasks=0,
            name="select quick look", framework="hive",
            input_path="/out/b", output_path="/out/d", workload="tiny"),
        Job(job_id="j6", submit_time_s=14400.0, duration_s=50.0, input_bytes=3e6,
            shuffle_bytes=1e5, output_bytes=1e6, map_task_seconds=35.0,
            reduce_task_seconds=10.0, map_tasks=1, reduce_tasks=1,
            name="ad hoc report", framework=None,
            input_path="/data/a", output_path="/out/e", workload="tiny"),
    ]
    return Trace(jobs, name="tiny", machines=10)


@pytest.fixture(scope="session")
def replay_trace_15k() -> Trace:
    """15 000 light jobs for replay tests that must cross several look-ahead
    refills and metric-fold blocks (4096 each) yet still run the legacy loop
    in seconds: 1-4 map tasks of 5-25 s, 40 % with a reduce stage, 0.2 %
    with 300-1000 maps and 50-150 reduces, 1 % zero-compute, 20 % without
    recorded task counts, 5 % submit-time ties, and 0.2 % idle gaps of 2.5 h.
    A two-node cluster queues behind the large jobs (bulk admission); the
    default cluster barely does."""
    n = 15000
    rng = np.random.default_rng(27)
    gaps = rng.exponential(9.0, n)
    gaps[rng.random(n) < 0.002] += 2.5 * 3600.0
    gaps[rng.random(n) < 0.05] = 0.0
    submits = np.round(np.cumsum(gaps), 3)
    map_tasks = rng.integers(1, 5, n)
    map_seconds = map_tasks * rng.uniform(5.0, 25.0, n)
    reduce_tasks = np.where(rng.random(n) < 0.4, rng.integers(1, 3, n), 0)
    reduce_seconds = reduce_tasks * rng.uniform(5.0, 30.0, n)
    big = rng.random(n) < 0.002
    map_tasks[big] = rng.integers(300, 1000, big.sum())
    map_seconds[big] = map_tasks[big] * 8.0
    reduce_tasks[big] = rng.integers(50, 150, big.sum())
    reduce_seconds[big] = reduce_tasks[big] * 8.0
    zero = rng.random(n) < 0.01
    map_seconds[zero] = 0.0
    reduce_seconds[zero] = 0.0
    unrecorded = rng.random(n) < 0.2
    inputs = rng.lognormal(20.0, 2.0, n)
    outputs = np.where(rng.random(n) < 0.2, 0.0, rng.lognormal(18.0, 2.0, n))
    paths = rng.zipf(1.5, n) % 300
    jobs = [
        Job(job_id="r%05d" % i, submit_time_s=float(submits[i]),
            duration_s=float(map_seconds[i] + reduce_seconds[i]),
            input_bytes=float(inputs[i]), shuffle_bytes=0.0,
            output_bytes=float(outputs[i]),
            map_task_seconds=float(map_seconds[i]),
            reduce_task_seconds=float(reduce_seconds[i]),
            map_tasks=None if unrecorded[i] else int(map_tasks[i]),
            reduce_tasks=None if unrecorded[i] else int(reduce_tasks[i]),
            input_path="/data/%d" % paths[i], output_path="/out/%d" % (i % 500))
        for i in range(n)
    ]
    return Trace(jobs, name="replay-15k")
