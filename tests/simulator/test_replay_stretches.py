"""Uncontended stretches: the NumPy scheduler against the heap loop and legacy.

``_ReplayEngine._stretch`` commits the leading uncontended prefix of each
look-ahead window without the heap loop.  It must reproduce that loop event
for event, so these tests replay the same jobs three ways — with stretches,
with the stretch entry point patched off (heap loop only), and through the
legacy closure-per-event loop — and demand equal digests, equal HDFS and
cache counters, and equal outcomes and utilization samples in the same order.

The generated traces are built to tie: integer-second submits and task
times make admits land on completions and completions on each other, and
the mix adds reduce-only, zero-compute and negative-submit jobs, stage
durations too small to move their submit time (``s + d == s``), and jobs
wider than a one-node cluster.  ``_MIN_STRETCH`` is lowered to one row so
even a one-job window makes an attempt.
"""

from contextlib import contextmanager
import importlib
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ChunkedTraceStore
from repro.simulator import (
    ClusterConfig,
    ShardedReplayer,
    StreamingReplayer,
)
from repro.traces import Job, Trace

from legacy_replay import legacy_replay_jobs

# By import path: ``repro.simulator.replay`` the attribute is the re-exported
# ``replay`` function, not the module.
replay_module = importlib.import_module("repro.simulator.replay")
_ReplayEngine = replay_module._ReplayEngine


@contextmanager
def stretches(enabled=True, committed=None):
    """Run replays with stretches on every window (counting the jobs they
    admit into ``committed[0]``), or with the stretch entry point off."""
    original = _ReplayEngine._stretch

    def counting(self, window, until_s):
        admitted = original(self, window, until_s)
        if committed is not None:
            committed[0] += admitted
        return admitted

    def off(self, window, until_s):
        return 0

    with mock.patch.object(replay_module, "_MIN_STRETCH", 1), \
            mock.patch.object(_ReplayEngine, "_stretch", counting if enabled else off):
        yield


def make_job(index, submit, map_s, reduce_s, map_tasks=None, reduce_tasks=None,
             output_b=1e6 / 3.0, paths=True):
    # Byte sizes with fractional parts: a pairwise sum of them rounds
    # differently from the sequential one the counters must reproduce.
    return Job(job_id="j%04d" % index, submit_time_s=submit,
               duration_s=map_s + reduce_s, input_bytes=1e9 / 7.0 * (index + 1),
               shuffle_bytes=0.0, output_bytes=output_b,
               map_task_seconds=map_s, reduce_task_seconds=reduce_s,
               map_tasks=map_tasks, reduce_tasks=reduce_tasks,
               input_path="/in/%d" % (index % 7) if paths else None,
               output_path="/out/%d" % index if paths else None)


# Task seconds: small integers (ties), zero (reduce-only / zero-compute
# jobs), 1e-300 (cannot move any submit time at or above 1e-284) and a few
# long ones that queue on small clusters.
SECONDS = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 60.0, 600.0, 1e-300])
COUNTS = st.sampled_from([None, None, 1, 2, 40])
GAPS = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 3600.0])


@st.composite
def tie_traces(draw):
    n_jobs = draw(st.integers(min_value=1, max_value=45))
    submit = draw(st.sampled_from([-30.0, -1.0, 0.0, 7.0, 1e6]))
    jobs = []
    for index in range(n_jobs):
        submit += draw(GAPS)
        jobs.append(make_job(
            index, submit, draw(SECONDS), draw(SECONDS), draw(COUNTS), draw(COUNTS),
            output_b=draw(st.sampled_from([0.0, 1e6 / 3.0, 2.5e9 / 7.0])),
            paths=draw(st.booleans())))
    return jobs


CLUSTER_NODES = (100, 10, 2, 1)


def replayer(nodes, lookahead=4096, max_jobs=None, keep=False):
    return StreamingReplayer(cluster_config=ClusterConfig(n_nodes=nodes),
                             lookahead=lookahead, max_simulated_jobs=max_jobs,
                             keep_outcomes=keep)


def replay(jobs, nodes, lookahead, max_jobs, keep, enabled, store=None,
           committed=None):
    engine_replayer = replayer(nodes, lookahead, max_jobs, keep)
    with stretches(enabled, committed):
        if store is None:
            metrics = engine_replayer.replay_jobs(iter(jobs))
        else:
            metrics = engine_replayer.replay_store(store)
    return metrics, engine_replayer


def outcome_rows(metrics):
    return [(o.job_id, o.submit_time_s, o.start_time_s, o.finish_time_s,
             o.wait_time_s, o.completion_time_s, o.total_bytes, o.n_tasks)
            for o in metrics.outcomes]


def storage(engine_replayer, metrics):
    stats = metrics.cache_stats
    return (repr(engine_replayer.hdfs.bytes_read),
            repr(engine_replayer.hdfs.bytes_written),
            stats.misses, repr(stats.bytes_from_disk), stats.admissions_rejected)


def assert_same_replay(jobs, nodes, lookahead, max_jobs, keep, store=None):
    new, new_replayer = replay(jobs, nodes, lookahead, max_jobs, keep, True, store)
    heap, heap_replayer = replay(jobs, nodes, lookahead, max_jobs, keep, False, store)
    old = legacy_replay_jobs(replayer(nodes, lookahead, max_jobs, keep), jobs)
    assert new.digest() == heap.digest() == old.digest()
    assert storage(new_replayer, new) == storage(heap_replayer, heap)
    assert outcome_rows(new) == outcome_rows(heap)
    assert new.utilization_samples == heap.utilization_samples
    if keep:
        assert outcome_rows(new) == outcome_rows(old)


class TestTieAndContentionBattery:
    """Generated tie-heavy traces on 100- to 1-node clusters."""

    @settings(deadline=None, max_examples=250)
    @given(jobs=tie_traces(), nodes=st.sampled_from(CLUSTER_NODES),
           lookahead=st.sampled_from([1, 7, 4096]),
           cap=st.sampled_from([None, 1, 0.5]), keep=st.booleans())
    def test_jobs_feed_matches_heap_loop_and_legacy(self, jobs, nodes, lookahead,
                                                    cap, keep):
        max_jobs = cap if cap in (None, 1) else max(1, int(len(jobs) * cap))
        assert_same_replay(jobs, nodes, lookahead, max_jobs, keep)

    @settings(deadline=None, max_examples=60)
    @given(jobs=tie_traces(), nodes=st.sampled_from(CLUSTER_NODES),
           lookahead=st.sampled_from([1, 7, 4096]), keep=st.booleans())
    def test_store_feed_matches_heap_loop_and_legacy(self, jobs, nodes, lookahead,
                                                     keep):
        with tempfile.TemporaryDirectory() as directory:
            store = ChunkedTraceStore.write(directory + "/t.store",
                                            Trace(jobs, name="ties"), chunk_rows=5)
            # The store reorders nothing: it feeds the same jobs in the same order.
            assert [job.job_id for job in store.iter_jobs()] == \
                [job.job_id for job in jobs]
            assert_same_replay(jobs, nodes, lookahead, None, keep, store=store)


class TestNestedTies:
    """Ties the generated traces can miss: two completions at one instant
    whose dispatchers also share an instant."""

    def test_completion_dispatched_by_a_completion_goes_first(self):
        # At t=10 job 0's map completion (dispatching its reduce) precedes
        # job 1's admit (dispatching its map); both finish at t=15, before
        # job 2's admit ends the stretch.
        jobs = [make_job(0, 0.0, 10.0, 5.0, 1, 1), make_job(1, 10.0, 5.0, 0.0, 1),
                make_job(2, 20.0, 1.0, 0.0, 1)]
        for nodes in (100, 1):
            assert_same_replay(jobs, nodes, 4096, None, True)
        metrics, _ = replay(jobs, 100, 4096, None, True, True)
        assert [o.job_id for o in metrics.outcomes] == ["j0000", "j0001", "j0002"]

    def test_queued_entries_precede_new_completions(self):
        # Window 1 leaves job 0's reduce queued (finishing at t=15); window 2
        # admits job 2 at t=12, whose map also finishes at t=15, and job 3
        # at t=20.
        jobs = [make_job(0, 0.0, 10.0, 5.0, 1, 1), make_job(1, 11.0, 1.0, 0.0, 1),
                make_job(2, 12.0, 3.0, 0.0, 1), make_job(3, 20.0, 1.0, 0.0, 1)]
        for lookahead in (1, 2):
            assert_same_replay(jobs, 100, lookahead, None, True)
        metrics, _ = replay(jobs, 100, 2, None, True, True)
        assert [o.job_id for o in metrics.outcomes] == \
            ["j0001", "j0000", "j0002", "j0003"]


def light_trace(n_jobs=3000, seed=5):
    """Integer-second arrivals (many ties) of short jobs: a 100-node
    cluster never queues them, a 2-node one often does."""
    rng = np.random.default_rng(seed)
    submits = np.cumsum(rng.choice([0, 0, 1, 2, 3, 7], size=n_jobs)).astype(float)
    jobs = []
    for index, submit in enumerate(submits.tolist()):
        reduce_s = float(rng.choice([0, 0, 10, 40]))
        jobs.append(make_job(index, submit, float(rng.integers(1, 30)), reduce_s,
                             map_tasks=int(rng.integers(1, 4)),
                             reduce_tasks=1 if reduce_s else None))
    return jobs


@pytest.fixture(scope="module")
def light_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stretch") / "light.store"
    return ChunkedTraceStore.write(directory, Trace(light_trace(), name="light"),
                                   chunk_rows=700)


class TestStretchCoverage:
    def test_uncontended_trace_is_committed_by_stretches(self, light_store):
        committed = [0]
        metrics, _ = replay(None, 100, 4096, None, False, True, light_store,
                            committed)
        assert committed[0] == metrics.jobs_submitted == 3000

    def test_contended_trace_uses_both_paths(self, light_store):
        committed = [0]
        metrics, _ = replay(None, 2, 4096, None, False, True, light_store, committed)
        heap, _ = replay(None, 2, 4096, None, False, False, light_store)
        assert 0 < committed[0] < metrics.jobs_submitted
        assert metrics.wait.maximum > 0.0
        assert metrics.digest() == heap.digest()


def sharded(store, nodes, boundaries, enabled, committed=None):
    engine_replayer = ShardedReplayer(cluster_config=ClusterConfig(n_nodes=nodes),
                                      shards=len(boundaries) + 1, mode="exact",
                                      boundaries=boundaries)
    with stretches(enabled, committed):
        metrics = engine_replayer.replay_store(store)
    return metrics.digest(), engine_replayer.handoffs


class TestShardingAcrossStretches:
    """Exact sharding cuts the feed at boundaries; the hand-off snapshots and
    digests must not notice whether stretches ran."""

    def assert_invisible(self, store, nodes, boundaries):
        serial = replay(None, nodes, 4096, None, False, False, store)[0].digest()
        committed = [0]
        on_digest, on_handoffs = sharded(store, nodes, boundaries, True, committed)
        off_digest, off_handoffs = sharded(store, nodes, boundaries, False)
        assert committed[0] > 0
        assert on_digest == off_digest == serial
        assert on_handoffs == off_handoffs
        return on_handoffs

    @pytest.mark.parametrize("nodes", [100, 2])
    def test_boundaries_inside_stretches(self, light_store, nodes):
        submits = [job.submit_time_s for job in light_store.iter_jobs()]
        boundaries = [submits[700] + 0.5, submits[1500] + 0.25, submits[2900] + 0.5]
        handoffs = self.assert_invisible(light_store, nodes, boundaries)
        assert any(handoff.in_flight_tasks for handoff in handoffs)

    @pytest.mark.parametrize("nodes", [100, 2])
    def test_boundary_on_an_arrival_tie(self, light_store, nodes):
        submits = [job.submit_time_s for job in light_store.iter_jobs()]
        tie = next(submits[i] for i in range(1000, len(submits))
                   if submits[i] == submits[i - 1] == submits[i - 2])
        handoffs = self.assert_invisible(light_store, nodes, [tie])
        assert handoffs[0].jobs_submitted == submits.index(tie)

    def test_boundary_between_map_and_reduce_completion(self, tmp_path):
        jobs = [make_job(index, 10.0 * index, 5.0, 0.0) for index in range(100)]
        jobs[50] = make_job(50, 500.0, 10.0, 100.0, map_tasks=1, reduce_tasks=1)
        store = ChunkedTraceStore.write(tmp_path / "mr.store",
                                        Trace(jobs, name="mr"), chunk_rows=30)
        # Job 50 maps over [500, 510) and reduces over [510, 610).
        handoffs = self.assert_invisible(store, 100, [560.0])
        assert handoffs[0].busy_reduce_slots == 1
        assert handoffs[0].busy_map_slots == 0
