"""Seeded-RNG determinism of replays, and where RNG streams must split.

Straggler injection is the simulator's only stochastic component; cache
eviction is deterministic given the access sequence.  Under a fixed seed a
replay must therefore be a pure function of its inputs: identical digests
across repeated runs, and — for *exact* sharding, which preserves the
input-order pull sequence — across shard counts.

The shared sequential RNG stream is only valid while jobs are transformed in
input order.  Windowed sharding replays each window independently, so its
workers consume the stream in their own pull order and straggler digests
depend on where the cuts fall.  These tests pin both facts.
"""

import numpy as np
import pytest

from repro.engine import ChunkedTraceStore
from repro.simulator import (
    LruCache,
    ShardedReplayer,
    StragglerInjector,
    StragglerModel,
    StreamingReplayer,
)
from repro.traces import load_workload
from repro.units import GB

from legacy_tasks import split_job, straggler_task_transform


@pytest.fixture(scope="module")
def trace():
    return load_workload("CC-e", seed=13, scale=0.04)


@pytest.fixture(scope="module")
def store(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("determinism") / "cc-e.store"
    return ChunkedTraceStore.write(directory, trace, chunk_rows=64)


def build_replayer(cls=StreamingReplayer, seed=42, **kwargs):
    stragglers = StragglerInjector(
        StragglerModel(probability=0.2, slowdown_factor=4.0, seed=seed))
    return cls(stragglers=stragglers, cache=LruCache(capacity_bytes=GB),
               **kwargs)


class TestFixedSeedDeterminism:
    def test_two_runs_identical_digests(self, store):
        first = build_replayer().replay_store(store).digest()
        second = build_replayer().replay_store(store).digest()
        assert first == second

    def test_different_seeds_differ(self, store):
        first = build_replayer(seed=1).replay_store(store).digest()
        second = build_replayer(seed=2).replay_store(store).digest()
        assert first != second

    def test_exact_shards_preserve_the_shared_stream(self, store):
        """Exact sharding pulls jobs in input order regardless of the shard
        count, so even the shared sequential RNG stream stays valid."""
        serial = build_replayer().replay_store(store).digest()
        for shards in (1, 2, 5):
            sharded = build_replayer(cls=ShardedReplayer, shards=shards,
                                     mode="exact")
            assert sharded.replay_store(store).digest() == serial, shards


class TestPerJobStreamIndependence:
    """The unit-level reason windowed straggler digests depend on the cuts."""

    def transform_durations(self, jobs, order):
        transform = straggler_task_transform(
            StragglerModel(probability=0.5, slowdown_factor=3.0, seed=7))
        durations = {}
        for index in order:
            sim_job = split_job(jobs[index])
            transform(sim_job)
            durations[sim_job.job_id] = (
                [task.duration_s for task in sim_job.map_tasks],
                [task.duration_s for task in sim_job.reduce_tasks])
        return durations

    def test_shared_stream_is_order_sensitive(self, trace):
        """Documents the hazard: the shared stream depends on transform
        order, which is exactly what windowed sharding changes."""
        jobs = trace.jobs[:40]
        forward = self.transform_durations(jobs, range(len(jobs)))
        backward = self.transform_durations(jobs, reversed(range(len(jobs))))
        assert forward != backward

    def test_injector_stream_is_order_sensitive(self, trace):
        """The replay engine's injector shares the hazard: it draws in the
        order its batches arrive."""
        jobs = trace.jobs[:40]
        n = len(jobs)
        ones = np.ones(n, dtype=np.int64)
        durations = np.array([job.map_task_seconds or 1.0 for job in jobs])
        ids = np.array([job.job_id for job in jobs], dtype=object)

        def slow_jobs(order):
            injector = StragglerInjector(
                StragglerModel(probability=0.5, slowdown_factor=3.0, seed=7))
            order = np.asarray(order)
            drawn = injector.draw(ids[order], ones, durations[order],
                                  np.zeros(n, dtype=np.int64), np.zeros(n))
            return {ids[order][row] for row, _kind in drawn}

        assert slow_jobs(range(n)) != slow_jobs(list(reversed(range(n))))
