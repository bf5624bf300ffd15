"""Differential replay equivalence: the vectorized engine vs the legacy loop.

The vectorized engine in :mod:`repro.simulator.replay` replaced the original
closure-per-event loop (kept verbatim in ``legacy_replay.py`` beside this file).
These tests pin the new engine — and both sharded disciplines built on it —
to the old semantics *bit for bit* via :meth:`SimulationMetrics.digest`,
which covers every published number: job counts, float metric sums in fold
order, min/max extremes, log-histogram sketch bins, hourly utilization bins,
busy-slot seconds, and cache statistics.

Grids cover scheduler × cache × lookahead (the three axes that change event
interleaving), stragglers × scheduler × feed (the per-task durations a
straggler injector draws, on every way jobs reach the engine's one block
feed: a trace, a lazy generator, a trace file, a store and exact shards),
shard boundaries dropped mid-burst and exactly on an arrival tie, and
duplicate-submit-time tie-breaking.  One 15 000-job case runs past
several look-ahead refills and metric-fold blocks, where the engine folds
its buffered metric samples.
"""

import numpy as np
import pytest

from repro.engine import ChunkedTraceStore
from repro.errors import SimulationError
from repro.simulator import (
    CapacityScheduler,
    ClusterConfig,
    FairScheduler,
    FifoScheduler,
    LfuCache,
    LruCache,
    NoCache,
    ShardedReplayer,
    SpeculativeExecutionModel,
    StragglerInjectionStats,
    StragglerInjector,
    StragglerModel,
    StreamingReplayer,
    WorkloadReplayer,
)
from repro.simulator.metrics import ACCUMULATOR_BATCH
from repro.simulator.replay import DEFAULT_LOOKAHEAD, _ReplayEngine
from repro.traces import Job, Trace, load_workload
from repro.traces.io import write_trace
from repro.units import GB

from legacy_replay import legacy_replay_jobs


# ---------------------------------------------------------------------------
# fixtures and factories
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace():
    """~540 jobs of the smallest Cloudera workload: bursts, idle gaps, and a
    long tail of large jobs — enough contention to queue on every scheduler."""
    return load_workload("CC-e", seed=11, scale=0.05)


@pytest.fixture(scope="module")
def store(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("equiv") / "cc-e.store"
    return ChunkedTraceStore.write(directory, trace, chunk_rows=64)


@pytest.fixture(scope="module")
def trace_file(trace, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("equiv-file") / "cc-e.jsonl.gz")
    write_trace(trace, path)
    return path


def make_scheduler(name, config=None):
    if name == "fifo":
        return FifoScheduler()
    if name == "fair":
        return FairScheduler()
    config = config or ClusterConfig()
    return CapacityScheduler(total_map_slots=config.total_map_slots,
                             total_reduce_slots=config.total_reduce_slots)


def make_cache(name):
    if name == "none":
        return NoCache()
    if name == "lru":
        return LruCache(capacity_bytes=GB)
    return LfuCache(capacity_bytes=GB)


def job(job_id, submit, map_s=60.0, reduce_s=0.0, input_b=1e9, output_b=1e8):
    return Job(job_id=job_id, submit_time_s=submit, duration_s=map_s + reduce_s,
               input_bytes=input_b, shuffle_bytes=0.0, output_bytes=output_b,
               map_task_seconds=map_s, reduce_task_seconds=reduce_s,
               input_path="/in/%s" % job_id, output_path="/out/%s" % job_id)


# ---------------------------------------------------------------------------
# vectorized engine == legacy event loop
# ---------------------------------------------------------------------------
class TestVectorizedMatchesLegacy:
    """The tentpole bar: every digest bit matches the pre-vectorization loop
    across the axes that change event interleaving."""

    @pytest.mark.parametrize("scheduler", ["fifo", "fair", "capacity"])
    @pytest.mark.parametrize("cache", ["none", "lru"])
    def test_scheduler_cache_grid(self, trace, scheduler, cache):
        new = WorkloadReplayer(scheduler=make_scheduler(scheduler),
                               cache=make_cache(cache)).replay_jobs(trace.jobs)
        old = legacy_replay_jobs(
            WorkloadReplayer(scheduler=make_scheduler(scheduler),
                             cache=make_cache(cache)), trace.jobs)
        assert new.digest() == old.digest()

    @pytest.mark.parametrize("lookahead", [1, 7, 4096])
    def test_lookahead_grid(self, trace, lookahead):
        new = WorkloadReplayer(lookahead=lookahead).replay_jobs(trace.jobs)
        old = legacy_replay_jobs(WorkloadReplayer(lookahead=lookahead),
                                 trace.jobs)
        assert new.digest() == old.digest()

    def test_lfu_cache_and_fair(self, trace):
        new = WorkloadReplayer(scheduler=FairScheduler(),
                               cache=make_cache("lfu")).replay_jobs(trace.jobs)
        old = legacy_replay_jobs(
            WorkloadReplayer(scheduler=FairScheduler(), cache=make_cache("lfu")),
            trace.jobs)
        assert new.digest() == old.digest()

    def test_outcomes_match_in_finish_order(self, trace):
        """record_job folds happen in job-finish event order on both paths."""
        new = WorkloadReplayer().replay(trace)
        old = legacy_replay_jobs(WorkloadReplayer(), trace.jobs)
        assert [outcome.job_id for outcome in new.outcomes] == \
            [outcome.job_id for outcome in old.outcomes]
        assert [outcome.finish_time_s for outcome in new.outcomes] == \
            [outcome.finish_time_s for outcome in old.outcomes]

    def test_negative_submit_clamped_like_legacy(self):
        jobs = [job("early", -5.0), job("later", 2.0)]
        new = WorkloadReplayer().replay_jobs(jobs)
        old = legacy_replay_jobs(WorkloadReplayer(), jobs)
        assert new.digest() == old.digest()

    def test_unsorted_stream_rejected_with_same_message(self):
        jobs = [job("a", 10.0), job("b", 3.0)]
        with pytest.raises(SimulationError) as new_err:
            WorkloadReplayer().replay_jobs(jobs)
        with pytest.raises(SimulationError) as old_err:
            legacy_replay_jobs(WorkloadReplayer(), jobs)
        assert str(new_err.value) == str(old_err.value)


# ---------------------------------------------------------------------------
# stragglers × scheduler × feed
# ---------------------------------------------------------------------------
#: A three-node cluster keeps every scheduler's queues busy on the CC-e trace.
CONTENDED = ClusterConfig(n_nodes=3)


def make_stragglers(name, stats):
    if name == "off":
        return None
    speculation = SpeculativeExecutionModel() if name == "speculation" else None
    return StragglerInjector(StragglerModel(probability=0.1, slowdown_factor=4.0,
                                            seed=5), speculation, stats)


def outcome_rows(metrics):
    return [(o.job_id, o.submit_time_s, o.start_time_s, o.finish_time_s,
             o.wait_time_s, o.completion_time_s, o.total_bytes, o.n_tasks)
            for o in metrics.outcomes]


def stats_row(stats):
    return (stats.tasks_seen, stats.stragglers_injected, stats.stragglers_rescued,
            stats.stragglers_undetectable, stats.jobs_affected)


class TestStragglersMatchLegacy:
    """Straggler injection rides the record engine under every scheduler and
    feed: digests, every outcome and the injection stats match the legacy
    loop running the original per-task transform."""

    @pytest.fixture(scope="class")
    def legacy(self, trace):
        cache = {}

        def run(scheduler, stragglers):
            if (scheduler, stragglers) not in cache:
                stats = StragglerInjectionStats()
                replayer = WorkloadReplayer(
                    cluster_config=CONTENDED,
                    scheduler=make_scheduler(scheduler, CONTENDED),
                    stragglers=make_stragglers(stragglers, StragglerInjectionStats()))
                metrics = legacy_replay_jobs(replayer, trace.jobs, stats=stats)
                cache[scheduler, stragglers] = metrics, stats
            return cache[scheduler, stragglers]
        return run

    @pytest.mark.parametrize("feed", ["replay", "replay_jobs", "replay_path",
                                      "replay_store", "exact-3-shards"])
    @pytest.mark.parametrize("scheduler", ["fifo", "fair", "capacity"])
    @pytest.mark.parametrize("stragglers", ["off", "no-speculation", "speculation"])
    def test_grid(self, trace, store, trace_file, legacy, stragglers, scheduler, feed):
        stats = StragglerInjectionStats()
        kwargs = dict(cluster_config=CONTENDED, scheduler=make_scheduler(scheduler, CONTENDED),
                      stragglers=make_stragglers(stragglers, stats), keep_outcomes=True)
        if feed == "replay":
            new = WorkloadReplayer(**kwargs).replay(trace)
        elif feed == "replay_jobs":
            new = WorkloadReplayer(**kwargs).replay_jobs(job for job in trace.jobs)
        elif feed == "replay_path":
            new = StreamingReplayer(**kwargs).replay_path(trace_file)
        elif feed == "replay_store":
            new = StreamingReplayer(**kwargs).replay_store(store)
        else:
            new = ShardedReplayer(shards=3, mode="exact", **kwargs).replay_store(store)
        old, old_stats = legacy(scheduler, stragglers)
        assert new.wait.maximum > 0.0  # the cluster is contended
        assert new.digest() == old.digest()
        assert outcome_rows(new) == outcome_rows(old)
        assert stats_row(stats) == stats_row(old_stats)
        if stragglers != "off":
            assert stats.stragglers_injected > 0


# ---------------------------------------------------------------------------
# a lazy generator feed: read as the engine asks, and no further
# ---------------------------------------------------------------------------
class TestGeneratorFeed:
    """``replay_jobs`` batches a generator into column blocks lazily."""

    @pytest.mark.parametrize("lookahead", [1, 2, 4096])
    def test_out_of_order_job_is_named(self, lookahead):
        jobs = [job("a", 0.0), job("b", 10.0), job("late", 5.0), job("d", 20.0)]
        with pytest.raises(SimulationError) as new_err:
            WorkloadReplayer(lookahead=lookahead).replay_jobs(iter(jobs))
        with pytest.raises(SimulationError) as old_err:
            legacy_replay_jobs(WorkloadReplayer(lookahead=lookahead), jobs)
        assert str(new_err.value) == str(old_err.value)
        assert str(new_err.value).startswith(
            "job late submitted at 5.000 after a job submitted at 10.000")

    @pytest.mark.parametrize("lookahead", [16, 4096])
    def test_budget_stops_the_pull(self, trace, lookahead):
        pulled = []

        def source():
            for item in trace.jobs:
                pulled.append(item.job_id)
                yield item

        new = WorkloadReplayer(max_simulated_jobs=50,
                               lookahead=lookahead).replay_jobs(source())
        old = legacy_replay_jobs(WorkloadReplayer(max_simulated_jobs=50,
                                                  lookahead=lookahead), trace.jobs)
        assert new.jobs_submitted == 50
        assert pulled == [item.job_id for item in trace.jobs[:50]]
        assert new.digest() == old.digest()


# ---------------------------------------------------------------------------
# storage state: every replay starts fresh
# ---------------------------------------------------------------------------
class TestEachReplayStartsFresh:
    """Each replay works on a copy of the cache policy its replayer was
    built with and starts from an empty HDFS namespace; the replayer then
    holds that replay's cache and namespace."""

    def test_two_replays_on_one_replayer_agree(self):
        small = load_workload("CC-e", seed=0, scale=0.02)
        policy = LruCache(capacity_bytes=64 * GB)
        replayer = WorkloadReplayer(cache=policy)
        first = replayer.replay(small)
        first_digest = first.digest()
        second = replayer.replay(small)
        assert second.digest() == first_digest
        assert first.digest() == first_digest  # the second run left it alone
        assert first.cache_stats is not second.cache_stats
        assert first.cache_stats.accesses == len(small.jobs)
        assert replayer.cache.stats is second.cache_stats
        assert policy.stats.accesses == 0 and policy.used_bytes == 0.0

    def test_hdfs_counters_are_the_latest_replays(self, trace):
        replayer = StreamingReplayer()
        replayer.replay(trace)
        first = (replayer.hdfs.bytes_read, replayer.hdfs.bytes_written)
        replayer.replay(trace)
        assert (replayer.hdfs.bytes_read, replayer.hdfs.bytes_written) == first
        assert first[0] == sum(item.input_bytes for item in trace.jobs)


# ---------------------------------------------------------------------------
# NaN task seconds read as unrecorded, as in a store
# ---------------------------------------------------------------------------
def test_nan_task_seconds_replay_like_the_store(tmp_path):
    nan = float("nan")
    jobs = [job("nan-map", 0.0, map_s=nan, reduce_s=60.0),
            job("nan-reduce", 5.0, map_s=30.0, reduce_s=nan),
            job("plain", 9.0)]
    trace = Trace(jobs, name="nan")
    store = ChunkedTraceStore.write(tmp_path / "nan.store", trace)
    direct = WorkloadReplayer().replay(trace)
    streamed = StreamingReplayer().replay_store(store)
    assert direct.finished_jobs == 3
    assert direct.digest() == streamed.digest()
    unrecorded = Trace([job("nan-map", 0.0, map_s=0.0, reduce_s=60.0),
                        job("nan-reduce", 5.0, map_s=30.0, reduce_s=0.0),
                        job("plain", 9.0)], name="zero")
    assert WorkloadReplayer().replay(unrecorded).digest() == direct.digest()


# ---------------------------------------------------------------------------
# past one look-ahead window: the per-chunk metric fold
# ---------------------------------------------------------------------------
CLUSTERS = {
    "default": ClusterConfig(),
    "two-node": ClusterConfig(n_nodes=2),
}


class TestPastOneLookahead:
    """The engine folds buffered utilization samples and job waits and
    completions at look-ahead refills and at the end of the replay.  A
    15 000-job replay crosses at least three refills and three
    4096-sample accumulator blocks; on the two-node cluster jobs queue and
    are bulk-admitted.  Every lane must keep every digest bit."""

    @pytest.fixture(scope="class")
    def big_store(self, replay_trace_15k, tmp_path_factory):
        directory = tmp_path_factory.mktemp("equiv-15k") / "r15k.store"
        return ChunkedTraceStore.write(directory, replay_trace_15k, chunk_rows=3000)

    @pytest.fixture(scope="class", params=sorted(CLUSTERS))
    def cluster(self, request):
        return CLUSTERS[request.param]

    @pytest.fixture(scope="class")
    def streamed(self, big_store, cluster):
        """The store replay, counting metric folds and bulk admissions."""
        counts = {"folds": 0, "bulk_admitted": 0}
        fold, bulk_admit = _ReplayEngine._fold_metrics, _ReplayEngine._bulk_admit

        def counting_fold(engine):
            counts["folds"] += 1
            fold(engine)

        def counting_bulk_admit(engine, until_s=float("inf")):
            head = engine._buf_head
            bulk_admit(engine, until_s)
            counts["bulk_admitted"] += engine._buf_head - head

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_ReplayEngine, "_fold_metrics", counting_fold)
            patch.setattr(_ReplayEngine, "_bulk_admit", counting_bulk_admit)
            metrics = StreamingReplayer(cluster_config=cluster).replay_store(big_store)
        return metrics, counts

    def test_crosses_the_fold_boundaries(self, replay_trace_15k, cluster, streamed):
        metrics, counts = streamed
        assert len(replay_trace_15k.jobs) >= 3 * max(DEFAULT_LOOKAHEAD, ACCUMULATOR_BATCH) + 1
        assert metrics.finished_jobs == len(replay_trace_15k.jobs)
        assert counts["folds"] >= 4  # three at refills, one at the end
        if cluster.n_nodes == 2:
            assert counts["bulk_admitted"] > 0
            assert metrics.wait.maximum > 0.0

    def test_vectorized_matches_legacy(self, replay_trace_15k, cluster, streamed):
        old = legacy_replay_jobs(StreamingReplayer(cluster_config=cluster),
                                 replay_trace_15k.jobs)
        assert streamed[0].digest() == old.digest()

    def test_streaming_matches_retained_outcomes(self, replay_trace_15k, cluster,
                                                 streamed):
        kept = WorkloadReplayer(cluster_config=cluster,
                                keep_outcomes=True).replay(replay_trace_15k)
        assert len(kept.outcomes) == len(replay_trace_15k.jobs)
        assert streamed[0].digest() == kept.digest()

    def test_exact_sharding_matches_serial(self, big_store, cluster, streamed):
        sharded = ShardedReplayer(cluster_config=cluster, shards=4, mode="exact")
        assert sharded.replay_store(big_store).digest() == streamed[0].digest()

    def test_lru_cache_matches_legacy(self, replay_trace_15k, big_store, cluster):
        """A cache policy takes the fast mode without the fast I/O path."""
        new = StreamingReplayer(cluster_config=cluster,
                                cache=LruCache(capacity_bytes=GB)).replay_store(big_store)
        old = legacy_replay_jobs(
            StreamingReplayer(cluster_config=cluster, cache=LruCache(capacity_bytes=GB)),
            replay_trace_15k.jobs)
        assert new.cache_stats.hits > 0
        assert new.digest() == old.digest()


# ---------------------------------------------------------------------------
# sharded replay == serial replay
# ---------------------------------------------------------------------------
class TestExactShardingMatchesSerial:
    """Exact mode threads one engine across boundaries: digests must be
    invariant to the shard count and to where the boundaries land."""

    @pytest.fixture(scope="class")
    def serial_digest(self, store):
        return StreamingReplayer().replay_store(store).digest()

    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_shard_counts(self, store, serial_digest, shards):
        sharded = ShardedReplayer(shards=shards, mode="exact")
        assert sharded.replay_store(store).digest() == serial_digest
        assert len(sharded.handoffs) == max(0, shards - 1)

    def test_boundary_mid_burst(self, store):
        """A boundary dropped inside a dense burst (in-flight tasks and busy
        slots crossing it) must not perturb the digest.

        A two-node cluster keeps a standing queue, so the mid-trace boundary
        is guaranteed to cross active jobs and queued completions.
        """
        config = ClusterConfig(n_nodes=2, map_slots_per_node=2,
                               reduce_slots_per_node=1)
        times = store.read_chunk(store.n_chunks // 2).column("submit_time_s")
        burst = float(np.median(times)) + 0.5  # mid-chunk, mid-activity
        serial = StreamingReplayer(
            cluster_config=config).replay_store(store).digest()
        sharded = ShardedReplayer(cluster_config=config, shards=2,
                                  mode="exact", boundaries=[burst])
        assert sharded.replay_store(store).digest() == serial
        handoff = sharded.handoffs[0]
        assert handoff.boundary_s == burst
        # The interesting case actually happened: work crossed the boundary.
        assert handoff.active_jobs > 0
        assert handoff.pending_completion_events > 0
        assert handoff.busy_map_slots > 0 or handoff.busy_reduce_slots > 0

    def test_boundary_exactly_on_arrival_tie(self, tmp_path):
        """Jobs submitted exactly at a boundary belong to the next shard, and
        an arrival tie sitting on the boundary never splits across shards."""
        jobs = [job("a", 0.0), job("b", 10.0), job("c", 10.0, reduce_s=30.0),
                job("d", 10.0), job("e", 25.0)]
        store = ChunkedTraceStore.write(tmp_path / "tie.store",
                                        Trace(jobs, name="tie"), chunk_rows=2)
        serial = StreamingReplayer().replay_store(store).digest()
        sharded = ShardedReplayer(shards=2, mode="exact", boundaries=[10.0])
        assert sharded.replay_store(store).digest() == serial
        # All of the 10.0 tie went to shard 1: only "a" fed before the cut.
        assert sharded.handoffs[0].jobs_submitted == 1

    def test_scheduler_and_cache_state_cross_boundaries(self, store):
        def build(**kwargs):
            return kwargs.get("cls", StreamingReplayer)(
                scheduler=FairScheduler(), cache=LruCache(capacity_bytes=GB),
                **{k: v for k, v in kwargs.items() if k != "cls"})
        serial = build().replay_store(store).digest()
        sharded = ShardedReplayer(scheduler=FairScheduler(),
                                  cache=LruCache(capacity_bytes=GB),
                                  shards=3, mode="exact")
        assert sharded.replay_store(store).digest() == serial

    def test_explicit_boundaries_validated(self):
        with pytest.raises(SimulationError):
            ShardedReplayer(shards=3, boundaries=[5.0])  # needs 2
        with pytest.raises(SimulationError):
            ShardedReplayer(shards=3, boundaries=[9.0, 5.0])  # not increasing
        with pytest.raises(SimulationError):
            ShardedReplayer(shards=0)
        with pytest.raises(SimulationError):
            ShardedReplayer(mode="bogus")

    def test_replay_jobs_needs_boundaries(self, trace):
        with pytest.raises(SimulationError):
            ShardedReplayer(shards=2).replay_jobs(trace.jobs)
        serial = WorkloadReplayer().replay_jobs(trace.jobs).digest()
        submits = [j.submit_time_s for j in trace.jobs]
        cut = submits[len(submits) // 2] + 0.25
        sharded = ShardedReplayer(shards=2, boundaries=[cut])
        assert sharded.replay_jobs(trace.jobs).digest() == serial


class TestWindowedSharding:
    """Windowed mode trades cross-boundary contention for parallelism: exact
    counts and conservation laws hold; float sums may differ."""

    def test_jobs_conserved_and_merged(self, store, trace):
        sharded = ShardedReplayer(shards=4, mode="windowed", processes=2)
        metrics = sharded.replay_store(store)
        assert metrics.jobs_submitted == len(trace.jobs)
        assert metrics.finished_jobs == len(trace.jobs)
        assert len(sharded.handoffs) == 4
        serial = StreamingReplayer().replay_store(store)
        # Sketch bins count jobs, so totals are conserved even though
        # individual completions shift without cross-window queueing.
        assert metrics.completion.count == serial.completion.count
        assert metrics.wait.count == serial.wait.count

    def test_empty_windows_skipped(self, tmp_path):
        jobs = [job("a", 0.0), job("b", 1.0), job("c", 100.0)]
        store = ChunkedTraceStore.write(tmp_path / "gap.store",
                                        Trace(jobs, name="gap"), chunk_rows=2)
        sharded = ShardedReplayer(shards=4, mode="windowed", processes=1,
                                  boundaries=[10.0, 20.0, 99.0])
        metrics = sharded.replay_store(store)
        assert metrics.jobs_submitted == 3
        # Two interior windows ([10,20) and [20,99)) held no jobs.
        assert len(sharded.handoffs) == 2

    def test_windowed_needs_store(self, trace):
        with pytest.raises(SimulationError):
            ShardedReplayer(shards=2, mode="windowed").replay_jobs(trace.jobs)


# ---------------------------------------------------------------------------
# duplicate-submit-time tie-breaking (look-ahead regression)
# ---------------------------------------------------------------------------
class TestSubmitTimeTies:
    """Jobs sharing a submit time are admitted in input order, regardless of
    the look-ahead window size — pinned against the legacy loop, which gets
    this from event-queue FIFO tie-breaking."""

    @pytest.fixture()
    def tie_jobs(self):
        # Twelve jobs across three tie groups on a small cluster, so the
        # admission order is visible in wait times and finish order.
        jobs = [job("t0-%d" % i, 0.0, map_s=40.0 + i) for i in range(4)]
        jobs += [job("t1-%d" % i, 30.0, map_s=25.0 + i) for i in range(4)]
        jobs += [job("t2-%d" % i, 30.0 + 1e-9, map_s=10.0) for i in range(4)]
        return jobs

    @pytest.mark.parametrize("lookahead", [1, 2, 3, 4096])
    def test_ties_break_in_input_order(self, tie_jobs, lookahead):
        config = ClusterConfig(n_nodes=1, map_slots_per_node=2,
                               reduce_slots_per_node=1)
        new = WorkloadReplayer(cluster_config=config,
                               lookahead=lookahead).replay_jobs(tie_jobs)
        old = legacy_replay_jobs(
            WorkloadReplayer(cluster_config=config, lookahead=lookahead),
            tie_jobs)
        assert new.digest() == old.digest()
        assert [o.job_id for o in new.outcomes] == [o.job_id for o in old.outcomes]

    def test_lookahead_invariant_under_ties(self, tie_jobs):
        config = ClusterConfig(n_nodes=1, map_slots_per_node=2,
                               reduce_slots_per_node=1)
        digests = {
            lookahead: WorkloadReplayer(
                cluster_config=config,
                lookahead=lookahead).replay_jobs(tie_jobs).digest()
            for lookahead in (1, 2, 5, 4096)
        }
        assert len({repr(sorted(d.items())) for d in digests.values()}) == 1

    def test_store_sort_is_stable_on_ties(self, tie_jobs, tmp_path):
        """Store conversion keeps input order within equal submit times
        (np.argsort kind="stable" in ColumnTable), so a store round-trip
        cannot reorder a tie group."""
        shuffled = tie_jobs[8:] + tie_jobs[:8]  # groups out of order, ties intact
        store = ChunkedTraceStore.write(tmp_path / "ties.store",
                                        Trace(shuffled, name="ties"),
                                        chunk_rows=5)
        ids = []
        for block in store.iter_chunks(columns=["job_id", "submit_time_s"]):
            ids.extend(block.column("job_id").tolist())
        expected = [j.job_id for j in sorted(
            shuffled, key=lambda j: j.submit_time_s)]
        # Python's sorted() is stable too: equal keys stay in input order.
        assert ids == expected

    def test_store_replay_matches_iterator_replay_on_ties(self, tie_jobs, tmp_path):
        store = ChunkedTraceStore.write(tmp_path / "ties2.store",
                                        Trace(tie_jobs, name="ties"),
                                        chunk_rows=3)
        config = ClusterConfig(n_nodes=1, map_slots_per_node=2,
                               reduce_slots_per_node=1)
        streamed = StreamingReplayer(
            cluster_config=config).replay_store(store).digest()
        direct = WorkloadReplayer(
            cluster_config=config).replay_jobs(tie_jobs).digest()
        assert streamed == direct
