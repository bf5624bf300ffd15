"""The Table-2 job sample: a seeded bottom-k over per-row hash keys.

``ClusterSampleConsumer`` keeps the ``cap`` rows whose keys
``splitmix64(row XOR splitmix64(seed))`` are smallest, so the sample is a
function of (seed, cap, row count) only: every chunking, every merge order,
serial or parallel, cold or resumed after appends must draw the same rows.
The index draw it replaced (``rng.choice`` over the total row count) lives on
here only as an oracle for the claim that the clustering it feeds does not
change character.
"""

import itertools

import numpy as np
import pytest

from repro.bench.table2 import table2
from repro.core import cluster_jobs, run_characterization_scan
from repro.core.clustering import ClusterSampleConsumer, _splitmix64
from repro.engine import (
    ChunkedTraceStore,
    ColumnarTrace,
    ParallelExecutor,
    ScanChunk,
    TraceSource,
    append_store,
    fold_consumer,
)
from repro.traces import Trace, load_workload
from repro.traces.schema import NUMERIC_DIMENSIONS

CAP = 1500
SEED = 11


def _columns(sample):
    return {dim: sample.block.column(dim) for dim in NUMERIC_DIMENSIONS}


def _assert_same_sample(left, right):
    assert left is not None and right is not None
    assert len(left) == len(right)
    for dim, values in _columns(left).items():
        assert np.array_equal(_columns(right)[dim], values, equal_nan=True), dim


def _table2_sample(bundle):
    return bundle.value("cluster_sample")


def _scan(store, **kwargs):
    kwargs.setdefault("cluster_sample_cap", CAP)
    kwargs.setdefault("seed", SEED)
    return run_characterization_scan(store, experiments=["table2"], **kwargs)


@pytest.fixture(scope="module")
def stores(cc_e_trace, tmp_path_factory):
    base = tmp_path_factory.mktemp("sample")
    return {rows: ChunkedTraceStore.write(base / ("c%d" % rows), cc_e_trace,
                                          chunk_rows=rows, name=cc_e_trace.name)
            for rows in (1024, 4096)}


class TestOneDraw:
    def test_rows_are_the_smallest_keys(self, cc_e_trace, gather_rows):
        sample = ClusterSampleConsumer(CAP, SEED)
        drawn = fold_consumer(cc_e_trace, sample)
        n = len(cc_e_trace)
        keys = _splitmix64(np.arange(n, dtype=np.uint64) ^ sample._seed_key)
        assert np.unique(keys).size == n  # a bijection: keys never tie
        expected = gather_rows(cc_e_trace, np.sort(np.argsort(keys)[:CAP]))
        _assert_same_sample(drawn, expected)

    def test_chunkings_and_representations_agree(self, stores, cc_e_trace):
        reference = _table2_sample(_scan(stores[1024]))
        _assert_same_sample(_table2_sample(_scan(stores[4096])), reference)
        _assert_same_sample(_table2_sample(_scan(cc_e_trace)), reference)
        _assert_same_sample(_table2_sample(_scan(cc_e_trace.to_columnar())), reference)

    def test_any_three_way_partition_in_any_merge_order(self, stores):
        store = stores[1024]
        offsets = np.concatenate(([0], np.cumsum(store.chunk_rows())))
        chunks = [ScanChunk(store.read_chunk(i, columns=list(NUMERIC_DIMENSIONS)),
                            i, int(offsets[i])) for i in range(store.n_chunks)]
        consumer = ClusterSampleConsumer(CAP, SEED)
        serial = consumer.make_state()
        for chunk in chunks:
            serial = consumer.fold(serial, chunk)
        reference = consumer.finalize(serial)
        rng = np.random.default_rng(5)
        for _trial in range(4):
            lanes = rng.integers(0, 3, size=len(chunks))
            partials = []
            for lane in range(3):
                state = consumer.make_state()
                for chunk in (c for c, owner in zip(chunks, lanes) if owner == lane):
                    state = consumer.fold(state, chunk)
                partials.append(state)
            for order in itertools.permutations(range(3)):
                merged = consumer.make_state()
                for lane in order:
                    merged = consumer.merge(merged, partials[lane])
                _assert_same_sample(consumer.finalize(merged), reference)

    def test_serial_equals_parallel(self, stores):
        store = stores[1024]
        _assert_same_sample(
            _table2_sample(_scan(store, executor=ParallelExecutor(processes=2))),
            _table2_sample(_scan(store)))

    def test_uniform_over_rows(self):
        n, cap = 100_000, 20_000
        rows = np.arange(n, dtype=float)
        sample = fold_consumer(ColumnarTrace({dim: rows for dim in NUMERIC_DIMENSIONS}),
                               ClusterSampleConsumer(cap, seed=0))
        deciles = np.bincount((sample.block.column("input_bytes") // (n // 10)).astype(int),
                              minlength=10)
        assert deciles.sum() == cap
        assert np.all(np.abs(deciles - cap / 10) <= 0.1 * cap / 10), deciles


class TestResume:
    @pytest.fixture(scope="class")
    def growing(self, cc_e_trace, tmp_path_factory):
        """70 % of CC-e checkpointed, then three 10 % appends."""
        jobs = cc_e_trace.jobs
        cuts = [int(len(jobs) * f) for f in (0.7, 0.8, 0.9, 1.0)]
        directory = tmp_path_factory.mktemp("sample-resume") / "store"
        base_checkpoint = str(directory) + ".base.ck.json"
        rolling = str(directory) + ".rolling.ck.json"
        ChunkedTraceStore.write(directory, Trace(jobs[:cuts[0]], name="cc-e"),
                                chunk_rows=1024, name="cc-e")
        _scan(ChunkedTraceStore(directory), checkpoint_to=base_checkpoint)
        _scan(ChunkedTraceStore(directory), checkpoint_to=rolling)
        rounds = []
        for lo, hi in zip(cuts, cuts[1:]):
            store = append_store(directory, Trace(jobs[lo:hi], name="cc-e"))
            resumed = _scan(store, resume_from=rolling, checkpoint_to=rolling)
            rounds.append((resumed, _table2_sample(_scan(store))))
        return store, base_checkpoint, rounds

    def test_resumed_after_each_append_equals_cold(self, growing):
        _store, _base, rounds = growing
        for resumed, cold in rounds:
            assert resumed.resume["resumed"] == ["cluster_sample"]
            assert resumed.resume["rescanned"] == {}
            _assert_same_sample(_table2_sample(resumed), cold)

    @pytest.mark.parametrize("processes", [None, 2], ids=["serial", "parallel2"])
    def test_resumed_over_three_appends_equals_cold(self, growing, processes):
        store, base_checkpoint, rounds = growing
        executor = ParallelExecutor(processes=processes) if processes else None
        resumed = _scan(store, resume_from=base_checkpoint, executor=executor)
        assert resumed.resume["resumed"] == ["cluster_sample"]
        _assert_same_sample(_table2_sample(resumed), rounds[-1][1])

    @pytest.mark.parametrize("change", [{"seed": SEED + 1}, {"cluster_sample_cap": CAP - 1}],
                             ids=["seed", "cap"])
    def test_other_seed_or_cap_rescans_and_says_why(self, growing, change):
        store, base_checkpoint, _rounds = growing
        resumed = _scan(store, resume_from=base_checkpoint, **change)
        assert resumed.resume["resumed"] == []
        reason = resumed.resume["rescanned"]["cluster_sample"]
        assert "seed %d, cap %d" % (SEED, CAP) in reason
        _assert_same_sample(_table2_sample(resumed), _table2_sample(_scan(store, **change)))


class TestAtOrUnderTheCap:
    @pytest.mark.parametrize("cap", ["n", "n+1", None])
    def test_no_sample_is_drawn(self, stores, cc_e_trace, cap):
        n = len(cc_e_trace)
        cap = {"n": n, "n+1": n + 1, None: None}[cap]
        for source in (stores[1024], cc_e_trace):
            bundle = _scan(source, cluster_sample_cap=cap)
            assert bundle.has("cluster_sample")
            assert bundle.value("cluster_sample") is None
            assert ClusterSampleConsumer.for_source(TraceSource.wrap(source), cap, SEED) is None

    def test_table2_clusters_every_job(self, cc_b_small_trace):
        traces = {"CC-b": cc_b_small_trace}
        capped = table2(traces, max_k=4, max_jobs_per_workload=len(cc_b_small_trace))
        whole = cluster_jobs(cc_b_small_trace, max_k=4)
        assert capped.rows == [["CC-b"] + cluster.as_row() for cluster in whole.clusters]


class TestAgainstTheIndexDraw:
    """The replaced ``rng.choice`` draw, kept as an oracle: both samples find
    the paper's headline — small jobs dominate — to within 2 points."""

    @staticmethod
    def _index_draw(source, cap, seed, gather_rows):
        rng = np.random.default_rng(seed)
        picked = np.sort(rng.choice(len(source), size=cap, replace=False))
        return gather_rows(source, picked)

    @pytest.mark.parametrize("workload, scale", [("CC-b", 0.08), ("CC-e", 0.2)])
    def test_small_job_fraction_agrees(self, workload, scale, gather_rows):
        trace = load_workload(workload, seed=3, scale=scale)
        cap = 1000  # below both workloads' ~1.8k / ~2.2k jobs, so both draws sample
        assert len(trace) > cap
        hashed = fold_consumer(trace, ClusterSampleConsumer(cap, seed=0))
        indexed = self._index_draw(trace, cap, seed=0, gather_rows=gather_rows)
        fractions = [cluster_jobs(sample, max_k=6, seed=0).small_job_fraction
                     for sample in (hashed, indexed)]
        assert min(fractions) > 0.9, fractions
        assert abs(fractions[0] - fractions[1]) < 0.02, fractions
