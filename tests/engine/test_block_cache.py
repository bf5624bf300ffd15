"""The decoded-block cache behind ``read_chunk``: same answers and counters in
every cache state, admission by access path, identity-keyed entries, fork and
thread safety, and the read-only contract of decoded arrays."""

import multiprocessing
import os
import random
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import compare_catalog
from repro.core.characterization import characterize
from repro.core.sharedscan import run_characterization_scan
from repro.engine import (
    ChunkedTraceStore,
    ParallelExecutor,
    Query,
    append_store,
    block_cache_stats,
    build_indexes,
    clear_block_cache,
    execute,
    write_store,
)
from repro.engine import blockcache
from repro.engine.codecs import pack_block, unpack_block
from repro.errors import TraceFormatError
from repro.simulator import StreamingReplayer
from repro.traces import Job, Trace

CHUNK_ROWS = 64
#: One float64 column of one chunk: under this budget every insert evicts, and
#: the raw ``job_id`` text block (28 B/row) is larger than the whole cache.
ONE_BLOCK = CHUNK_ROWS * 8


def make_jobs(n, seed=0, offset=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return [Job(
        job_id="bc%05d" % (offset + index),
        submit_time_s=float((offset + index) * 60),
        duration_s=float(rng.lognormal(3, 1.5)),
        input_bytes=float(10 ** rng.uniform(3, 11)) * scale,
        shuffle_bytes=float(rng.lognormal(10, 2)),
        output_bytes=float(rng.lognormal(9, 2)),
        map_task_seconds=float(rng.lognormal(4, 1)),
        reduce_task_seconds=float(rng.lognormal(3, 1)),
        map_tasks=int(rng.integers(1, 50)),
        reduce_tasks=int(rng.integers(0, 10)),
        name="%s step" % ["select", "insert", "pig", "oozie", "hive"][int(rng.integers(5))],
        framework=["hive", "pig", "native"][(offset + index) % 3],
        workload="phase%03d" % ((offset + index) // 96),
    ) for index in range(n)]


JOBS = make_jobs(640, seed=1)


def make_store(directory, jobs=JOBS):
    store = write_store(directory, Trace(jobs, name="bc"), chunk_rows=CHUNK_ROWS)
    build_indexes(store).save()
    return ChunkedTraceStore(str(directory))


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory):
    return make_store(tmp_path_factory.mktemp("blockcache") / "store")


@pytest.fixture()
def store(tmp_path):
    """A private store for the tests that append to, damage or replace one."""
    return make_store(tmp_path / "store")


@pytest.fixture(autouse=True)
def cleared():
    clear_block_cache()
    yield
    clear_block_cache()


@pytest.fixture()
def one_block_budget(monkeypatch):
    monkeypatch.setattr(blockcache._BLOCKS, "max_bytes", ONE_BLOCK)


def point(job, *projection):
    query = Query().filter("input_bytes", "==", job.input_bytes)
    return query.project(list(projection)) if projection else query


#: label -> (query, the access path it must plan to).  ``dict`` columns
#: (framework / workload / name) and derived columns (total_bytes,
#: submit_hour) ride the same battery.
QUERIES = {
    "index-probe": (point(JOBS[321]), "index-probe"),
    "index-probe derived": (Query().filter("input_bytes", "<=", JOBS[321].input_bytes)
                            .project(["job_id", "total_bytes", "submit_hour", "framework"])
                            .limit(9), "index-probe"),
    "index-count": (Query().filter("framework", "==", "pig").count(), "index-count"),
    "index-topk": (Query().top("duration_s", 7), "index-topk"),
    "index-skip": (Query().filter("submit_time_s", "<", 9000.0)
                   .aggregate(total=("sum", "input_bytes"), n=("count", "input_bytes")),
                   "index-skip"),
    "index-skip LIMIT-truncated": (Query().filter("workload", "==", "phase002").limit(19),
                                   "index-skip"),
    "index-skip dict group": (Query().filter("workload", "==", "phase004")
                              .group_by("framework").aggregate(b=("sum", "total_bytes")),
                              "index-skip"),
    "zone-scan": (Query().filter("submit_hour", "<", 2.0)
                  .aggregate(n=("count", "input_bytes")), "zone-scan"),
    "scan": (Query().group_by("name")
             .aggregate(n=("count", "input_bytes"), t=("sum", "total_bytes")), "scan"),
    "scan derived group": (Query().group_by("submit_hour")
                           .aggregate(t=("sum", "total_bytes")), "scan"),
}


def answer(result):
    return result.aggregates, result.groups, result.row_dicts()


def counters(result):
    return (result.chunks_scanned, result.chunks_skipped,
            result.rows_scanned, result.rows_matched)


# ---------------------------------------------------------------------------
# (a) every access path x every cache state
# ---------------------------------------------------------------------------
class TestSameAnswerInEveryCacheState:
    @pytest.mark.parametrize("label", sorted(QUERIES))
    def test_cleared_warm_and_evicting(self, shared_store, monkeypatch, label):
        query, path = QUERIES[label]
        oracle = execute(shared_store, query, use_planner=False)
        clear_block_cache()
        cold = execute(shared_store, query)
        assert cold.plan.access_path == path
        assert "LIMIT-truncated" not in label or "truncated" in cold.plan.reason
        assert answer(cold) == answer(oracle)
        warm = execute(shared_store, query)
        monkeypatch.setattr(blockcache._BLOCKS, "max_bytes", ONE_BLOCK)
        clear_block_cache()
        evicting = [execute(shared_store, query) for _ in range(2)]
        for other in [warm] + evicting:
            assert answer(other) == answer(cold)
            # blocks *touched*: a hit changes none of them
            assert counters(other) == counters(cold)
            assert other.plan.to_dict() == cold.plan.to_dict()
        rescanned = execute(shared_store, query, use_planner=False)
        assert (answer(rescanned), counters(rescanned)) == (answer(oracle), counters(oracle))

    def test_warm_index_lookup_decodes_nothing(self, shared_store):
        query = QUERIES["index-topk"][0]
        execute(shared_store, query)
        before = block_cache_stats()
        assert before["entries"] > 0 and before["bytes"] > 0
        execute(shared_store, query)
        after = block_cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] == before["entries"]


# ---------------------------------------------------------------------------
# (b) threads under a one-block budget
# ---------------------------------------------------------------------------
class TestThreads:
    def test_eight_threads_agree_and_stay_inside_the_budget(self, shared_store,
                                                            one_block_budget, monkeypatch):
        cache = blockcache._BLOCKS
        expected = {label: answer(execute(shared_store, query))
                    for label, (query, _path) in QUERIES.items()}
        clear_block_cache()
        start = block_cache_stats()
        lookups, tally = [0], threading.Lock()
        real_get, real_put = cache.get, cache.put

        def counted_get(key):
            with tally:
                lookups[0] += 1
            return real_get(key)

        def checked_put(key, value, nbytes):
            real_put(key, value, nbytes)
            assert cache.stats()["bytes"] <= ONE_BLOCK

        monkeypatch.setattr(cache, "get", counted_get)
        monkeypatch.setattr(cache, "put", checked_put)

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(40):
                label = rng.choice(sorted(QUERIES))
                assert answer(execute(shared_store, QUERIES[label][0])) == expected[label], label
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(worker, seed) for seed in range(8)]
                assert all(future.result(timeout=120) for future in futures)
        finally:
            sys.setswitchinterval(interval)
        end = block_cache_stats()
        assert lookups[0] > 0
        assert (end["hits"] - start["hits"]) + (end["misses"] - start["misses"]) == lookups[0]
        assert end["evicted"] > start["evicted"]
        assert end["bytes"] <= ONE_BLOCK


# ---------------------------------------------------------------------------
# (c) whole-store passes read through, never insert
# ---------------------------------------------------------------------------
def _aggregate_in_two_processes(store):
    query = Query().aggregate(total=("sum", "input_bytes"))
    return ParallelExecutor(processes=2).run(store, query)


def _resumed_scan(store):
    checkpoint = os.path.join(os.path.dirname(store.directory), "scan.ck.json")
    run_characterization_scan(store, checkpoint_to=checkpoint)
    grown = append_store(store.directory, Trace(make_jobs(100, seed=5, offset=640)))
    bundle = run_characterization_scan(grown, resume_from=checkpoint)
    assert bundle.resume["resumed"]
    return bundle


def _compare_with_a_sibling(store):
    catalog = os.path.join(os.path.dirname(store.directory), "catalog")
    shutil.copytree(store.directory, os.path.join(catalog, "a"))
    make_store(os.path.join(catalog, "b"), make_jobs(200, seed=9))
    return compare_catalog(catalog)


BYPASS_READERS = {
    "characterize": lambda store: characterize(store, cluster=False),
    "compare_catalog": _compare_with_a_sibling,
    "replay_store": lambda store: StreamingReplayer().replay_store(store),
    "resumed scan": _resumed_scan,
    "forced scan": lambda store: execute(store, QUERIES["scan"][0], use_planner=False),
    "planned scan": lambda store: execute(store, QUERIES["scan"][0]),
    "ParallelExecutor": _aggregate_in_two_processes,
    "index build": lambda store: build_indexes(store),
    "iter_chunks": lambda store: sum(block.n_rows for block in store.iter_chunks()),
}


class TestBypass:
    @pytest.mark.parametrize("reader", sorted(BYPASS_READERS))
    def test_reads_through_without_inserting(self, store, reader):
        BYPASS_READERS[reader](store)
        assert block_cache_stats()["entries"] == 0  # cold: looked up, inserted nothing
        if reader == "compare_catalog":
            shutil.rmtree(os.path.join(os.path.dirname(store.directory), "catalog"))
        else:
            store = ChunkedTraceStore(store.directory)  # the resumed scan appended
        # A lookup admits blocks of every column ...
        execute(store, Query().top("input_bytes", 40))
        before = block_cache_stats()
        assert before["entries"] > 0
        BYPASS_READERS[reader](store)
        after = block_cache_stats()
        # ... which the whole-store pass finds but does not add to.
        assert (after["entries"], after["bytes"]) == (before["entries"], before["bytes"])
        assert after["evicted"] == before["evicted"]
        if reader not in ("ParallelExecutor", "compare_catalog"):
            # (the executor's hits happen in its children; the catalog
            # members are copies, i.e. other files)
            assert after["hits"] > before["hits"]


# ---------------------------------------------------------------------------
# (d) appends, rewrites, copies, damage: the key is the file's identity
# ---------------------------------------------------------------------------
class TestFileIdentity:
    def test_append_keeps_old_entries_and_reads_the_new_chunk(self, store):
        old_key = point(JOBS[100], "job_id", "input_bytes")
        execute(store, old_key)
        entries = block_cache_stats()["entries"]
        extra = make_jobs(70, seed=3, offset=640)
        grown = append_store(store.directory, Trace(extra))
        assert grown.manifest_sequence == store.manifest_sequence + 1
        before = block_cache_stats()
        found = execute(grown, point(extra[5], "job_id", "input_bytes"))
        assert found.plan.access_path == "index-probe"
        assert found.row_dicts() == [{"job_id": extra[5].job_id,
                                      "input_bytes": extra[5].input_bytes}]
        middle = block_cache_stats()
        assert middle["misses"] - before["misses"] == 2  # the new chunk's two columns
        assert middle["entries"] == entries + 2
        again = execute(grown, old_key)  # same files, same keys, new manifest
        after = block_cache_stats()
        assert after["misses"] == middle["misses"] and after["hits"] == middle["hits"] + 2
        assert again.row_dicts()[0]["job_id"] == JOBS[100].job_id

    def test_store_rewritten_in_place_never_hits(self, store):
        probe = Query().filter("submit_time_s", "==", 6000.0).project(["job_id", "input_bytes"])
        assert execute(store, probe).row_dicts()[0]["input_bytes"] == JOBS[100].input_bytes
        doubled = make_jobs(640, seed=1, scale=2.0)  # same shapes and sizes, other values
        rewritten = make_store(store.directory, doubled)
        assert rewritten.store_uid != store.store_uid
        before = block_cache_stats()
        assert execute(rewritten, probe).row_dicts()[0]["input_bytes"] == doubled[100].input_bytes
        after = block_cache_stats()
        # predicate column + the two projected ones, all decoded afresh
        assert after["hits"] == before["hits"] and after["misses"] == before["misses"] + 3

    def test_diverging_copies_answer_from_their_own_files(self, store, tmp_path):
        execute(store, Query().top("input_bytes", 40))  # warm the original
        copy_dir = str(tmp_path / "copy")
        shutil.copytree(store.directory, copy_dir)
        left, right = make_jobs(64, seed=11, offset=640), make_jobs(64, seed=12, offset=640)
        original = append_store(store.directory, Trace(left))
        copy = append_store(copy_dir, Trace(right))
        probe = Query().filter("submit_time_s", "==", float(650 * 60)).project(["input_bytes"])
        for _ in range(2):  # miss, then hit
            assert execute(original, probe).row_dicts() == [{"input_bytes": left[10].input_bytes}]
            assert execute(copy, probe).row_dicts() == [{"input_bytes": right[10].input_bytes}]

    @pytest.mark.parametrize("damage", ["deleted", "truncated", "bit-flipped"])
    def test_damage_after_caching_is_a_typed_error(self, store, damage):
        lookup = point(JOBS[100], "job_id", "input_bytes")
        assert execute(store, lookup).chunks_scanned == 1
        path = os.path.join(store.directory, "chunk-00001.input_bytes.bin")
        size = os.path.getsize(path)
        if damage == "deleted":
            os.unlink(path)
        elif damage == "truncated":
            os.truncate(path, size - 9)
        else:
            with open(path, "r+b") as handle:
                handle.seek(size - 20)
                byte = handle.read(1)
                handle.seek(size - 20)
                handle.write(bytes([byte[0] ^ 0x40]))
            # same size: make sure the clock's granularity cannot hide the write
            status = os.stat(path)
            os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns + 1))
        with pytest.raises(TraceFormatError) as raised:
            execute(store, lookup)
        if damage == "deleted":
            assert "cannot read chunk column chunk-00001.input_bytes.bin" in str(raised.value)

    def test_stat_failure_reads_like_the_open_failure_did(self, store):
        os.unlink(os.path.join(store.directory, "chunk-00000.duration_s.bin"))
        with pytest.raises(TraceFormatError, match="cannot read chunk column "
                                                   "chunk-00000.duration_s.bin"):
            store.read_chunk(0)


# ---------------------------------------------------------------------------
# (e) budget invariants
# ---------------------------------------------------------------------------
class TestBudget:
    def test_block_larger_than_the_budget_is_returned_uncached(self, shared_store,
                                                               one_block_budget):
        result = execute(shared_store, point(JOBS[321], "job_id", "input_bytes"))
        assert result.row_dicts() == [{"job_id": JOBS[321].job_id,
                                       "input_bytes": JOBS[321].input_bytes}]
        stats = block_cache_stats()
        assert stats["entries"] == 1 and stats["bytes"] == ONE_BLOCK  # input_bytes only

    def test_bytes_never_exceed_the_budget(self):
        lru = blockcache.ByteLRU(max_bytes=100)
        for key in range(50):
            lru.put(key, object(), 30 + key % 5)
            assert lru.stats()["bytes"] <= 100
        lru.put("oversize", object(), 101)
        assert lru.get("oversize") is None
        lru.put(49, object(), 100)  # replacing an entry re-counts it
        assert lru.stats() == {"entries": 1, "bytes": 100, "hits": 0, "misses": 1,
                               "invalidated": 0, "evicted": 49}


# ---------------------------------------------------------------------------
# read-only arrays, whatever the encoding, hit or miss
# ---------------------------------------------------------------------------
class TestReadOnly:
    @pytest.mark.parametrize("array,encoding", [
        (np.array([1.0, 2.5, np.nan]), "raw"),
        (np.array(["a", "bcd", ""]), "raw"),
        (np.array([10.0, 10.5, 99.0]), "delta64"),
        (np.array([0, 2, 1], dtype=np.uint32), "dict"),
    ], ids=["raw-numeric", "raw-text", "delta64", "dict"])
    def test_unpack_block_returns_a_read_only_array(self, array, encoding):
        header, decoded = unpack_block(pack_block(array, encoding, "zlib"))
        assert header["encoding"] == encoding
        assert np.array_equal(decoded, array, equal_nan=array.dtype.kind == "f")
        assert not decoded.flags.writeable
        with pytest.raises(ValueError):
            decoded[0] = decoded[1]

    def test_no_array_of_any_read_chunk_result_can_be_written(self, shared_store):
        miss = shared_store.read_chunk(3, admit=True)
        hit = shared_store.read_chunk(3)
        assert block_cache_stats()["hits"] >= len(shared_store.columns)
        for block in (miss, hit):
            arrays = dict(block.columns, **{"codes:" + k: v for k, v in block.codes.items()})
            assert sorted(arrays) == sorted(
                set(shared_store.columns) - set(block.codes) | {"codes:" + k for k in block.codes})
            for name, array in arrays.items():
                with pytest.raises(ValueError):
                    array[0] = array[1]
        # Each call builds its own block: lazily decoded strings land in the
        # caller's dict, never in the shared entry.
        assert miss.columns is not hit.columns and miss.codes is not hit.codes
        assert hit.column("framework")[0] == JOBS[192].framework
        assert "framework" not in shared_store.read_chunk(3).columns


# ---------------------------------------------------------------------------
# fork safety
# ---------------------------------------------------------------------------
def _child_reads(directory):
    block = ChunkedTraceStore(directory).read_chunk(0, admit=True)
    os._exit(0 if block.n_rows == CHUNK_ROWS else 3)


def test_fork_while_another_thread_holds_the_lock(shared_store):
    holding, release = threading.Event(), threading.Event()

    def park():
        with blockcache._BLOCKS._lock:
            holding.set()
            release.wait(60)

    parked = threading.Thread(target=park)
    parked.start()
    try:
        assert holding.wait(10)
        child = multiprocessing.get_context("fork").Process(
            target=_child_reads, args=(shared_store.directory,))
        child.start()
        child.join(30)
        deadlocked = child.is_alive()
        if deadlocked:
            child.kill()
            child.join(10)
        assert not deadlocked, "forked child blocked on the parent's cache lock"
        assert child.exitcode == 0
    finally:
        release.set()
        parked.join(10)
    assert not parked.is_alive()
