"""Secondary-index sidecar: roundtrips, staleness, append extension."""

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import (
    ChunkedTraceStore,
    InvertedColumnIndex,
    Query,
    SortedColumnIndex,
    StaleIndexError,
    StoreAppender,
    StoreIndexes,
    build_indexes,
    drop_indexes,
    execute,
    indexable_columns,
    load_indexes,
)
from repro.traces import Job, Trace


def make_jobs(n, seed=0, offset=0):
    rng = np.random.default_rng(seed)
    jobs = []
    for index in range(n):
        jobs.append(Job(
            job_id="ix%05d" % (offset + index),
            submit_time_s=float((offset + index) * 5),
            duration_s=float(rng.lognormal(3, 1.5)),
            input_bytes=float(10 ** rng.uniform(3, 11)),
            shuffle_bytes=float(rng.lognormal(10, 2)),
            output_bytes=float(rng.lognormal(9, 2)),
            map_task_seconds=float(rng.lognormal(4, 1)),
            reduce_task_seconds=float(rng.lognormal(3, 1)),
            map_tasks=int(rng.integers(1, 50)),
            reduce_tasks=int(rng.integers(0, 10)),
            framework=["hive", "pig", "native"][index % 3],
            workload="phase%03d" % ((offset + index) // 97),
        ))
    return jobs


def make_store(directory, n=300, seed=0, chunk_rows=64):
    trace = Trace(make_jobs(n, seed=seed), name="ixtest")
    return ChunkedTraceStore.write(directory, trace, chunk_rows=chunk_rows)


def assert_indexes_equal(left, right):
    assert sorted(left.columns) == sorted(right.columns)
    for name in left.columns:
        a, b = left.column(name), right.column(name)
        assert a.kind == b.kind
        for key, array in a.arrays().items():
            assert np.array_equal(array, b.arrays()[key]), (name, key)


# ---------------------------------------------------------------------------
# SortedColumnIndex against naive masks
# ---------------------------------------------------------------------------
class TestSortedColumnIndex:
    CHUNKS = [
        np.array([5.0, np.nan, 3.0, 3.0, -1.0]),
        np.array([np.nan, np.nan]),
        np.array([], dtype=np.float64),
        np.array([3.0, 100.0, 3.0, 0.5]),
    ]

    def naive_positions(self, op, value):
        import operator
        fn = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge}[op]
        out = []
        for chunk, values in enumerate(self.CHUNKS):
            for row, item in enumerate(values):
                if np.isfinite(item) and fn(item, value):
                    out.append((chunk, row))
        return out

    @pytest.mark.parametrize("op", ["==", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("value", [3.0, -1.0, 0.0, 100.0, 42.0])
    def test_probe_matches_naive(self, op, value):
        index = SortedColumnIndex.build("x", self.CHUNKS)
        lo, hi = index.probe(op, value)
        chunks, rows = index.positions(lo, hi)
        got = sorted(zip(chunks.tolist(), rows.tolist()))
        assert got == self.naive_positions(op, value)
        assert index.count(op, value) == len(got)
        counts = index.chunk_counts(lo, hi, len(self.CHUNKS))
        naive_counts = np.bincount([c for c, _ in got], minlength=len(self.CHUNKS))
        assert np.array_equal(counts, naive_counts)

    def test_values_sorted_with_store_order_ties(self):
        index = SortedColumnIndex.build("x", self.CHUNKS)
        assert np.all(np.diff(index.values) >= 0)
        # ties at 3.0 must be in (chunk, row) order
        lo, hi = index.probe("==", 3.0)
        positions = list(zip(index.chunks[lo:hi].tolist(),
                             index.rows[lo:hi].tolist()))
        assert positions == sorted(positions)
        assert positions == [(0, 2), (0, 3), (3, 0), (3, 2)]

    def test_nan_literal_probes_empty(self):
        index = SortedColumnIndex.build("x", self.CHUNKS)
        assert index.probe("==", float("nan")) == (0, 0)
        assert index.probe("<", "not-a-number") is None
        assert index.probe("finite", 1.0) is None

    def test_chunk_entries_counts_finite_rows(self):
        index = SortedColumnIndex.build("x", self.CHUNKS)
        assert index.chunk_entries.tolist() == [4, 0, 0, 4]

    def test_top_entries_matches_scan_tie_semantics(self):
        # ties at the boundary: scan keeps the *latest* store positions
        index = SortedColumnIndex.build("x", self.CHUNKS)
        picked = index.top_entries(3, largest=False)
        values = index.values[picked]
        positions = list(zip(index.chunks[picked].tolist(),
                             index.rows[picked].tolist()))
        assert values.tolist() == [-1.0, 0.5, 3.0]
        # four rows carry 3.0; the kept one must be the latest: (3, 2)
        assert positions[-1] == (3, 2)
        top = index.top_entries(2, largest=True)
        assert index.values[top].tolist() == [5.0, 100.0]
        assert index.top_entries(50, largest=True).shape[0] == index.entries

    def test_chunk_counts_from_racing_threads(self):
        # The daemon's request threads share one loaded index, so the first
        # chunk_counts calls can race to build its chunk key table.
        rng = np.random.default_rng(3)
        arrays = [rng.integers(0, 40, size=200).astype(np.float64) for _ in range(6)]
        runs = [(0, 0), (0, 1200), (17, 900), (300, 301), (1199, 1200)]
        threads = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                for _ in range(20):
                    index = SortedColumnIndex.build("x", arrays)
                    start = threading.Barrier(threads)

                    def counts(lo, hi, index=index, start=start):
                        start.wait(timeout=10)
                        return index.chunk_counts(lo, hi, len(arrays))

                    futures = [pool.submit(counts, *runs[i % len(runs)])
                               for i in range(threads)]
                    for i, future in enumerate(futures):
                        lo, hi = runs[i % len(runs)]
                        expected = np.bincount(index.chunks[lo:hi], minlength=len(arrays))
                        assert future.result(timeout=30).tolist() == expected.tolist()
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# InvertedColumnIndex against naive counts
# ---------------------------------------------------------------------------
class TestInvertedColumnIndex:
    CHUNKS = [
        np.array([0, 1, 0, 2, 1], dtype=np.uint32),
        np.array([], dtype=np.uint32),
        np.array([2, 2, 2], dtype=np.uint32),
        np.array([1, 0], dtype=np.uint32),
    ]

    def test_counts_match_naive(self):
        index = InvertedColumnIndex.build("s", self.CHUNKS)
        for code in (0, 1, 2, 3):
            naive = sum(int(np.sum(chunk == code)) for chunk in self.CHUNKS)
            assert index.count_code(code) == naive
            per_chunk = index.chunk_counts_code(code, len(self.CHUNKS))
            naive_per_chunk = [int(np.sum(chunk == code))
                               for chunk in self.CHUNKS]
            assert per_chunk.tolist() == naive_per_chunk

    def test_posting_row_ranges_bound_occurrences(self):
        index = InvertedColumnIndex.build("s", self.CHUNKS)
        for posting in range(index.postings):
            code = int(index.codes[posting])
            chunk = int(index.chunks[posting])
            rows = np.flatnonzero(self.CHUNKS[chunk] == code)
            assert index.first_rows[posting] == rows.min()
            assert index.last_rows[posting] == rows.max()
            assert index.counts[posting] == rows.shape[0]

    def test_missing_code_probes_empty(self):
        index = InvertedColumnIndex.build("s", self.CHUNKS)
        lo, hi = index.probe_code(99)
        assert lo == hi
        assert index.count_code(99) == 0

    def test_entries_cover_every_row(self):
        index = InvertedColumnIndex.build("s", self.CHUNKS)
        assert index.entries == sum(chunk.shape[0] for chunk in self.CHUNKS)
        assert index.chunk_entries.tolist() == [5, 0, 3, 2]


# ---------------------------------------------------------------------------
# Hypothesis property tests: build/probe roundtrips
# ---------------------------------------------------------------------------
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

chunked_floats = st.lists(
    st.lists(st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                       st.just(float("nan"))),
             max_size=12),
    min_size=1, max_size=6)

# Few distinct values, so runs cross chunks and split tie groups.
chunked_tied_floats = st.lists(
    st.lists(st.one_of(st.sampled_from([-2.0, 0.0, 1.5, 7.0]),
                       st.floats(min_value=-1e6, max_value=1e6),
                       st.just(float("nan"))),
             max_size=12),
    min_size=1, max_size=6)

chunked_codes = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), max_size=12),
    min_size=1, max_size=6)


class TestIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(chunks=chunked_floats, value=st.floats(min_value=-1e6, max_value=1e6),
           op=st.sampled_from(["==", "<", "<=", ">", ">="]))
    def test_sorted_probe_equals_naive(self, chunks, value, op):
        arrays = [np.asarray(chunk, dtype=np.float64) for chunk in chunks]
        index = SortedColumnIndex.build("x", arrays)
        assert np.all(np.diff(index.values) >= 0)
        lo, hi = index.probe(op, value)
        got = sorted(zip(index.chunks[lo:hi].tolist(),
                         index.rows[lo:hi].tolist()))
        import operator
        fn = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge}[op]
        naive = [(c, r) for c, values in enumerate(arrays)
                 for r, item in enumerate(values)
                 if np.isfinite(item) and fn(item, value)]
        assert got == naive

    @settings(max_examples=60, deadline=None)
    @given(chunks=chunked_floats)
    def test_sorted_index_is_a_permutation_of_finite_rows(self, chunks):
        arrays = [np.asarray(chunk, dtype=np.float64) for chunk in chunks]
        index = SortedColumnIndex.build("x", arrays)
        got = sorted((int(c), int(r), float(v)) for c, r, v in
                     zip(index.chunks, index.rows, index.values))
        naive = sorted((c, r, float(item)) for c, values in enumerate(arrays)
                       for r, item in enumerate(values) if np.isfinite(item))
        assert got == naive
        assert index.chunk_entries.tolist() == [
            int(np.isfinite(values).sum()) for values in arrays]

    @settings(max_examples=60, deadline=None)
    @given(chunks=chunked_codes, code=st.integers(min_value=0, max_value=9))
    def test_inverted_counts_equal_naive(self, chunks, code):
        arrays = [np.asarray(chunk, dtype=np.uint32) for chunk in chunks]
        index = InvertedColumnIndex.build("s", arrays)
        naive_per_chunk = [int(np.sum(chunk == code)) for chunk in arrays]
        assert index.count_code(code) == sum(naive_per_chunk)
        assert index.chunk_counts_code(code, len(arrays)).tolist() == naive_per_chunk

    @settings(max_examples=40, deadline=None)
    @given(chunks=chunked_floats, split=st.integers(min_value=1, max_value=5))
    def test_sorted_incremental_extension_equals_rebuild(self, chunks, split):
        arrays = [np.asarray(chunk, dtype=np.float64) for chunk in chunks]
        split = min(split, len(arrays))
        base = SortedColumnIndex.build("x", arrays[:split])
        extended = base.extended(split, arrays[split:])
        rebuilt = SortedColumnIndex.build("x", arrays)
        for key, array in rebuilt.arrays().items():
            assert np.array_equal(array, extended.arrays()[key]), key

    @settings(max_examples=40, deadline=None)
    @given(chunks=chunked_codes, split=st.integers(min_value=1, max_value=5))
    def test_inverted_incremental_extension_equals_rebuild(self, chunks, split):
        arrays = [np.asarray(chunk, dtype=np.uint32) for chunk in chunks]
        split = min(split, len(arrays))
        base = InvertedColumnIndex.build("s", arrays[:split])
        extended = base.extended(split, arrays[split:])
        rebuilt = InvertedColumnIndex.build("s", arrays)
        for key, array in rebuilt.arrays().items():
            assert np.array_equal(array, extended.arrays()[key]), key

    @settings(max_examples=60, deadline=None)
    @given(chunks=chunked_tied_floats, split=st.integers(min_value=1, max_value=6),
           cuts=st.lists(st.tuples(st.floats(min_value=0, max_value=1),
                                   st.floats(min_value=0, max_value=1)),
                         max_size=8),
           extra=st.integers(min_value=0, max_value=2))
    def test_chunk_counts_equal_bincount(self, chunks, split, cuts, extra):
        arrays = [np.asarray(chunk, dtype=np.float64) for chunk in chunks]
        split = min(split, len(arrays))
        # a built index, and the base + one-run-per-append shape of an
        # appended store
        built = SortedColumnIndex.build("x", arrays)
        merged = SortedColumnIndex.build("x", arrays[:split])._merged(
            [SortedColumnIndex._run("x", chunk, [arrays[chunk]])
             for chunk in range(split, len(arrays))])
        n_chunks = len(arrays) + extra  # trailing chunks with no entries
        for index in (built, merged):
            entries = index.entries
            runs = [(0, 0), (0, entries), (entries, entries)] + [
                tuple(sorted((int(a * entries), int(b * entries))))
                for a, b in cuts]
            for lo, hi in runs:
                expected = np.bincount(index.chunks[lo:hi], minlength=n_chunks)
                got = index.chunk_counts(lo, hi, n_chunks)
                assert got.tolist() == expected.tolist(), (lo, hi)


# ---------------------------------------------------------------------------
# The sidecar: save/load, staleness, append extension
# ---------------------------------------------------------------------------
class TestStoreIndexes:
    def test_indexable_columns_by_encoding(self, tmp_path):
        store = make_store(tmp_path / "s")
        kinds = indexable_columns(store)
        assert kinds["input_bytes"] == "sorted"
        assert kinds["framework"] == "inverted"
        assert "total_bytes" not in kinds  # derived columns are not indexed
        assert store.string_encodings["job_id"] == "raw"
        assert "job_id" not in kinds  # no dictionary, no inverted index

    def test_save_load_roundtrip(self, tmp_path):
        store = make_store(tmp_path / "s")
        built = build_indexes(store)
        built.save()
        loaded = load_indexes(store)
        assert loaded is not None
        assert loaded.stale_reason(store) is None
        assert_indexes_equal(built, loaded)
        sizes = loaded.sizes()
        assert set(sizes) == set(loaded.columns)
        assert all(size > 0 for size in sizes.values())

    def test_load_missing_returns_none(self, tmp_path):
        # strict only hardens freshness of an *existing* sidecar; absence is
        # an ordinary "no index" answer either way
        store = make_store(tmp_path / "s")
        assert load_indexes(store) is None
        assert load_indexes(store, strict=True) is None

    def test_append_extends_instead_of_rebuilding(self, tmp_path, monkeypatch):
        store = make_store(tmp_path / "s", n=256, chunk_rows=64)
        build_indexes(store).save()
        handle = load_indexes(store)
        for name in handle.columns:  # force arrays into memory pre-append
            handle.column(name)

        recorded = []
        real_read = ChunkedTraceStore.read_chunk

        def recording(self, index, columns=None):
            recorded.append(index)
            return real_read(self, index, columns=columns)

        monkeypatch.setattr(ChunkedTraceStore, "read_chunk", recording)
        appended = StoreAppender(store).append(
            Trace(make_jobs(128, seed=7, offset=256), name="more"))
        # the auto-extension (and anything else in the append path) must never
        # re-read the chunks the sidecar already covers
        assert recorded, "extension read no chunks"
        assert min(recorded) >= 4, recorded
        monkeypatch.setattr(ChunkedTraceStore, "read_chunk", real_read)

        extended = load_indexes(appended)
        assert extended is not None
        assert extended.stale_reason(appended) is None
        assert extended.manifest_sequence == appended.manifest_sequence
        assert_indexes_equal(extended, build_indexes(appended))

    def test_append_then_query_equivalence(self, tmp_path):
        store = make_store(tmp_path / "s", n=256, chunk_rows=64)
        build_indexes(store).save()
        appended = StoreAppender(store).append(
            Trace(make_jobs(200, seed=7, offset=256), name="more"))
        queries = [
            Query().filter("framework", "==", "pig").count(),
            Query().filter("input_bytes", ">", 1e7).limit(19),
            Query().top("duration_s", 11),
            Query().filter("submit_time_s", "<", 800.0)
                   .aggregate(total=("sum", "input_bytes")),
        ]
        for query in queries:
            via_index = execute(appended, query)
            via_scan = execute(appended, query, use_planner=False)
            if via_index.aggregates is not None:
                assert via_index.aggregates == via_scan.aggregates
            else:
                assert via_index.row_dicts() == via_scan.row_dicts()

    def test_stale_sequence_is_refused(self, tmp_path):
        store = make_store(tmp_path / "s", n=256, chunk_rows=64)
        build_indexes(store).save()
        manifest_path = os.path.join(store.directory, "index.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["manifest_sequence"] += 3
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        reopened = ChunkedTraceStore(store.directory)
        with pytest.raises(StaleIndexError):
            load_indexes(reopened, strict=True)
        lenient = load_indexes(reopened)
        assert lenient is not None
        assert lenient.stale_reason(reopened) is not None

    def test_stale_index_falls_back_to_scan(self, tmp_path):
        store = make_store(tmp_path / "s", n=256, chunk_rows=64)
        build_indexes(store).save()
        manifest_path = os.path.join(store.directory, "index.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["store_uid"] = "someone-else"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        reopened = ChunkedTraceStore(store.directory)
        query = Query().filter("framework", "==", "hive").count()
        result = execute(reopened, query)
        assert result.plan is not None
        assert result.plan.stale_index
        assert not result.plan.used_index
        assert result.aggregates == execute(reopened, query,
                                            use_planner=False).aggregates

    def test_uid_mismatch_refuses_extension(self, tmp_path):
        store = make_store(tmp_path / "a", n=128, chunk_rows=64)
        other = make_store(tmp_path / "b", n=128, seed=5, chunk_rows=64)
        indexes = build_indexes(store)
        with pytest.raises(StaleIndexError):
            indexes.extend(other)

    def test_drop_indexes(self, tmp_path):
        store = make_store(tmp_path / "s")
        build_indexes(store).save()
        assert load_indexes(store) is not None
        removed = drop_indexes(store)
        assert removed > 0
        assert load_indexes(store) is None

    def test_info_reports_freshness_and_sizes(self, tmp_path):
        store = make_store(tmp_path / "s")
        build_indexes(store).save()
        reopened = ChunkedTraceStore(store.directory)
        info = reopened.info()
        assert info["indexes"] is not None
        assert info["indexes"]["fresh"]
        assert info["indexes"]["on_disk_bytes"] > 0
        assert info["indexes"]["columns"]["framework"]["kind"] == "inverted"
        bare = make_store(tmp_path / "bare")
        assert bare.info()["indexes"] is None
