"""The grouped-aggregation kernel against the per-key loop it replaced.

``oracle_update`` below is the previous implementation of group-by, kept here
as the differential oracle: one ``block.take`` and one set of
``AggregateState`` objects per distinct key of every chunk.  The kernel must
agree with it exactly on key sets, counts, extrema and sketch bins, and to
``rel=1e-12`` on sums (the kernel adds a chunk's values in row order, the
oracle gathers them and sums pairwise).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.temporal import HOURLY_DIMENSION_SPECS, HourlyTotalsConsumer
from repro.engine import (
    ColumnarTrace,
    HistogramSketch,
    ParallelExecutor,
    Query,
    execute,
    make_aggregate,
    write_store,
)
from repro.engine import aggregates as aggregates_module
from repro.engine.aggregates import CountState, GroupedAggregates
from repro.engine.codecs import StringDictionary
from repro.engine.columnar import ColumnBlock
from repro.engine.pipeline import Checkpoint, ScanPipeline
from repro.errors import AnalysisError

OPS = ("rows", "count", "sum", "min", "max", "mean", "cdf", "sketch", "p50", "percentile:90")
SPECS = tuple(("a%d" % index, op, "input_bytes") for index, op in enumerate(OPS))
SUM_OPS = ("sum", "mean")

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "hourly_checkpoint_parent.json")


# ---------------------------------------------------------------------------
# The oracle: the per-key loop, as it was in engine/operators.py
# ---------------------------------------------------------------------------
def _oracle_states(specs):
    return {label: CountState() if op == "rows" else make_aggregate(op)
            for label, op, _column in specs}


def _oracle_update_states(states, block, specs):
    for label, op, column in specs:
        if op == "rows":
            states[label].count += block.n_rows
        else:
            states[label].update(block.column(column))


def oracle_update(groups, block, specs, group_column):
    keys = block.column(group_column)
    if keys.dtype.kind not in "US":
        missing = np.isnan(keys)
        if missing.any():
            states = groups.setdefault(None, _oracle_states(specs))
            _oracle_update_states(states, block.select(missing), specs)
            block = block.select(~missing)
            keys = keys[~missing]
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    boundaries = np.searchsorted(inverse[order], np.arange(unique_keys.size + 1))
    for key_index in range(unique_keys.size):
        rows = order[boundaries[key_index]:boundaries[key_index + 1]]
        group_key = unique_keys[key_index].item()
        states = groups.setdefault(group_key, _oracle_states(specs))
        _oracle_update_states(states, block.take(rows), specs)


def oracle_result(groups):
    return {key: {label: state.result() for label, state in states.items()}
            for key, states in groups.items()}


def _comparable(value):
    """Sketch objects compare by their fields; everything else as is."""
    if isinstance(value, HistogramSketch):
        return (value.counts.tolist(), value.zero_count, value.n, value.low, value.high)
    return value


def assert_groups_match(actual, expected, specs=SPECS):
    assert set(actual) == set(expected)
    for key, group in expected.items():
        for label, op, _column in specs:
            got, want = _comparable(actual[key][label]), _comparable(group[label])
            if op in SUM_OPS and want is not None:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (key, label)
            else:
                assert got == want, (key, label, op)
                assert type(got) is type(want), (key, label, op)


# ---------------------------------------------------------------------------
# Chunk generators: four kinds of group key
# ---------------------------------------------------------------------------
KEY_POOL = ["", "a", "b", "select 1", "z" * 12, "é"]
VALUES = st.one_of(st.sampled_from([float("nan"), float("inf"), 0.0, 1e-9, 1e20]),
                   st.floats(min_value=0.0, max_value=1e13, allow_nan=False))
CHUNK = st.lists(st.tuples(st.integers(0, len(KEY_POOL)), VALUES), max_size=24)
CHUNKS = st.lists(CHUNK, min_size=1, max_size=5)


def _blocks(chunks, kind):
    """``(group column, blocks)``; key id ``len(KEY_POOL)`` is the NaN key
    where the kind has one, else it wraps round to the first key."""
    table = StringDictionary([])
    blocks = []
    for chunk in chunks:
        ids = np.array([key for key, _value in chunk], dtype=np.int64)
        values = np.array([value for _key, value in chunk], dtype=float)
        if kind in ("coded", "raw"):
            names = np.asarray([KEY_POOL[key % len(KEY_POOL)] for key in ids.tolist()],
                               dtype=np.str_)
            if kind == "raw":
                blocks.append(ColumnBlock({"name": names, "input_bytes": values}))
            else:
                blocks.append(ColumnBlock({"input_bytes": values},
                                          {"name": table.encode(names)}, {"name": table}))
        else:
            numbers = np.where(ids == len(KEY_POOL), np.nan, ids * 2.5)
            column = "duration_s" if kind == "numeric" else "submit_time_s"
            blocks.append(ColumnBlock({column: numbers * (1.0 if kind == "numeric" else 3600.0),
                                       "input_bytes": values}))
    return {"coded": "name", "raw": "name", "numeric": "duration_s",
            "derived": "submit_hour"}[kind], blocks


def _fold(blocks, group_column, specs=SPECS):
    state = GroupedAggregates(specs, group_column)
    for block in blocks:
        state.update(block)
    return state


@pytest.mark.parametrize("kind", ["coded", "raw", "numeric", "derived"])
@settings(max_examples=60, deadline=None)
@given(chunks=CHUNKS)
def test_kernel_matches_per_key_loop(kind, chunks):
    group_column, blocks = _blocks(chunks, kind)
    groups = {}
    for block in blocks:
        if block.n_rows:
            oracle_update(groups, block, SPECS, group_column)
    expected = oracle_result(groups)
    actual = _fold(blocks, group_column).result()
    assert_groups_match(actual, expected)
    numeric = [key for key in actual if key is not None]
    assert list(actual) == sorted(numeric) + [None] * (len(actual) - len(numeric))


@pytest.mark.parametrize("kind", ["coded", "raw", "numeric", "derived"])
@settings(max_examples=40, deadline=None)
@given(chunks=CHUNKS, seed=st.integers(0, 2 ** 16))
def test_merge_of_any_partition_in_any_order(kind, chunks, seed):
    group_column, blocks = _blocks(chunks, kind)
    whole = _fold(blocks, group_column).result()
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, 3, size=len(blocks))
    parts = [_fold([block for block, who in zip(blocks, owner) if who == part], group_column)
             for part in range(3)]
    merged = GroupedAggregates(SPECS, group_column)
    for part in rng.permutation(3):
        merged.merge(parts[part])
    assert_groups_match(merged.result(), whole)
    assert list(merged.result()) == list(whole)


def test_all_nan_group_exists_with_empty_read_outs():
    block = ColumnBlock({"name": np.array(["x", "x", "y"]),
                         "input_bytes": np.array([np.nan, np.nan, 3.0])})
    result = _fold([block], "name").result()
    by_op = {op: result["x"][label] for label, op, _column in SPECS}
    assert by_op["rows"] == 2 and by_op["count"] == 0 and by_op["sum"] == 0.0
    assert by_op["min"] is None and by_op["max"] is None and by_op["mean"] is None
    assert by_op["p50"] is None and by_op["cdf"] == [] and by_op["sketch"].n == 0


def test_negative_sample_in_a_sketch_op_is_an_analysis_error():
    block = ColumnBlock({"name": np.array(["x"]), "input_bytes": np.array([-1.0])})
    with pytest.raises(AnalysisError, match="non-negative"):
        _fold([block], "name", specs=(("p", "p99", "input_bytes"),))


def test_integer_valued_keys_and_values():
    block = ColumnBlock({"map_tasks": np.array([3, 1, 3], dtype=np.int64),
                         "reduce_tasks": np.array([5, 7, 2], dtype=np.int64)})
    specs = (("low", "min", "reduce_tasks"), ("total", "sum", "reduce_tasks"))
    assert _fold([block], "map_tasks", specs).result() == {
        1: {"low": 7.0, "total": 7.0}, 3: {"low": 2.0, "total": 7.0}}


def test_blocks_coded_against_different_tables_group_by_string():
    """Codes are only comparable within one table; across tables (a federated
    scan, a pickled partial) the state falls back to the strings."""
    blocks = []
    for names in (["a", "b", "a"], ["b", "c"]):
        table = StringDictionary([])
        blocks.append(ColumnBlock({"input_bytes": np.ones(len(names))},
                                  {"name": table.encode(np.array(names))}, {"name": table}))
    state = _fold(blocks, "name", specs=(("n", "rows", "submit_time_s"),))
    assert state.result() == {"a": {"n": 2}, "b": {"n": 2}, "c": {"n": 1}}


# ---------------------------------------------------------------------------
# Through the operators: filters, stores, worker processes
# ---------------------------------------------------------------------------
def _columns(n_rows=600, seed=5):
    rng = np.random.default_rng(seed)
    input_bytes = np.floor(rng.lognormal(12, 3, size=n_rows))
    input_bytes[rng.random(n_rows) < 0.1] = np.nan
    return {
        "job_id": np.array(["g%04d" % index for index in range(n_rows)]),
        "submit_time_s": np.cumsum(rng.exponential(400.0, size=n_rows)),
        "duration_s": rng.uniform(1.0, 500.0, size=n_rows),
        "input_bytes": input_bytes,
        "name": np.array(["name %d" % value for value in rng.integers(0, 23, size=n_rows)]),
    }


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("grouped") / "store"
    return write_store(directory, ColumnarTrace(_columns(), name="grouped"),
                       chunk_rows=64)


def _query(group_column):
    return Query().group_by(group_column).aggregate(
        **{label: (op, column) for label, op, column in SPECS})


@pytest.mark.parametrize("group_column", ["name", "submit_hour"])
def test_store_scan_matches_oracle_and_parallel_matches_serial(store, group_column):
    groups = {}
    for block in store.iter_chunks():
        oracle_update(groups, block, SPECS, group_column)
    serial = execute(store, _query(group_column))
    assert_groups_match(serial.groups, oracle_result(groups))
    parallel = ParallelExecutor(processes=2).run(store, _query(group_column))
    assert_groups_match(parallel.groups, serial.groups)
    assert list(parallel.groups) == list(serial.groups)
    assert (parallel.rows_scanned, parallel.chunks_scanned) == (
        serial.rows_scanned, serial.chunks_scanned)


def test_filtered_to_empty_chunks_and_keys_first_seen_late(store):
    cut = float(store.chunk_zone(store.n_chunks - 2, "submit_time_s")[0])
    query = _query("name").filter("submit_time_s", ">=", cut).filter("duration_s", ">", 250.0)
    result = execute(store, query, use_planner=False)
    groups = {}
    for block in store.iter_chunks():
        keep = (block.column("submit_time_s") >= cut) & (block.column("duration_s") > 250.0)
        if keep.any():
            oracle_update(groups, block.select(keep), SPECS, "name")
    assert result.chunks_skipped > 0 and groups
    assert_groups_match(result.groups, oracle_result(groups))


def _sequential(values):
    total = 0.0
    for value in values:
        total += float(value)
    return total


def test_group_sum_order_is_row_order_per_chunk_then_chunk_order(tmp_path):
    """The documented summation order, pinned exactly: a group's ``sum`` adds
    each chunk's finite values one at a time in row order, then adds the chunk
    totals in chunk order.  The values span 14 decades, so a pairwise sum, one
    sequential pass over all rows, the chunk totals in reverse, or pairwise
    chunk totals each land on another float — a change of order fails here."""
    rng = np.random.default_rng(0)
    n_rows, chunk_rows = 640, 64
    values = rng.uniform(0.0, 1.0, n_rows) * 10.0 ** rng.integers(-3, 12, n_rows)
    values[rng.random(n_rows) < 0.05] = np.nan
    names = np.array(["a", "b", "c"])[rng.integers(0, 3, n_rows)]
    columns = {"job_id": np.array(["s%04d" % row for row in range(n_rows)]),
               "submit_time_s": np.arange(n_rows, dtype=np.float64),
               "input_bytes": values, "name": names}
    store = write_store(tmp_path / "store", ColumnarTrace(columns, name="sums"),
                        chunk_rows=chunk_rows)
    query = Query().group_by("name").aggregate(total=("sum", "input_bytes"),
                                               avg=("mean", "input_bytes"))
    groups = execute(store, query).groups
    orders_differ = [False] * 4
    for name in ("a", "b", "c"):
        chunks = [values[start:start + chunk_rows][names[start:start + chunk_rows] == name]
                  for start in range(0, n_rows, chunk_rows)]
        chunks = [chunk[np.isfinite(chunk)] for chunk in chunks]
        expected = _sequential(_sequential(chunk) for chunk in chunks)
        assert groups[name]["total"] == expected
        assert groups[name]["avg"] == expected / sum(chunk.size for chunk in chunks)
        others = (float(np.sum(np.concatenate(chunks))),
                  _sequential(np.concatenate(chunks)),
                  _sequential(_sequential(chunk) for chunk in reversed(chunks)),
                  _sequential(float(np.sum(chunk)) for chunk in chunks))
        orders_differ = [seen or other != expected
                         for seen, other in zip(orders_differ, others)]
    assert all(orders_differ)  # the fixture tells every other order apart


# ---------------------------------------------------------------------------
# The hourly fold is the same state: checkpoints written before the kernel
# ---------------------------------------------------------------------------
HOURLY_SPECS = dict(HOURLY_DIMENSION_SPECS, low=("min", "input_bytes"),
                    high=("max", "duration_s"), avg=("mean", "input_bytes"))
FIXTURE_CHUNK_ROWS = 8
FIXTURE_PREFIX_ROWS = 24


def _fixture_columns(n_rows=40):
    """Integer-valued, so every summation order gives the same totals."""
    index = np.arange(n_rows, dtype=float)
    input_bytes = 1000.0 + (index * 37.0) % 11.0
    input_bytes[[5, 30]] = np.nan
    return {
        "job_id": np.array(["f%02d" % row for row in range(n_rows)]),
        "submit_time_s": index * 1000.0,
        "duration_s": 10.0 + (index * 7.0) % 13.0,
        "input_bytes": input_bytes,
        "shuffle_bytes": index * 3.0,
        "output_bytes": np.full(n_rows, 5.0),
        "map_task_seconds": 20.0 + index,
        "reduce_task_seconds": (index * 5.0) % 7.0,
    }


def _write_fixture_store(directory, n_rows):
    columns = {name: values[:n_rows] for name, values in _fixture_columns().items()}
    return write_store(directory, ColumnarTrace(columns, name="fixture"),
                       chunk_rows=FIXTURE_CHUNK_ROWS)


def write_parent_fixture(directory):
    """How ``data/hourly_checkpoint_parent.json`` (+ ``.npz``) was made, with
    ``PYTHONPATH`` pointing at the commit before the kernel (eb7f0a1)."""
    store = _write_fixture_store(os.path.join(directory, "prefix"), FIXTURE_PREFIX_ROWS)
    consumer = HourlyTotalsConsumer(HOURLY_SPECS)
    pipeline = ScanPipeline(store)
    pipeline.add(consumer)
    done = pipeline.run()
    Checkpoint.capture(store, [consumer], done.final_states).save(FIXTURE)


def test_checkpoint_written_before_the_kernel_resumes_to_the_cold_answer(tmp_path):
    store = _write_fixture_store(tmp_path / "full", 40)
    checkpoint = Checkpoint.load(FIXTURE)
    assert checkpoint.chunk_watermark == FIXTURE_PREFIX_ROWS // FIXTURE_CHUNK_ROWS
    consumer = HourlyTotalsConsumer(HOURLY_SPECS)
    payload = checkpoint.consumers["hourly"]
    restored = consumer.restore(payload)

    # The payload format did not move: the restored state serializes back to
    # the very arrays the old code wrote, names, dtypes and bytes.
    again = consumer.snapshot(restored)
    assert list(again) == list(payload)
    for name, array in payload.items():
        assert again[name].dtype == array.dtype and again[name].tobytes() == array.tobytes()

    def run(**kwargs):
        pipeline = ScanPipeline(store)
        pipeline.add(HourlyTotalsConsumer(HOURLY_SPECS))
        return pipeline.run(**kwargs)

    cold = run()
    resumed = run(start_chunk=checkpoint.chunk_watermark,
                  initial_states={"hourly": restored})
    assert resumed.chunks_scanned == store.n_chunks - checkpoint.chunk_watermark
    assert resumed.value("hourly") == cold.value("hourly")
    cold_payload = consumer.snapshot(cold.final_states["hourly"])
    resumed_payload = consumer.snapshot(resumed.final_states["hourly"])
    for name, array in cold_payload.items():
        assert resumed_payload[name].tobytes() == array.tobytes()


def test_sketch_ops_and_string_keys_do_not_checkpoint():
    with pytest.raises(AnalysisError, match="no serializable state"):
        GroupedAggregates((("p", "p50", "input_bytes"),), "submit_hour").snapshot()
    state = _fold([ColumnBlock({"name": np.array(["x"]), "input_bytes": np.ones(1)})],
                  "name", specs=(("n", "count", "input_bytes"),))
    with pytest.raises(AnalysisError, match="no serializable state"):
        state.snapshot()


# ---------------------------------------------------------------------------
# The point of the kernel: work per chunk does not grow with key cardinality
# ---------------------------------------------------------------------------
class _CountingNumpy:
    """Stands in for the kernel's ``np``: counts every function it hands out."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        target = getattr(np, name)
        if isinstance(target, np.ufunc):
            return _CountingUfunc(self, target)
        if not callable(target) or isinstance(target, type):
            return target

        def counted(*args, **kwargs):
            self.calls += 1
            return target(*args, **kwargs)
        return counted


class _CountingUfunc:
    def __init__(self, counter, ufunc):
        self.counter, self.ufunc = counter, ufunc

    def __call__(self, *args, **kwargs):
        self.counter.calls += 1
        return self.ufunc(*args, **kwargs)

    def at(self, *args, **kwargs):
        self.counter.calls += 1
        return self.ufunc.at(*args, **kwargs)


@pytest.mark.parametrize("kind", ["coded", "numeric"])
def test_update_makes_no_more_numpy_calls_for_5000_keys_than_for_5(monkeypatch, kind):
    def numpy_calls(n_keys):
        rng = np.random.default_rng(n_keys)
        table = StringDictionary(["key %d" % index for index in range(n_keys)])
        blocks = []
        # The second chunk brings unseen keys at either cardinality, so both
        # runs pay for growing the key table once more.
        for pool in (n_keys // 2 + 1, n_keys):
            ids = rng.integers(0, pool, size=8000)
            values = rng.lognormal(10, 2, size=8000)
            if kind == "coded":
                blocks.append(ColumnBlock({"input_bytes": values},
                                          {"name": ids.astype(np.uint32)}, {"name": table}))
            else:
                blocks.append(ColumnBlock({"duration_s": ids.astype(float),
                                           "input_bytes": values}))
        group_column = "name" if kind == "coded" else "duration_s"
        state = GroupedAggregates(SPECS, group_column)
        counter = _CountingNumpy()
        monkeypatch.setattr(aggregates_module, "np", counter)
        try:
            for block in blocks:
                state.update(block)
        finally:
            monkeypatch.undo()
        assert len(state.result()) >= min(n_keys, 4000)
        return counter.calls

    few, many = numpy_calls(5), numpy_calls(5000)
    assert few > 0
    assert many <= few


def test_dictionary_is_decoded_once_per_query_not_once_per_chunk(store, monkeypatch):
    decodes = []
    original = StringDictionary.decode

    def counting(self, codes):
        decodes.append(len(codes))
        return original(self, codes)

    monkeypatch.setattr(StringDictionary, "decode", counting)
    query = Query().group_by("name").aggregate(n=("count", "input_bytes"))
    result = execute(store, query, use_planner=False)
    assert result.chunks_scanned > 1
    assert decodes == [len(result.groups)]
