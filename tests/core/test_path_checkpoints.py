"""Path- and name-keyed fold states across checkpoints and dictionary columns.

The Figure 2-6 and 10 folds key their state on interned integer ids, yet a
snapshot keeps the schema checkpoints always had: ``known_paths`` sorted and
every per-path array aligned with it.  A checkpoint written before the ids
existed (``data/path_checkpoint_parent.json`` + ``.npz``) must restore and
resume to the cold answer, and a dictionary-encoded column must never be
decoded per row on the way.
"""

import json
import os

import numpy as np
import pytest

from repro.core import characterize
from repro.core.access import PathStatsConsumer, ReaccessConsumer
from repro.core.naming import NamingConsumer
from repro.engine import ChunkedTraceStore, ColumnarTrace, write_store
from repro.engine.codecs import StringDictionary
from repro.engine.columnar import ColumnBlock
from repro.engine.pipeline import Checkpoint, ScanPipeline
from repro.errors import TraceFormatError

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "path_checkpoint_parent.json")
FIXTURE_CHUNK_ROWS = 8
FIXTURE_PREFIX_ROWS = 24
FIXTURE_ROWS = 48


def _fixture_columns(n_rows=FIXTURE_ROWS):
    """Eight-row chunks: ``input_path`` and ``name`` repeat enough to be
    dictionary-encoded, ``output_path`` is raw; later jobs read earlier
    outputs, and some rows record no path or no name."""
    index = np.arange(n_rows)
    inputs = np.array(["/in/%d" % (row % 3) for row in index], dtype=object)
    rereads = (index % 5 == 4) & (index >= FIXTURE_CHUNK_ROWS)
    inputs[rereads] = ["/out/%d" % (row - 3) for row in index[rereads]]
    inputs[index % 7 == 2] = ""
    outputs = np.array(["/out/%d" % row for row in index], dtype=object)
    outputs[index % 6 == 5] = ""
    outputs[index % 8 == 0] = inputs[index % 8 == 0]
    words = ("select", "insert", "piglatin")
    names = np.array(["%s job" % words[row % 3] for row in index], dtype=object)
    names[index % 9 == 4] = ""
    return {
        "job_id": np.array(["c%02d" % row for row in index]),
        "submit_time_s": index * 900.0,
        "duration_s": np.full(n_rows, 10.0),
        "input_bytes": 1000.0 + (index * 37) % 11,
        "shuffle_bytes": index * 3.0,
        "output_bytes": 500.0 + (index * 13) % 7,
        "map_task_seconds": 20.0 + index,
        "reduce_task_seconds": (index * 5.0) % 7.0,
        "input_path": inputs.astype(np.str_),
        "output_path": outputs.astype(np.str_),
        "name": names.astype(np.str_),
    }


def _write_fixture_store(directory, n_rows):
    columns = {name: values[:n_rows] for name, values in _fixture_columns().items()}
    return write_store(directory, ColumnarTrace(columns, name="fixture"),
                       chunk_rows=FIXTURE_CHUNK_ROWS)


def _consumers():
    return [PathStatsConsumer("input"), PathStatsConsumer("output"),
            ReaccessConsumer(has_input=True, has_output=True),
            NamingConsumer(has_framework=False, workload="fixture")]


def _run(store, **kwargs):
    pipeline = ScanPipeline(store)
    for consumer in _consumers():
        pipeline.add(consumer)
    return pipeline.run(**kwargs)


def write_parent_fixture(directory):
    """How ``data/path_checkpoint_parent.json`` (+ ``.npz``) was made, with
    ``PYTHONPATH`` pointing at the commit before the interned ids (0612733)."""
    store = _write_fixture_store(os.path.join(directory, "prefix"), FIXTURE_PREFIX_ROWS)
    done = _run(store)
    Checkpoint.capture(store, _consumers(), done.final_states).save(FIXTURE)


def _comparable(result):
    """Every consumer's result as plain values (dict order included)."""
    reaccess, naming = result.value("reaccess"), result.value("naming")
    return {
        "input": list(result.value("path_stats_input").items()),
        "output": list(result.value("path_stats_output").items()),
        "reaccess": (reaccess.intervals.input_input.values.tolist(),
                     reaccess.intervals.output_input.values.tolist(),
                     reaccess.intervals.fraction_within_6h, reaccess.fractions),
        "naming": (naming.by_jobs, naming.by_bytes, naming.by_task_seconds,
                   naming.framework_shares, naming.top_words_cover),
    }


def _assert_same_payload(mine, theirs):
    assert sorted(mine) == sorted(theirs)
    for field, value in theirs.items():
        if isinstance(value, np.ndarray):
            if field in ("input_input", "output_input"):
                # Interval multisets: the CDF sorts them, the order is free.
                mine_field, value = np.sort(mine[field]), np.sort(value)
            else:
                mine_field = mine[field]
            assert mine_field.dtype == value.dtype, field
            assert mine_field.tobytes() == value.tobytes(), field
        else:
            assert mine[field] == value, field


def test_fixture_store_has_both_column_kinds(tmp_path):
    store = _write_fixture_store(tmp_path / "full", FIXTURE_ROWS)
    assert store.string_encodings["input_path"] == "dict"
    assert store.string_encodings["name"] == "dict"
    assert store.string_encodings["output_path"] == "raw"


def test_parent_checkpoint_resumes_to_the_cold_answer(tmp_path):
    store = _write_fixture_store(tmp_path / "full", FIXTURE_ROWS)
    checkpoint = Checkpoint.load(FIXTURE)
    assert checkpoint.chunk_watermark == FIXTURE_PREFIX_ROWS // FIXTURE_CHUNK_ROWS
    consumers = {consumer.name: consumer for consumer in _consumers()}
    restored = {name: consumer.restore(checkpoint.consumers[name])
                for name, consumer in consumers.items()}

    # A restored state snapshots back to the very payload the old code wrote,
    # less the "" (not recorded) entry the old re-access fold carried.
    for name, consumer in consumers.items():
        payload = dict(checkpoint.consumers[name])
        if name == "reaccess":
            assert payload["known_paths"][0] == ""
            for field in ("known_paths", "read_t", "write_t"):
                payload[field] = payload[field][1:]
        _assert_same_payload(consumer.snapshot(restored[name]), payload)

    cold = _run(store)
    resumed = _run(store, start_chunk=checkpoint.chunk_watermark,
                   initial_states=restored)
    assert resumed.chunks_scanned == store.n_chunks - checkpoint.chunk_watermark
    assert _comparable(resumed) == _comparable(cold)
    for name, consumer in consumers.items():
        _assert_same_payload(consumer.snapshot(resumed.final_states[name]),
                             consumer.snapshot(cold.final_states[name]))


def test_fresh_snapshot_is_sorted_and_aligned(tmp_path):
    store = _write_fixture_store(tmp_path / "full", FIXTURE_ROWS)
    columns = _fixture_columns()
    done = _run(store)
    for kind in ("input", "output"):
        consumer = PathStatsConsumer(kind)
        payload = consumer.snapshot(done.final_states[consumer.name])
        paths = payload["known_paths"].tolist()
        assert paths == sorted(set(columns["%s_path" % kind]) - {""})
        for position, path in enumerate(paths):
            rows = columns["%s_path" % kind] == path
            assert payload["counts"][position] == rows.sum()
            assert payload["maxima"][position] == columns["%s_bytes" % kind][rows].max()

    payload = ReaccessConsumer(True, True).snapshot(done.final_states["reaccess"])
    paths = payload["known_paths"].tolist()
    assert paths == sorted((set(columns["input_path"]) | set(columns["output_path"])) - {""})
    for position, path in enumerate(paths):
        for field, column in (("read_t", "input_path"), ("write_t", "output_path")):
            times = columns["submit_time_s"][columns[column] == path]
            assert payload[field][position] == (times.max() if times.size else -np.inf)


def test_interner_ids_sort_and_pickle():
    import pickle

    from repro.engine.pipeline import Interner

    paths = Interner({"hits": 0})
    assert paths.intern(["/b", "", "/a", "/b"]).tolist() == [0, -1, 1, 0]
    paths.arrays["hits"][[0, 1]] = [5, 7]
    assert paths.sort().tolist() == ["/a", "/b"]
    assert paths.trimmed("hits").tolist() == [7, 5]
    again = pickle.loads(pickle.dumps(paths))
    # Sorted again: ids are positions, and only a new value builds the index.
    assert again.intern(["/b", "", "/a"]).tolist() == [1, -1, 0]
    assert again.intern(["/c", "/a"]).tolist() == [2, 0]
    assert again.values() == ["/a", "/b", "/c"]
    assert again.trimmed("hits").tolist() == [7, 5, 0]


def test_characterize_decodes_no_dictionary_column_per_row(tmp_path, monkeypatch):
    """Only a chunk's distinct codes of ``input_path`` / ``name`` are decoded."""
    store = _write_fixture_store(tmp_path / "full", FIXTURE_ROWS)
    column = ColumnBlock.column
    decode = StringDictionary.decode

    def guarded_column(block, name):
        assert not (name in ("input_path", "name") and name in block.codes
                    and name not in block.columns), "per-row decode of %s" % name
        return column(block, name)

    def distinct_decode(table, codes):
        codes = np.asarray(codes)
        assert np.unique(codes).size == codes.size, "decode of repeated codes"
        return decode(table, codes)

    monkeypatch.setattr(ColumnBlock, "column", guarded_column)
    monkeypatch.setattr(StringDictionary, "decode", distinct_decode)
    report = characterize(store, cluster=False)
    assert report.access.fractions is not None and report.naming is not None


@pytest.mark.parametrize("column", ["input_path", "name"])
def test_dictionary_older_than_the_chunks_is_a_format_error(tmp_path, column):
    _write_fixture_store(tmp_path / "full", FIXTURE_ROWS)
    sidecar = tmp_path / "full" / "dictionary.json"
    document = json.loads(sidecar.read_text())
    document["columns"][column] = document["columns"][column][:1]
    sidecar.write_text(json.dumps(document))
    with pytest.raises(TraceFormatError, match="dictionary code .* out of range"):
        _run(ChunkedTraceStore(tmp_path / "full"))
