"""Legacy (format v1/v2) stores: refused on open, migrated by ``engine convert``.

The stores here are written by hand (the ``write_legacy_store`` fixture),
the way the retired writers laid them out: v1 as one compressed ``.npz``
archive per chunk, v2 as one raw ``.npy`` per column per chunk, each with its
JSON manifest.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.engine import ChunkedTraceStore, ColumnarTrace, append_store
from repro.errors import TraceFormatError
from repro.traces import Job

CHUNK_ROWS = 5


def _columns(n=13):
    """Columns of ``n`` jobs; the last three rows are out of submit order."""
    jobs = [Job(job_id="old%03d" % index, submit_time_s=60.0 * index,
                duration_s=30.0 + index, input_bytes=1e6 * (index + 1),
                shuffle_bytes=float("nan") if index == 3 else 2e5,
                output_bytes=1e3 * index, map_task_seconds=12.0,
                reduce_task_seconds=0.0 if index % 2 else 4.0,
                name="select kind %d" % (index % 3),
                input_path="/in/%d" % (index % 4))
            for index in range(n)]
    columns = ColumnarTrace.from_jobs(jobs, name="legacy").columns
    order = np.r_[0:n - 3, n - 1:n - 4:-1]
    return {name: array[order] for name, array in columns.items()}


@pytest.fixture(params=[1, 2], ids=["v1", "v2"])
def legacy(request, tmp_path, write_legacy_store):
    directory = str(tmp_path / "legacy.store")
    columns = _columns()
    chunks = [{name: array[start:start + CHUNK_ROWS] for name, array in columns.items()}
              for start in range(0, len(columns["submit_time_s"]), CHUNK_ROWS)]
    manifest = write_legacy_store(directory, request.param, chunks, name="legacy",
                                  machines=40, chunk_rows=CHUNK_ROWS, manifest_sequence=3,
                                  store_uid="0123abcd" * 4, sorted_by_submit_time=False)
    return directory, manifest, columns


def test_convert_migrates_rows_zones_and_metadata(legacy, tmp_path, capsys):
    directory, manifest, columns = legacy
    output = str(tmp_path / "migrated.store")
    assert main(["engine", "convert", "--store", directory, "--output", output]) == 0
    assert "(format v3" in capsys.readouterr().out
    store = ChunkedTraceStore(output)
    assert store.info()["format_version"] == 3
    assert store.chunk_rows() == [chunk["rows"] for chunk in manifest["chunks"]]
    assert store.columns == manifest["columns"]
    for index, chunk in enumerate(manifest["chunks"]):
        for column in store.columns:
            assert store.chunk_zone(index, column) == chunk["zones"].get(column), column
    for name, values in columns.items():
        stored = np.concatenate([block.column(name) for block in store.iter_chunks([name])])
        assert np.array_equal(stored, values, equal_nan=values.dtype.kind == "f"), name
    assert (store.name, store.machines, store.sorted_by_submit_time,
            store.manifest_sequence, store.chunk_rows_target) == \
        ("legacy", 40, False, 3, CHUNK_ROWS)
    assert store.store_uid != manifest["store_uid"]  # a converted store is a new store


def test_open_and_append_name_the_convert_command(legacy):
    directory = legacy[0]
    hint = "repro engine convert --store %s --output NEW" % directory
    with pytest.raises(TraceFormatError, match=hint):
        ChunkedTraceStore(directory)
    with pytest.raises(TraceFormatError, match=hint):
        ChunkedTraceStore.open_append(directory)
    with pytest.raises(TraceFormatError, match=hint):
        append_store(directory, ColumnarTrace(_columns(), name="more"))


def test_cli_commands_on_a_legacy_store_fail_with_the_hint(legacy, capsys):
    directory = legacy[0]
    assert main(["engine", "info", "--store", directory]) == 1
    assert "engine convert --store" in capsys.readouterr().err


def test_convert_refuses_a_checkpointed_legacy_store(legacy, tmp_path, capsys):
    directory, manifest, _ = legacy
    checkpoint = tmp_path / "scan.ck.json"
    checkpoint.write_text(json.dumps({"checkpoint_version": 1,
                                      "store_uid": manifest["store_uid"]}))
    output = str(tmp_path / "migrated.store")
    assert main(["engine", "convert", "--store", directory, "--output", output]) == 1
    assert "refusing to convert" in capsys.readouterr().err
    assert not os.path.exists(output)
