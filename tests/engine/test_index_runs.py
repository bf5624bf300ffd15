"""Index runs: an append writes one sorted run per column, readers merge.

Every append adds ``index.<column>.run-<sequence>.npz`` files instead of
rewriting the sidecar; :meth:`StoreIndexes.column` merges base + runs on
load, and the append that would exceed ``INDEX_MAX_RUNS`` runs compacts.
The merged arrays must equal a rebuild bit for bit at every run count, on
both sides of a compaction, and every index-backed answer must equal the
forced scan.
"""

import glob
import json
import os
import shutil
import zipfile

import numpy as np
import pytest

from repro.cli import main
from repro.engine import (
    ChunkedTraceStore,
    ColumnarTrace,
    Query,
    append_store,
    build_indexes,
    drop_indexes,
    execute,
    load_indexes,
)
from repro.engine.indexes import INDEX_MAX_RUNS
from repro.errors import TraceFormatError

BASE_ROWS = 256
APPEND_ROWS = 40
STEPS = INDEX_MAX_RUNS + 2  # append counts 0..STEPS-1 cross one compaction
# Few distinct values, so ties straddle the base and every run.
TIED = np.array([1e3, 5e4, 2e6, 7e8, 3e9])


def _columns(n, seed, first):
    rng = np.random.default_rng(seed)
    input_bytes = TIED[rng.integers(0, TIED.size, size=n)]
    wild = rng.random(n) < 0.3
    input_bytes[wild] = np.floor(rng.lognormal(14, 3, size=int(wild.sum())))
    input_bytes[rng.random(n) < 0.1] = np.nan
    return {
        "job_id": np.array(["r%05d" % (first + row) for row in range(n)]),
        "submit_time_s": 10.0 * (first + np.arange(n, dtype=np.float64)),
        "duration_s": np.round(rng.uniform(1.0, 50.0, size=n)),
        "input_bytes": input_bytes,
        "map_tasks": rng.integers(1, 9, size=n).astype(np.float64),
        "framework": np.array(["hive", "pig", "native", "spark"])[rng.integers(0, 4, size=n)],
    }


def _run_count(appends):
    """Sorted runs per column (counting the base) after ``appends`` appends."""
    return appends % INDEX_MAX_RUNS + 1


def _run_files(directory):
    return sorted(glob.glob(os.path.join(directory, "index.*.run-*.npz")))


@pytest.fixture(scope="module")
def steps(tmp_path_factory, store_origin, write_store_as):
    """Copies of one indexed store after 0, 1, ... STEPS-1 appends; the base
    is written directly or migrated from a legacy layout."""
    root = tmp_path_factory.mktemp("runs")
    live = str(root / "live")
    write_store_as(store_origin, live, ColumnarTrace(_columns(BASE_ROWS, 0, 0), name="runs"),
                   chunk_rows=64)
    build_indexes(ChunkedTraceStore(live)).save()
    copies = []
    for step in range(STEPS):
        if step:
            first = BASE_ROWS + (step - 1) * APPEND_ROWS
            append_store(live, ColumnarTrace(_columns(APPEND_ROWS, step, first), name="more"))
        copy = str(root / ("after-%d" % step))
        shutil.copytree(live, copy)
        copies.append(copy)
    return copies


def _assert_arrays_equal(left, right):
    assert left.columns == right.columns
    for name in left.columns:
        a, b = left.column(name).arrays(), right.column(name).arrays()
        assert list(a) == list(b)
        for key in a:
            assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), (name, key)


@pytest.mark.parametrize("appends", range(STEPS))
def test_merged_runs_equal_a_rebuild(steps, appends):
    store = ChunkedTraceStore(steps[appends])
    indexes = load_indexes(store, strict=True)
    _assert_arrays_equal(indexes, build_indexes(store))
    info = indexes.info(store)
    assert info["fresh"]
    assert {meta["runs"] for meta in info["columns"].values()} == {_run_count(appends)}
    assert len(_run_files(store.directory)) == len(indexes.columns) * (_run_count(appends) - 1)


def _queries(store):
    column = store.read_chunk(store.n_chunks - 1).column("input_bytes")
    late = float(column[np.isfinite(column)][-1])  # a value the newest run holds
    queries = [
        Query().filter("input_bytes", "==", float(TIED[2])).project(["job_id", "input_bytes"]),
        Query().filter("input_bytes", "==", late).project(["job_id", "input_bytes"]),
        Query().filter("input_bytes", "==", float(TIED[1])).count(),
        Query().filter("input_bytes", ">=", float(TIED[3])).aggregate(total=("sum", "duration_s")),
        Query().filter("input_bytes", "<", float(TIED[1])).project(["job_id"]),
        Query().top("input_bytes", 13),
        Query().top("input_bytes", 13, largest=False),
        Query().filter("input_bytes", "==", float(TIED[0])).project(["job_id"]).limit(7),
        Query().filter("map_tasks", ">", 6.0).project(["job_id", "map_tasks"]).limit(5),
        Query().filter("framework", "==", "pig").count(),
        Query().filter("framework", "==", "spark").project(["job_id"]).limit(9),
    ]
    return queries


@pytest.mark.parametrize("appends", range(STEPS))
def test_answers_equal_the_forced_scan(steps, appends):
    store = ChunkedTraceStore(steps[appends])
    used = 0
    for query in _queries(store):
        via_index = execute(store, query)
        via_scan = execute(store, query, use_planner=False)
        used += via_index.plan.used_index
        if via_scan.aggregates is not None:
            assert via_index.aggregates == via_scan.aggregates
        else:
            assert via_index.row_dicts() == via_scan.row_dicts()
    assert used >= 6


def _npz_members(path):
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _assert_sidecars_identical(directory, other):
    with open(os.path.join(directory, "index.json"), "rb") as handle:
        mine = handle.read()
    with open(os.path.join(other, "index.json"), "rb") as handle:
        assert mine == handle.read()
    files = sorted(os.path.basename(path)
                   for path in glob.glob(os.path.join(directory, "index.*.npz")))
    assert files == sorted(os.path.basename(path)
                           for path in glob.glob(os.path.join(other, "index.*.npz")))
    for name in files:
        # zip members carry timestamps, so compare the members and sizes
        assert _npz_members(os.path.join(directory, name)) == \
            _npz_members(os.path.join(other, name))
        assert os.path.getsize(os.path.join(directory, name)) == \
            os.path.getsize(os.path.join(other, name))


def test_compaction_leaves_one_run_with_a_fresh_builds_bytes(steps, tmp_path):
    directory = steps[INDEX_MAX_RUNS]
    assert not _run_files(directory)
    assert _run_files(steps[INDEX_MAX_RUNS - 1])  # the append before had runs
    rebuilt = str(tmp_path / "rebuilt")
    shutil.copytree(directory, rebuilt)
    drop_indexes(ChunkedTraceStore(rebuilt))
    build_indexes(ChunkedTraceStore(rebuilt)).save()
    _assert_sidecars_identical(directory, rebuilt)


def test_a_fresh_build_writes_the_run_less_layout(steps):
    """Zero appends: no ``runs`` key, and ``index.json`` is exactly the
    manifest this sidecar has always had."""
    store = ChunkedTraceStore(steps[0])
    indexes = load_indexes(store)
    columns = {}
    for name in indexes.columns:
        meta = {"kind": indexes.column(name).kind, "file": "index.%s.npz" % name}
        columns[name] = dict(meta, **indexes.column(name).stats())
    expected = {"index_format_version": 1, "store_uid": store.store_uid,
                "manifest_sequence": store.manifest_sequence, "n_chunks": store.n_chunks,
                "n_rows": store.n_jobs, "columns": columns}
    with open(os.path.join(store.directory, "index.json"), "rb") as handle:
        assert handle.read() == (json.dumps(expected, indent=2, sort_keys=True)
                                 + "\n").encode()
    assert sorted(name for name in os.listdir(store.directory)
                  if name.startswith("index.")) == \
        sorted(["index.json"] + ["index.%s.npz" % name for name in indexes.columns])


def test_an_append_never_opens_the_base(steps, tmp_path, monkeypatch):
    directory = str(tmp_path / "store")
    shutil.copytree(steps[1], directory)
    opened = []
    real_load = np.load

    def recording(path, *args, **kwargs):
        opened.append(os.path.basename(str(path)))
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(np, "load", recording)
    append_store(directory, ColumnarTrace(_columns(APPEND_ROWS, 99, 9000), name="more"))
    assert not [name for name in opened if name.startswith("index.")]
    monkeypatch.setattr(np, "load", real_load)
    meta = load_indexes(ChunkedTraceStore(directory)).column_meta["input_bytes"]
    assert [run["first_chunk"] for run in meta["runs"]] == [4, 5]


def test_runs_that_do_not_tile_the_chunks_are_stale(steps, tmp_path):
    from repro.engine import StaleIndexError

    directory = str(tmp_path / "store")
    shutil.copytree(steps[2], directory)
    path = os.path.join(directory, "index.json")
    with open(path) as handle:
        manifest = json.load(handle)
    manifest["columns"]["input_bytes"]["runs"].pop(0)
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    with pytest.raises(StaleIndexError, match="starts at chunk"):
        load_indexes(ChunkedTraceStore(directory)).column("input_bytes")


def test_manifest_stats_add_up_across_runs(steps):
    """Entries, postings and chunks present sum over base + runs; the
    distinct-code count does not, so it is omitted until the next compaction."""
    for appends in (0, 1, INDEX_MAX_RUNS):
        indexes = load_indexes(ChunkedTraceStore(steps[appends]))
        for name in indexes.columns:
            meta, merged = indexes.column_meta[name], indexes.column(name).stats()
            if appends == 1:
                merged.pop("distinct_codes", None)
            assert {key: value for key, value in meta.items()
                    if key not in ("file", "runs")} == merged


# ---------------------------------------------------------------------------
# Status output reports the run count
# ---------------------------------------------------------------------------
def test_status_reports_runs(steps, capsys):
    directory = steps[2]
    assert main(["engine", "index", "status", "--store", directory, "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["fresh"] and info["columns"]["input_bytes"]["runs"] == 3
    assert main(["engine", "index", "status", "--store", directory]) == 0
    assert "runs=3" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# A corrupt sidecar file is a typed error, at the library and the CLI
# ---------------------------------------------------------------------------
def _flip_inside_values(path):
    """Flip one byte of the ``values.npy`` member's array data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("values.npy")
    with open(path, "r+b") as handle:
        handle.seek(info.header_offset + 26)
        name_length, extra_length = np.frombuffer(handle.read(4), dtype="<u2")
        handle.seek(info.header_offset + 30 + int(name_length) + int(extra_length)
                    + info.file_size - 3)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x10]))


def _unsupported_method(path):
    """Flip the central directory's compression method of ``values.npy``."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    entry = data.find(b"PK\x01\x02")
    while data[entry + 46:entry + 56] != b"values.npy":
        entry = data.find(b"PK\x01\x02", entry + 1)
    data[entry + 10] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(data))


def _damage(path, how):
    if how == "truncated":
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])
    elif how == "bit-flip":
        _flip_inside_values(path)
    elif how == "bad-method":
        _unsupported_method(path)
    else:
        open(path, "wb").close()


@pytest.mark.parametrize("which", ["base", "run"])
@pytest.mark.parametrize("how", ["truncated", "bit-flip", "bad-method", "empty"])
def test_a_corrupt_index_file_is_a_typed_error(steps, tmp_path, capsys, which, how):
    directory = str(tmp_path / "store")
    shutil.copytree(steps[1], directory)
    meta = load_indexes(ChunkedTraceStore(directory)).column_meta["input_bytes"]
    target = meta["file"] if which == "base" else meta["runs"][0]["file"]
    _damage(os.path.join(directory, target), how)
    with pytest.raises(TraceFormatError, match="cannot read index sidecar %s" % target):
        load_indexes(ChunkedTraceStore(directory)).column("input_bytes")
    with pytest.raises(TraceFormatError, match="cannot read index sidecar"):
        execute(ChunkedTraceStore(directory),
                Query().filter("input_bytes", "==", float(TIED[2])).count())
    assert main(["engine", "query", "--store", directory,
                 "--where", "input_bytes == %r" % float(TIED[2]), "--agg", "count"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot read index sidecar" in err


# ---------------------------------------------------------------------------
# No orphan index files
# ---------------------------------------------------------------------------
def test_drop_removes_the_base_and_every_run(steps, tmp_path):
    directory = str(tmp_path / "store")
    shutil.copytree(steps[3], directory)
    columns = load_indexes(ChunkedTraceStore(directory)).columns
    assert drop_indexes(ChunkedTraceStore(directory)) == 1 + 4 * len(columns)
    assert not [name for name in os.listdir(directory) if name.startswith("index.")]


def test_a_failed_extend_leaves_a_stale_sidecar_a_build_cleans_up(steps, tmp_path,
                                                                   monkeypatch, capsys):
    directory = str(tmp_path / "store")
    shutil.copytree(steps[1], directory)
    real_replace = os.replace

    def failing(source, target):
        if os.path.basename(os.fspath(target)) == "index.json":
            raise OSError("injected failure renaming index.json")
        real_replace(source, target)

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="injected"):
        append_store(directory, ColumnarTrace(_columns(APPEND_ROWS, 77, 7000), name="more"))
    monkeypatch.setattr(os, "replace", real_replace)
    assert not glob.glob(os.path.join(directory, "*.tmp"))
    store = ChunkedTraceStore(directory)  # the append itself committed
    assert store.n_jobs == BASE_ROWS + 2 * APPEND_ROWS
    assert main(["engine", "index", "status", "--store", directory]) == 1
    assert "STALE" in capsys.readouterr().out
    assert main(["engine", "index", "build", "--store", directory]) == 0
    assert main(["engine", "index", "status", "--store", directory]) == 0
    assert not _run_files(directory)
    assert sorted(name for name in os.listdir(directory) if name.startswith("index.")) == \
        sorted(["index.json"] + ["index.%s.npz" % name
                                 for name in load_indexes(store).columns])
