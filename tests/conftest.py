"""Shared fixtures for the test suite.

Traces used across many tests are generated once per session at small scales
so the full suite stays fast while still exercising realistic job mixtures.
"""

from __future__ import annotations

import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from repro.cli import main
from repro.core.sharedscan import EXPERIMENT_NEEDS, run_characterization_scan
from repro.engine import ChunkedTraceStore, ColumnarTrace, TraceSource
from repro.engine.columnar import ColumnBlock, _in_submit_order
from repro.engine.store import MANIFEST_NAME, _empty_column, _source_blocks
from repro.errors import AnalysisError
from repro.traces import Job, Trace, load_workload

#: How a v3 store under test came to be: written directly ("v3"), or laid out
#: in a retired format and migrated with ``repro engine convert --store``.
STORE_ORIGINS = ("v3", "v1", "v2")


@pytest.fixture(scope="session")
def cc_e_trace() -> Trace:
    """A full-scale CC-e trace (the smallest Cloudera workload, ~10.8k jobs)."""
    return load_workload("CC-e", seed=7)


@pytest.fixture(scope="session")
def cc_b_small_trace() -> Trace:
    """A down-scaled CC-b trace (~2.3k jobs) for faster analyses."""
    return load_workload("CC-b", seed=7, scale=0.1)


@pytest.fixture(scope="session")
def fb_2009_small_trace() -> Trace:
    """A heavily down-scaled FB-2009 trace (~2.3k jobs)."""
    return load_workload("FB-2009", seed=7, scale=0.002)


@pytest.fixture(scope="session")
def compensating_jsonl() -> str:
    """Four JSONL lines, each invalid alone from line 2 on, that joined with
    commas read as four records: a record, two records on line 2, then one
    record whose unterminated string on line 3 closes on line 4 (job d would
    be named ",")."""
    fields = ('"submit_time_s": 0.0, "duration_s": 10.0, "input_bytes": 1.0, '
              '"shuffle_bytes": 0.0, "output_bytes": 1.0, "map_task_seconds": 1.0, '
              '"reduce_task_seconds": 0.0')
    record = '{%s, "job_id": "%%s"}' % fields
    return "\n".join([record % "a", record % "b" + ", " + record % "c",
                      '{%s, "job_id": "d", "name": "' % fields, '"}']) + "\n"


@pytest.fixture()
def tiny_trace() -> Trace:
    """A hand-built six-job trace with known values, for exact assertions."""
    jobs = [
        Job(job_id="j1", submit_time_s=0.0, duration_s=30.0, input_bytes=1e6,
            shuffle_bytes=0.0, output_bytes=2e5, map_task_seconds=40.0,
            reduce_task_seconds=0.0, map_tasks=2, reduce_tasks=0,
            name="select user counts", framework="hive",
            input_path="/data/a", output_path="/out/a", workload="tiny"),
        Job(job_id="j2", submit_time_s=600.0, duration_s=120.0, input_bytes=5e9,
            shuffle_bytes=1e9, output_bytes=1e8, map_task_seconds=900.0,
            reduce_task_seconds=300.0, map_tasks=10, reduce_tasks=4,
            name="insert into table daily", framework="hive",
            input_path="/data/b", output_path="/out/b", workload="tiny"),
        Job(job_id="j3", submit_time_s=3600.0, duration_s=60.0, input_bytes=1e6,
            shuffle_bytes=0.0, output_bytes=1e6, map_task_seconds=50.0,
            reduce_task_seconds=0.0, map_tasks=2, reduce_tasks=0,
            name="piglatin etl step", framework="pig",
            input_path="/data/a", output_path="/out/c", workload="tiny"),
        Job(job_id="j4", submit_time_s=7200.0, duration_s=2400.0, input_bytes=2e12,
            shuffle_bytes=5e11, output_bytes=1e11, map_task_seconds=80000.0,
            reduce_task_seconds=30000.0, map_tasks=200, reduce_tasks=50,
            name="oozie launcher workflow", framework="oozie",
            input_path="/data/huge", output_path="/out/huge", workload="tiny"),
        Job(job_id="j5", submit_time_s=10800.0, duration_s=45.0, input_bytes=2e6,
            shuffle_bytes=0.0, output_bytes=5e5, map_task_seconds=30.0,
            reduce_task_seconds=0.0, map_tasks=1, reduce_tasks=0,
            name="select quick look", framework="hive",
            input_path="/out/b", output_path="/out/d", workload="tiny"),
        Job(job_id="j6", submit_time_s=14400.0, duration_s=50.0, input_bytes=3e6,
            shuffle_bytes=1e5, output_bytes=1e6, map_task_seconds=35.0,
            reduce_task_seconds=10.0, map_tasks=1, reduce_tasks=1,
            name="ad hoc report", framework=None,
            input_path="/data/a", output_path="/out/e", workload="tiny"),
    ]
    return Trace(jobs, name="tiny", machines=10)


@pytest.fixture(scope="session")
def replay_trace_15k() -> Trace:
    """15 000 light jobs for replay tests that must cross several look-ahead
    refills and metric-fold blocks (4096 each) yet still run the legacy loop
    in seconds: 1-4 map tasks of 5-25 s, 40 % with a reduce stage, 0.2 %
    with 300-1000 maps and 50-150 reduces, 1 % zero-compute, 20 % without
    recorded task counts, 5 % submit-time ties, and 0.2 % idle gaps of 2.5 h.
    A two-node cluster queues behind the large jobs (bulk admission); the
    default cluster barely does."""
    n = 15000
    rng = np.random.default_rng(27)
    gaps = rng.exponential(9.0, n)
    gaps[rng.random(n) < 0.002] += 2.5 * 3600.0
    gaps[rng.random(n) < 0.05] = 0.0
    submits = np.round(np.cumsum(gaps), 3)
    map_tasks = rng.integers(1, 5, n)
    map_seconds = map_tasks * rng.uniform(5.0, 25.0, n)
    reduce_tasks = np.where(rng.random(n) < 0.4, rng.integers(1, 3, n), 0)
    reduce_seconds = reduce_tasks * rng.uniform(5.0, 30.0, n)
    big = rng.random(n) < 0.002
    map_tasks[big] = rng.integers(300, 1000, big.sum())
    map_seconds[big] = map_tasks[big] * 8.0
    reduce_tasks[big] = rng.integers(50, 150, big.sum())
    reduce_seconds[big] = reduce_tasks[big] * 8.0
    zero = rng.random(n) < 0.01
    map_seconds[zero] = 0.0
    reduce_seconds[zero] = 0.0
    unrecorded = rng.random(n) < 0.2
    inputs = rng.lognormal(20.0, 2.0, n)
    outputs = np.where(rng.random(n) < 0.2, 0.0, rng.lognormal(18.0, 2.0, n))
    paths = rng.zipf(1.5, n) % 300
    jobs = [
        Job(job_id="r%05d" % i, submit_time_s=float(submits[i]),
            duration_s=float(map_seconds[i] + reduce_seconds[i]),
            input_bytes=float(inputs[i]), shuffle_bytes=0.0,
            output_bytes=float(outputs[i]),
            map_task_seconds=float(map_seconds[i]),
            reduce_task_seconds=float(reduce_seconds[i]),
            map_tasks=None if unrecorded[i] else int(map_tasks[i]),
            reduce_tasks=None if unrecorded[i] else int(reduce_tasks[i]),
            input_path="/data/%d" % paths[i], output_path="/out/%d" % (i % 500))
        for i in range(n)
    ]
    return Trace(jobs, name="replay-15k")


def _legacy_zones(chunk):
    zones = {}
    for name, array in chunk.items():
        if array.dtype.kind == "f" and np.isfinite(array).any():
            finite = array[np.isfinite(array)]
            zones[name] = [float(finite.min()), float(finite.max())]
    return zones


def _write_legacy_store(directory, version, chunks, **manifest_fields):
    """Lay ``chunks`` (column dicts) out as a format-``version`` store, the way
    the retired writers did: v1 one compressed ``.npz`` archive per chunk, v2
    one raw ``.npy`` per column per chunk, each with its JSON manifest."""
    os.makedirs(directory)
    entries = []
    for index, chunk in enumerate(chunks):
        prefix = "chunk-%05d" % index
        if version == 1:
            file_name = prefix + ".npz"
            np.savez_compressed(os.path.join(directory, file_name), **chunk)
        else:
            file_name = prefix
            for name, array in chunk.items():
                np.save(os.path.join(directory, "%s.%s.npy" % (prefix, name)), array)
        entries.append({"file": file_name, "rows": len(chunk["submit_time_s"]),
                        "zones": _legacy_zones(chunk)})
    manifest = dict({"manifest_sequence": 0, "store_uid": None, "name": "trace",
                     "machines": None, "sorted_by_submit_time": False},
                    **manifest_fields)
    manifest.update(format_version=version, n_jobs=sum(e["rows"] for e in entries),
                    columns=sorted(chunks[0]) if chunks else [], chunks=entries)
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest


def _gather_rows(source, indices, columns=None):
    """The rows of ``source`` at the given **sorted** global indices, as a small
    in-memory :class:`ColumnarTrace` — identical for every representation of
    the same trace.  Raises :class:`AnalysisError` for unsorted or
    out-of-range indices."""
    source = TraceSource.wrap(source)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and np.any(indices[:-1] > indices[1:]):
        raise AnalysisError("gather expects sorted indices")
    picked, offset, position = [], 0, 0
    for block in source.iter_chunks(columns=columns):
        if position >= indices.size:
            break
        end = offset + block.n_rows
        take_end = int(np.searchsorted(indices, end, side="left"))
        if take_end > position:
            picked.append(block.take(indices[position:take_end] - offset))
            position = take_end
        offset = end
    if position < indices.size:
        raise AnalysisError("gather index %d out of range (%d rows)"
                            % (int(indices[position]), offset))
    gathered = ColumnarTrace.__new__(ColumnarTrace)
    gathered.block = ColumnBlock.concat(picked) if picked else ColumnBlock({})
    gathered.name = source.name
    gathered.machines = source.machines
    return gathered


def _write_store_as(origin, directory, source, chunk_rows, name=None):
    """Write ``source`` (a trace, columnar trace or job list) as a v3 store.

    ``origin`` "v3" writes it directly; "v1"/"v2" lay the same chunks out in
    that legacy format and migrate them through ``repro engine convert
    --store``, so a test parametrized over :data:`STORE_ORIGINS` checks that
    a migrated store answers exactly as a freshly written one.
    """
    if origin == "v3":
        return ChunkedTraceStore.write(directory, source, chunk_rows=chunk_rows, name=name)
    chunks, previous_end, in_order = [], -np.inf, True
    for block in _source_blocks(source, chunk_rows):
        if block.n_rows == 0:
            continue
        chunk = block.materialized()
        times = chunk["submit_time_s"]
        in_order = in_order and _in_submit_order(times, previous_end)
        previous_end = max(previous_end, float(times[-1]))
        chunks.append(chunk)
    columns = set().union(*chunks)  # a column first seen late pads the chunks before it
    for chunk in chunks:
        rows = chunk["submit_time_s"].size
        chunk.update((column, _empty_column(column, rows)) for column in columns - set(chunk))
    sorted_flag = in_order or isinstance(source, (Trace, ColumnarTrace))
    with tempfile.TemporaryDirectory() as scratch:
        legacy = os.path.join(scratch, "legacy.store")
        _write_legacy_store(legacy, int(origin[1:]), chunks, chunk_rows=chunk_rows,
                            sorted_by_submit_time=bool(sorted_flag),
                            name=name or getattr(source, "name", None) or "trace",
                            machines=getattr(source, "machines", None))
        assert main(["engine", "convert", "--store", legacy, "--output", str(directory)]) == 0
    return ChunkedTraceStore(directory)


#: Jobs in the smaller store of :func:`memory_stores`; the larger holds four times as many.
MEMORY_JOBS = 10000


def _corpus_columns(seed, n_jobs, horizon_s=30 * 86400.0):
    """``n_jobs`` FB-2010-shaped jobs spread over the same ``horizon_s``
    whatever their number: mostly small map-only jobs, log-normal byte
    sizes, Pareto-skewed input paths."""
    rng = np.random.default_rng(seed)
    submit = np.cumsum(rng.exponential(horizon_s / n_jobs, size=n_jobs))
    kind = rng.random(n_jobs)
    map_s = np.where(kind < 0.80, rng.uniform(5.0, 45.0, n_jobs),
                     np.where(kind < 0.99, rng.uniform(60.0, 600.0, n_jobs),
                              rng.uniform(600.0, 5000.0, n_jobs)))
    reduce_s = np.where(rng.random(n_jobs) < 0.4, map_s * 0.3, 0.0)
    input_bytes = rng.lognormal(17.0, 3.0, n_jobs)
    paths = np.minimum(rng.pareto(0.9, n_jobs) * 8.0,
                       max(64, n_jobs // 20) - 1).astype(np.int64)
    return {"job_id": np.char.add("j", np.arange(n_jobs).astype(np.str_)),
            "submit_time_s": submit, "duration_s": map_s + reduce_s,
            "input_bytes": input_bytes,
            "shuffle_bytes": np.where(reduce_s > 0, input_bytes * 0.3, 0.0),
            "output_bytes": rng.lognormal(14.0, 3.0, n_jobs),
            "map_task_seconds": map_s, "reduce_task_seconds": reduce_s,
            "input_path": np.char.add("/data/", paths.astype(np.str_))}


@pytest.fixture(scope="session")
def memory_stores(tmp_path_factory):
    """Two stores of 2048-row chunks over the same 30-day horizon:
    :data:`MEMORY_JOBS` jobs and four times as many.  A streamed computation
    whose memory does not depend on the job count peaks alike on both."""
    root = tmp_path_factory.mktemp("memory")
    return tuple(ChunkedTraceStore.write(root / ("n%d" % n_jobs),
                                         ColumnarTrace(_corpus_columns(0, n_jobs), name="m"),
                                         chunk_rows=2048)
                 for n_jobs in (MEMORY_JOBS, 4 * MEMORY_JOBS))


def _traced_peak(function):
    """Peak bytes :mod:`tracemalloc` sees allocated while ``function()`` runs."""
    tracemalloc.start()
    try:
        function()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def peak_bytes():
    """``peak_bytes(function)``: see :func:`_traced_peak`."""
    return _traced_peak


def _analysis(trace, key, **scan_kwargs):
    """One characterization analysis of ``trace``, read the way the table and
    figure builders read it: a shared scan folding only the first experiment
    that needs ``key``, then :meth:`CharacterizationAnalyses.value` (which
    re-raises the analysis's :class:`AnalysisError`)."""
    experiment = next(experiment for experiment, keys in EXPERIMENT_NEEDS.items()
                      if key in keys)
    return run_characterization_scan(trace, experiments=[experiment],
                                     **scan_kwargs).value(key)


@pytest.fixture(scope="session", params=STORE_ORIGINS,
                ids=["v3", "from-v1", "from-v2"])
def store_origin(request):
    """Each :data:`STORE_ORIGINS` entry in turn, for :func:`write_store_as`."""
    return request.param


@pytest.fixture(scope="session")
def write_legacy_store():
    """``write_legacy_store(directory, version, chunks, **manifest_fields)``:
    hand-write a format v1/v2 store (see :func:`_write_legacy_store`)."""
    return _write_legacy_store


@pytest.fixture(scope="session")
def gather_rows():
    """``gather_rows(source, indices, columns=None)``: the rows at sorted
    global indices as a :class:`ColumnarTrace` (see :func:`_gather_rows`)."""
    return _gather_rows


@pytest.fixture(scope="session")
def write_store_as():
    """``write_store_as(origin, directory, source, chunk_rows, name=None)``:
    a v3 store written directly or migrated from a legacy layout."""
    return _write_store_as


@pytest.fixture(scope="session")
def analysis():
    """``analysis(trace, key, **scan_kwargs)``: one analysis key of a shared
    characterization scan of ``trace`` (see :func:`_analysis`)."""
    return _analysis
