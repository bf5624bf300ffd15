"""Store format v3: block compression, dictionary strings, code-native reads.

The acceptance contract of the format is *bit-identity*: every column a store
decodes must equal the values written, and every characterization row
computed over dictionary codes — serial or resumed — must equal the rows
computed over the same strings stored raw.  These tests pin that contract
plus the codec/dictionary round-trip properties the format is built on.
"""

import json
import os

import numpy as np
import pytest

from repro.bench.suite import CHARACTERIZATION_EXPERIMENT_IDS, run_suite
from repro.cli import main
from repro.core import run_characterization_scan
from repro.engine import (
    ChunkedTraceStore,
    ColumnarTrace,
    Query,
    StringDictionary,
    append_store,
    available_codecs,
    execute,
)
from repro.engine.codecs import (
    DICTIONARY_NAME,
    StoreDictionary,
    delta_decode_floats,
    delta_encode_floats,
    pack_block,
    read_block_header,
    unpack_block,
)
from repro.engine import store as store_module
from repro.engine.pipeline import find_store_checkpoints
from repro.errors import TraceFormatError
from repro.traces import Job, Trace

ALL_COLUMNS = ("job_id", "submit_time_s", "duration_s", "input_bytes",
               "shuffle_bytes", "output_bytes", "map_task_seconds",
               "reduce_task_seconds", "name", "input_path", "output_path")


def _jobs(n, start=0):
    for index in range(start, start + n):
        yield Job(job_id="j%06d" % index, submit_time_s=index * 7.25,
                  duration_s=40.0 + index % 13, input_bytes=1e6 * (index + 1),
                  shuffle_bytes=float(index % 3), output_bytes=1e3,
                  map_task_seconds=9.0, reduce_task_seconds=0.5,
                  name="job kind %d" % (index % 7),
                  input_path="/in/%d" % (index % 11),
                  output_path="/out/%d" % (index % 5))


def _columns(store):
    blocks = [store.read_chunk(i) for i in range(store.n_chunks)]
    return {name: np.concatenate([b.column(name) for b in blocks])
            for name in store.columns}


def _bit_equal(a, b):
    """Bit-exact equality (NaN == NaN for float columns)."""
    if a.dtype.kind == "f":
        return np.array_equal(np.asarray(a).view(np.uint64),
                              np.asarray(b).view(np.uint64))
    return np.array_equal(a, b)


@pytest.fixture(scope="module")
def by_encoding(cc_e_trace, tmp_path_factory):
    """The CC-e trace stored twice: as written ("dict"), and with every string
    column forced to raw encoding ("raw") — strings folded as strings."""
    base = tmp_path_factory.mktemp("encodings")
    stores = {"dict": ChunkedTraceStore.write(base / "dict.store", cc_e_trace,
                                              chunk_rows=1024, name=cc_e_trace.name)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store_module, "_choose_string_encoding", lambda array: "raw")
        stores["raw"] = ChunkedTraceStore.write(base / "raw.store", cc_e_trace,
                                                chunk_rows=1024, name=cc_e_trace.name)
    assert set(stores["raw"].string_encodings.values()) == {"raw"}
    assert "dict" in stores["dict"].string_encodings.values()
    return stores


# ---------------------------------------------------------------------------
# Block codec primitives
# ---------------------------------------------------------------------------
class TestBlockCodec:
    @pytest.mark.parametrize("codec", sorted(available_codecs()))
    @pytest.mark.parametrize("array", [
        np.arange(100, dtype=np.float64) * 1.5,
        np.arange(50, dtype=np.int64),
        np.array(["alpha", "", "gamma"] * 7),
        np.array([], dtype=np.float64),
    ], ids=["float64", "int64", "unicode", "empty"])
    def test_raw_roundtrip(self, codec, array):
        header, back = unpack_block(pack_block(array, "raw", codec), "<mem>")
        assert header["codec"] == codec
        assert header["rows"] == array.shape[0]
        assert back.dtype == array.dtype
        assert np.array_equal(back, array)

    def test_delta64_roundtrip_bit_exact(self):
        values = np.cumsum(np.random.default_rng(3).uniform(0, 9, 4000))
        header, back = unpack_block(pack_block(values, "delta64", "zlib"), "<mem>")
        assert header["encoding"] == "delta64"
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    def test_header_only_read(self, tmp_path):
        path = tmp_path / "b.bin"
        path.write_bytes(pack_block(np.arange(10, dtype=np.float64), "raw",
                                    "zlib", raw_bytes=80))
        header = read_block_header(path)
        assert (header["rows"], header["raw_bytes"]) == (10, 80)

    def test_unknown_codec_rejected(self):
        with pytest.raises(TraceFormatError, match="codec"):
            pack_block(np.arange(4, dtype=np.float64), "raw", "snappy")

    def test_corrupt_block_rejected(self):
        with pytest.raises(TraceFormatError):
            unpack_block(b"NOTABLOCK" * 4, "<mem>")


# ---------------------------------------------------------------------------
# Dictionary + delta property tests
# ---------------------------------------------------------------------------
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

texts = st.lists(st.text(alphabet="ab/cd_0123", max_size=12), max_size=80)
floats = st.lists(st.floats(allow_nan=True, allow_infinity=True,
                            width=64), max_size=200)


class TestDictionaryProperties:
    @given(values=texts)
    @settings(deadline=None, max_examples=120)
    def test_encode_decode_roundtrip(self, values):
        table = StringDictionary()
        array = np.array(values, dtype="<U12") if values else np.array([], dtype="<U1")
        codes = table.encode(array)
        assert codes.dtype == np.uint32
        assert np.array_equal(table.decode(codes), array)

    @given(first=texts, second=texts)
    @settings(deadline=None, max_examples=120)
    def test_append_grown_dictionary_keeps_old_codes(self, first, second):
        table = StringDictionary()
        a = np.asarray(first, dtype="<U12")
        codes_a = table.encode(a)
        size_before = len(table)
        b = np.asarray(second, dtype="<U12")
        codes_b = table.encode(b)
        # Growth is append-only: earlier codes still decode to the same values.
        assert len(table) >= size_before
        assert np.array_equal(table.decode(codes_a), a)
        assert np.array_equal(table.decode(codes_b), b)

    @given(values=texts)
    @settings(deadline=None, max_examples=60)
    def test_sidecar_roundtrip(self, values, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("dict"))
        store_dict = StoreDictionary()
        codes = store_dict.column("name").encode(np.asarray(values, dtype="<U12"))
        store_dict.save(directory)
        back = StoreDictionary.load(directory)
        assert np.array_equal(back.column("name").decode(codes),
                              np.asarray(values, dtype="<U12"))

    @given(values=floats)
    @settings(deadline=None, max_examples=150)
    def test_delta_codec_bit_exact(self, values):
        array = np.asarray(values, dtype=np.float64)
        back = delta_decode_floats(delta_encode_floats(array))
        assert np.array_equal(back.view(np.uint64), array.view(np.uint64))

    def test_delta_codec_empty_and_constant(self):
        for array in (np.array([], dtype=np.float64), np.full(17, 3.5)):
            back = delta_decode_floats(delta_encode_floats(array))
            assert np.array_equal(back.view(np.uint64), array.view(np.uint64))

    def test_stale_sidecar_detected(self):
        table = StringDictionary(["a", "b"])
        with pytest.raises(TraceFormatError, match="dictionary"):
            table.decode(np.array([5], dtype=np.uint32))


# ---------------------------------------------------------------------------
# The v3 store itself
# ---------------------------------------------------------------------------
class TestFormatV3Store:
    def test_columns_bit_identical_to_source(self, cc_e_trace, by_encoding):
        reference = ColumnarTrace.from_trace(cc_e_trace).columns
        for encoding, store in by_encoding.items():
            mine = _columns(store)
            assert sorted(mine) == sorted(reference)
            for name, values in mine.items():
                assert _bit_equal(values, reference[name]), (encoding, name)

    def test_info_reports_codec_and_encodings(self, by_encoding):
        info = by_encoding["dict"].info()
        assert info["format_version"] == 3
        assert info["codec"] == "zlib"
        encodings = info["string_encodings"]
        assert {"job_id", "name", "input_path", "output_path"} <= set(encodings)
        assert set(encodings.values()) <= {"dict", "raw"}
        assert encodings["workload"] == "dict"  # constant column
        assert info["dictionary_bytes"] > 0

    def test_column_raw_sizes_exceed_compressed(self, by_encoding):
        raw = by_encoding["dict"].column_raw_sizes()
        compressed = by_encoding["dict"].column_sizes()
        assert set(raw) == set(compressed)
        assert sum(raw.values()) > sum(compressed.values())

    def test_adaptive_encoding_high_cardinality_goes_raw(self, tmp_path):
        store = ChunkedTraceStore.write(tmp_path / "wide", _jobs(2500), chunk_rows=2048)
        # 2048 distinct job ids in the first chunk beat the dictionary
        # threshold; the low-cardinality columns stay dictionary-coded.
        assert store.string_encodings["job_id"] == "raw"
        assert store.string_encodings["name"] == "dict"
        assert np.array_equal(_columns(store)["job_id"],
                              np.array(["j%06d" % i for i in range(2500)]))

    def test_lzma_codec_roundtrip(self, tmp_path):
        store = ChunkedTraceStore.write(tmp_path / "xz", _jobs(300),
                                        chunk_rows=128, codec="lzma")
        assert store.codec == "lzma"
        reopened = ChunkedTraceStore(tmp_path / "xz")
        assert np.array_equal(_columns(reopened)["input_bytes"],
                              np.array([1e6 * (i + 1) for i in range(300)]))

    def test_unknown_codec_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="codec"):
            ChunkedTraceStore.write(tmp_path / "s", _jobs(4), codec="snappy")

    def test_missing_dictionary_sidecar_rejected(self, tmp_path):
        directory = tmp_path / "s"
        ChunkedTraceStore.write(directory, _jobs(32), chunk_rows=16)
        os.unlink(directory / DICTIONARY_NAME)
        with pytest.raises(TraceFormatError, match="dictionary"):
            ChunkedTraceStore(directory)

    def test_predicates_on_dictionary_columns(self, tmp_path):
        store = ChunkedTraceStore.write(tmp_path / "s", _jobs(200), chunk_rows=64)
        hits = execute(store, Query().filter("input_path", "==", "/in/3")
                       .aggregate(n=("count", "input_bytes")))
        assert hits.aggregates["n"] == sum(1 for i in range(200) if i % 11 == 3)
        misses = execute(store, Query().filter("input_path", "==", "/nowhere")
                         .aggregate(n=("count", "input_bytes")))
        assert misses.aggregates["n"] == 0
        inverted = execute(store, Query().filter("input_path", "!=", "/nowhere")
                           .aggregate(n=("count", "input_bytes")))
        assert inverted.aggregates["n"] == 200


# ---------------------------------------------------------------------------
# Append + checkpoint resume
# ---------------------------------------------------------------------------
class TestV3Append:
    def test_append_only_extends_dictionary(self, tmp_path):
        directory = tmp_path / "s"
        ChunkedTraceStore.write(directory, _jobs(100), chunk_rows=64)
        with open(directory / DICTIONARY_NAME, "r", encoding="utf-8") as handle:
            before = json.load(handle)
        append_store(directory, _jobs(100, start=100))
        with open(directory / DICTIONARY_NAME, "r", encoding="utf-8") as handle:
            after = json.load(handle)
        for column, values in before["columns"].items():
            assert after["columns"][column][:len(values)] == values, column

    def test_checkpoint_resume_identical_to_cold(self, cc_e_trace, tmp_path):
        jobs = cc_e_trace.jobs
        cut = int(len(jobs) * 0.8)
        directory = tmp_path / "cc-e.v3.store"
        checkpoint = str(tmp_path / "scan.ck.json")
        ChunkedTraceStore.write(directory, Trace(jobs[:cut], name=cc_e_trace.name),
                                chunk_rows=1024, name=cc_e_trace.name)
        run_characterization_scan(ChunkedTraceStore(directory),
                                  checkpoint_to=checkpoint)
        store = append_store(directory, Trace(jobs[cut:], name=cc_e_trace.name))
        cold = run_characterization_scan(store)
        resumed = run_characterization_scan(store, resume_from=checkpoint)
        assert resumed.value("summary") == cold.value("summary")
        for key in ("input_ranks", "output_ranks"):
            assert np.array_equal(resumed.value(key).frequencies,
                                  cold.value(key).frequencies), key
        naming_cold, naming_mine = cold.value("naming"), resumed.value("naming")
        assert naming_mine.by_jobs.shares == naming_cold.by_jobs.shares
        assert naming_mine.by_bytes.shares == naming_cold.by_bytes.shares
        hourly_cold, hourly_mine = cold.value("hourly"), resumed.value("hourly")
        assert np.array_equal(hourly_mine.jobs_per_hour, hourly_cold.jobs_per_hour)
        assert np.array_equal(hourly_mine.bytes_per_hour, hourly_cold.bytes_per_hour)


# ---------------------------------------------------------------------------
# Characterization suite rows: dictionary codes vs raw strings
# ---------------------------------------------------------------------------
def _suite(store):
    return {
        result.experiment_id: result
        for result in run_suite(traces={store.name: store},
                                experiments=list(CHARACTERIZATION_EXPERIMENT_IDS),
                                include_ablations=False,
                                include_simulation=False)
    }


@pytest.fixture(scope="module")
def suite_by_encoding(by_encoding):
    return {encoding: _suite(store) for encoding, store in by_encoding.items()}


@pytest.mark.parametrize("experiment_id", CHARACTERIZATION_EXPERIMENT_IDS)
class TestEncodingSuiteEquality:
    def test_rows_identical(self, suite_by_encoding, experiment_id):
        baseline = suite_by_encoding["raw"][experiment_id]
        mine = suite_by_encoding["dict"][experiment_id]
        assert mine.rows == baseline.rows
        assert mine.headers == baseline.headers

    def test_series_identical(self, suite_by_encoding, experiment_id):
        baseline = suite_by_encoding["raw"][experiment_id]
        mine = suite_by_encoding["dict"][experiment_id]
        assert set(mine.series) == set(baseline.series)
        for key, points in baseline.series.items():
            assert mine.series[key] == points, key


# ---------------------------------------------------------------------------
# Stores migrated from the legacy v1/v2 layouts vs written as v3
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def by_origin(cc_e_trace, by_encoding, tmp_path_factory, write_store_as):
    """The CC-e trace written as v3 ("v3", the "dict" store above) and laid
    out as each legacy format, then migrated with ``engine convert``."""
    base = tmp_path_factory.mktemp("origins")
    stores = {"v3": by_encoding["dict"]}
    for origin in ("v1", "v2"):
        stores[origin] = write_store_as(origin, base / (origin + ".store"), cc_e_trace,
                                        chunk_rows=1024, name=cc_e_trace.name)
    return stores


@pytest.fixture(scope="module")
def suite_by_origin(by_origin, suite_by_encoding):
    return {origin: suite_by_encoding["dict"] if origin == "v3" else _suite(store)
            for origin, store in by_origin.items()}


@pytest.mark.parametrize("origin", ("v1", "v2"))
class TestMigratedStoreEquality:
    def test_chunks_and_dictionary_byte_identical(self, by_origin, origin):
        native, migrated = by_origin["v3"], by_origin[origin]
        names = sorted(name for name in os.listdir(native.directory)
                       if name.endswith(".bin") or name == DICTIONARY_NAME)
        assert names == sorted(name for name in os.listdir(migrated.directory)
                               if name.endswith(".bin") or name == DICTIONARY_NAME)
        for name in names:
            with open(os.path.join(native.directory, name), "rb") as mine, \
                    open(os.path.join(migrated.directory, name), "rb") as theirs:
                assert mine.read() == theirs.read(), name

    def test_manifest_differs_only_in_store_uid(self, by_origin, origin):
        manifests = []
        for store in (by_origin["v3"], by_origin[origin]):
            with open(os.path.join(store.directory, "manifest.json"), encoding="utf-8") as handle:
                manifest = json.load(handle)
            assert manifest.pop("store_uid")
            manifests.append(manifest)
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("experiment_id", CHARACTERIZATION_EXPERIMENT_IDS)
    def test_rows_identical(self, suite_by_origin, origin, experiment_id):
        baseline = suite_by_origin["v3"][experiment_id]
        mine = suite_by_origin[origin][experiment_id]
        assert mine.rows == baseline.rows
        assert mine.headers == baseline.headers

    @pytest.mark.parametrize("experiment_id", CHARACTERIZATION_EXPERIMENT_IDS)
    def test_series_identical(self, suite_by_origin, origin, experiment_id):
        baseline = suite_by_origin["v3"][experiment_id]
        mine = suite_by_origin[origin][experiment_id]
        assert set(mine.series) == set(baseline.series)
        for key, points in baseline.series.items():
            assert mine.series[key] == points, key


# ---------------------------------------------------------------------------
# Conversion metadata carry + checkpoint guard
# ---------------------------------------------------------------------------
class TestConversionCarriesMetadata:
    def test_sequence_and_sortedness_survive(self, tmp_path):
        source_dir = tmp_path / "src.store"
        ChunkedTraceStore.write(source_dir, _jobs(100), chunk_rows=64)
        append_store(source_dir, _jobs(50))  # duplicate times: unsorted append
        source = ChunkedTraceStore(source_dir)
        assert source.manifest_sequence == 1
        converted = ChunkedTraceStore.write(tmp_path / "out.store", source, chunk_rows=64)
        assert converted.manifest_sequence == source.manifest_sequence
        assert converted.sorted_by_submit_time == source.sorted_by_submit_time

    def test_find_store_checkpoints(self, tmp_path):
        directory = tmp_path / "s.store"
        store = ChunkedTraceStore.write(directory, _jobs(64), chunk_rows=32)
        assert find_store_checkpoints(store) == []
        checkpoint = str(tmp_path / "scan.ck.json")
        run_characterization_scan(store, checkpoint_to=checkpoint)
        # An unrelated JSON file next door must not trip the guard.
        (tmp_path / "notes.json").write_text("{\"hello\": 1}")
        assert find_store_checkpoints(ChunkedTraceStore(directory)) == [checkpoint]

    def test_cli_convert_refuses_checkpointed_source(self, tmp_path, capsys):
        directory = tmp_path / "s.store"
        store = ChunkedTraceStore.write(directory, _jobs(64), chunk_rows=32)
        run_characterization_scan(store, checkpoint_to=str(tmp_path / "ck.json"))
        code = main(["engine", "convert", "--store", str(directory),
                     "--output", str(tmp_path / "out.store")])
        assert code == 1
        assert "refusing to convert" in capsys.readouterr().err
        os.unlink(tmp_path / "ck.json")
        os.unlink(tmp_path / "ck.json.npz")
        assert main(["engine", "convert", "--store", str(directory),
                     "--output", str(tmp_path / "out.store")]) == 0

    def test_cli_ingest_codec_creates_v3(self, tmp_path, capsys):
        trace_path = str(tmp_path / "jobs.jsonl")
        from repro.traces.io import write_trace
        write_trace(Trace(list(_jobs(80)), name="t"), trace_path)
        directory = str(tmp_path / "new.store")
        assert main(["engine", "ingest", "--store", directory,
                     "--trace", trace_path, "--codec", "zlib"]) == 0
        store = ChunkedTraceStore(directory)
        assert (store.info()["format_version"], store.codec) == (3, "zlib")
        # Second ingest appends, reusing the store codec; --codec now errors.
        assert main(["engine", "ingest", "--store", directory,
                     "--trace", trace_path]) == 0
        assert ChunkedTraceStore(directory).n_jobs == 160
        with pytest.raises(SystemExit):
            main(["engine", "ingest", "--store", directory,
                  "--trace", trace_path, "--codec", "zlib"])
