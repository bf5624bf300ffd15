"""Checkpointed characterization: incremental resume == cold full rescan.

The acceptance contract of the incremental pipeline: after appending chunks
to a store, ``run_characterization_scan(resume_from=checkpoint)`` must
reproduce every analysis — and every suite table/figure row — **bit-identical**
to a cold full rescan of the grown store, while folding only the appended
chunks for the resumable consumers — every consumer, the Table-2 job sample
included.  Ordered consumers facing time-interleaved appends fall back to a
full rescan, and the bundle says so.
"""

import os

import numpy as np
import pytest

from repro.bench.suite import CHARACTERIZATION_EXPERIMENT_IDS, run_suite
from repro.core import characterize, profile_source, run_characterization_scan
from repro.core.sharedscan import _ALL_KEYS
from repro.engine import Checkpoint, ChunkedTraceStore, ParallelExecutor, append_store
from repro.errors import AnalysisError
from repro.traces import Trace


@pytest.fixture(scope="module")
def split_trace(cc_e_trace):
    """The CC-e jobs split 80/20 at a submit-time boundary."""
    jobs = cc_e_trace.jobs
    cut = int(len(jobs) * 0.8)
    return (Trace(jobs[:cut], name=cc_e_trace.name, machines=cc_e_trace.machines),
            Trace(jobs[cut:], name=cc_e_trace.name, machines=cc_e_trace.machines))


@pytest.fixture(scope="module")
def grown_store(split_trace, tmp_path_factory):
    """A store seeded with 80% of the jobs, checkpointed, then appended to."""
    base, fresh = split_trace
    directory = tmp_path_factory.mktemp("ckresume") / "cc-e.store"
    checkpoint_path = str(tmp_path_factory.mktemp("ckresume-ck") / "scan.ck.json")
    ChunkedTraceStore.write(directory, base, chunk_rows=1024, name=base.name)
    run_characterization_scan(ChunkedTraceStore(directory),
                              cluster_sample_cap=SAMPLE_CAP,
                              checkpoint_to=checkpoint_path)
    store = append_store(directory, fresh)
    return store, checkpoint_path


#: Sample cap below the seeded 80 % of CC-e, so the Table-2 sample consumer
#: is checkpointed and resumed.
SAMPLE_CAP = 500


@pytest.fixture(scope="module")
def bundles(grown_store):
    store, checkpoint_path = grown_store
    return {
        "cold": run_characterization_scan(store, cluster_sample_cap=SAMPLE_CAP),
        "resumed": run_characterization_scan(store, resume_from=checkpoint_path,
                                             cluster_sample_cap=SAMPLE_CAP),
        "resumed_parallel": run_characterization_scan(
            store, resume_from=checkpoint_path, cluster_sample_cap=SAMPLE_CAP,
            executor=ParallelExecutor(processes=2)),
    }


class TestIncrementalEqualsCold:
    """Serial incremental resume is bit-identical to a cold full rescan."""

    def test_summary(self, bundles):
        assert bundles["resumed"].value("summary") == bundles["cold"].value("summary")

    def test_data_sizes(self, bundles):
        cold, mine = bundles["cold"].value("data_sizes"), bundles["resumed"].value("data_sizes")
        assert mine.medians == cold.medians
        assert mine.fraction_below_gb == cold.fraction_below_gb
        assert mine.map_only_fraction == cold.map_only_fraction

    def test_ranks_and_profiles(self, bundles):
        for key in ("input_ranks", "output_ranks"):
            cold, mine = bundles["cold"].value(key), bundles["resumed"].value(key)
            assert np.array_equal(mine.frequencies, cold.frequencies)
            assert mine.slope == cold.slope
        for key in ("input_profile", "output_profile"):
            cold, mine = bundles["cold"].value(key), bundles["resumed"].value(key)
            assert np.array_equal(mine.file_sizes, cold.file_sizes)
            assert mine.jobs_below_gb_fraction == cold.jobs_below_gb_fraction
            assert mine.bytes_below_gb_fraction == cold.bytes_below_gb_fraction

    def test_reaccess(self, bundles):
        cold = bundles["cold"].value("reaccess_intervals")
        mine = bundles["resumed"].value("reaccess_intervals")
        assert mine.fraction_within_6h == cold.fraction_within_6h
        for attr in ("input_input", "output_input"):
            a, b = getattr(cold, attr), getattr(mine, attr)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(b.values, a.values)
        assert bundles["resumed"].value("reaccess_fractions") == \
            bundles["cold"].value("reaccess_fractions")

    def test_hourly(self, bundles):
        cold, mine = bundles["cold"].value("hourly"), bundles["resumed"].value("hourly")
        assert np.array_equal(mine.jobs_per_hour, cold.jobs_per_hour)
        assert np.array_equal(mine.bytes_per_hour, cold.bytes_per_hour)
        assert np.array_equal(mine.task_seconds_per_hour, cold.task_seconds_per_hour)

    def test_naming(self, bundles):
        cold, mine = bundles["cold"].value("naming"), bundles["resumed"].value("naming")
        assert mine.by_jobs.shares == cold.by_jobs.shares
        assert mine.by_bytes.shares == cold.by_bytes.shares
        assert mine.by_task_seconds.shares == cold.by_task_seconds.shares
        assert mine.framework_shares == cold.framework_shares

    def test_cluster_sample(self, bundles):
        cold = bundles["cold"].get("cluster_sample")
        mine = bundles["resumed"].get("cluster_sample")
        assert cold is not None and mine is not None
        for column, values in cold.block.columns.items():
            assert np.array_equal(mine.block.columns[column], values), column


class TestParallelResumeClose:
    """The parallel resumed lane matches up to float merge order (as every
    parallel scan does — the same tolerance the shared-scan tests pin)."""

    def test_counts_exact_floats_close(self, bundles):
        cold = bundles["cold"].value("summary")
        mine = bundles["resumed_parallel"].value("summary")
        assert mine.n_jobs == cold.n_jobs
        assert mine.bytes_moved == pytest.approx(cold.bytes_moved, rel=1e-12)
        naming_cold = bundles["cold"].value("naming")
        naming_mine = bundles["resumed_parallel"].value("naming")
        assert naming_mine.by_jobs.shares == naming_cold.by_jobs.shares
        for (word, share), (ref_word, ref_share) in zip(
                naming_mine.by_bytes.shares, naming_cold.by_bytes.shares):
            assert word == ref_word
            assert share == pytest.approx(ref_share, rel=1e-12)
        hourly_cold = bundles["cold"].value("hourly")
        hourly_mine = bundles["resumed_parallel"].value("hourly")
        assert np.array_equal(hourly_mine.jobs_per_hour, hourly_cold.jobs_per_hour)
        assert np.allclose(hourly_mine.bytes_per_hour, hourly_cold.bytes_per_hour,
                           rtol=1e-9)

    def test_dictionary_and_sample_stats_exact(self, bundles):
        assert bundles["resumed_parallel"].value("reaccess_fractions") == \
            bundles["cold"].value("reaccess_fractions")
        cold = bundles["cold"].get("cluster_sample")
        mine = bundles["resumed_parallel"].get("cluster_sample")
        for column, values in cold.block.columns.items():
            assert np.array_equal(mine.block.columns[column], values), column


class TestSuiteRowsIdentical:
    def test_resumed_suite_rows_bit_identical(self, grown_store, bundles):
        store, _checkpoint_path = grown_store

        def rows(bundle):
            results = run_suite(
                traces={store.name: store},
                experiments=list(CHARACTERIZATION_EXPERIMENT_IDS),
                include_ablations=False, include_simulation=False,
                analyses={store.name: bundle})
            return {result.experiment_id: (result.rows, result.headers)
                    for result in results}

        assert rows(bundles["resumed"]) == rows(bundles["cold"])


class TestResumeReporting:
    def test_resumed_and_rescanned_sets(self, bundles):
        resume = bundles["resumed"].resume
        assert resume is not None
        assert resume["new_chunks"] >= 1
        for name in ("summary", "data_sizes", "path_stats_input", "hourly",
                     "naming", "reaccess"):
            assert name in resume["resumed"], name
        assert "cluster_sample" in resume["resumed"]
        assert resume["rescanned"] == {}

    @pytest.mark.parametrize("mode", ("resumed", "resumed_parallel"))
    def test_resume_decodes_only_the_appended_rows(self, bundles, split_trace, mode):
        """With nothing rescanned, a resume reads the appended chunks and rows
        alone — counted by the scan, not timed."""
        bundle = bundles[mode]
        assert bundle.resume["rescanned"] == {}
        assert bundle.chunks_scanned == bundle.resume["new_chunks"]
        assert bundle.rows_scanned == len(split_trace[1])

    def test_cold_scan_has_no_resume_info(self, bundles):
        assert bundles["cold"].resume is None

    def test_checkpoint_files_written(self, grown_store):
        _store, checkpoint_path = grown_store
        assert os.path.isfile(checkpoint_path)
        assert os.path.isfile(checkpoint_path + ".npz")
        checkpoint = Checkpoint.load(checkpoint_path)
        assert checkpoint.chunk_watermark >= 1
        assert "summary" in checkpoint.consumers


class TestOrderedFallback:
    def test_interleaved_append_rescans_the_ordered_walk(self, split_trace,
                                                         tmp_path_factory):
        base, fresh = split_trace
        directory = tmp_path_factory.mktemp("interleave") / "store"
        checkpoint_path = str(directory) + ".ck.json"
        ChunkedTraceStore.write(directory, fresh, chunk_rows=1024, name="cc-e")
        run_characterization_scan(ChunkedTraceStore(directory),
                                  checkpoint_to=checkpoint_path)
        # base jobs come *before* the stored ones: the append interleaves
        store = append_store(directory, base)
        assert not store.sorted_by_submit_time
        resumed = run_characterization_scan(store, resume_from=checkpoint_path)
        assert "reaccess" in resumed.resume["rescanned"]
        assert "interleaves in time" in resumed.resume["rescanned"]["reaccess"]
        # the fallback full rescan then fails exactly like a cold scan would
        cold = run_characterization_scan(store)
        assert isinstance(resumed.error("reaccess_intervals"), AnalysisError)
        assert isinstance(cold.error("reaccess_intervals"), AnalysisError)
        # unordered analyses still resume and still match the cold scan
        assert "summary" in resumed.resume["resumed"]
        assert resumed.value("summary") == cold.value("summary")


class TestCheckpointValidation:
    def test_rewritten_store_rejected(self, split_trace, tmp_path):
        base, _fresh = split_trace
        directory = tmp_path / "rewrite"
        checkpoint_path = str(tmp_path / "rw.ck.json")
        ChunkedTraceStore.write(directory, base, chunk_rows=1024, name="cc-e")
        run_characterization_scan(ChunkedTraceStore(directory),
                                  checkpoint_to=checkpoint_path)
        # a rewrite (different chunking) is not an append: prefix rows change
        ChunkedTraceStore.write(directory, base, chunk_rows=700, name="cc-e")
        with pytest.raises(AnalysisError, match="rewritten"):
            run_characterization_scan(ChunkedTraceStore(directory),
                                      resume_from=checkpoint_path)

    @pytest.mark.parametrize("scan", [run_characterization_scan, profile_source],
                             ids=["characterization", "profile"])
    @pytest.mark.parametrize("argument", ["checkpoint_to", "resume_from"])
    def test_materialized_source_rejected(self, split_trace, tmp_path, scan, argument):
        base, _fresh = split_trace
        with pytest.raises(AnalysisError, match="store-backed"):
            scan(base, **{argument: str(tmp_path / "x.json")})

    def test_missing_checkpoint_file(self, split_trace, tmp_path):
        base, _fresh = split_trace
        directory = tmp_path / "missing"
        ChunkedTraceStore.write(directory, base, chunk_rows=1024)
        with pytest.raises(AnalysisError, match="cannot read checkpoint"):
            run_characterization_scan(ChunkedTraceStore(directory),
                                      resume_from=str(tmp_path / "nope.json"))

    def test_same_shape_rewrite_rejected_by_store_uid(self, split_trace, tmp_path):
        """A byte-different store of identical shape must not pass validate."""
        base, _fresh = split_trace
        directory = tmp_path / "sameshape"
        checkpoint_path = str(tmp_path / "ss.ck.json")
        ChunkedTraceStore.write(directory, base, chunk_rows=1024, name="cc-e")
        run_characterization_scan(ChunkedTraceStore(directory),
                                  checkpoint_to=checkpoint_path)
        # regenerate with the SAME chunking and job count: chunk/row
        # watermarks and manifest_sequence all match the checkpoint
        ChunkedTraceStore.write(directory, base, chunk_rows=1024, name="cc-e")
        with pytest.raises(AnalysisError, match="different store"):
            run_characterization_scan(ChunkedTraceStore(directory),
                                      resume_from=checkpoint_path)

    def test_mismatched_json_npz_pair_rejected(self, split_trace, tmp_path):
        """A torn roll-forward (new npz, old JSON) is detected at load."""
        base, _fresh = split_trace
        directory = tmp_path / "torn"
        old_path = str(tmp_path / "old.ck.json")
        new_path = str(tmp_path / "new.ck.json")
        store = ChunkedTraceStore.write(directory, base, chunk_rows=1024)
        run_characterization_scan(store, checkpoint_to=old_path)
        run_characterization_scan(store, checkpoint_to=new_path)
        os.replace(new_path + ".npz", old_path + ".npz")  # simulate the crash
        with pytest.raises(AnalysisError, match="out of sync"):
            Checkpoint.load(old_path)


class TestCharacterizeResume:
    def test_report_matches_cold_and_notes_say_so(self, grown_store):
        store, checkpoint_path = grown_store
        cold = characterize(store, max_k=4)
        resumed = characterize(store, max_k=4, resume_from=checkpoint_path)
        assert resumed.summary == cold.summary
        assert resumed.access.fractions == cold.access.fractions
        assert resumed.clustering.k == cold.clustering.k
        assert any("resumed" in note for note in resumed.notes)

    def test_cli_checkpoint_requires_store(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["characterize", "--workload", "CC-e", "--checkpoint", "x.json"])


class TestAllKeysCovered:
    def test_every_analysis_key_is_exercised(self, bundles):
        """Every shared-scan key either resumed or was explicitly rescanned."""
        resume = bundles["resumed"].resume
        handled = set(resume["resumed"]) | set(resume["rescanned"])
        # analysis keys map onto consumer names; the consumers the suite
        # registers for a full default scan:
        expected = {"summary", "data_sizes", "path_stats_input",
                    "path_stats_output", "reaccess", "hourly", "naming",
                    "cluster_sample"}
        assert expected <= handled
        assert set(_ALL_KEYS) >= {"summary", "data_sizes"}  # sanity


class TestOneResumeDriver:
    """``run_characterization_scan`` resumes through ``run_resumable_scan`` and
    nothing else: the same consumers over the same checkpoint give the same
    resume report and the same checkpoint bytes either way."""

    @pytest.mark.parametrize("processes", [None, 2], ids=["serial", "parallel2"])
    def test_same_report_and_checkpoint_as_the_generic_driver(
            self, grown_store, tmp_path, monkeypatch, processes):
        import json
        import shutil

        from repro.core import sharedscan
        from repro.engine import TraceSource, run_resumable_scan

        store, checkpoint_path = grown_store
        paths = {}
        for side in ("characterization", "generic"):
            paths[side] = str(tmp_path / ("%s.ck.json" % side))
            shutil.copy(checkpoint_path, paths[side])
            shutil.copy(checkpoint_path + ".npz", paths[side] + ".npz")
        executor = ParallelExecutor(processes=processes) if processes else None

        seen = {}

        def spy(source, consumers, **kwargs):
            seen["consumers"], seen["kwargs"] = list(consumers), kwargs
            return run_resumable_scan(source, consumers, **kwargs)

        monkeypatch.setattr(sharedscan, "run_resumable_scan", spy)
        bundle = run_characterization_scan(
            store, cluster_sample_cap=SAMPLE_CAP, executor=executor,
            resume_from=paths["characterization"],
            checkpoint_to=paths["characterization"])
        assert seen["kwargs"]["executor"] is executor
        assert bundle.checkpoint_path == paths["characterization"]

        merged, report, saved = run_resumable_scan(
            TraceSource.wrap(store), seen["consumers"], executor=executor,
            resume_from=paths["generic"], checkpoint_to=paths["generic"],
            meta={"workload": store.name})
        assert saved == paths["generic"]
        assert report == bundle.resume
        assert report["new_chunks"] == store.n_chunks - report["chunk_watermark"] > 0
        assert "summary" in report["resumed"]
        assert "cluster_sample" in report["resumed"]
        assert merged.rows_scanned == bundle.rows_scanned

        def stable_bytes(path):
            """The checkpoint JSON with its per-save random token blanked."""
            with open(path, "rb") as handle:
                data = handle.read()
            return data.replace(json.loads(data)["save_token"].encode(), b"<token>")

        assert stable_bytes(paths["characterization"]) == stable_bytes(paths["generic"])
        with np.load(paths["characterization"] + ".npz") as mine, \
                np.load(paths["generic"] + ".npz") as reference:
            assert sorted(mine.files) == sorted(reference.files)
            for member in mine.files:
                if member != "__save_token__":
                    assert np.array_equal(mine[member], reference[member]), member


class TestCorruptCheckpoint:
    """Every unreadable checkpoint is an ``AnalysisError`` — never a bare
    ``BadZipFile`` / ``EOFError`` / ``KeyError`` — so the rolling policy
    scans cold and writes a fresh checkpoint instead of failing the caller."""

    @staticmethod
    def _flip_inside_member(npz_path):
        """Flip one byte in the middle of the largest raw array member."""
        import zipfile

        with zipfile.ZipFile(npz_path) as archive:
            member = max(archive.infolist(), key=lambda info: info.file_size)
            assert member.compress_type == zipfile.ZIP_STORED  # raw, not deflated
        with open(npz_path, "r+b") as handle:
            handle.seek(member.header_offset + 26)
            name_length, extra_length = np.frombuffer(handle.read(4), dtype="<u2")
            data_start = member.header_offset + 30 + int(name_length) + int(extra_length)
            handle.seek(data_start + member.file_size // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0x10]))

    @staticmethod
    def _rewrite_json(path, edit):
        import json

        with open(path) as handle:
            document = json.load(handle)
        with open(path, "w") as handle:
            json.dump(edit(document), handle)

    @pytest.mark.parametrize("damage", ["truncated_npz", "bit_flip_in_array", "empty_npz",
                                        "json_not_an_object", "json_without_watermark"])
    def test_typed_error_then_cold_scan_and_fresh_checkpoint(self, grown_store, tmp_path,
                                                             damage):
        import shutil
        from functools import partial

        from repro.engine.pipeline import scan_with_rolling_checkpoint

        store, checkpoint_path = grown_store
        path = str(tmp_path / "damaged.ck.json")
        shutil.copy(checkpoint_path, path)
        shutil.copy(checkpoint_path + ".npz", path + ".npz")
        if damage == "truncated_npz":
            size = os.path.getsize(path + ".npz")
            with open(path + ".npz", "r+b") as handle:
                handle.truncate(size // 2)
        elif damage == "bit_flip_in_array":
            self._flip_inside_member(path + ".npz")
        elif damage == "empty_npz":
            open(path + ".npz", "wb").close()
        elif damage == "json_not_an_object":
            self._rewrite_json(path, lambda document: [document])
        else:
            self._rewrite_json(path, lambda document: {
                key: value for key, value in document.items() if key != "chunk_watermark"})

        with pytest.raises(AnalysisError, match="cannot read checkpoint"):
            Checkpoint.load(path)

        bundle = scan_with_rolling_checkpoint(
            partial(run_characterization_scan, store, cluster_sample_cap=SAMPLE_CAP), path)
        assert bundle.resume is None  # the fallback was a cold scan
        assert bundle.value("summary") == run_characterization_scan(store).value("summary")
        fresh = Checkpoint.load(path)
        assert fresh.chunk_watermark == store.n_chunks
        assert "cluster_sample" in fresh.consumers
