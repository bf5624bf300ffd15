"""The cross-store equivalence battery for federated multi-store analytics.

Pins the federation contracts of the seven-cluster comparison:

* a federated N-store scan produces exactly the same per-member statistics
  as scanning each store alone, serial vs parallel execution, on stores
  written as v3 or migrated from the legacy v1/v2 layouts;
* store-backed evolution comparison is bit-for-bit the materialized path;
* the comparison metric (`workload_distance`) and the
  greedy suite selection satisfy their metric/invariance properties
  (hypothesis property tests);
* catalog edge cases: empty catalogs, members with mismatched columns,
  stale index sidecars, appends between scans (old-handle semantics and
  per-member checkpoint resume).
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    compare_catalog,
    compare_evolution,
    features_from_profile,
    profile_source,
    select_workload_suite,
    workload_distance,
)
from repro.core.comparison import FEATURE_NAMES, WorkloadFeatures
from repro.core.federation import _epoch_chains, _member_profile_consumers
from repro.core.profile import profile_consumers, profile_from_scan
from repro.engine import (
    CATALOG_METADATA_NAME,
    ChunkedTraceStore,
    FederatedSource,
    ParallelExecutor,
    Query,
    StoreCatalog,
    append_store,
    build_indexes,
)
from repro.errors import AnalysisError, TraceFormatError
from repro.traces import Job, Trace
from repro.units import GB, HOUR, MB


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------
def varied_jobs(name, n_jobs, seed, query_share=0.5):
    """Jobs with spread-out sizes, names, and a bursty submission pattern."""
    rng = np.random.default_rng(seed)
    jobs = []
    for index in range(n_jobs):
        hour = index % 18
        burst = 4.0 if hour == 9 else 1.0
        submit = hour * HOUR + float(rng.uniform(0, HOUR / burst))
        has_reduce = rng.random() < 0.4
        word = "select" if rng.random() < query_share else "oozie"
        jobs.append(Job(
            job_id="%s-%d" % (name, index),
            submit_time_s=submit,
            duration_s=float(rng.uniform(20, 400)),
            input_bytes=float(rng.lognormal(16.0 + seed % 3, 2.5)),
            shuffle_bytes=float(rng.lognormal(13.0, 2.0)) if has_reduce else 0.0,
            output_bytes=float(rng.lognormal(12.0, 2.5)),
            map_task_seconds=float(rng.uniform(10, 500)),
            reduce_task_seconds=float(rng.uniform(5, 100)) if has_reduce else 0.0,
            name="%s job %d" % (word, index),
        ))
    return jobs


def constant_jobs(name, n_jobs, input_bytes, shuffle_bytes, output_bytes,
                  map_only_every=2):
    """Sizes engineered so sketch medians equal exact medians bit for bit.

    Input and output are one distinct value per store, so the histogram
    sketch's min/max clamp reads out the exact value; shuffle is zero for
    at least half the jobs, so both paths put its median at exactly 0.0.
    All byte values are powers of two, keeping every accumulation exact.
    """
    jobs = []
    for index in range(n_jobs):
        map_only = index % map_only_every == 0
        jobs.append(Job(
            job_id="%s-%d" % (name, index),
            submit_time_s=float(index % 12) * HOUR + 60.0 * (index % 50),
            duration_s=120.0,
            input_bytes=input_bytes,
            shuffle_bytes=0.0 if map_only else shuffle_bytes,
            output_bytes=output_bytes,
            map_task_seconds=300.0,
            reduce_task_seconds=0.0 if map_only else 90.0,
        ))
    return jobs


def build_catalog(root, members, chunk_rows=64, write=ChunkedTraceStore.write):
    """Write ``{name: jobs}`` as stores under ``root`` through ``write`` (the
    v3 writer, or a ``write_store_as`` that migrates from a legacy layout)."""
    catalog_dir = os.path.join(str(root), "catalog")
    os.makedirs(catalog_dir, exist_ok=True)
    for name, jobs in members.items():
        write(os.path.join(catalog_dir, name), jobs,
              chunk_rows=chunk_rows, name=name.split("@")[0])
    return catalog_dir


def three_member_catalog(root, write=ChunkedTraceStore.write):
    return build_catalog(root, {
        "fb@2009": varied_jobs("fb09", 150, seed=1, query_share=0.2),
        "fb@2010": varied_jobs("fb10", 200, seed=2, query_share=0.6),
        "cc-b": varied_jobs("ccb", 120, seed=3, query_share=0.8),
    }, write=write)


def report_digest(report):
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the equivalence battery: federated == per-store, serial/parallel
# ---------------------------------------------------------------------------
class TestFederatedEquivalence:
    @pytest.mark.parametrize("processes", [0, 2])
    def test_federated_scan_matches_per_store_scans(self, tmp_path, processes,
                                                    store_origin, write_store_as):
        """Every member's federated profile == profiling that store alone."""
        catalog_dir = three_member_catalog(
            tmp_path, functools.partial(write_store_as, store_origin))
        executor = ParallelExecutor(processes=processes) if processes else None
        report = compare_catalog(catalog_dir, executor=executor)

        for name in ("cc-b", "fb@2009", "fb@2010"):
            store = ChunkedTraceStore(os.path.join(catalog_dir, name))
            standalone = profile_source(store, name=name)
            assert features_from_profile(standalone) == report.features[name]
            federated = report.profiles[name]
            assert federated.n_jobs == standalone.n_jobs
            assert federated.small_job_fraction == standalone.small_job_fraction
            assert federated.burstiness.peak_to_median == \
                standalone.burstiness.peak_to_median
            assert federated.sizes.medians == standalone.sizes.medians
            assert federated.summary.bytes_moved == standalone.summary.bytes_moved

        # Distances recomputed from the standalone features are identical.
        names = report.member_names()
        population = [report.features[name] for name in names]
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                expected = workload_distance(report.features[a],
                                             report.features[b], population)
                assert report.distances[(a, b)] == expected
                assert report.distances[(b, a)] == expected

    def test_parallel_report_bit_identical_to_serial(self, tmp_path, store_origin,
                                                     write_store_as):
        catalog_dir = three_member_catalog(
            tmp_path, functools.partial(write_store_as, store_origin))
        serial = compare_catalog(catalog_dir, suite_size=2)
        parallel = compare_catalog(catalog_dir, suite_size=2,
                                   executor=ParallelExecutor(processes=2))
        assert report_digest(parallel) == report_digest(serial)

    def test_mixed_origin_catalog_compares(self, tmp_path, write_store_as):
        """One catalog whose members were written as v3 or migrated from v1
        and v2 federates fine."""
        catalog_dir = os.path.join(str(tmp_path), "catalog")
        os.makedirs(catalog_dir)
        for name, origin, seed in (("a", "v1", 4), ("b", "v2", 5), ("c", "v3", 6)):
            write_store_as(origin, os.path.join(catalog_dir, name),
                           varied_jobs(name, 90, seed=seed), chunk_rows=64, name=name)
        report = compare_catalog(catalog_dir, suite_size=2)
        assert report.member_names() == ["a", "b", "c"]
        assert len(report.pairs) == 3
        assert set(report.suite.assignment) == {"a", "b", "c"}
        # Same jobs re-profiled store-alone give the same features no matter
        # which layout they came from.
        for name in ("a", "b", "c"):
            store = ChunkedTraceStore(os.path.join(catalog_dir, name))
            assert features_from_profile(profile_source(store, name=name)) == \
                report.features[name]

    def test_federated_scan_api_per_member_states(self, tmp_path):
        """FederatedSource.scan: fresh consumer states per member."""
        catalog_dir = three_member_catalog(tmp_path)
        federated = FederatedSource.from_catalog(catalog_dir)
        scans = federated.scan(_member_profile_consumers)
        assert set(scans) == {"cc-b", "fb@2009", "fb@2010"}
        for name, scan in scans.items():
            store = ChunkedTraceStore(os.path.join(catalog_dir, name))
            alone = profile_source(store, name=name)
            via_scan = profile_from_scan(scan.result, name, 10 * GB)
            assert features_from_profile(via_scan) == features_from_profile(alone)
            assert scan.result.rows_scanned == len(store)

    def test_member_subset_and_focus_pairs(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        report = compare_catalog(catalog_dir, members=["fb@2010", "cc-b"],
                                 pairs=[("cc-b", "fb@2010")])
        assert report.member_names() == ["fb@2010", "cc-b"]
        assert len(report.pairs) == 1
        pair = report.pairs[0]
        assert (pair.a, pair.b) == ("cc-b", "fb@2010")
        assert set(pair.deltas) == set(FEATURE_NAMES)
        # Deltas are directional raw feature differences, B - A.
        assert pair.deltas["framework_share"] == pytest.approx(
            report.features["fb@2010"].values["framework_share"]
            - report.features["cc-b"].values["framework_share"])
        with pytest.raises(AnalysisError, match="unknown member"):
            compare_catalog(catalog_dir, pairs=[("cc-b", "nope")])

    def test_drift_chains_follow_epoch_order(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        report = compare_catalog(catalog_dir)
        assert list(report.drift) == ["fb"]
        (evolution,) = report.drift["fb"]
        assert evolution.before_name == "fb@2009"
        assert evolution.after_name == "fb@2010"
        assert evolution.job_count_growth == pytest.approx(200 / 150)


# ---------------------------------------------------------------------------
# store-native evolution == materialized, bit for bit
# ---------------------------------------------------------------------------
class TestEvolutionStoreNative:
    def test_store_backed_evolution_is_bit_identical_to_materialized(self, tmp_path):
        before_jobs = constant_jobs("b", 120, input_bytes=4 * GB,
                                    shuffle_bytes=800 * MB, output_bytes=200 * MB)
        after_jobs = constant_jobs("a", 180, input_bytes=40 * GB,
                                   shuffle_bytes=8 * GB, output_bytes=2 * GB,
                                   map_only_every=2)
        materialized = compare_evolution(Trace(before_jobs, name="fb-2009"),
                                         Trace(after_jobs, name="fb-2010"))
        before_store = ChunkedTraceStore.write(
            str(tmp_path / "before"), before_jobs, chunk_rows=32, name="fb-2009")
        after_store = ChunkedTraceStore.write(
            str(tmp_path / "after"), after_jobs, chunk_rows=32, name="fb-2010")
        store_backed = compare_evolution(before_store, after_store)

        for dimension, shift in materialized.shifts.items():
            other = store_backed.shifts[dimension]
            assert other.median_before == shift.median_before
            assert other.median_after == shift.median_after
            assert other.orders_of_magnitude == shift.orders_of_magnitude
        assert store_backed.peak_to_median_before == materialized.peak_to_median_before
        assert store_backed.peak_to_median_after == materialized.peak_to_median_after
        assert store_backed.burstiness_reduction == materialized.burstiness_reduction
        assert store_backed.small_job_fraction_before == \
            materialized.small_job_fraction_before
        assert store_backed.small_job_fraction_after == \
            materialized.small_job_fraction_after
        assert store_backed.map_only_fraction_before == \
            materialized.map_only_fraction_before
        assert store_backed.map_only_fraction_after == \
            materialized.map_only_fraction_after
        assert store_backed.job_count_growth == materialized.job_count_growth
        assert store_backed.summary_lines() == materialized.summary_lines()

    def test_empty_trace_message_preserved(self):
        with pytest.raises(AnalysisError,
                           match="evolution comparison needs two non-empty"):
            compare_evolution(Trace([], name="x"),
                              Trace(constant_jobs("y", 5, 1 * GB, 0.0, 1 * MB),
                                    name="y"))

    def test_workload_features_store_equals_trace_on_constant_dimensions(self, tmp_path):
        from repro.core import workload_features

        jobs = constant_jobs("w", 90, input_bytes=2 * GB, shuffle_bytes=500 * MB,
                             output_bytes=100 * MB)
        store = ChunkedTraceStore.write(str(tmp_path / "w"), jobs, chunk_rows=16)
        assert workload_features(store).values == \
            workload_features(Trace(jobs, name="w")).values


# ---------------------------------------------------------------------------
# hypothesis property tests: distances and suite selection
# ---------------------------------------------------------------------------
def feature_populations(min_size=1, max_size=8):
    """Distinctly-named WorkloadFeatures populations with finite values."""

    def build(rows):
        return [WorkloadFeatures(workload="w%d" % index,
                                 values=dict(zip(FEATURE_NAMES, row)))
                for index, row in enumerate(rows)]

    vector = st.tuples(*[st.floats(min_value=-100, max_value=100,
                                   allow_nan=False) for _ in FEATURE_NAMES])
    return st.lists(vector, min_size=min_size, max_size=max_size).map(build)


class TestComparisonMetricProperties:

    @given(population=feature_populations(min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_workload_distance_identity_symmetry_nonnegative(self, population):
        a, b = population[0], population[1]
        assert workload_distance(a, a, population) == 0.0
        d = workload_distance(a, b, population)
        assert d == workload_distance(b, a, population)
        assert d >= 0.0
        # Population scaling bounds every dimension to [0, 1].
        assert d <= np.sqrt(len(FEATURE_NAMES)) + 1e-9

    @given(population=feature_populations(min_size=1, max_size=8),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_suite_invariants(self, population, data):
        suite_size = data.draw(st.integers(min_value=1,
                                           max_value=len(population)))
        suite = select_workload_suite(population, suite_size)
        names = {feature.workload for feature in population}
        assert set(suite.selected) <= names
        assert len(suite.selected) <= suite_size
        assert len(set(suite.selected)) == len(suite.selected)
        assert set(suite.assignment) == names
        assert set(suite.assignment.values()) <= set(suite.selected)
        assert suite.coverage_radius >= 0.0
        # Every selected workload represents itself.
        for name in suite.selected:
            assert suite.assignment[name] == name

    @given(population=feature_populations(min_size=2, max_size=7),
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_suite_deterministic_under_permutation(self, population, data):
        suite_size = data.draw(st.integers(min_value=1,
                                           max_value=len(population)))
        shuffled = data.draw(st.permutations(population))
        original = select_workload_suite(population, suite_size)
        permuted = select_workload_suite(shuffled, suite_size)
        assert original.selected == permuted.selected
        assert original.assignment == permuted.assignment
        assert original.coverage_radius == permuted.coverage_radius


# ---------------------------------------------------------------------------
# catalog and federation edge cases
# ---------------------------------------------------------------------------
class TestCatalogMetadata:
    def test_member_names_split_into_cluster_and_epoch(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        catalog = StoreCatalog(catalog_dir)
        assert catalog.clusters() == ["cc-b", "fb"]
        assert [entry.name for entry in _epoch_chains(catalog.members())["fb"]] == \
            ["fb@2009", "fb@2010"]
        entry = catalog.entry("fb@2009")
        assert (entry.cluster, entry.epoch) == ("fb", "2009")
        assert catalog.entry("cc-b").epoch is None

    def test_catalog_json_overrides_metadata(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        with open(os.path.join(catalog_dir, CATALOG_METADATA_NAME), "w",
                  encoding="utf-8") as handle:
            json.dump({"members": {"cc-b": {"cluster": "cloudera",
                                            "epoch": "2011"}}}, handle)
        catalog = StoreCatalog(catalog_dir)
        entry = catalog.entry("cc-b")
        assert (entry.cluster, entry.epoch) == ("cloudera", "2011")
        assert "cloudera" in catalog.clusters()

    def test_invalid_catalog_json_is_loud(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        with open(os.path.join(catalog_dir, CATALOG_METADATA_NAME), "w",
                  encoding="utf-8") as handle:
            handle.write("{broken")
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            StoreCatalog(catalog_dir)


class TestFederationEdgeCases:
    def test_empty_catalog_refuses_comparison(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(AnalysisError, match="at least two member stores"):
            compare_catalog(str(empty))

    def test_single_member_refuses_comparison(self, tmp_path):
        catalog_dir = build_catalog(tmp_path,
                                    {"only": varied_jobs("o", 40, seed=9)})
        with pytest.raises(AnalysisError, match="has 1"):
            compare_catalog(catalog_dir)

    def test_member_without_name_column_gets_zero_framework_share(self, tmp_path):
        """Mismatched member columns: one store has no job names at all."""
        catalog_dir = build_catalog(tmp_path, {
            "named": varied_jobs("n", 80, seed=7),
            "bare": constant_jobs("b", 80, 2 * GB, 300 * MB, 50 * MB),
        })
        report = compare_catalog(catalog_dir)
        assert report.profiles["bare"].naming is None
        assert report.features["bare"].values["framework_share"] == 0.0
        assert report.features["named"].values["framework_share"] > 0.0

    def test_stale_index_sidecar_degrades_member_to_scan(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        indexed = os.path.join(catalog_dir, "cc-b")
        build_indexes(ChunkedTraceStore(indexed), columns=["input_bytes"]).save()
        # Tamper with the sidecar's staleness pin: it no longer matches the
        # store and must be refused (leniently) in favor of the scan path.
        manifest_path = os.path.join(indexed, "index.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["manifest_sequence"] += 7
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        federated = FederatedSource.from_catalog(catalog_dir)
        query = Query().filter("input_bytes", ">", 0.0).aggregate(
            jobs=("count", "input_bytes"))
        results = federated.query(query)
        assert set(results) == {"cc-b", "fb@2009", "fb@2010"}
        stale = results["cc-b"]
        assert stale.plan.stale_index is True
        assert not stale.plan.used_index
        assert stale.aggregates["jobs"] == 120  # all rows, via the scan path
        # Sidecar-less members are unaffected.
        assert results["fb@2009"].plan.stale_index is False

    def test_append_between_scans_keeps_old_handle_semantics(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        federated = FederatedSource.from_catalog(catalog_dir)
        entry = federated.entry("cc-b")
        old_handle = entry.open()
        n_before = len(old_handle)
        append_store(entry.directory, varied_jobs("late", 25, seed=13))
        # The pre-append handle still sees the old manifest; a fresh open
        # (what the next federated scan does) sees the grown store.
        assert len(old_handle) == n_before
        assert len(entry.open()) == n_before + 25

    def test_per_member_checkpoints_resume_and_match_cold(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        checkpoint_dir = str(tmp_path / "checkpoints")
        compare_catalog(catalog_dir, checkpoint_dir=checkpoint_dir)
        for name in ("cc-b", "fb@2009", "fb@2010"):
            assert os.path.exists(os.path.join(
                checkpoint_dir, "%s.checkpoint.json" % name))
        append_store(os.path.join(catalog_dir, "fb@2010"),
                     varied_jobs("fb10x", 40, seed=21, query_share=0.6))
        cold = compare_catalog(catalog_dir)
        resumed = compare_catalog(catalog_dir, checkpoint_dir=checkpoint_dir)
        assert report_digest(resumed) == report_digest(cold)
        fb_2010 = resumed.profiles["fb@2010"]
        assert fb_2010.resume is not None and fb_2010.resume["resumed"]
        # Only the appended chunks were decoded on the resumed pass.
        assert fb_2010.rows_scanned == 40

    def test_corrupt_checkpoint_falls_back_to_cold_scan(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        checkpoint_dir = str(tmp_path / "checkpoints")
        baseline = compare_catalog(catalog_dir, checkpoint_dir=checkpoint_dir)
        broken = os.path.join(checkpoint_dir, "cc-b.checkpoint.json")
        with open(broken, "w", encoding="utf-8") as handle:
            handle.write("{definitely not a checkpoint")
        report = compare_catalog(catalog_dir, checkpoint_dir=checkpoint_dir)
        assert report_digest(report) == report_digest(baseline)
        # The fallback re-checkpointed: the file is valid again.
        with open(broken, "r", encoding="utf-8") as handle:
            assert "chunk_watermark" in handle.read()

    def test_checkpoint_of_a_rewritten_member_is_replaced(self, tmp_path):
        """The rolling-checkpoint policy, seen from a federation member: the
        checkpoint no longer validates (new ``store_uid``), so that member —
        and only that member — scans cold, and the file rolls forward."""
        catalog_dir = three_member_catalog(tmp_path)
        checkpoint_dir = str(tmp_path / "checkpoints")
        compare_catalog(catalog_dir, checkpoint_dir=checkpoint_dir)
        rewritten = ChunkedTraceStore.write(
            os.path.join(catalog_dir, "cc-b"),
            varied_jobs("ccb2", 90, seed=31, query_share=0.3), chunk_rows=64)
        append_store(os.path.join(catalog_dir, "fb@2010"),
                     varied_jobs("fb10x", 40, seed=21, query_share=0.6))
        cold = compare_catalog(catalog_dir)
        rolled = compare_catalog(catalog_dir, checkpoint_dir=checkpoint_dir)
        assert report_digest(rolled) == report_digest(cold)
        assert rolled.profiles["cc-b"].resume is None
        assert rolled.profiles["cc-b"].rows_scanned == 90
        assert rolled.profiles["fb@2010"].resume["resumed"]
        with open(os.path.join(checkpoint_dir, "cc-b.checkpoint.json"),
                  "r", encoding="utf-8") as handle:
            assert json.load(handle)["store_uid"] == rewritten.store_uid
        # ... and the replaced checkpoint resumes the next scan.
        again = compare_catalog(catalog_dir, checkpoint_dir=checkpoint_dir)
        assert again.profiles["cc-b"].resume["resumed"]
        assert again.profiles["cc-b"].rows_scanned == 0

    def test_unknown_member_and_duplicate_member_errors(self, tmp_path):
        catalog_dir = three_member_catalog(tmp_path)
        with pytest.raises(TraceFormatError, match="no store named"):
            FederatedSource.from_catalog(catalog_dir, names=["nope"])
        entry = StoreCatalog(catalog_dir).entry("cc-b")
        with pytest.raises(TraceFormatError, match="two members named"):
            FederatedSource([entry, entry])

    def test_consumer_threshold_dependence_invalidates_checkpoint(self, tmp_path):
        """A checkpoint folded at one threshold never serves another."""
        catalog_dir = three_member_catalog(tmp_path)
        checkpoint_dir = str(tmp_path / "checkpoints")
        compare_catalog(catalog_dir, checkpoint_dir=checkpoint_dir,
                        small_job_threshold_bytes=10 * GB)
        cold = compare_catalog(catalog_dir, small_job_threshold_bytes=1 * GB)
        resumed = compare_catalog(catalog_dir, checkpoint_dir=checkpoint_dir,
                                  small_job_threshold_bytes=1 * GB)
        # The mismatched threshold forces a full rescan; results match cold.
        assert report_digest(resumed) == report_digest(cold)
