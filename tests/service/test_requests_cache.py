"""Unit tests: request normalization/fingerprints, the result cache, metrics."""

from __future__ import annotations

import pytest

from repro.errors import AnalysisError, SimulationError
from repro.service import (ResultCache, ServiceMetrics, fingerprint,
                           normalize_characterize, normalize_query,
                           normalize_replay)


class TestNormalizeCharacterize:
    def test_defaults_to_full_experiment_set(self):
        spec = normalize_characterize(None)
        assert spec["seed"] == 0 and spec["series"] is False
        assert "table1" in spec["experiments"]
        assert "figure1" in spec["experiments"]

    def test_equivalent_requests_share_a_fingerprint(self):
        first = normalize_characterize({"experiments": ["figure1", "table1"]})
        second = normalize_characterize({"experiments": ["table1", "figure1"]})
        assert first == second
        assert fingerprint("characterize", first) == \
            fingerprint("characterize", second)

    def test_different_seed_changes_the_fingerprint(self):
        base = normalize_characterize({"experiments": ["table1"]})
        other = normalize_characterize({"experiments": ["table1"], "seed": 7})
        assert fingerprint("characterize", base) != \
            fingerprint("characterize", other)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(AnalysisError, match="unknown characterization"):
            normalize_characterize({"experiments": ["figure99"]})

    def test_unknown_field_rejected(self):
        with pytest.raises(AnalysisError, match="unknown characterize"):
            normalize_characterize({"experimnts": ["table1"]})

    def test_bad_seed_rejected(self):
        with pytest.raises(AnalysisError, match="seed must be an integer"):
            normalize_characterize({"seed": "lots"})

    def test_empty_selection_rejected(self):
        with pytest.raises(AnalysisError, match="selects no experiments"):
            normalize_characterize({"experiments": []})


class TestNormalizeQuery:
    def test_string_scalars_promoted_to_lists(self):
        spec = normalize_query({"where": "input_bytes > 1e9", "agg": "count"})
        assert spec["where"] == ["input_bytes > 1e9"]
        assert spec["agg"] == ["count"]

    def test_bad_clause_rejected_before_caching(self):
        with pytest.raises(AnalysisError, match="cannot parse where clause"):
            normalize_query({"where": ["input_bytes !!! 3"]})

    def test_row_and_aggregate_shapes_conflict(self):
        with pytest.raises(AnalysisError, match="cannot be combined"):
            normalize_query({"top_k": "duration_s:3", "agg": ["count"]})

    def test_unknown_field_rejected(self):
        with pytest.raises(AnalysisError, match="unknown query"):
            normalize_query({"filter": ["x > 1"]})


class TestNormalizeReplay:
    def test_defaults_filled_and_wrapper_accepted(self):
        bare = normalize_replay({"scheduler": "fifo", "nodes": 10})
        wrapped = normalize_replay(
            {"scenario": {"scheduler": "fifo", "nodes": 10}})
        assert bare == wrapped
        assert bare["name"] == "service"

    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(SimulationError):
            normalize_replay({"schedular": "fifo"})


class TestResultCache:
    def test_roundtrip_and_stats(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("uid", 0, "fp") is None
        cache.put("uid", 0, "fp", b"payload")
        assert cache.get("uid", 0, "fp") == b"payload"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["bytes"] == len(b"payload")

    def test_pre_ingest_stores_never_cached(self):
        cache = ResultCache()
        cache.put(None, 0, "fp", b"payload")
        assert cache.get(None, 0, "fp") is None
        assert cache.stats()["entries"] == 0

    def test_sequence_is_part_of_the_key(self):
        cache = ResultCache()
        cache.put("uid", 0, "fp", b"old")
        assert cache.get("uid", 1, "fp") is None

    def test_invalidation_scoped_to_one_store(self):
        cache = ResultCache()
        cache.put("uid-a", 0, "fp1", b"a1")
        cache.put("uid-a", 0, "fp2", b"a2")
        cache.put("uid-b", 0, "fp1", b"b1")
        dropped = cache.invalidate_store("uid-a", current_sequence=1)
        assert dropped == 2
        assert cache.get("uid-a", 0, "fp1") is None
        assert cache.get("uid-b", 0, "fp1") == b"b1"

    def test_invalidation_keeps_current_sequence_entries(self):
        cache = ResultCache()
        cache.put("uid", 0, "fp", b"old")
        cache.put("uid", 1, "fp", b"new")
        assert cache.invalidate_store("uid", current_sequence=1) == 1
        assert cache.get("uid", 1, "fp") == b"new"

    def test_lru_eviction_by_entry_count(self):
        cache = ResultCache(max_entries=2)
        cache.put("uid", 0, "fp1", b"1")
        cache.put("uid", 0, "fp2", b"2")
        assert cache.get("uid", 0, "fp1") == b"1"  # refresh fp1
        cache.put("uid", 0, "fp3", b"3")
        assert cache.get("uid", 0, "fp2") is None  # fp2 was least recent
        assert cache.get("uid", 0, "fp1") == b"1"
        assert cache.stats()["evicted"] == 1

    def test_byte_budget_eviction(self):
        cache = ResultCache(max_entries=100, max_bytes=10)
        cache.put("uid", 0, "fp1", b"12345678")
        cache.put("uid", 0, "fp2", b"87654321")
        assert cache.get("uid", 0, "fp1") is None
        assert cache.get("uid", 0, "fp2") == b"87654321"

    def test_oversize_payload_not_cached(self):
        cache = ResultCache(max_bytes=4)
        cache.put("uid", 0, "fp", b"too large")
        assert cache.stats()["entries"] == 0


class TestServiceMetrics:
    def test_counters_accumulate_per_label_set(self):
        metrics = ServiceMetrics()
        metrics.increment("repro_requests_total", endpoint="query", status="200")
        metrics.increment("repro_requests_total", endpoint="query", status="200")
        metrics.increment("repro_requests_total", endpoint="query", status="400")
        assert metrics.counter("repro_requests_total",
                               endpoint="query", status="200") == 2
        assert sum(metrics.snapshot().values()) == 3

    def test_render_is_prometheus_text(self):
        metrics = ServiceMetrics()
        metrics.increment("repro_scans_started_total", store="fb")
        metrics.observe_latency("POST /v1/stores/{name}/query", 0.25)
        text = metrics.render(extra_gauges={"repro_cache_entries": 3})
        assert "# TYPE repro_scans_started_total counter" in text
        assert 'repro_scans_started_total{store="fb"} 1' in text
        assert "repro_cache_entries 3" in text
        assert 'quantile="0.99"' in text
        assert "repro_request_latency_seconds_count" in text
