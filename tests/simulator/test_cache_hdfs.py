"""Tests for the cache policies and the HDFS model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CacheError, SimulationError
from repro.simulator import (
    Hdfs,
    HdfsConfig,
    LfuCache,
    LruCache,
    NoCache,
    SizeThresholdCache,
    UnlimitedCache,
)
from repro.units import GB, MB


class TestLruCache:
    def test_hit_after_admission(self):
        cache = LruCache(capacity_bytes=10 * MB)
        assert cache.access("/a", 1 * MB, 0.0) is False
        assert cache.access("/a", 1 * MB, 1.0) is True
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_eviction_order_is_lru(self):
        cache = LruCache(capacity_bytes=2 * MB)
        cache.access("/a", 1 * MB, 0.0)
        cache.access("/b", 1 * MB, 1.0)
        cache.access("/a", 1 * MB, 2.0)   # /a becomes most recent
        cache.access("/c", 1 * MB, 3.0)   # evicts /b
        assert "/a" in cache._contents
        assert "/b" not in cache._contents
        assert cache.stats.evictions == 1

    def test_oversized_file_never_cached(self):
        cache = LruCache(capacity_bytes=1 * MB)
        cache.access("/big", 10 * MB, 0.0)
        assert "/big" not in cache._contents
        assert cache.used_bytes == 0.0

    def test_invalidate(self):
        cache = LruCache(capacity_bytes=10 * MB)
        cache.access("/a", 1 * MB, 0.0)
        cache.invalidate("/a")
        assert "/a" not in cache._contents
        assert cache.used_bytes == 0.0

    def test_capacity_never_exceeded(self):
        cache = LruCache(capacity_bytes=5 * MB)
        for index in range(50):
            cache.access("/f%d" % index, 1 * MB, float(index))
            assert cache.used_bytes <= 5 * MB

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            LruCache(capacity_bytes=-1.0)


class TestOtherPolicies:
    def test_no_cache_never_hits(self):
        cache = NoCache()
        for index in range(5):
            assert cache.access("/a", 1 * MB, float(index)) is False
        assert cache.stats.hit_rate == 0.0
        assert cache.stats.admissions_rejected == 5

    def test_unlimited_cache_always_hits_after_first(self):
        cache = UnlimitedCache()
        cache.access("/a", 100 * GB, 0.0)
        assert cache.access("/a", 100 * GB, 1.0)
        assert cache.used_bytes == pytest.approx(100 * GB)

    def test_lfu_keeps_frequent_file(self):
        cache = LfuCache(capacity_bytes=2 * MB)
        for t in range(5):
            cache.access("/hot", 1 * MB, float(t))
        cache.access("/cold1", 1 * MB, 10.0)
        cache.access("/cold2", 1 * MB, 11.0)   # evicts a cold file, not /hot
        assert "/hot" in cache._contents

    def test_size_threshold_rejects_large_files(self):
        cache = SizeThresholdCache(capacity_bytes=100 * GB, size_threshold_bytes=1 * GB)
        cache.access("/small", 100 * MB, 0.0)
        cache.access("/large", 50 * GB, 1.0)
        assert "/small" in cache._contents
        assert "/large" not in cache._contents
        assert cache.stats.admissions_rejected == 1

    def test_size_threshold_validation(self):
        with pytest.raises(CacheError):
            SizeThresholdCache(capacity_bytes=1 * GB, size_threshold_bytes=0.0)

    def test_byte_hit_rate(self):
        cache = LruCache(capacity_bytes=10 * MB)
        cache.access("/a", 4 * MB, 0.0)
        cache.access("/a", 4 * MB, 1.0)
        assert cache.stats.byte_hit_rate == pytest.approx(0.5)

    def test_policy_ordering_on_skewed_stream(self):
        """The paper's argument: with popular small files, a size-threshold cache
        beats no cache and the unlimited cache upper-bounds everything."""
        accesses = []
        for round_index in range(30):
            for hot in range(5):
                accesses.append(("/hot/%d" % hot, 100 * MB))
            accesses.append(("/big/%d" % round_index, 500 * GB))
        policies = {
            "none": NoCache(),
            "threshold": SizeThresholdCache(5 * GB, 1 * GB),
            "unlimited": UnlimitedCache(),
        }
        for name, cache in policies.items():
            for t, (path, size) in enumerate(accesses):
                cache.access(path, size, float(t))
        assert policies["none"].stats.hit_rate == 0.0
        assert policies["threshold"].stats.hit_rate > 0.7
        assert policies["unlimited"].stats.hit_rate >= policies["threshold"].stats.hit_rate


class TestHdfs:
    def test_create_and_read_accounting(self):
        hdfs = Hdfs()
        hdfs.create("/a", 10 * MB, now_s=1.0)
        entry = hdfs.read("/a", now_s=2.0)
        assert entry.access_count == 1
        assert entry.last_access_s == 2.0
        assert hdfs.bytes_read == pytest.approx(10 * MB)
        assert hdfs.total_bytes() == pytest.approx(10 * MB)
        assert hdfs.raw_bytes() == pytest.approx(30 * MB)  # replication 3

    def test_read_unknown_path_autocreates(self):
        hdfs = Hdfs()
        hdfs.read("/preexisting", now_s=0.0, size_bytes=5 * MB)
        assert "/preexisting" in hdfs
        # Pre-existing data does not count as written during the simulation.
        assert hdfs.bytes_written == 0.0

    def test_overwrite_and_delete(self):
        hdfs = Hdfs()
        hdfs.create("/a", 1 * MB)
        hdfs.create("/a", 2 * MB, overwrite=True)
        assert hdfs.get("/a").size_bytes == 2 * MB
        with pytest.raises(SimulationError):
            hdfs.create("/a", 1 * MB, overwrite=False)

    def test_invalid_config(self):
        with pytest.raises(SimulationError):
            HdfsConfig(block_size=0)
        with pytest.raises(SimulationError):
            HdfsConfig(replication=0)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
                      min_size=1, max_size=60),
       capacity=st.floats(min_value=1e3, max_value=1e9))
def test_property_cache_capacity_invariant(sizes, capacity):
    """Under any access stream the LRU cache never exceeds its capacity and its
    hit+miss count always equals the number of accesses."""
    cache = LruCache(capacity_bytes=capacity)
    for index, size in enumerate(sizes):
        cache.access("/f%d" % (index % 7), size, float(index))
        assert cache.used_bytes <= capacity + 1e-6
    assert cache.stats.accesses == len(sizes)
