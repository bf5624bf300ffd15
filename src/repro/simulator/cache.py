"""Storage cache policies.

Section 4 of the paper derives two storage-policy recommendations from the
observed access patterns:

* because 90% of jobs access files of at most a few GB which hold a small
  fraction of stored bytes, *admitting only files below a size threshold*
  keeps cache capacity needs detached from total data growth (§4.2);
* because 75% of re-accesses happen within about six hours, *evicting files
  not accessed for longer than a workload-specific threshold* — i.e. anything
  LRU-like — is a sensible eviction rule (§4.3).

This module implements those two policies plus baselines so the paper's
claims can be evaluated as cache hit-rate orderings on replayed workloads:

* :class:`LruCache` — least-recently-used eviction, admit everything that fits.
* :class:`LfuCache` — least-frequently-used eviction baseline.
* :class:`SizeThresholdCache` — LRU eviction but only admit files below a
  size threshold (the paper's recommended admission policy).
* :class:`UnlimitedCache` — no capacity limit (upper bound on hit rate).
* :class:`NoCache` — never caches (lower bound).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import CacheError
from ..units import GB

__all__ = [
    "CacheStats",
    "CachePolicy",
    "NoCache",
    "UnlimitedCache",
    "LruCache",
    "LfuCache",
    "SizeThresholdCache",
]


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance.

    Attributes:
        hits: number of accesses served from cache.
        misses: number of accesses that went to disk.
        bytes_from_cache: bytes served from cache.
        bytes_from_disk: bytes served from disk.
        evictions: number of files evicted.
        admissions_rejected: accesses whose file the policy refused to admit.
    """

    hits: int = 0
    misses: int = 0
    bytes_from_cache: float = 0.0
    bytes_from_disk: float = 0.0
    evictions: int = 0
    admissions_rejected: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from cache (0 when never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def byte_hit_rate(self) -> float:
        """Fraction of bytes served from cache (0 when never accessed)."""
        total = self.bytes_from_cache + self.bytes_from_disk
        if total == 0:
            return 0.0
        return self.bytes_from_cache / total


class CachePolicy:
    """Base class: a file cache with an ``access`` entry point.

    Subclasses implement :meth:`_admit` (should the file enter the cache
    after a miss?) and :meth:`_evict_victim` (which cached path to drop when
    space is needed).
    """

    def __init__(self, capacity_bytes: float):
        if capacity_bytes < 0:
            raise CacheError("cache capacity must be non-negative")
        self.capacity_bytes = float(capacity_bytes)
        self.stats = CacheStats()
        self._contents: "OrderedDict[str, float]" = OrderedDict()
        self._used_bytes = 0.0

    # -- public API ------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        return self._used_bytes

    def access(self, path: str, size_bytes: float, now_s: float) -> bool:
        """Record an access; returns True on a cache hit.

        On a miss the file is admitted (subject to the policy's admission rule
        and capacity, evicting victims as needed).
        """
        if size_bytes < 0:
            raise CacheError("file size must be non-negative")
        if path in self._contents:
            self.stats.hits += 1
            self.stats.bytes_from_cache += size_bytes
            self._on_hit(path, size_bytes, now_s)
            return True
        self.stats.misses += 1
        self.stats.bytes_from_disk += size_bytes
        if self._admit(path, size_bytes, now_s):
            self._insert(path, size_bytes, now_s)
        else:
            self.stats.admissions_rejected += 1
        return False

    def invalidate(self, path: str) -> None:
        """Drop a path (e.g. because the file was overwritten)."""
        size = self._contents.pop(path, None)
        if size is not None:
            self._used_bytes -= size

    # -- policy hooks ------------------------------------------------------
    def _admit(self, path: str, size_bytes: float, now_s: float) -> bool:
        return size_bytes <= self.capacity_bytes

    def _evict_victim(self) -> Optional[str]:
        """Choose the path to evict; default is least-recently-used order."""
        if not self._contents:
            return None
        return next(iter(self._contents))

    def _on_hit(self, path: str, size_bytes: float, now_s: float) -> None:
        self._contents.move_to_end(path)

    # -- internals ---------------------------------------------------------
    def _insert(self, path: str, size_bytes: float, now_s: float) -> None:
        if size_bytes > self.capacity_bytes:
            return
        while self._used_bytes + size_bytes > self.capacity_bytes and self._contents:
            victim = self._evict_victim()
            if victim is None:
                break
            victim_size = self._contents.pop(victim)
            self._used_bytes -= victim_size
            self.stats.evictions += 1
            self._on_evict(victim)
        if self._used_bytes + size_bytes <= self.capacity_bytes:
            self._contents[path] = size_bytes
            self._used_bytes += size_bytes

    def _on_evict(self, path: str) -> None:
        """Hook for subclasses tracking extra per-path state."""


class NoCache(CachePolicy):
    """Baseline that never caches anything (every access is a miss)."""

    def __init__(self):
        super().__init__(capacity_bytes=0.0)

    def _admit(self, path, size_bytes, now_s):
        return False


class UnlimitedCache(CachePolicy):
    """Upper-bound policy: infinite capacity, admit everything."""

    def __init__(self):
        super().__init__(capacity_bytes=float("inf"))

    def _admit(self, path, size_bytes, now_s):
        return True

    def _insert(self, path, size_bytes, now_s):
        self._contents[path] = size_bytes
        self._used_bytes += size_bytes


class LruCache(CachePolicy):
    """Least-recently-used eviction; admits any file that fits."""


class LfuCache(CachePolicy):
    """Least-frequently-used eviction baseline."""

    def __init__(self, capacity_bytes: float):
        super().__init__(capacity_bytes)
        self._frequencies: Dict[str, int] = {}

    def _on_hit(self, path, size_bytes, now_s):
        super()._on_hit(path, size_bytes, now_s)
        self._frequencies[path] = self._frequencies.get(path, 0) + 1

    def _insert(self, path, size_bytes, now_s):
        super()._insert(path, size_bytes, now_s)
        if path in self._contents:
            self._frequencies[path] = self._frequencies.get(path, 0) + 1

    def _evict_victim(self):
        if not self._contents:
            return None
        return min(self._contents, key=lambda path: self._frequencies.get(path, 0))

    def _on_evict(self, path):
        self._frequencies.pop(path, None)


class SizeThresholdCache(LruCache):
    """The paper's §4.2 policy: only admit files below a size threshold.

    Eviction is LRU.  With the threshold at a few GB the cache captures the
    90% of jobs that touch small files while its capacity requirement stays
    decoupled from total data growth.
    """

    def __init__(self, capacity_bytes: float, size_threshold_bytes: float = 4 * GB):
        super().__init__(capacity_bytes)
        if size_threshold_bytes <= 0:
            raise CacheError("size threshold must be positive")
        self.size_threshold_bytes = float(size_threshold_bytes)

    def _admit(self, path, size_bytes, now_s):
        return size_bytes <= self.size_threshold_bytes and size_bytes <= self.capacity_bytes
