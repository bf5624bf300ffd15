"""A byte-budgeted LRU, and the process-wide cache of decoded v3 column blocks.

:class:`ByteLRU` backs both of the program's own caches: the daemon's
:class:`~repro.service.cache.ResultCache` holds response bytes in one, and
:func:`read_block` — the only way :meth:`ChunkedTraceStore.read_chunk
<repro.engine.store.ChunkedTraceStore.read_chunk>` reaches a v3 column file —
holds decoded arrays in another, so a block that was inflated before costs an
``os.stat`` and a dictionary lookup instead of a ``zlib`` pass.

**Key = file identity**: ``(store_uid, path, st_ino, st_mtime_ns, st_size)``.
Committed chunk files are immutable and appends only add files, so nothing
ever invalidates an entry; a store rewritten into the same directory (new
uid), a diverging copy (other path and inode) and a file truncated or damaged
in place (other size or mtime) simply never match.  The price: entries of a
deleted or replaced store linger until evicted.

**Admission is by access path** (the paper's advice: cache what small jobs
read, keep large scans from flooding the cache).  Every read looks up; only
index-backed plans (``admit=True`` from :func:`~repro.engine.planner.execute_planned`)
insert what they miss.  Scans, ``ScanPipeline``, replay, index builds and
``ParallelExecutor`` workers read through, so a cyclic whole-store pass can
neither grow the process by the corpus nor evict the hot lookup set.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from .codecs import unpack_block

__all__ = ["ByteLRU", "block_cache_stats", "clear_block_cache"]

#: Decoded bytes kept: the selective working set of a 1M-job store at ~60 B/row.
BLOCK_CACHE_BYTES = 64 * 1024 * 1024


class ByteLRU:
    """Thread-safe LRU map bounded by total bytes (and optionally entries)."""

    def __init__(self, max_bytes: int, max_entries: int = sys.maxsize):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = self.misses = self.evicted = self.invalidated = 0

    def get(self, key: Hashable):
        """The value under ``key`` (now most recent), or ``None`` and a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Hashable, value, nbytes: int) -> None:
        """Insert, evicting least-recent entries; oversize values are skipped."""
        if nbytes > self.max_bytes:
            return
        with self._lock:
            _, replaced = self._entries.pop(key, (None, 0))
            self._bytes += nbytes - replaced
            self._entries[key] = (value, nbytes)
            while self._bytes > self.max_bytes or len(self._entries) > self.max_entries:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self.evicted += 1

    def invalidate(self, stale: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key ``stale`` accepts; returns how many."""
        with self._lock:
            keys = [key for key in self._entries if stale(key)]
            for key in keys:
                self._bytes -= self._entries.pop(key)[1]
            self.invalidated += len(keys)
            return len(keys)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "bytes": self._bytes,
                    "hits": self.hits, "misses": self.misses,
                    "invalidated": self.invalidated, "evicted": self.evicted}

    def _after_fork(self) -> None:
        # The parent's lock may have been held by a thread the child lacks.
        # Entries stay (copy-on-write); had that thread been mid-update, the
        # byte count errs high — every writer counts before it inserts and
        # removes before it discounts — so the budget still holds.
        self._lock = threading.Lock()


_BLOCKS = ByteLRU(BLOCK_CACHE_BYTES)
os.register_at_fork(after_in_child=_BLOCKS._after_fork)


def read_block(store_uid: Optional[str], path: str,
               admit: bool) -> Tuple[Optional[str], np.ndarray]:
    """``(encoding, read-only decoded array)`` of one v3 column file.

    Raises ``OSError`` when the file cannot be statted or read (the caller
    owns the message) and ``TraceFormatError`` from the decode.
    """
    status = os.stat(path)
    key = (store_uid, path, status.st_ino, status.st_mtime_ns, status.st_size)
    entry = _BLOCKS.get(key)
    if entry is None:
        with open(path, "rb") as handle:
            header, array = unpack_block(handle.read(), path)
        entry = (header.get("encoding"), array)
        if admit:
            _BLOCKS.put(key, entry, array.nbytes)
    return entry


def block_cache_stats() -> Dict[str, int]:
    """Entries, decoded bytes and hit / miss / eviction counts of this process."""
    return _BLOCKS.stats()


def clear_block_cache() -> None:
    """Drop every decoded block (counters keep counting)."""
    _BLOCKS.invalidate(lambda key: True)
