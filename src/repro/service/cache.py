"""Append-aware result cache.

Entries are keyed ``(store_uid, manifest_sequence, fingerprint)`` and hold the
fully **serialized response bytes**, so a cache hit replays the exact bytes a
cold request produced — bit-identical, by construction, without re-running any
float fold.

Invalidation is driven by the manifest sequence: every committed append bumps
it (see :mod:`repro.engine.store`), so when the daemon observes a store at a
new sequence it drops every entry of that ``store_uid`` recorded at a
*different* sequence.  Entries of other stores are untouched — the uid is part
of the key, so invalidation is exactly per-store.  Requests already in flight
against the old manifest are unaffected: they hold the old store handle (old
chunks are never rewritten) and their results are simply recorded under the
old sequence, where no future request will look them up.

The cache is a plain LRU bounded by entry count and total bytes — the engine's
:class:`~repro.engine.blockcache.ByteLRU`, which the decoded-block cache also
uses; all methods are thread-safe (responses are built in worker threads).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..engine.blockcache import ByteLRU

__all__ = ["ResultCache"]


class ResultCache:
    """LRU map of ``(store_uid, manifest_sequence, fingerprint) -> bytes``."""

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 256 * 1024 * 1024):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._lru = ByteLRU(max_bytes, max_entries)

    def get(self, store_uid: Optional[str], manifest_sequence: int,
            fingerprint: str) -> Optional[bytes]:
        """The cached response bytes, or ``None`` (and a recorded miss)."""
        return self._lru.get((store_uid, int(manifest_sequence), fingerprint))

    def put(self, store_uid: Optional[str], manifest_sequence: int,
            fingerprint: str, payload: bytes) -> None:
        # Pre-ingest stores have no uid: identity across appends is
        # undefined, so their responses are never cached (and always miss).
        if store_uid is not None:
            self._lru.put((store_uid, int(manifest_sequence), fingerprint),
                          payload, len(payload))

    def invalidate_store(self, store_uid: str, current_sequence: int) -> int:
        """Drop every entry of ``store_uid`` not at ``current_sequence``.

        Returns the number of entries dropped.  Entries keyed by other store
        uids are never touched.
        """
        return self._lru.invalidate(
            lambda key: key[0] == store_uid and key[1] != int(current_sequence))

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> Dict[str, int]:
        return self._lru.stats()
