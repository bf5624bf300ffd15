"""Shared-scan admission: concurrent characterization requests ride one scan.

The scan is the expensive part of a characterization request — decoding every
chunk of the store.  The admission scheduler exploits the shared-scan pipeline
(:func:`repro.core.sharedscan.run_characterization_scan`): requests arriving
within one **batch window** for the same ``(store_uid, manifest_sequence,
seed)`` are merged into a single batch whose experiment set is the union of
the requests', and exactly one pipeline pass computes the union's consumer
bundle.  Every rider then builds its own response from the shared
:class:`~repro.core.sharedscan.CharacterizationAnalyses`.

The batch key pins the manifest sequence, so a request admitted before an
append and one admitted after it can never share a scan: the earlier batch
completes against the old manifest (old chunks are never rewritten), the
later one scans the grown store.  The seed is in the key because the Table-2
subsample is seed-dependent.

Scans run in a worker pool (the event loop stays responsive) and are
**checkpointed** per ``(store name, seed)`` under the service state directory:
a later scan of the same store resumes its resumable consumers from the
checkpoint and folds only the appended chunks — the incremental
characterization path of PR 5, now applied automatically between requests.
Both lanes roll their checkpoints under the one policy of
:func:`repro.engine.pipeline.scan_with_rolling_checkpoint`; this module adds
the per-store lock around it, and the metrics.
"""

from __future__ import annotations

import asyncio
import functools
import os
import threading
from typing import Dict, Optional, Sequence, Set, Tuple

from ..core.profile import WorkloadProfile, profile_source
from ..core.sharedscan import CharacterizationAnalyses, run_characterization_scan
from ..engine.pipeline import scan_with_rolling_checkpoint
from ..engine.store import ChunkedTraceStore
from .metrics import ServiceMetrics

__all__ = ["SharedScanAdmission"]

BatchKey = Tuple[str, int, int]
ProfileKey = Tuple[str, int, float]


class _ScanBatch:
    """One pending shared scan: union of experiments + a shared future."""

    def __init__(self, future: "asyncio.Future"):
        self.experiments: Set[str] = set()
        self.future = future
        self.riders = 0
        self.closed = False


class SharedScanAdmission:
    """Batches characterization scans per (store uid, sequence, seed)."""

    def __init__(self, pool, metrics: ServiceMetrics,
                 batch_window_s: float = 0.05,
                 checkpoint_dir: Optional[str] = None):
        self._pool = pool
        self.metrics = metrics
        self.batch_window_s = batch_window_s
        self.checkpoint_dir = checkpoint_dir
        self._batches: Dict[BatchKey, _ScanBatch] = {}
        self._profiles: Dict[ProfileKey, "asyncio.Future"] = {}
        self._checkpoint_locks: Dict[str, threading.Lock] = {}
        self._lock = threading.Lock()

    async def characterized(self, name: str, store: ChunkedTraceStore,
                            experiments: Sequence[str],
                            seed: int) -> CharacterizationAnalyses:
        """The shared-scan bundle covering ``experiments`` for this store.

        Joins the open batch for the store's current manifest when one exists
        (widening its experiment union); otherwise opens a new batch that runs
        after the batch window elapses.
        """
        loop = asyncio.get_running_loop()
        key: BatchKey = (store.store_uid or store.directory,
                         store.manifest_sequence, int(seed))
        batch = self._batches.get(key)
        if batch is not None and not batch.closed:
            batch.experiments.update(experiments)
            batch.riders += 1
            self.metrics.increment("repro_scan_requests_batched_total")
            return await asyncio.shield(batch.future)
        batch = _ScanBatch(loop.create_future())
        batch.experiments.update(experiments)
        batch.riders = 1
        self._batches[key] = batch
        asyncio.ensure_future(self._run_batch(key, batch, name, store, seed))
        return await asyncio.shield(batch.future)

    async def _run_batch(self, key: BatchKey, batch: _ScanBatch, name: str,
                         store: ChunkedTraceStore, seed: int) -> None:
        try:
            if self.batch_window_s > 0:
                await asyncio.sleep(self.batch_window_s)
        finally:
            batch.closed = True
            self._batches.pop(key, None)
        loop = asyncio.get_running_loop()
        experiments = sorted(batch.experiments)
        try:
            bundle = await loop.run_in_executor(
                self._pool, self._scan, name, store, experiments, seed)
        except Exception as exc:  # noqa: BLE001 - delivered to every rider
            if not batch.future.cancelled():
                batch.future.set_exception(exc)
            return
        if not batch.future.cancelled():
            batch.future.set_result(bundle)

    async def profiled(self, name: str, store: ChunkedTraceStore,
                       threshold: float) -> WorkloadProfile:
        """One member's workload profile, shared across concurrent requests.

        The federated comparison endpoint calls this once per member store;
        concurrent comparisons touching the same member at the same manifest
        sequence (and small-job threshold — it changes the fold) coalesce
        onto one profile scan.  Like the characterization batches, the key
        pins the manifest sequence, so a comparison admitted before an append
        never shares a scan with one admitted after it.
        """
        loop = asyncio.get_running_loop()
        key: ProfileKey = (store.store_uid or store.directory,
                           store.manifest_sequence, float(threshold))
        pending = self._profiles.get(key)
        if pending is not None:
            self.metrics.increment("repro_scan_requests_batched_total")
            return await asyncio.shield(pending)
        future = loop.create_future()
        self._profiles[key] = future
        try:
            profile = await loop.run_in_executor(
                self._pool, self._profile, name, store, threshold)
            if not future.done():
                future.set_result(profile)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Coalesced riders consume the exception; nobody else will.
                future.exception()
            raise
        finally:
            self._profiles.pop(key, None)
        return profile

    # -- blocking side (worker pool) ---------------------------------------
    def _checkpoint_path(self, name: str, seed: int) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir,
                            "%s-seed%d.checkpoint.json" % (name, int(seed)))

    def _metered(self, name: str, checkpoint: Optional[str], scan):
        """Run ``scan`` under the rolling-checkpoint policy — one at a time
        per store — and count it; the result carries the scan's counters."""
        self.metrics.increment("repro_scans_started_total", store=name)
        if checkpoint is None:
            result = scan()
        else:
            with self._lock:
                lock = self._checkpoint_locks.setdefault(name, threading.Lock())
            with lock:
                result = scan_with_rolling_checkpoint(scan, checkpoint)
        if result.resume is not None and result.resume.get("resumed"):
            self.metrics.increment("repro_scans_resumed_total", store=name)
        self.metrics.increment("repro_chunks_scanned_total", result.chunks_scanned)
        self.metrics.increment("repro_rows_scanned_total", result.rows_scanned)
        return result

    def _scan(self, name: str, store: ChunkedTraceStore,
              experiments: Sequence[str], seed: int) -> CharacterizationAnalyses:
        bundle = self._metered(
            name, self._checkpoint_path(name, seed),
            functools.partial(run_characterization_scan, store,
                              experiments=experiments, seed=seed))
        if store.n_chunks:
            info = store.info()
            self.metrics.increment(
                "repro_bytes_scanned_total",
                info["on_disk_bytes"] * bundle.chunks_scanned / store.n_chunks)
        return bundle

    def _profile_checkpoint_path(self, name: str,
                                 threshold: float) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        # The threshold is in the filename (and the small-job fold validates
        # its checkpointed threshold on restore), so scans at different
        # thresholds never share — or clobber — resume state.
        return os.path.join(self.checkpoint_dir,
                            "%s-profile-t%d.checkpoint.json"
                            % (name, int(threshold)))

    def _profile(self, name: str, store: ChunkedTraceStore,
                 threshold: float) -> WorkloadProfile:
        return self._metered(
            name, self._profile_checkpoint_path(name, threshold),
            functools.partial(profile_source, store, threshold, name=name))
