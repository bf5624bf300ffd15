"""The trace-analytics daemon: a stdlib-only asyncio HTTP/1.1 server.

``repro serve --catalog DIR`` turns the one-shot characterization CLI into a
long-lived, multi-tenant query server over a :class:`~repro.engine.catalog.StoreCatalog`
of named stores.  The request lifecycle:

1. **Normalize** the JSON body into a canonical spec
   (:mod:`repro.service.requests`) and fingerprint it.
2. **Cache lookup** on ``(store_uid, manifest_sequence, fingerprint)``
   (:mod:`repro.service.cache`).  A hit replays the exact serialized bytes of
   the cold response; the ``X-Repro-Cache`` header says which happened —
   status never leaks into the body, so cached and cold bodies are
   bit-identical.
3. On a miss, **coalesce**: identical in-flight requests share one pending
   future, and concurrent characterization requests for the same store join
   one shared scan through :class:`~repro.service.admission.SharedScanAdmission`
   — N clients, one decode.
4. Heavy work runs in a **worker thread pool**; the event loop only parses
   requests and shuttles bytes.

**Endpoints** (all request/response bodies are JSON; see ``docs/service.md``):

====== ================================== =======================================
GET    /healthz                           liveness + store names
GET    /v1/stores                         machine-readable catalog metadata
GET    /v1/stores/NAME                    one store's metadata
POST   /v1/stores/NAME/characterize       cached, shared-scan characterization
POST   /v1/stores/NAME/query              cached engine query (filter/agg/top-k)
POST   /v1/stores/NAME/replay             cached simulator replay of the store
POST   /v1/stores/NAME/append             append jobs (invalidates that store)
POST   /v1/stores/NAME/drift              subscribe to workload drift
GET    /v1/stores/NAME/drift              list that store's subscriptions
GET    /v1/catalog/compare                federated cross-store comparison
POST   /v1/catalog/compare                same, with members/pairs/suite_size
GET    /v1/notifications                  drained with ?clear=1
GET    /v1/feeds                          feed-tailer status
GET    /metrics                           Prometheus text format
====== ================================== =======================================

**Append awareness.**  The daemon observes appends three ways — its own
``append`` endpoint, the background feed tailer (:mod:`repro.service.ingest`),
and externally-run ``repro engine ingest`` (spotted because the manifest
sequence moved when a request re-opens the store).  All three funnel through
one path: drop the store's stale cache entries, bump the append counters, and
schedule the workload-drift check.  Requests already running keep their old
store handle and complete against the old manifest (committed chunks are
never rewritten).  Daemon-driven appends (endpoint + feed tailer) share one
append I/O lock; an *external* ``engine ingest`` is only safe against stores
the daemon itself never appends to — it cannot take that lock.

Every request emits one structured JSON log line (method, path, status,
duration, cache disposition) to the configured stream.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import __version__
from ..bench.rendering import ExperimentResult
from ..bench.suite import run_suite
from ..core.federation import compare_catalog
from ..engine.blockcache import block_cache_stats
from ..engine.catalog import StoreCatalog
from ..engine.operators import execute
from ..engine.store import ChunkedTraceStore, append_store
from ..errors import AnalysisError, ReproError, TraceFormatError
from ..simulator.sweep import Scenario
from ..traces.io import RecordSource
from . import requests as request_specs
from .admission import SharedScanAdmission
from .cache import ResultCache
from .drift import DriftMonitor
from .ingest import FeedTailer
from .metrics import ServiceMetrics

__all__ = ["TraceAnalyticsService", "ServiceThread"]

MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADER_LINES = 100

#: Directory (inside the catalog) holding daemon state: feed offsets and
#: characterization checkpoints.  Has no ``manifest.json``, so the catalog
#: scanner never mistakes it for a store.
STATE_DIR_NAME = ".service"


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError("not JSON serializable: %r" % type(value).__name__)


def canonical_json(payload) -> bytes:
    """Deterministic JSON bytes: sorted keys, minimal separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_json_default).encode("utf-8")


def _experiment_to_dict(result: ExperimentResult, include_series: bool) -> Dict:
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
    }
    if include_series:
        payload["series"] = {
            name: [[float(x), float(y)] for x, y in points]
            for name, points in result.series.items()
        }
    return payload


class _HTTPError(Exception):
    """An error with a dedicated HTTP status (raised inside route handlers)."""

    def __init__(self, status: int, message: str, error_type: str = "error"):
        super().__init__(message)
        self.status = status
        self.error_type = error_type


class TraceAnalyticsService:
    """The daemon: catalog + cache + admission + drift + feeds + HTTP server."""

    def __init__(self, catalog_dir, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 4, batch_window_s: float = 0.05,
                 cache_entries: int = 256,
                 feeds: Optional[Dict[str, str]] = None,
                 poll_interval_s: float = 1.0,
                 checkpoints: bool = True,
                 log_stream=None):
        self.catalog = StoreCatalog(catalog_dir)
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.state_dir = os.path.join(self.catalog.directory, STATE_DIR_NAME)
        os.makedirs(self.state_dir, exist_ok=True)
        self.metrics = ServiceMetrics()
        self.cache = ResultCache(max_entries=cache_entries)
        self.drift = DriftMonitor()
        self._pool = ThreadPoolExecutor(max_workers=max(1, workers),
                                        thread_name_prefix="repro-service")
        checkpoint_dir = None
        if checkpoints:
            checkpoint_dir = os.path.join(self.state_dir, "checkpoints")
            os.makedirs(checkpoint_dir, exist_ok=True)
        self.admission = SharedScanAdmission(self._pool, self.metrics,
                                             batch_window_s=batch_window_s,
                                             checkpoint_dir=checkpoint_dir)
        self.poll_interval_s = poll_interval_s
        self._append_lock = threading.Lock()
        self._append_io_lock = threading.Lock()
        self.tailers: List[FeedTailer] = []
        for store_name, feed_path in sorted((feeds or {}).items()):
            entry = self.catalog.entry(store_name)
            self.tailers.append(FeedTailer(store_name, feed_path,
                                           entry.directory, self.state_dir,
                                           append_lock=self._append_io_lock))
        self.log_stream = log_stream if log_stream is not None else sys.stdout
        self._last_sequence: Dict[str, int] = {}
        self._inflight: Dict[tuple, "asyncio.Future"] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._feed_task: Optional[asyncio.Task] = None
        self._stopping: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, ready_file: Optional[str] = None) -> None:
        """Bind the listening socket (and write the ready file, if asked)."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_connection,
                                                  host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.tailers:
            self._feed_task = asyncio.ensure_future(self._feed_loop())
            self._feed_task.add_done_callback(self._on_feed_task_done)
        if ready_file:
            payload = {"host": self.host, "port": self.port, "pid": os.getpid()}
            temporary = ready_file + ".tmp"
            with open(temporary, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(temporary, ready_file)

    @property
    def address(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def request_stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    async def run_until_stopped(self) -> None:
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._feed_task is not None:
            self._feed_task.cancel()
            try:
                await self._feed_task
            except asyncio.CancelledError:
                pass
            self._feed_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)

    async def _feed_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            for tailer in self.tailers:
                # One bad poll (malformed feed, I/O error persisting the
                # offset, corrupted store) must not kill tailing for every
                # feed: record it on the tailer and retry next interval.
                try:
                    appended = await loop.run_in_executor(self._pool, tailer.poll)
                    if appended:
                        self.metrics.increment("repro_feed_jobs_appended_total",
                                               appended, store=tailer.store_name)
                        self._observe_store(tailer.store_name)
                except ReproError as exc:
                    tailer.last_error = str(exc)
                except Exception as exc:  # noqa: BLE001 - keep the loop alive
                    tailer.last_error = "%s: %s" % (type(exc).__name__, exc)
                    self._log({"event": "feed_error",
                               "store": tailer.store_name,
                               "error": tailer.last_error})
            await asyncio.sleep(self.poll_interval_s)

    def _on_feed_task_done(self, task: "asyncio.Task") -> None:
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            # The loop above swallows per-poll failures, so getting here
            # means something unexpected; make it visible instead of letting
            # the never-awaited task hide it while /v1/feeds reports stale
            # status forever.
            self._log({"event": "feed_loop_died",
                       "error": "%s: %s" % (type(exc).__name__, exc)})

    # ------------------------------------------------------------------
    # append observation: invalidation + drift
    # ------------------------------------------------------------------
    def _observe_store(self, name: str) -> ChunkedTraceStore:
        """Open the store and react if its manifest moved since last seen.

        The reaction — invalidate that store's stale cache entries, count the
        append, schedule the drift check — is the single funnel for appends
        from the endpoint, the feed tailer, and external ``engine ingest``.
        """
        entry = self.catalog.entry(name)
        store = entry.open()
        with self._append_lock:
            last = self._last_sequence.get(name)
            changed = last is not None and last != store.manifest_sequence
            self._last_sequence[name] = store.manifest_sequence
        if changed:
            dropped = 0
            if store.store_uid is not None:
                dropped = self.cache.invalidate_store(store.store_uid,
                                                      store.manifest_sequence)
            self.metrics.increment("repro_appends_observed_total", store=name)
            self.metrics.increment("repro_cache_invalidations_total", dropped)
            if self.drift.has_subscriptions(name):
                self._schedule_drift_check(name, store)
        return store

    def _schedule_drift_check(self, name: str, store: ChunkedTraceStore) -> None:
        def check() -> None:
            try:
                fired = self.drift.check_store(name, store)
            except ReproError as exc:
                self._log({"event": "drift_error", "store": name,
                           "error": str(exc)})
                return
            if fired:
                self.metrics.increment("repro_drift_notifications_total",
                                       len(fired), store=name)
                self._log({"event": "drift", "store": name,
                           "notifications": fired})

        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            loop = None
        if loop is not None:
            loop.run_in_executor(self._pool, check)
        else:
            # Called from a worker thread (feed poll): run inline.
            check()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        started = time.time()
        method = path = "-"
        status = 500
        cache_state = "-"
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            try:
                method, target, _ = request_line.decode("latin-1").split(" ", 2)
            except ValueError:
                await self._write_response(writer, 400, b'{"error":"bad request line"}')
                status = 400
                return
            headers: Dict[str, str] = {}
            for _ in range(MAX_HEADER_LINES):
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            raw_length = headers.get("content-length", "").strip()
            try:
                length = int(raw_length) if raw_length else 0
            except ValueError:
                raise _HTTPError(400, "invalid Content-Length: %r" % raw_length)
            if length < 0:
                raise _HTTPError(400, "negative Content-Length: %d" % length)
            if length > MAX_BODY_BYTES:
                await self._write_response(writer, 413, b'{"error":"body too large"}')
                status = 413
                return
            raw_body = await reader.readexactly(length) if length else b""
            path, _, query_string = target.partition("?")
            body = None
            if raw_body:
                try:
                    body = json.loads(raw_body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise _HTTPError(400, "request body is not valid JSON: %s" % exc)
            status, payload, content_type, cache_state = await self._route(
                method.upper(), path, query_string, body)
            await self._write_response(writer, status, payload, content_type,
                                       cache_state)
        except _HTTPError as exc:
            status = exc.status
            payload = canonical_json({"error": str(exc), "type": exc.error_type})
            await self._write_response(writer, status, payload)
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            status = 499  # client went away
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status = 500
            try:
                await self._write_response(writer, 500, canonical_json(
                    {"error": str(exc), "type": type(exc).__name__}))
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self.metrics.increment("repro_requests_total",
                                   endpoint=self._endpoint_label(method, path),
                                   status=str(status))
            self.metrics.observe_latency(self._endpoint_label(method, path),
                                         time.time() - started)
            self._log({"event": "request", "method": method, "path": path,
                       "status": status, "cache": cache_state,
                       "duration_ms": round(1000 * (time.time() - started), 3)})

    @staticmethod
    def _endpoint_label(method: str, path: str) -> str:
        parts = [part for part in path.split("/") if part]
        if len(parts) >= 3 and parts[:2] == ["v1", "stores"]:
            action = parts[3] if len(parts) >= 4 else "info"
            return "%s /v1/stores/{name}/%s" % (method, action)
        return "%s %s" % (method, path or "/")

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              payload: bytes,
                              content_type: str = "application/json",
                              cache_state: str = "-") -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  500: "Internal Server Error"}.get(status, "Status")
        head = ["HTTP/1.1 %d %s" % (status, reason),
                "Content-Type: %s" % content_type,
                "Content-Length: %d" % len(payload),
                "X-Repro-Version: %s" % __version__,
                "Connection: close"]
        if cache_state != "-":
            head.append("X-Repro-Cache: %s" % cache_state)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    def _log(self, record: Dict) -> None:
        record = dict(record, time=round(time.time(), 3))
        try:
            self.log_stream.write(json.dumps(record, sort_keys=True,
                                             default=_json_default) + "\n")
            self.log_stream.flush()
        except (ValueError, OSError):
            pass  # stream closed during shutdown

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, query_string: str,
                     body) -> Tuple[int, bytes, str, str]:
        parts = [part for part in path.split("/") if part]
        if path == "/healthz" and method == "GET":
            return 200, canonical_json({"status": "ok", "version": __version__,
                                        "stores": self.catalog.names()}), \
                "application/json", "-"
        if path == "/metrics" and method == "GET":
            cache, blocks = self.cache.stats(), block_cache_stats()
            text = self.metrics.render(extra_gauges={
                "repro_cache_entries": cache["entries"],
                "repro_cache_bytes": cache["bytes"],
                "repro_cache_hits_total": cache["hits"],
                "repro_cache_misses_total": cache["misses"],
                # Not ``repro_cache_``: that prefix means the result cache.
                "repro_block_cache_entries": blocks["entries"],
                "repro_block_cache_bytes": blocks["bytes"],
                "repro_block_cache_hits_total": blocks["hits"],
                "repro_block_cache_misses_total": blocks["misses"],
                "repro_block_cache_evictions_total": blocks["evicted"],
            })
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4", "-"
        if path == "/v1/notifications" and method == "GET":
            clear = "clear=1" in query_string or "clear=true" in query_string
            return 200, canonical_json(
                {"notifications": self.drift.notifications(clear=clear)}), \
                "application/json", "-"
        if path == "/v1/feeds" and method == "GET":
            return 200, canonical_json(
                {"feeds": [tailer.status() for tailer in self.tailers]}), \
                "application/json", "-"
        if parts == ["v1", "catalog", "compare"]:
            if method not in ("GET", "POST"):
                raise _HTTPError(405, "no route for %s on catalog compare"
                                 % method, "not_found")
            try:
                spec = request_specs.normalize_catalog_compare(body)
                payload, cache_state = await self._cached_catalog_compare(spec)
            except _HTTPError:
                raise
            except TraceFormatError as exc:
                if "has no store named" in str(exc):
                    raise _HTTPError(404, str(exc), "unknown_store")
                raise _HTTPError(400, str(exc), type(exc).__name__)
            except ReproError as exc:
                raise _HTTPError(400, str(exc), type(exc).__name__)
            return 200, payload, "application/json", cache_state
        if parts[:2] == ["v1", "stores"] and len(parts) == 2 and method == "GET":
            self.catalog.refresh()
            stores = []
            for entry in self.catalog.members():
                # One unopenable member is reported in place; it must not
                # take the listing of the healthy ones down with it.
                try:
                    stores.append(entry.info())
                except ReproError as exc:
                    stores.append({"catalog_name": entry.name, "error": str(exc),
                                   "type": type(exc).__name__})
            return 200, canonical_json({"stores": stores}), \
                "application/json", "-"
        if parts[:2] == ["v1", "stores"] and len(parts) in (3, 4):
            name = parts[2]
            action = parts[3] if len(parts) == 4 else None
            return await self._route_store(method, name, action, body)
        raise _HTTPError(404, "no route for %s %s" % (method, path), "not_found")

    async def _route_store(self, method: str, name: str, action: Optional[str],
                           body) -> Tuple[int, bytes, str, str]:
        try:
            if action is None and method == "GET":
                store = self._observe_store(name)
                info = store.info()
                info["catalog_name"] = name
                return 200, canonical_json(info), "application/json", "-"
            if action == "characterize" and method == "POST":
                spec = request_specs.normalize_characterize(body)
                payload, state = await self._cached(name, "characterize", spec,
                                                    self._build_characterize)
                return 200, payload, "application/json", state
            if action == "query" and method == "POST":
                spec = request_specs.normalize_query(body)
                payload, state = await self._cached(name, "query", spec,
                                                    self._build_query_response)
                return 200, payload, "application/json", state
            if action == "replay" and method == "POST":
                spec = request_specs.normalize_replay(body)
                payload, state = await self._cached(name, "replay", spec,
                                                    self._build_replay)
                return 200, payload, "application/json", state
            if action == "append" and method == "POST":
                return await self._handle_append(name, body)
            if action == "drift" and method == "POST":
                return await self._handle_drift_subscribe(name, body)
            if action == "drift" and method == "GET":
                self.catalog.entry(name)  # 404 for unknown stores
                subs = [sub.to_dict() for sub in self.drift.subscriptions(name)]
                return 200, canonical_json({"subscriptions": subs}), \
                    "application/json", "-"
        except _HTTPError:
            raise
        except TraceFormatError as exc:
            if "has no store named" in str(exc):
                raise _HTTPError(404, str(exc), "unknown_store")
            raise _HTTPError(400, str(exc), type(exc).__name__)
        except ReproError as exc:
            raise _HTTPError(400, str(exc), type(exc).__name__)
        raise _HTTPError(405 if action in ("characterize", "query", "replay",
                                           "append", "drift") else 404,
                         "no route for %s on %r" % (method, action),
                         "not_found")

    # ------------------------------------------------------------------
    # cached POST endpoints
    # ------------------------------------------------------------------
    async def _cached(self, name: str, kind: str, spec: Dict,
                      builder) -> Tuple[bytes, str]:
        """Cache lookup → in-flight coalescing → build (and fill the cache)."""
        store = self._observe_store(name)
        fingerprint = request_specs.fingerprint(kind, spec)
        cached = self.cache.get(store.store_uid, store.manifest_sequence,
                                fingerprint)
        if cached is not None:
            self.metrics.increment("repro_cache_hits_total", endpoint=kind)
            return cached, "hit"
        self.metrics.increment("repro_cache_misses_total", endpoint=kind)
        key = (store.store_uid or store.directory, store.manifest_sequence,
               fingerprint)
        pending = self._inflight.get(key)
        if pending is not None:
            payload = await asyncio.shield(pending)
            return payload, "coalesced"
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        try:
            payload = await builder(name, store, spec)
            if not future.done():
                future.set_result(payload)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Coalesced waiters consume the exception; nobody else will.
                future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
        self.cache.put(store.store_uid, store.manifest_sequence, fingerprint,
                       payload)
        return payload, "miss"

    async def _cached_catalog_compare(self, spec: Dict) -> Tuple[bytes, str]:
        """Catalog-compare cache: every member's manifest version keys it.

        The per-store cache keys entries by one store's ``(uid, sequence)``;
        a federated response depends on *every* member, so each member's
        ``(name, uid, sequence)`` triple is folded into the fingerprint and
        the entry lives under a synthetic catalog uid.  An append to any
        member changes the fingerprint, so stale entries are never hit again
        (they simply age out of the LRU).
        """
        self.catalog.refresh()
        names = (spec["members"] if spec["members"] is not None
                 else self.catalog.names())
        if len(names) < 2:
            # Checked before any member is profiled (the same check inside
            # compare_catalog would only fire after the scans).
            raise AnalysisError(
                "federated comparison needs at least two member stores "
                "(catalog %s has %d)" % (self.catalog.directory, len(names)))
        stores = {name: self._observe_store(name) for name in names}
        versions = [[name, stores[name].store_uid or stores[name].directory,
                     stores[name].manifest_sequence] for name in names]
        fingerprint = request_specs.fingerprint("catalog_compare",
                                                dict(spec, versions=versions))
        cache_uid = "catalog:%s" % self.catalog.directory
        cached = self.cache.get(cache_uid, 0, fingerprint)
        if cached is not None:
            self.metrics.increment("repro_cache_hits_total",
                                   endpoint="catalog_compare")
            return cached, "hit"
        self.metrics.increment("repro_cache_misses_total",
                               endpoint="catalog_compare")
        key = (cache_uid, 0, fingerprint)
        pending = self._inflight.get(key)
        if pending is not None:
            payload = await asyncio.shield(pending)
            return payload, "coalesced"
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        try:
            payload = await self._build_catalog_compare(spec, names, stores)
            if not future.done():
                future.set_result(payload)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Coalesced waiters consume the exception; nobody else will.
                future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
        self.cache.put(cache_uid, 0, fingerprint, payload)
        return payload, "miss"

    async def _build_catalog_compare(self, spec: Dict, names: List[str],
                                     stores: Dict[str, ChunkedTraceStore]) -> bytes:
        threshold = spec["small_job_threshold_bytes"]
        # Every member profile rides shared-scan admission: concurrent
        # comparisons touching the same member coalesce onto one scan, and
        # the members of one comparison profile concurrently across the pool.
        profiles = await asyncio.gather(*[
            self.admission.profiled(name, stores[name], threshold)
            for name in names])
        profiles = dict(zip(names, profiles))
        loop = asyncio.get_running_loop()

        def build() -> bytes:
            report = compare_catalog(
                self.catalog, members=list(names),
                pairs=([tuple(pair) for pair in spec["pairs"]]
                       if spec["pairs"] else None),
                suite_size=spec["suite_size"],
                small_job_threshold_bytes=threshold,
                profiles=profiles)
            payload = report.to_dict()
            payload["members_versions"] = [
                {"name": name, "store_uid": stores[name].store_uid,
                 "manifest_sequence": stores[name].manifest_sequence}
                for name in names]
            return canonical_json(payload)

        return await loop.run_in_executor(self._pool, build)

    async def _build_characterize(self, name: str, store: ChunkedTraceStore,
                                  spec: Dict) -> bytes:
        bundle = await self.admission.characterized(name, store,
                                                    spec["experiments"],
                                                    spec["seed"])
        loop = asyncio.get_running_loop()

        def build() -> bytes:
            results = run_suite(seed=spec["seed"], traces={name: store},
                                experiments=list(spec["experiments"]),
                                include_ablations=False,
                                include_simulation=False,
                                analyses={name: bundle})
            return canonical_json({
                "store": name,
                "store_uid": store.store_uid,
                "manifest_sequence": store.manifest_sequence,
                "n_jobs": len(store),
                "seed": spec["seed"],
                "experiments": list(spec["experiments"]),
                "results": [_experiment_to_dict(result, spec["series"])
                            for result in results],
            })

        return await loop.run_in_executor(self._pool, build)

    async def _build_query_response(self, name: str, store: ChunkedTraceStore,
                                    spec: Dict) -> bytes:
        loop = asyncio.get_running_loop()

        def build() -> bytes:
            query = request_specs.build_query(spec)
            result = execute(store, query)
            self.metrics.increment("repro_rows_scanned_total", result.rows_scanned)
            self.metrics.increment("repro_chunks_scanned_total", result.chunks_scanned)
            plan = result.plan
            if plan is not None and plan.used_index:
                self.metrics.increment("repro_index_probes_total")
            else:
                self.metrics.increment("repro_full_scans_total")
            payload = {
                "store": name,
                "store_uid": store.store_uid,
                "manifest_sequence": store.manifest_sequence,
                "stats": {
                    "rows_scanned": result.rows_scanned,
                    "chunks_scanned": result.chunks_scanned,
                    "chunks_skipped": result.chunks_skipped,
                    "rows_matched": result.rows_matched,
                    "plan": plan.to_dict() if plan is not None else None,
                },
            }
            if result.aggregates is not None:
                payload["aggregates"] = result.aggregates
            elif result.groups is not None:
                payload["groups"] = {str(key if key != "" else "(missing)"): value
                                     for key, value in result.groups.items()}
            else:
                payload["rows"] = result.row_dicts()
            return canonical_json(payload)

        return await loop.run_in_executor(self._pool, build)

    async def _build_replay(self, name: str, store: ChunkedTraceStore,
                            spec: Dict) -> bytes:
        loop = asyncio.get_running_loop()

        def build() -> bytes:
            scenario = Scenario.from_dict(dict(spec))
            metrics = scenario.build_replayer().replay_store(store)
            # shards/shard_mode travel inside the scenario dict; surfacing the
            # digest lets clients check exact-mode shard counts agree without
            # re-replaying (exact digests are shard-count invariant).
            return canonical_json({
                "store": name,
                "store_uid": store.store_uid,
                "manifest_sequence": store.manifest_sequence,
                "scenario": scenario.to_dict(),
                "shards": scenario.shards,
                "summary": metrics.summary(),
                "digest": metrics.digest(),
            })

        return await loop.run_in_executor(self._pool, build)

    # ------------------------------------------------------------------
    # mutating endpoints
    # ------------------------------------------------------------------
    async def _handle_append(self, name: str, body) -> Tuple[int, bytes, str, str]:
        if not isinstance(body, dict) or not isinstance(body.get("jobs"), list):
            raise _HTTPError(400, 'append request body must be {"jobs": [...]}')
        entry = self.catalog.entry(name)
        records = body["jobs"]
        loop = asyncio.get_running_loop()

        def do_append() -> int:
            def locate(index, exc):  # what Job.from_dict says (-> 400), and where
                return type(exc)("jobs[%d]: %s" % (index, exc))

            # The records decode off the event loop too (inside append_store):
            # a 64MB body would otherwise stall every other connection.
            # One manifest swap at a time per daemon: concurrent appends to
            # the same store (endpoint or feed tailer) would race
            # read-manifest -> write-manifest.
            with self._append_io_lock:
                append_store(entry.directory, RecordSource([(records, locate)]))
            return len(records)

        appended = await loop.run_in_executor(self._pool, do_append)
        store = self._observe_store(name)
        return 200, canonical_json({
            "store": name,
            "appended": appended,
            "n_jobs": len(store),
            "manifest_sequence": store.manifest_sequence,
        }), "application/json", "-"

    async def _handle_drift_subscribe(self, name: str,
                                      body) -> Tuple[int, bytes, str, str]:
        body = body or {}
        if not isinstance(body, dict) or "threshold" not in body:
            raise _HTTPError(400, 'drift request body must be {"threshold": X}')
        store = self._observe_store(name)
        loop = asyncio.get_running_loop()
        subscription = await loop.run_in_executor(
            self._pool, self.drift.subscribe, name, store, body["threshold"])
        return 200, canonical_json({"subscription": subscription.to_dict()}), \
            "application/json", "-"


class ServiceThread:
    """Run a :class:`TraceAnalyticsService` on a background thread.

    For tests and in-process benchmarking::

        with ServiceThread(catalog_dir) as service:
            client = ServiceClient(port=service.port)
            ...

    The thread owns its own event loop; ``stop()`` (or leaving the ``with``
    block) shuts the daemon down and joins the thread.
    """

    def __init__(self, catalog_dir, **kwargs):
        self._kwargs = dict(kwargs, catalog_dir=catalog_dir)
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service-thread")
        self.service: Optional[TraceAnalyticsService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.service is None:
            raise RuntimeError("service thread failed to start")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            service = TraceAnalyticsService(**self._kwargs)
            loop.run_until_complete(service.start())
            self.service = service
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(service.run_until_stopped())
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def address(self) -> str:
        return self.service.address

    def stop(self) -> None:
        if self.service is not None and self._loop is not None:
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
