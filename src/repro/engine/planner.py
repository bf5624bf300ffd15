"""Cost-aware access-path planning for store queries.

Given a :class:`~repro.engine.operators.Query` against a
:class:`~repro.engine.store.ChunkedTraceStore`, the planner picks — per
predicate, using exact selectivities probed from the
:mod:`~repro.engine.indexes` sidecar — between:

* **metadata**      — answered from the manifest alone (unfiltered counts);
* **index-count**   — answered from one index probe, zero chunks decoded;
* **index-probe**   — exact ``(chunk, row)`` positions gathered from a
  sorted-permutation index; only the chunks holding matches are decoded;
* **index-topk**    — top-k rows read straight off the tail of a sorted
  index, bit-identical (including tie-breaks) to the heap scan;
* **index-skip**    — a normal scan restricted to the chunks an index proves
  can match (tighter than zone maps, which only bound ranges), with LIMIT
  scans truncated as soon as the index proves the result complete;
* **zone-scan / scan** — the existing paths, when no index helps.

Every decision is emitted as an inspectable :class:`Plan` (chosen path,
driver predicate, chunks touched vs total, rows examined) which rides the
:class:`~repro.engine.operators.QueryResult`, the ``engine query --explain``
CLI and the service daemon's query responses.

The paths that decode chunks *because an index named them* (index-probe,
index-topk, index-skip) read with ``admit=True``: what they miss enters the
decoded-block cache (:mod:`~repro.engine.blockcache`); scans only read through.

The planner *never* consults a stale sidecar: staleness is checked against
the store's ``manifest_sequence`` first, and a stale index only downgrades
the plan to the scan path (flagged on the plan so callers can warn) — results
are always computed from live data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .columnar import ColumnBlock
from .indexes import InvertedColumnIndex, SortedColumnIndex, cached_indexes
from .operators import Predicate, Query, QueryResult, execute

__all__ = ["Plan", "plan_query", "execute_planned"]

#: When the most selective index still admits at least this fraction of the
#: chunks (and no exact-positions path applies), probing buys nothing the
#: zone maps don't already give — fall through to the plain zone scan.
INDEX_SKIP_MAX_CHUNK_FRACTION = 0.95


@dataclass
class Plan:
    """Inspectable access-path decision; JSON-serializable via :meth:`to_dict`."""

    access_path: str = "scan"
    driver: Optional[str] = None
    index_columns: Tuple[str, ...] = ()
    chunks_total: int = 0
    chunks_planned: Optional[int] = None
    rows_total: int = 0
    rows_planned: Optional[int] = None
    estimated_matches: Optional[int] = None
    used_index: bool = False
    stale_index: bool = False
    reason: str = ""

    def to_dict(self) -> Dict:
        return {
            "access_path": self.access_path,
            "driver": self.driver,
            "index_columns": list(self.index_columns),
            "chunks_total": self.chunks_total,
            "chunks_planned": self.chunks_planned,
            "rows_total": self.rows_total,
            "rows_planned": self.rows_planned,
            "estimated_matches": self.estimated_matches,
            "used_index": self.used_index,
            "stale_index": self.stale_index,
            "reason": self.reason,
        }

    def describe(self) -> str:
        """Multi-line rendering for ``engine query --explain``."""
        chunks = ("%d of %d" % (self.chunks_planned, self.chunks_total)
                  if self.chunks_planned is not None
                  else "up to %d" % (self.chunks_total,))
        rows = ("%d" % (self.rows_planned,) if self.rows_planned is not None
                else "up to %d" % (self.rows_total,))
        lines = [
            "plan: %s" % (self.access_path,),
            "  store: %d chunks / %d rows" % (self.chunks_total, self.rows_total),
            "  chunks to touch: %s" % (chunks,),
            "  rows to examine: %s" % (rows,),
        ]
        if self.driver:
            lines.insert(1, "  driver: %s" % (self.driver,))
        if self.estimated_matches is not None:
            lines.append("  driver matches (exact from index): %d"
                         % (self.estimated_matches,))
        if self.stale_index:
            lines.append("  WARNING: stale index sidecar ignored — rebuild "
                         "with 'engine index build'")
        if self.reason:
            lines.append("  reason: %s" % (self.reason,))
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line rendering for the CLI result footer."""
        parts = [self.access_path]
        if self.driver:
            parts.append("via %s" % (self.driver,))
        if self.chunks_planned is not None:
            parts.append("%d/%d chunks" % (self.chunks_planned, self.chunks_total))
        if self.stale_index:
            parts.append("(stale index ignored)")
        return " ".join(parts)


class _Decision:
    """A plan plus the probe payload needed to execute it without re-probing."""

    __slots__ = ("plan", "mode", "payload")

    def __init__(self, plan: Plan, mode: str, payload: Optional[Dict] = None):
        self.plan = plan
        self.mode = mode  # metadata | index-count | index-probe | index-topk
        #                 # | index-skip | scan
        self.payload = payload or {}


# ---------------------------------------------------------------------------
# Probing helpers
# ---------------------------------------------------------------------------
class _DriverProbe:
    """One predicate resolved against an index: exact counts + chunk density.

    ``chunk_counts`` (matches per chunk) is worked out on first access from
    the ``counts`` callable: only index-skip and LIMIT truncation read it, so
    a point lookup or an index count never pays for it.
    """

    __slots__ = ("predicate", "index", "exact_positions", "matches", "run",
                 "_counts", "_chunk_counts")

    def __init__(self, predicate: Predicate, index, exact_positions: bool,
                 matches: int, counts: Callable[[], np.ndarray],
                 run: Optional[Tuple[int, int]] = None):
        self.predicate = predicate
        self.index = index
        #: True when the probe yields exact row positions (sorted index runs).
        self.exact_positions = exact_positions
        self.matches = matches
        self.run = run
        self._counts = counts
        self._chunk_counts: Optional[np.ndarray] = None

    @property
    def chunk_counts(self) -> np.ndarray:
        if self._chunk_counts is None:
            self._chunk_counts = self._counts()
        return self._chunk_counts

    def describe(self) -> str:
        pred = self.predicate
        op = "is finite" if pred.op == "finite" else "%s %s" % (pred.op, pred.value)
        return "%s %s [%s index]" % (pred.column, op, self.index.kind)


def _probe_predicate(store, indexes, predicate: Predicate) -> Optional[_DriverProbe]:
    index = indexes.column(predicate.column)
    if index is None:
        return None
    n_chunks = store.n_chunks
    if isinstance(index, SortedColumnIndex):
        if predicate.op == "finite":
            return _DriverProbe(predicate, index, False, index.entries,
                                lambda: index.chunk_entries)
        run = index.probe(predicate.op, predicate.value)
        if run is None:
            return None
        lo, hi = run
        return _DriverProbe(predicate, index, True, hi - lo,
                            lambda: index.chunk_counts(lo, hi, n_chunks), run)
    if isinstance(index, InvertedColumnIndex) and predicate.op in ("==", "!="):
        table = store.string_table(predicate.column)
        if table is None:
            return None
        code = table.lookup(str(predicate.value))
        if code is None:
            if predicate.op == "!=":
                return None  # matches everything; no pruning power
            # value not in the store at all: zero matches
            return _DriverProbe(predicate, index, False, 0,
                                lambda: np.zeros(n_chunks, dtype=np.int64))
        matches = index.count_code(code)
        if predicate.op == "==":
            return _DriverProbe(predicate, index, False, matches,
                                lambda: index.chunk_counts_code(code, n_chunks))
        # "!=": a chunk is skippable only when *every* row carries the code.
        return _DriverProbe(
            predicate, index, False, store.n_jobs - matches,
            lambda: (np.asarray(store.chunk_rows(), dtype=np.int64)
                     - index.chunk_counts_code(code, n_chunks)))
    return None


def _run_starts(chunks: np.ndarray) -> List[int]:
    """Where each run of equal values starts in the sorted ``chunks``."""
    if not chunks.shape[0]:
        return []
    if chunks[0] == chunks[-1]:
        return [0]
    return [0] + (np.flatnonzero(chunks[1:] != chunks[:-1]) + 1).tolist()


def _zone_admitted(store, predicates: Sequence[Predicate]) -> List[int]:
    """Chunk indices the zone maps admit (what the raw scan would touch)."""
    admitted = []
    for chunk in range(store.n_chunks):
        if all(p.admits_zone(store.chunk_zone(chunk, p.column))
               for p in predicates):
            admitted.append(chunk)
    return admitted


def _count_only(query: Query) -> bool:
    return (bool(query.aggregates) and query.group_column is None
            and query.top_k_column is None
            and all(op == "rows" for _label, op, _column in query.aggregates))


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------
def _decide(store, query: Query, use_index: bool = True) -> _Decision:
    query.validate()
    n_chunks = store.n_chunks
    n_rows = store.n_jobs
    plan = Plan(chunks_total=n_chunks, rows_total=n_rows)

    indexes = cached_indexes(store) if use_index else None
    if indexes is not None and indexes.stale_reason(store) is not None:
        plan.stale_index = True
        indexes = None

    # Unfiltered row counts come straight off the manifest — no chunk decoded.
    if not query.predicates and _count_only(query):
        plan.access_path = "metadata"
        plan.chunks_planned = 0
        plan.rows_planned = 0
        plan.estimated_matches = n_rows
        plan.reason = "unfiltered row count is the manifest's n_jobs"
        return _Decision(plan, "metadata", {"count": n_rows})

    # Top-k with no predicates: read k rows off the tail of the sorted index.
    if (indexes is not None and query.top_k_column is not None
            and not query.predicates):
        index = indexes.column(query.top_k_column)
        if isinstance(index, SortedColumnIndex):
            selection = index.top_entries(query.top_k, query.top_k_largest)
            chunks, rows, restore = _rank_by_chunk(index, selection,
                                                   query.top_k_largest)
            starts = _run_starts(chunks)
            touched = len(starts)
            plan.access_path = "index-topk"
            plan.driver = "%s [sorted index tail]" % (query.top_k_column,)
            plan.index_columns = (query.top_k_column,)
            plan.used_index = True
            plan.chunks_planned = touched
            plan.rows_planned = int(selection.shape[0])
            plan.reason = ("top-%d rows read off the sorted index; %d of %d "
                           "chunks hold them" % (query.top_k, touched, n_chunks))
            return _Decision(plan, "index-topk",
                             {"chunks": chunks, "rows": rows, "starts": starts,
                              "restore": restore})

    probes: List[_DriverProbe] = []
    if indexes is not None:
        for predicate in query.predicates:
            probe = _probe_predicate(store, indexes, predicate)
            if probe is not None:
                probes.append(probe)

    if not probes:
        admitted = _zone_admitted(store, query.predicates) if query.predicates \
            else list(range(n_chunks))
        plan.access_path = "zone-scan" if len(admitted) < n_chunks else "scan"
        plan.chunks_planned = len(admitted)
        plan.rows_planned = int(sum(store.chunk_rows()[c] for c in admitted))
        plan.reason = ("no index sidecar" if indexes is None and use_index
                       else "no indexed predicate") if query.predicates else \
            "unfiltered scan touches every chunk"
        if not use_index:
            plan.reason = "index use disabled"
        return _Decision(plan, "scan", {})

    driver = min(probes, key=lambda probe: probe.matches)
    plan.driver = driver.describe()
    plan.index_columns = tuple(sorted({p.predicate.column for p in probes}))
    plan.estimated_matches = driver.matches

    # Exact-count shortcut: one predicate, count-only aggregates.  Every
    # probe kind yields an *exact* match count (sorted runs, inverted
    # postings, finite-entry totals), so no chunk needs decoding.
    if _count_only(query) and len(query.predicates) == 1:
        plan.access_path = "index-count"
        plan.used_index = True
        plan.chunks_planned = 0
        plan.rows_planned = 0
        plan.reason = "count answered from the index probe; no chunk decoded"
        return _Decision(plan, "index-count", {"count": driver.matches})

    # Exact-positions collect: one sorted-index predicate, row collection.
    if (driver.exact_positions and len(query.predicates) == 1
            and query.top_k_column is None and not query.aggregates):
        lo, hi = driver.run
        chunks, rows = driver.index.positions(lo, hi)
        # Store order for bit-identity.  An "==" run is one tie, which the
        # index already keeps in store order.
        if chunks.shape[0] > 1 and driver.predicate.op != "==":
            order = np.lexsort((rows, chunks))
            chunks, rows = chunks[order], rows[order]
        if query.row_limit is not None:
            chunks, rows = chunks[:query.row_limit], rows[:query.row_limit]
        starts = _run_starts(chunks)
        touched = len(starts)
        plan.access_path = "index-probe"
        plan.used_index = True
        plan.chunks_planned = touched
        plan.rows_planned = int(chunks.shape[0])
        plan.reason = ("single indexed predicate resolves to exact row "
                       "positions; %d of %d chunks decoded"
                       % (touched, n_chunks))
        return _Decision(plan, "index-probe",
                         {"chunks": chunks, "rows": rows, "starts": starts})

    # General case: intersect every indexed predicate's chunk admission (and
    # let the zone maps prune further inside the scan).
    admit_mask = np.ones(n_chunks, dtype=bool)
    for probe in probes:
        admit_mask &= probe.chunk_counts > 0
    admitted = np.flatnonzero(admit_mask)

    # LIMIT early termination: with a single exact-count driver predicate,
    # the scan is provably complete once the cumulative index counts reach
    # the limit — later chunks need not even be considered.
    limited_note = ""
    if (query.row_limit is not None and len(query.predicates) == 1
            and not query.aggregates and query.top_k_column is None
            and admitted.shape[0]):
        cumulative = np.cumsum(driver.chunk_counts[admitted])
        enough = int(np.searchsorted(cumulative, query.row_limit)) + 1
        if enough < admitted.shape[0]:
            admitted = admitted[:enough]
            limited_note = ("; truncated to %d chunks — index counts prove "
                            "the LIMIT fills there" % (enough,))

    chunk_rows = store.chunk_rows()
    selectivity = (float(admitted.shape[0]) / n_chunks) if n_chunks else 0.0
    if selectivity >= INDEX_SKIP_MAX_CHUNK_FRACTION and not limited_note:
        zone_chunks = _zone_admitted(store, query.predicates)
        plan.access_path = "zone-scan" if len(zone_chunks) < n_chunks else "scan"
        plan.chunks_planned = len(zone_chunks)
        plan.rows_planned = int(sum(chunk_rows[c] for c in zone_chunks))
        plan.reason = ("index admits %d%% of chunks — no better than the "
                       "zone maps, scanning" % (round(100 * selectivity),))
        return _Decision(plan, "scan", {})

    plan.access_path = "index-skip"
    plan.used_index = True
    plan.chunks_planned = int(admitted.shape[0])
    plan.rows_planned = int(sum(chunk_rows[c] for c in admitted))
    plan.reason = ("index proves only %d of %d chunks can match%s"
                   % (admitted.shape[0], n_chunks, limited_note))
    return _Decision(plan, "index-skip", {"chunk_indices": admitted.tolist()})


def plan_query(store, query: Query, use_index: bool = True) -> Plan:
    """Plan without executing (``engine query --explain``)."""
    return _decide(store, query, use_index=use_index).plan


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
def execute_planned(store, query: Query, use_index: bool = True) -> QueryResult:
    """Plan ``query`` against ``store``, run the chosen path, attach the plan."""
    decision = _decide(store, query, use_index=use_index)
    mode, payload, plan = decision.mode, decision.payload, decision.plan

    if mode in ("metadata", "index-count"):
        result = QueryResult()
        result.aggregates = {label: int(payload["count"])
                             for label, _op, _column in query.aggregates}
        result.rows_matched = int(payload["count"])
        result.chunks_skipped = store.n_chunks
    elif mode in ("index-probe", "index-topk"):
        result = _gather(store, query, payload["chunks"], payload["rows"],
                         payload["starts"], payload.get("restore"))
    elif mode == "index-skip":
        result = execute(store, query, chunk_indices=payload["chunk_indices"],
                         use_planner=False, admit=True)
        result.chunks_skipped += store.n_chunks - len(payload["chunk_indices"])
    else:
        result = execute(store, query, use_planner=False)

    result.plan = plan
    return result


def _rank_by_chunk(index: SortedColumnIndex, selection: np.ndarray,
                   largest: bool):
    """Top-k entries grouped by chunk, and the way back to rank order.

    Returns ``(chunks, rows, restore)``: the entries' coordinates sorted by
    chunk (within a chunk, in rank order) and the permutation that puts rows
    gathered in that order into rank order — ``None`` when every entry sits
    in one chunk, so the gather is already ranked.
    """
    values = index.values[selection]
    chunks = index.chunks[selection]
    rows = index.rows[selection]
    # Rank exactly like the heap scan: by value (desc for largest), ties by
    # store position ascending.
    position = chunks.astype(np.int64) * (np.int64(1) << 32) + rows.astype(np.int64)
    keys = -values if largest else values
    rank = np.lexsort((position, keys))
    chunks, rows = chunks[rank], rows[rank]
    if not chunks.shape[0] or np.all(chunks == chunks[0]):
        return chunks, rows, None
    group = np.argsort(chunks, kind="stable")
    restore = np.empty_like(group)
    restore[group] = np.arange(group.shape[0])
    return chunks[group], rows[group], restore


def _gather(store, query: Query, chunks: np.ndarray, rows: np.ndarray,
            starts: List[int], restore: Optional[np.ndarray]) -> QueryResult:
    """Materialize ``(chunk, row)`` positions sorted by chunk, one ``take`` per
    chunk (runs begin at ``starts``); ``restore`` reorders the gathered rows
    (top-k rank order), ``None`` keeps them as gathered."""
    result = QueryResult()
    result.chunks_skipped = store.n_chunks
    columns = query.required_columns()
    bounds = starts + [chunks.shape[0]]
    pieces: List[ColumnBlock] = []
    for lo, hi in zip(bounds, bounds[1:]):
        block = store.read_chunk(int(chunks[lo]), columns=columns, admit=True)
        pieces.append(block.take(rows[lo:hi]))
    merged = pieces[0] if len(pieces) == 1 else ColumnBlock.concat(pieces)
    if restore is not None:
        merged = merged.take(restore)
    if query.projection and pieces:
        merged = merged.project(query.projection)
    result.rows = merged
    result.chunks_scanned = len(pieces)
    result.chunks_skipped -= len(pieces)
    result.rows_scanned = result.rows_matched = int(chunks.shape[0])
    return result
