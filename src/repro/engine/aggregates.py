"""Mergeable partial aggregates for chunk-parallel execution.

Every aggregate here follows the same three-step contract so that a query can
be evaluated chunk by chunk — serially or fanned out over worker processes —
and combined at the end:

* ``update(values)`` folds one chunk's column values into the partial state;
* ``merge(other)`` combines two partials computed on disjoint chunks;
* ``result()`` extracts the final answer.

Count/sum/min/max/mean merge exactly.  Percentiles and CDFs use a fixed
log-spaced :class:`HistogramSketch` (the bins are static, so two sketches
always merge exactly; only the final percentile read-out is approximate, with
resolution of about 7% — one part in ``10 ** (1/BINS_PER_DECADE)``).

Group-by queries and the per-hour characterization fold share one columnar
state, :class:`GroupedAggregates`: a key table plus one array per aggregate
field, updated with a fixed number of NumPy calls per chunk whatever the key
cardinality.  Dictionary-coded keys (format-v3 stores) group on their
``uint32`` codes — store codes are global and append-only, so a code means the
same string in every chunk — and are decoded once, when the state is read out
or leaves the process.  Its **numeric contract**: key sets, ``count`` /
``rows`` / ``min`` / ``max`` and the sketch bins are exact and independent of
how the chunks were partitioned or merged; a group's ``sum`` / ``mean`` total
adds the chunk's finite values in row order (``np.bincount`` weights) and the
per-chunk partials in fold order, so it can differ in the last ulp from a
pairwise ``values[rows].sum()`` over the same rows, and between two
partitions of the same chunks.

All classes are plain picklable objects so partial states can cross a
``multiprocessing`` boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError

__all__ = [
    "AggregateState",
    "CountState",
    "SumState",
    "MinState",
    "MaxState",
    "MeanState",
    "HistogramSketch",
    "PercentileState",
    "CDFState",
    "UngroupedAggregates",
    "GroupedAggregates",
    "make_aggregate",
    "parse_aggregate_spec",
    "AGGREGATE_OPS",
]


class AggregateState:
    """Base interface: fold chunk values, merge partials, extract the result."""

    def update(self, values: np.ndarray) -> None:
        raise NotImplementedError

    def merge(self, other: "AggregateState") -> None:
        raise NotImplementedError

    def result(self):
        raise NotImplementedError


class CountState(AggregateState):
    """Count of finite (non-NaN) values."""

    def __init__(self):
        self.count = 0

    def update(self, values):
        self.count += int(np.isfinite(values).sum())

    def merge(self, other):
        self.count += other.count

    def result(self):
        return self.count


class SumState(AggregateState):
    def __init__(self):
        self.total = 0.0

    def update(self, values):
        finite = values[np.isfinite(values)]
        if finite.size:
            self.total += float(finite.sum())

    def merge(self, other):
        self.total += other.total

    def result(self):
        return self.total


class MinState(AggregateState):
    def __init__(self):
        self.value: Optional[float] = None

    def update(self, values):
        finite = values[np.isfinite(values)]
        if finite.size:
            low = float(finite.min())
            self.value = low if self.value is None else min(self.value, low)

    def merge(self, other):
        if other.value is not None:
            self.value = other.value if self.value is None else min(self.value, other.value)

    def result(self):
        return self.value


class MaxState(AggregateState):
    def __init__(self):
        self.value: Optional[float] = None

    def update(self, values):
        finite = values[np.isfinite(values)]
        if finite.size:
            high = float(finite.max())
            self.value = high if self.value is None else max(self.value, high)

    def merge(self, other):
        if other.value is not None:
            self.value = other.value if self.value is None else max(self.value, other.value)

    def result(self):
        return self.value


class MeanState(AggregateState):
    """Mean as a mergeable (sum, count) pair; ``None`` for an empty column."""

    def __init__(self):
        self.total = 0.0
        self.count = 0

    def update(self, values):
        finite = values[np.isfinite(values)]
        if finite.size:
            self.total += float(finite.sum())
            self.count += int(finite.size)

    def merge(self, other):
        self.total += other.total
        self.count += other.count

    def result(self):
        return self.total / self.count if self.count else None


# ---------------------------------------------------------------------------
# Histogram sketch: shared substrate for percentiles and CDFs
# ---------------------------------------------------------------------------
#: Static log-spaced bin layout: 10^LOW_EXP .. 10^HIGH_EXP bytes/seconds.
LOW_EXP = -3
HIGH_EXP = 16
BINS_PER_DECADE = 32
N_BINS = (HIGH_EXP - LOW_EXP) * BINS_PER_DECADE

_EDGES = np.logspace(LOW_EXP, HIGH_EXP, N_BINS + 1)
_CENTERS = np.sqrt(_EDGES[:-1] * _EDGES[1:])  # geometric bin midpoints


def _sketch_bins(positive: np.ndarray) -> np.ndarray:
    """Bin index of each strictly positive sample.

    The edges are exactly log10-uniform, so the bin index is a closed-form
    floor instead of a binary search; paired with a dense bincount fill this
    is ~20x faster than searchsorted + np.add.at on million-element chunks.
    """
    bins = np.floor((np.log10(positive) - LOW_EXP) * BINS_PER_DECADE).astype(np.int64)
    return np.clip(bins, 0, N_BINS - 1, out=bins)


class HistogramSketch(AggregateState):
    """Fixed-bin log-spaced histogram of non-negative samples.

    The bin layout is static (``10^-3`` to ``10^16``, 32 bins per decade), so
    two sketches built on different chunks merge by adding their count arrays.
    Values of exactly zero get a dedicated count, values below the first edge
    clamp into the first bin, values above the last edge clamp into the last.
    Exact min/max are tracked alongside so read-outs can be clamped to the
    observed range.
    """

    def __init__(self):
        self.counts = np.zeros(N_BINS, dtype=np.int64)
        self.zero_count = 0
        self.n = 0
        self.low: Optional[float] = None
        self.high: Optional[float] = None

    def update(self, values):
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return
        if float(finite.min()) < 0:
            raise AnalysisError("histogram sketch expects non-negative samples")
        self.n += int(finite.size)
        low, high = float(finite.min()), float(finite.max())
        self.low = low if self.low is None else min(self.low, low)
        self.high = high if self.high is None else max(self.high, high)
        positive = finite[finite > 0.0]
        self.zero_count += int(finite.size - positive.size)
        if positive.size:
            self.counts += np.bincount(_sketch_bins(positive), minlength=N_BINS).astype(np.int64)

    def merge(self, other):
        self.counts += other.counts
        self.zero_count += other.zero_count
        self.n += other.n
        if other.low is not None:
            self.low = other.low if self.low is None else min(self.low, other.low)
        if other.high is not None:
            self.high = other.high if self.high is None else max(self.high, other.high)

    # -- read-outs ---------------------------------------------------------
    def percentile(self, q: float) -> Optional[float]:
        """Approximate ``q``-th percentile (0-100), clamped to observed min/max.

        Follows the library-wide **lower nearest-rank** convention shared with
        :func:`repro.core.stats.percentile` (see that module's docstring): the
        first bin whose cumulative count reaches ``q/100 * n``, read out at its
        geometric center.  The two paths agree to within one bin — about 7.5%
        relative resolution — which ``tests/core/test_percentile_convention.py``
        asserts.
        """
        if not 0.0 <= q <= 100.0:
            raise AnalysisError("percentile must be in [0, 100], got %r" % (q,))
        if self.n == 0:
            return None
        rank = q / 100.0 * self.n
        if rank <= self.zero_count:
            return 0.0 if self.zero_count else float(self.low)
        cumulative = self.zero_count + np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, rank, side="left"))
        index = min(index, N_BINS - 1)
        estimate = float(_CENTERS[index])
        return float(min(max(estimate, self.low), self.high))

    def cdf_points(self, max_points: int = 256) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs over the non-empty bins."""
        if self.n == 0:
            return []
        points: List[Tuple[float, float]] = []
        running = self.zero_count
        if self.zero_count:
            points.append((0.0, running / self.n))
        nonzero = np.nonzero(self.counts)[0]
        for index in nonzero:
            running += int(self.counts[index])
            points.append((float(_CENTERS[index]), running / self.n))
        if len(points) > max_points:
            stride = -(-len(points) // max_points)
            thinned = points[::stride]
            if thinned[-1] != points[-1]:
                thinned.append(points[-1])
            points = thinned
        return points

    def result(self):
        return self


class PercentileState(AggregateState):
    """One percentile read out of a :class:`HistogramSketch`."""

    def __init__(self, q: float):
        if not 0.0 <= q <= 100.0:
            raise AnalysisError("percentile must be in [0, 100], got %r" % (q,))
        self.q = q
        self.sketch = HistogramSketch()

    def update(self, values):
        self.sketch.update(values)

    def merge(self, other):
        self.sketch.merge(other.sketch)

    def result(self):
        return self.sketch.percentile(self.q)


class CDFState(AggregateState):
    """A full (approximate) CDF read out of a :class:`HistogramSketch`."""

    def __init__(self):
        self.sketch = HistogramSketch()

    def update(self, values):
        self.sketch.update(values)

    def merge(self, other):
        self.sketch.merge(other.sketch)

    def result(self):
        return self.sketch.cdf_points()


_SIMPLE_OPS = {
    "count": CountState,
    "sum": SumState,
    "min": MinState,
    "max": MaxState,
    "mean": MeanState,
    "cdf": CDFState,
    "sketch": HistogramSketch,
}

#: Supported aggregate operation names (``pNN`` / ``percentile:q`` also work).
AGGREGATE_OPS = tuple(sorted(_SIMPLE_OPS)) + ("p50", "p95", "p99", "percentile:<q>")


def make_aggregate(op: str) -> AggregateState:
    """Instantiate a fresh aggregate state for ``op``.

    Ops: ``count``, ``sum``, ``min``, ``max``, ``mean``, ``cdf``, ``sketch``,
    ``pNN`` (e.g. ``p50``, ``p99.5``) or ``percentile:q``.
    """
    if op in _SIMPLE_OPS:
        return _SIMPLE_OPS[op]()
    if op.startswith("percentile:"):
        return PercentileState(float(op.split(":", 1)[1]))
    if op.startswith("p"):
        try:
            return PercentileState(float(op[1:]))
        except ValueError:
            pass
    raise AnalysisError("unknown aggregate op %r (supported: %s)"
                        % (op, ", ".join(AGGREGATE_OPS)))


def _numeric_column(block, op: str, column: str) -> np.ndarray:
    """``column`` of ``block`` for a numeric aggregate; strings are a typed error."""
    if block.codes_for(column) is None:
        values = block.column(column)
        if values.dtype.kind not in "USO":
            return values
    raise AnalysisError("aggregate %r needs a numeric column, but %r holds strings"
                        % (op, column))


class UngroupedAggregates:
    """The whole-scan aggregates of one query: ``{label: AggregateState}``
    over ``(label, op, column)`` specs, with :class:`GroupedAggregates`'
    ``update(block)`` / ``merge`` / ``result`` shape so one scan loop serves
    both.  ``rows`` counts rows, not finite values."""

    def __init__(self, specs: Sequence[Tuple[str, str, str]]):
        self.specs = tuple(specs)
        self.states: Dict[str, AggregateState] = {
            label: CountState() if op == "rows" else make_aggregate(op)
            for label, op, _column in self.specs}

    def update(self, block) -> None:
        for label, op, column in self.specs:
            if op == "rows":
                self.states[label].count += block.n_rows  # type: ignore[attr-defined]
            else:
                self.states[label].update(_numeric_column(block, op, column))

    def merge(self, other: "UngroupedAggregates") -> None:
        for label, state in self.states.items():
            state.merge(other.states[label])

    def result(self) -> Dict[str, object]:
        return {label: state.result() for label, state in self.states.items()}


#: Per-op state arrays of :class:`GroupedAggregates`, one row per group:
#: (field, dtype, value of a group with no finite sample, merge ufunc).  The
#: field names are the checkpoint payload's ``label.field`` suffixes.
_COUNT = ("count", np.int64, 0, np.add)
_TOTAL = ("total", np.float64, 0.0, np.add)
_GROUP_FIELDS = {
    "rows": (_COUNT,),
    "count": (_COUNT,),
    "sum": (_TOTAL,),
    "min": (("value", np.float64, np.nan, np.fmin),),
    "max": (("value", np.float64, np.nan, np.fmax),),
    "mean": (_TOTAL, _COUNT),
}
#: Every other op (``pNN``, ``percentile:q``, ``cdf``, ``sketch``) keeps one
#: :class:`HistogramSketch` per group; ``counts`` is a ``groups x N_BINS`` matrix.
_SKETCH_FIELDS = (
    ("counts", np.int64, 0, np.add), ("zero_count", np.int64, 0, np.add),
    ("n", np.int64, 0, np.add), ("low", np.float64, np.nan, np.fmin),
    ("high", np.float64, np.nan, np.fmax))


def _group_fields(op: str):
    return _GROUP_FIELDS.get(op, _SKETCH_FIELDS)


class GroupedAggregates:
    """Columnar group-by state: a key table plus one array per aggregate field.

    ``keys`` holds the distinct group keys in the order chunks brought them
    and every array in ``fields`` (named ``label.field``) has one row per key.  Keys of
    a dictionary-coded column are its ``uint32`` codes against ``table``;
    otherwise they are the column's own values, with NaN (a key that was not
    recorded) pooled into one group that reads out as ``None``.
    ``update`` / ``merge`` never loop over keys in Python; see the module
    docstring for the summation-order contract.
    """

    def __init__(self, specs: Sequence[Tuple[str, str, str]], group_column: str):
        self.specs = tuple(specs)
        for _label, op, _column in self.specs:
            if op not in _GROUP_FIELDS:
                make_aggregate(op)  # raises on an unknown op
        self.group_column = group_column
        self.keys: Optional[np.ndarray] = None
        self.table = None  # the StringDictionary when ``keys`` are codes
        self.fields: Dict[str, np.ndarray] = {}
        self._grow(0)

    def _grow(self, n_new: int) -> None:
        """Append ``n_new`` empty groups to every field array."""
        for label, op, _column in self.specs:
            for field, dtype, empty, _merge in _group_fields(op):
                name = "%s.%s" % (label, field)
                shape = (n_new, N_BINS) if field == "counts" else (n_new,)
                fresh = np.full(shape, empty, dtype=dtype)
                self.fields[name] = (np.concatenate([self.fields[name], fresh])
                                     if name in self.fields else fresh)

    def _arrays(self, label: str, op: str) -> Dict[str, np.ndarray]:
        """One aggregate's state arrays by field name."""
        return {field: self.fields["%s.%s" % (label, field)]
                for field, _dtype, _empty, _merge in _group_fields(op)}

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Row of every element of ``keys``, admitting unseen keys at the end."""
        known = keys[:0] if self.keys is None else self.keys
        n_known = known.shape[0]
        # np.unique collapses NaNs into one value and reports each distinct
        # value's first position, which for a known key is its row.
        distinct, first, inverse = np.unique(
            np.concatenate([known, keys]), return_index=True, return_inverse=True)
        unseen = first >= n_known
        n_new = int(unseen.sum())
        if n_new or self.keys is None:
            self.keys = np.concatenate([known, distinct[unseen]])
            self._grow(n_new)
        row_of_distinct = np.where(unseen, n_known + np.cumsum(unseen) - 1, first)
        return row_of_distinct[inverse[n_known:]]

    def _key_values(self) -> Optional[np.ndarray]:
        """The keys as column values (dictionary codes decoded)."""
        return self.keys if self.table is None else self.table.decode(self.keys)

    def update(self, block) -> None:
        """Fold one (already filtered) chunk."""
        pair = block.codes_for(self.group_column)
        if pair is not None and (self.keys is None or self.table is pair[1]):
            keys, self.table = pair
        else:  # raw strings, numbers, or codes against another store's table
            self.keys, self.table = self._key_values(), None
            keys = block.column(self.group_column)
        # Sort the chunk's rows once, unstably; only its distinct keys meet
        # the key table.
        distinct, inverse = np.unique(keys, return_inverse=True)
        slots = self._slots(distinct)[inverse]
        n_groups = self.keys.shape[0]
        finite_rows: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for label, op, column in self.specs:
            fields = self._arrays(label, op)
            if op == "rows":
                fields["count"] += np.bincount(slots, minlength=n_groups)
                continue
            if column not in finite_rows:
                values = _numeric_column(block, op, column)
                finite = np.isfinite(values)
                finite_rows[column] = ((values, slots) if finite.all()
                                       else (values[finite], slots[finite]))
            values, rows = finite_rows[column]
            if "count" in fields:
                fields["count"] += np.bincount(rows, minlength=n_groups)
            if "total" in fields:
                fields["total"] += np.bincount(rows, weights=values, minlength=n_groups)
            if op == "min":
                np.fmin.at(fields["value"], rows, values)
            elif op == "max":
                np.fmax.at(fields["value"], rows, values)
            elif "counts" in fields:
                if values.size and float(values.min()) < 0:
                    raise AnalysisError("histogram sketch expects non-negative samples")
                fields["n"] += np.bincount(rows, minlength=n_groups)
                np.fmin.at(fields["low"], rows, values)
                np.fmax.at(fields["high"], rows, values)
                positive = values > 0.0
                fields["zero_count"] += np.bincount(rows[~positive], minlength=n_groups)
                np.add.at(fields["counts"].reshape(-1),
                          rows[positive] * N_BINS + _sketch_bins(values[positive]), 1)

    def merge(self, other: "GroupedAggregates") -> None:
        """Fold in a partial computed on other chunks (exact per field)."""
        if other.keys is None:
            return
        other_keys = other.keys
        if self.keys is None:
            self.table = other.table
        elif self.table is not other.table:
            self.keys, self.table = self._key_values(), None
            other_keys = other._key_values()
        rows = self._slots(other_keys)
        for label, op, _column in self.specs:
            mine, theirs = self._arrays(label, op), other._arrays(label, op)
            for field, _dtype, _empty, merge in _group_fields(op):
                mine[field][rows] = merge(mine[field][rows], theirs[field])

    def __getstate__(self):
        # Leaving the process: ship the seen keys as values rather than codes
        # plus the store's whole dictionary.
        state = dict(self.__dict__)
        state["keys"], state["table"] = self._key_values(), None
        return state

    def result(self) -> Dict[object, Dict[str, object]]:
        """``{key: {label: value}}``; numeric keys ascend with ``None`` (the
        not-recorded group) last, string keys sort lexicographically."""
        if self.keys is None:
            return {}
        values = self._key_values()
        order = np.argsort(values, kind="stable")
        read_outs = [self._read_out(label, op, order) for label, op, _column in self.specs]
        labels = [label for label, _op, _column in self.specs]
        return {None if key != key else key: dict(zip(labels, group))
                for key, group in zip(values[order].tolist(), zip(*read_outs))}

    def _read_out(self, label: str, op: str, order: np.ndarray) -> List[object]:
        """One aggregate's per-group results, as Python values in ``order``."""
        fields = {field: array[order] for field, array in self._arrays(label, op).items()}
        if op == "mean":
            return [total / count if count else None for total, count
                    in zip(fields["total"].tolist(), fields["count"].tolist())]
        if op in _GROUP_FIELDS:
            (column,) = fields.values()
            return [None if value != value else value for value in column.tolist()]
        results = []
        for row in range(order.shape[0]):
            state = make_aggregate(op)
            sketch = state if isinstance(state, HistogramSketch) else state.sketch
            sketch.counts = fields["counts"][row]
            sketch.zero_count, sketch.n = int(fields["zero_count"][row]), int(fields["n"][row])
            if sketch.n:
                sketch.low, sketch.high = float(fields["low"][row]), float(fields["high"][row])
            results.append(state.result())
        return results

    # -- checkpoint payload ------------------------------------------------
    def snapshot(self) -> Dict[str, np.ndarray]:
        """Flat float arrays: ``keys`` plus one per ``label.field``.

        NaN stands for the ``None`` key and for an empty min/max.  Only
        numeric keys and the scalar-field ops serialize.
        """
        if self.table is not None or (self.keys is not None
                                      and self.keys.dtype.kind in "USO"):
            raise AnalysisError("group-by state over string column %r has no "
                                "serializable state" % (self.group_column,))
        for label, op, _column in self.specs:
            if op not in _GROUP_FIELDS:
                raise AnalysisError("aggregate %r (op %r) has no serializable state"
                                    % (label, op))
        payload = {"keys": np.zeros(0) if self.keys is None else self.keys.astype(float)}
        payload.update((name, array.astype(float)) for name, array in self.fields.items())
        return payload

    @classmethod
    def restore(cls, specs, group_column: str, payload) -> "GroupedAggregates":
        """Rebuild the state :meth:`snapshot` serialized."""
        state = cls(specs, group_column)
        state.keys = np.asarray(payload["keys"], dtype=float)
        for name, array in state.fields.items():
            state.fields[name] = np.asarray(payload[name], dtype=float).astype(array.dtype)
        return state


def parse_aggregate_spec(text: str) -> Tuple[str, str, str]:
    """Parse a CLI-style aggregate spec into ``(label, op, column)``.

    Formats: ``op:column`` (label defaults to the spec itself), or plain
    ``count`` which counts rows via the ``submit_time_s`` column.
    """
    if ":" not in text:
        if text == "count":
            return "count", "count", "submit_time_s"
        raise AnalysisError("aggregate spec %r must look like op:column" % (text,))
    op, column = text.split(":", 1)
    if op == "percentile":
        # percentile:q:column
        parts = text.split(":")
        if len(parts) != 3:
            raise AnalysisError("percentile spec must be percentile:q:column, got %r" % (text,))
        return text, "percentile:%s" % parts[1], parts[2]
    return text, op, column
