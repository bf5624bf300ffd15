"""Per-job data size analysis (§4.1 and Figure 1 of the paper).

Figure 1 plots the cumulative distribution of per-job input, shuffle and
output sizes for every workload.  The headline observations are that median
sizes differ across workloads by 6 / 8 / 4 orders of magnitude (input /
shuffle / output), and that most jobs move megabytes to gigabytes — far below
the terabyte scale assumed by earlier micro-benchmarks.

The analysis consumes any :class:`~repro.engine.source.TraceSource`-wrappable
representation through one chunk fold.  In-memory sources get exact
sorting-based CDFs; a :class:`~repro.engine.store.ChunkedTraceStore` folds
mergeable log-histogram sketches, so the whole Figure-1 pipeline runs with
memory bounded by chunk size (:meth:`DataSizeConsumer.for_source` picks).
Counts (the map-only fraction) are exact either way; sketch medians and
below-1GB fractions are accurate to histogram-bin resolution (about 7.5%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..engine.aggregates import HistogramSketch
from ..engine.pipeline import ChunkConsumer, ScanChunk
from ..engine.source import TraceSource
from ..errors import AnalysisError
from ..units import GB
from .stats import EmpiricalCDF, SketchCDF, empirical_cdf

__all__ = ["DataSizeDistributions", "DataSizeConsumer", "median_spread_orders"]

#: Per-job size dimensions, in Figure 1 column order.
SIZE_DIMENSIONS = ("input_bytes", "shuffle_bytes", "output_bytes")


@dataclass
class DataSizeDistributions:
    """CDFs of per-job input, shuffle and output size for one workload.

    Attributes:
        workload: workload name.
        cdfs: mapping of dimension name -> CDF.  Exact
            :class:`~repro.core.stats.EmpiricalCDF` for in-memory sources,
            sketch-backed :class:`~repro.core.stats.SketchCDF` for streaming
            ones; both expose the same read-out API.
        medians: mapping of dimension name -> median bytes.
        fraction_below_gb: mapping of dimension name -> fraction of jobs whose
            size is below 1 GB (the "MB to GB range" observation of §4.1).
        map_only_fraction: fraction of jobs with zero shuffle and reduce time
            (always exact).
    """

    workload: str
    cdfs: Dict[str, object]
    medians: Dict[str, float]
    fraction_below_gb: Dict[str, float]
    map_only_fraction: float

    def median(self, dimension: str) -> float:
        if dimension not in self.medians:
            raise AnalysisError("unknown size dimension %r" % (dimension,))
        return self.medians[dimension]


class DataSizeConsumer(ChunkConsumer):
    """Shared-scan fold for the Figure-1 size distributions (store form).

    One pass over the size columns accumulates three mergeable log-histogram
    sketches plus the exact map-only count; ``finalize`` reads out the
    sketch-backed :class:`DataSizeDistributions`.  Build it with
    :meth:`for_source`, which gives an in-memory source the exact form.
    """

    columns = SIZE_DIMENSIONS + ("reduce_task_seconds",)
    resumable = True

    def __init__(self, name: str = "data_sizes", workload: str = "trace"):
        self.name = name
        self.workload = workload

    @staticmethod
    def for_source(source, workload: Optional[str] = None) -> "DataSizeConsumer":
        """The Figure-1 fold for ``source`` (named ``workload``, default its own).

        The one place the characterization's answer depends on representation,
        and not configurable: an in-memory source already holds every size
        column, so it gets exact sorting-based CDFs (a sketch would move its
        visible Figure-1 medians); a store gets the sketch, whose memory is
        bounded by chunk size.
        """
        source = TraceSource.wrap(source)
        fold = DataSizeConsumer if source.is_streaming else _ExactDataSizeConsumer
        return fold(workload=source.name if workload is None else workload)

    def make_state(self):
        return {"sketches": {dimension: HistogramSketch() for dimension in SIZE_DIMENSIONS},
                "n_rows": 0, "n_map_only": 0}

    def snapshot(self, state) -> Dict[str, object]:
        payload: Dict[str, object] = {"n_rows": int(state["n_rows"]),
                                      "n_map_only": int(state["n_map_only"])}
        for dimension in SIZE_DIMENSIONS:
            sketch = state["sketches"][dimension]
            payload["%s.counts" % dimension] = sketch.counts
            payload["%s.zero_count" % dimension] = int(sketch.zero_count)
            payload["%s.n" % dimension] = int(sketch.n)
            payload["%s.low" % dimension] = sketch.low
            payload["%s.high" % dimension] = sketch.high
        return payload

    def restore(self, payload: Dict[str, object]):
        state = self.make_state()
        state["n_rows"] = int(payload["n_rows"])
        state["n_map_only"] = int(payload["n_map_only"])
        for dimension in SIZE_DIMENSIONS:
            sketch = state["sketches"][dimension]
            sketch.counts = np.asarray(payload["%s.counts" % dimension],
                                       dtype=np.int64).copy()
            sketch.zero_count = int(payload["%s.zero_count" % dimension])
            sketch.n = int(payload["%s.n" % dimension])
            low = payload["%s.low" % dimension]
            high = payload["%s.high" % dimension]
            sketch.low = None if low is None else float(low)
            sketch.high = None if high is None else float(high)
        return state

    def fold(self, state, chunk: ScanChunk):
        state["n_rows"] += chunk.n_rows
        for dimension in SIZE_DIMENSIONS:
            state["sketches"][dimension].update(chunk.column(dimension))
        shuffle = np.nan_to_num(chunk.column("shuffle_bytes"), nan=0.0)
        reduce_s = np.nan_to_num(chunk.column("reduce_task_seconds"), nan=0.0)
        state["n_map_only"] += int(((shuffle == 0.0) & (reduce_s == 0.0)).sum())
        return state

    def merge(self, a, b):
        for dimension in SIZE_DIMENSIONS:
            a["sketches"][dimension].merge(b["sketches"][dimension])
        a["n_rows"] += b["n_rows"]
        a["n_map_only"] += b["n_map_only"]
        return a

    def finalize(self, state) -> DataSizeDistributions:
        if state["n_rows"] == 0:
            raise AnalysisError("cannot analyze data sizes of an empty trace")
        cdfs: Dict[str, object] = {}
        medians: Dict[str, float] = {}
        below_gb: Dict[str, float] = {}
        for dimension in SIZE_DIMENSIONS:
            cdf = self._cdf(dimension, state["sketches"][dimension])
            cdfs[dimension] = cdf
            medians[dimension] = cdf.median()
            below_gb[dimension] = cdf.fraction_at_or_below(float(GB))
        return DataSizeDistributions(
            workload=self.workload,
            cdfs=cdfs,
            medians=medians,
            fraction_below_gb=below_gb,
            map_only_fraction=state["n_map_only"] / state["n_rows"],
        )

    @staticmethod
    def _cdf(dimension: str, sketch: HistogramSketch) -> SketchCDF:
        if sketch.n == 0:
            raise AnalysisError("dimension %r records no finite samples" % (dimension,))
        return SketchCDF(sketch)


class _ColumnSlices(list):
    """The exact fold's per-dimension state: the column slices it was shown,
    behind the ``update``/``merge`` calls a :class:`HistogramSketch` takes."""

    update = list.append
    merge = list.extend


class _ExactDataSizeConsumer(DataSizeConsumer):
    """The Figure-1 fold of an in-memory source: exact :class:`EmpiricalCDF` s.

    Keeps the size column slices (views of columns already in memory) and
    sorts each dimension once in ``finalize``.  Not resumable: only a store
    has a chunk watermark to resume from.
    """

    resumable = False

    def make_state(self):
        state = super().make_state()
        state["sketches"] = {dimension: _ColumnSlices() for dimension in SIZE_DIMENSIONS}
        return state

    @staticmethod
    def _cdf(dimension: str, slices: _ColumnSlices) -> EmpiricalCDF:
        return empirical_cdf(np.concatenate(slices))


def median_spread_orders(distributions: Iterable[DataSizeDistributions],
                         dimension: str) -> float:
    """Spread (in orders of magnitude) of median job size across workloads.

    The paper reports spreads of 6, 8 and 4 orders of magnitude for input,
    shuffle and output respectively.  Zero medians (e.g. the all-map-only
    shuffle medians) are clamped to 1 byte before taking logarithms.

    Raises:
        AnalysisError: when fewer than two workloads are provided.
    """
    medians: List[float] = []
    for dist in distributions:
        medians.append(max(1.0, dist.median(dimension)))
    if len(medians) < 2:
        raise AnalysisError("median spread needs at least two workloads")
    return float(np.log10(max(medians)) - np.log10(min(medians)))
