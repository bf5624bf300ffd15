"""One shared scan for the whole characterization suite.

The paper's characterization is a batch of ~15 analyses (Table 1, Figures
1-10, Table 2) over the same trace.  :func:`run_characterization_scan`
registers the chunk-consumer form of every requested analysis on a single
:class:`~repro.engine.pipeline.ScanPipeline`, so an out-of-core store is
decoded **once** for the whole batch (and, with a
:class:`~repro.engine.parallel.ParallelExecutor`, fanned out across worker
processes) instead of once per analysis.  The returned
:class:`CharacterizationAnalyses` hands each table/figure builder its
precomputed piece.

This is the only way into a characterization analysis: a table/figure
builder called without a bundle for a workload runs this scan itself,
folding only what its experiment needs (:func:`workload_analyses`).
Equality contract: a consumer folded alone gives the same result as the same
consumer folded beside all the others — serial or parallel, up to
floating-point merge order — and the parametrized tests in
``tests/core/test_sharedscan.py`` pin the table/figure rows to be identical.

Every representation — job-list :class:`~repro.traces.trace.Trace`,
in-memory :class:`~repro.engine.columnar.ColumnarTrace`, on-disk store — runs
the same consumer list through one resumable scan.  The one representation-
dependent fold is Figure 1's CDF: an in-memory source holds every size
column, so it keeps exact :class:`~repro.core.stats.EmpiricalCDF` medians,
while a store folds a mergeable sketch
(:meth:`~repro.core.datasizes.DataSizeConsumer.for_source` makes that choice).

Store-backed scans are additionally **checkpointable**: ``checkpoint_to=``
persists every resumable consumer's fold state (JSON + ``.npz``) together
with the store's chunk watermark, and after appending chunks
(:func:`repro.engine.store.append_store` / ``repro engine ingest``)
``resume_from=`` folds only the new chunks into the restored states —
bit-identical to a cold full rescan.  The protocol lives in the one resume
driver, :func:`repro.engine.pipeline.run_resumable_scan`.  Every consumer
resumes, the Table-2 job sample included: it is a seeded bottom-k over
per-row hash keys (:class:`~repro.core.clustering.ClusterSampleConsumer`),
so an appended chunk only offers new candidates.  What still falls back to a
full rescan — the ordered re-access walk when appended data interleaves in
time, a sample checkpointed under another seed or cap — is recorded with
reasons on :attr:`CharacterizationAnalyses.resume`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.pipeline import ChunkConsumer, SummaryConsumer, run_resumable_scan
from ..engine.source import TraceSource
from ..errors import AnalysisError
from .access import (
    PathStatsConsumer,
    ReaccessConsumer,
    profile_from_path_stats,
    rank_frequencies_from_path_stats,
)
from .clustering import ClusterSampleConsumer, FeatureMatrixConsumer
from .datasizes import DataSizeConsumer
from .naming import NamingConsumer
from .temporal import (
    HOURLY_DIMENSION_SPECS,
    HourlyTotalsConsumer,
    hourly_dimensions_from_groups,
)

__all__ = ["CharacterizationAnalyses", "run_characterization_scan", "workload_analyses",
           "DEFAULT_CLUSTER_SAMPLE_CAP", "EXPERIMENT_NEEDS"]

#: Default cap on jobs clustered per workload (the Table-2 seeded subsample).
DEFAULT_CLUSTER_SAMPLE_CAP = 20000

#: Which analysis keys each characterization experiment consumes.
EXPERIMENT_NEEDS: Dict[str, Tuple[str, ...]] = {
    "table1": ("summary",),
    "figure1": ("data_sizes",),
    "figure2": ("input_ranks", "output_ranks"),
    "figure3": ("input_profile",),
    "figure4": ("output_profile",),
    "figure5": ("reaccess_intervals",),
    "figure6": ("reaccess_fractions",),
    "figure7": ("hourly", "summary"),
    "figure8": ("hourly", "summary"),
    "figure9": ("hourly", "summary"),
    "figure10": ("naming",),
    "table2": ("cluster_sample",),
}

_ALL_KEYS = ("summary", "data_sizes", "input_ranks", "output_ranks",
             "input_profile", "output_profile", "reaccess_intervals",
             "reaccess_fractions", "hourly", "naming", "cluster_sample",
             "features")


class CharacterizationAnalyses:
    """Per-workload results of one shared characterization scan.

    Each analysis key holds either a result or the :class:`AnalysisError`
    that made it unavailable (no paths recorded, unsorted store, ...).
    Table/figure builders read results through :meth:`value` when they let
    errors propagate, or :meth:`get` when a missing analysis just skips a
    row.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self._results: Dict[str, object] = {}
        self._errors: Dict[str, AnalysisError] = {}
        #: Checkpoint-resume report, or ``None`` for a plain full scan:
        #: ``{"chunk_watermark", "new_chunks", "resumed": [consumer names],
        #: "rescanned": {consumer name: reason}}``.
        self.resume: Optional[Dict[str, object]] = None
        #: Where the post-scan checkpoint was saved, when one was requested.
        self.checkpoint_path: Optional[str] = None
        #: Chunks/rows folded by the shared scan (an in-memory source counts
        #: its column slices as chunks).  The service daemon's ``/metrics``
        #: endpoint reads these.
        self.chunks_scanned: int = 0
        self.rows_scanned: int = 0

    def set(self, key: str, value) -> None:
        self._results[key] = value

    def set_error(self, key: str, error: AnalysisError) -> None:
        self._errors[key] = error

    def has(self, key: str) -> bool:
        """Whether the key was computed (successfully or not)."""
        return key in self._results or key in self._errors

    def get(self, key: str, default=None):
        """The result for ``key``; ``default`` when it errored or is absent."""
        return self._results.get(key, default)

    def error(self, key: str) -> Optional[AnalysisError]:
        return self._errors.get(key)

    def value(self, key: str):
        """The result for ``key``; re-raises its recorded error."""
        if key in self._errors:
            raise self._errors[key]
        if key not in self._results:
            raise AnalysisError("shared scan did not compute %r for workload %r"
                                % (key, self.workload))
        return self._results[key]


def _needed_keys(experiments: Optional[Iterable[str]],
                 include_features: bool) -> List[str]:
    if experiments is None:
        needed = [key for key in _ALL_KEYS if key != "features"]
    else:
        needed = []
        for experiment in experiments:
            for key in EXPERIMENT_NEEDS.get(experiment, ()):
                if key not in needed:
                    needed.append(key)
    if include_features and "features" not in needed:
        needed.append("features")
    return needed


def run_characterization_scan(trace, experiments: Optional[Sequence[str]] = None,
                              seed: int = 0,
                              cluster_sample_cap: Optional[int] = DEFAULT_CLUSTER_SAMPLE_CAP,
                              include_features: bool = False,
                              executor=None,
                              resume_from=None,
                              checkpoint_to: Optional[str] = None) -> CharacterizationAnalyses:
    """Compute every requested characterization analysis in one shared scan.

    Args:
        trace: any :class:`TraceSource`-wrappable representation.
        experiments: characterization experiment ids (``table1``,
            ``figure1``..``figure10``, ``table2``) selecting which analyses to
            fold; ``None`` folds everything (except ``features``).
        seed: seed of the Table-2 subsample (must match the clustering seed).
        cluster_sample_cap: job cap for the Table-2 subsample; ``None``
            disables sampling (cluster the full source).
        include_features: also gather the full (n_jobs, 6) k-means feature
            matrix (used by :func:`repro.core.characterization.characterize`,
            which clusters every job).
        executor: optional :class:`~repro.engine.parallel.ParallelExecutor`
            fanning the chunk scan across worker processes for store-backed
            sources.
        resume_from: a :class:`~repro.engine.pipeline.Checkpoint` (or a path
            to one) from an earlier scan of the same store.  Consumers that
            declared ``resumable`` restore their fold states and fold **only
            the chunks appended since the checkpoint**; the rest run a full
            rescan, and the bundle's :attr:`CharacterizationAnalyses.resume`
            report says which did what and why.  Results are bit-identical to
            a cold full rescan.  Requires a store-backed source.
        checkpoint_to: save a fresh checkpoint (JSON at this path, arrays at
            ``<path>.npz``) covering the whole store after the scan.
    """
    source = TraceSource.wrap(trace)
    needed = _needed_keys(experiments, include_features)
    analyses = CharacterizationAnalyses(source.name)
    if not needed:
        return analyses
    consumers: List[ChunkConsumer] = []
    wants_hourly = "hourly" in needed
    wants_summary = "summary" in needed or wants_hourly
    wants_input_stats = "input_ranks" in needed or "input_profile" in needed
    wants_output_stats = "output_ranks" in needed or "output_profile" in needed
    wants_reaccess = "reaccess_intervals" in needed or "reaccess_fractions" in needed

    if wants_summary:
        consumers.append(SummaryConsumer(trace_name=source.name, machines=source.machines))
    if "data_sizes" in needed:
        consumers.append(DataSizeConsumer.for_source(source))
    if wants_input_stats:
        consumers.append(PathStatsConsumer("input"))
    if wants_output_stats:
        consumers.append(PathStatsConsumer("output"))
    if wants_reaccess:
        consumers.append(ReaccessConsumer(has_input=source.has_column("input_path"),
                                          has_output=source.has_column("output_path")))
    if wants_hourly:
        consumers.append(HourlyTotalsConsumer(HOURLY_DIMENSION_SPECS))
    if "naming" in needed:
        if source.has_column("name") and not source.is_empty():
            consumers.append(NamingConsumer(has_framework=source.has_column("framework"),
                                            workload=source.name))
        else:
            analyses.set_error("naming", AnalysisError(
                "trace %r records no job names; naming analysis unavailable"
                % (source.name,)))
    sample = None
    if "cluster_sample" in needed:
        sample = ClusterSampleConsumer.for_source(source, cluster_sample_cap, seed)
        if sample is None:
            analyses.set("cluster_sample", None)  # cluster the full source
        else:
            consumers.append(sample)
    if "features" in needed:
        consumers.append(FeatureMatrixConsumer())

    scan, analyses.resume, analyses.checkpoint_path = run_resumable_scan(
        source, consumers, executor=executor, resume_from=resume_from,
        checkpoint_to=checkpoint_to, meta={"workload": source.name})
    analyses.chunks_scanned = scan.chunks_scanned
    analyses.rows_scanned = scan.rows_scanned

    def adopt(key: str, consumer_name: str) -> bool:
        """Copy one consumer's result/error onto an analysis key."""
        error = scan.errors.get(consumer_name)
        if error is not None:
            analyses.set_error(key, error)
            return False
        if consumer_name in scan.results:
            analyses.set(key, scan.results[consumer_name])
            return True
        return False

    if wants_summary:
        adopt("summary", "summary")
    if "data_sizes" in needed:
        adopt("data_sizes", "data_sizes")
    _adopt_path_stats(analyses, scan, needed, "input")
    _adopt_path_stats(analyses, scan, needed, "output")
    if wants_reaccess:
        if adopt("reaccess", "reaccess"):
            reaccess = analyses.get("reaccess")
            analyses.set("reaccess_intervals", reaccess.intervals)
            if reaccess.fractions is not None:
                analyses.set("reaccess_fractions", reaccess.fractions)
            else:
                analyses.set_error("reaccess_fractions", AnalysisError(
                    "trace has no recorded input paths"))
        else:
            error = analyses.error("reaccess")
            analyses.set_error("reaccess_intervals", error)
            analyses.set_error("reaccess_fractions", error)
    if wants_hourly:
        _adopt_hourly(analyses, scan)
    if "naming" in needed and not analyses.has("naming"):
        adopt("naming", "naming")
    if sample is not None:
        adopt("cluster_sample", "cluster_sample")
    if "features" in needed:
        adopt("features", "features")
    return analyses


def workload_analyses(analyses: Optional[Dict[str, CharacterizationAnalyses]],
                      name: str, trace, experiment: str) -> CharacterizationAnalyses:
    """The bundle a table/figure builder reads for workload ``name``.

    The caller's ``analyses[name]`` when there is one; otherwise a scan of
    ``trace`` folding only what ``experiment`` needs.
    """
    if analyses is not None and name in analyses:
        return analyses[name]
    return run_characterization_scan(trace, experiments=[experiment])


def _adopt_path_stats(analyses: CharacterizationAnalyses, scan, needed: List[str],
                      kind: str) -> None:
    ranks_key = "%s_ranks" % kind
    profile_key = "%s_profile" % kind
    if ranks_key not in needed and profile_key not in needed:
        return
    consumer_name = "path_stats_%s" % kind
    error = scan.errors.get(consumer_name)
    if error is not None:
        if ranks_key in needed:
            analyses.set_error(ranks_key, error)
        if profile_key in needed:
            analyses.set_error(profile_key, error)
        return
    stats = scan.results.get(consumer_name)
    if stats is None:
        return
    if ranks_key in needed:
        _attempt(analyses, ranks_key, rank_frequencies_from_path_stats, stats)
    if profile_key in needed:
        _attempt(analyses, profile_key, profile_from_path_stats, stats)


def _adopt_hourly(analyses: CharacterizationAnalyses, scan) -> None:
    error = scan.errors.get("hourly")
    if error is None and "summary" in scan.errors:
        error = scan.errors["summary"]
    if error is not None:
        analyses.set_error("hourly", error)
        return
    summary = scan.results.get("summary")
    groups = scan.results.get("hourly")
    if summary is None or groups is None:
        return
    if summary.n_jobs == 0:
        analyses.set_error("hourly", AnalysisError(
            "cannot compute hourly dimensions of an empty trace"))
        return
    _attempt(analyses, "hourly", hourly_dimensions_from_groups,
             groups, summary.start_s, summary.end_s)


def _attempt(analyses: CharacterizationAnalyses, key: str, function, *args) -> None:
    try:
        analyses.set(key, function(*args))
    except AnalysisError as exc:
        analyses.set_error(key, exc)
