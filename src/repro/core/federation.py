"""Cross-store workload comparison: the seven-cluster argument as one call.

§7 of the paper puts seven clusters side by side and concludes that no single
workload is representative; §4.1 tracks one deployment across two yearly
snapshots.  :func:`compare_catalog` runs both studies store-natively over a
:class:`~repro.engine.catalog.StoreCatalog`: every member store is profiled
in one shared chunk scan (fanned over worker processes per member with a
:class:`~repro.engine.parallel.ParallelExecutor`, bit-identical to the serial
per-store walk), the per-member feature vectors feed the §7 pairwise
distances and greedy suite selection, and members of the same cluster are
chained epoch-over-epoch into §4.1 evolution reports.  The resulting
:class:`FederationReport` is what ``repro engine compare --catalog`` prints
and what the service daemon's ``/v1/catalog/compare`` endpoint serializes.

Features, distances and drift rows are keyed by **catalog member name** (not
the store's internal workload name), so two members ingested from the same
workload never collide in the distance lookup.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.catalog import CatalogEntry, StoreCatalog
from ..engine.federation import FederatedSource
from ..errors import AnalysisError
from .comparison import (
    FEATURE_NAMES,
    WorkloadFeatures,
    WorkloadSuite,
    features_from_profile,
    select_workload_suite,
    workload_distance,
)
from .datasizes import SIZE_DIMENSIONS
from .evolution import EvolutionReport, evolution_from_profiles
from .profile import (
    DEFAULT_SMALL_JOB_THRESHOLD_BYTES,
    WorkloadProfile,
    profile_consumers,
    profile_from_scan,
)
from .report import render_table

__all__ = ["PairComparison", "FederationReport", "compare_catalog"]


def _member_profile_consumers(source, member_name: str,
                              threshold: float = DEFAULT_SMALL_JOB_THRESHOLD_BYTES):
    """Module-level (picklable) consumer factory for federated profile scans."""
    return profile_consumers(source, member_name, threshold)


@dataclass
class PairComparison:
    """One focus pair of the cross-cluster comparison.

    Attributes:
        a / b: member names.
        distance: population-scaled feature distance (see
            :func:`~repro.core.comparison.workload_distance`).
        deltas: per-feature raw value difference, ``b - a``, in
            ``FEATURE_NAMES`` order.
    """

    a: str
    b: str
    distance: float
    deltas: Dict[str, float] = field(default_factory=dict)

    def top_deltas(self, n: int = 3) -> List[Tuple[str, float]]:
        """The ``n`` features that differ most (by absolute delta)."""
        ranked = sorted(self.deltas.items(),
                        key=lambda item: (-abs(item[1]), item[0]))
        return ranked[:n]


@dataclass
class FederationReport:
    """Everything one federated catalog comparison produced.

    Attributes:
        catalog_directory: the catalog root the members came from.
        members: the compared entries, in comparison order.
        profiles: per-member :class:`WorkloadProfile`, keyed by member name.
        features: per-member §7 feature vectors, keyed by member name.
        distances: full pairwise population-scaled distances keyed by
            ``(name, name)`` (symmetric, zero diagonal).
        pairs: the focus pairs (every unordered pair unless the caller
            narrowed them), with per-feature deltas.
        suite: greedy k-center representative suite, when one was requested.
        drift: per-cluster epoch-over-epoch §4.1 evolution chains, keyed by
            cluster name — only clusters with at least two compared epochs
            appear.
        small_job_threshold_bytes: threshold the small-job features used.
    """

    catalog_directory: str
    members: List[CatalogEntry]
    profiles: Dict[str, WorkloadProfile]
    features: Dict[str, WorkloadFeatures]
    distances: Dict[Tuple[str, str], float]
    pairs: List[PairComparison]
    suite: Optional[WorkloadSuite]
    drift: Dict[str, List[EvolutionReport]]
    small_job_threshold_bytes: float

    def member_names(self) -> List[str]:
        return [entry.name for entry in self.members]

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-safe form (the service endpoint and ``--json`` CLI output)."""
        members = []
        for entry in self.members:
            profile = self.profiles[entry.name]
            members.append({
                "name": entry.name,
                "cluster": entry.cluster,
                "epoch": entry.epoch,
                "n_jobs": profile.n_jobs,
                "small_job_fraction": profile.small_job_fraction,
                "map_only_fraction": profile.sizes.map_only_fraction,
                "peak_to_median": profile.burstiness.peak_to_median,
                "medians": {dimension: profile.sizes.median(dimension)
                            for dimension in SIZE_DIMENSIONS},
            })
        names = self.member_names()
        return {
            "catalog": self.catalog_directory,
            "small_job_threshold_bytes": self.small_job_threshold_bytes,
            "members": members,
            "features": {name: dict(self.features[name].values) for name in names},
            "distances": [{"a": a, "b": b, "distance": self.distances[(a, b)]}
                          for i, a in enumerate(names)
                          for b in names[i + 1:]],
            "pairs": [{"a": pair.a, "b": pair.b, "distance": pair.distance,
                       "deltas": dict(pair.deltas)} for pair in self.pairs],
            "suite": None if self.suite is None else {
                "selected": list(self.suite.selected),
                "coverage_radius": self.suite.coverage_radius,
                "assignment": dict(self.suite.assignment),
            },
            "drift": {cluster: [_evolution_to_dict(report) for report in chain]
                      for cluster, chain in self.drift.items()},
        }

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        """Human-readable report: members, distances, suite, drift."""
        sections: List[str] = []
        rows = []
        for entry in self.members:
            profile = self.profiles[entry.name]
            rows.append([
                entry.name, entry.cluster, entry.epoch or "-",
                "%d" % profile.n_jobs,
                _bytes_label(profile.sizes.median("input_bytes")),
                "%.1f%%" % (100 * profile.small_job_fraction),
                "%.1f%%" % (100 * profile.sizes.map_only_fraction),
                "%.0f:1" % profile.burstiness.peak_to_median,
            ])
        sections.append(render_table(
            ["member", "cluster", "epoch", "jobs", "median input",
             "small jobs", "map-only", "peak:median"],
            rows,
            title="Federated comparison over %d member stores (%s)"
                  % (len(self.members), self.catalog_directory)))

        pair_rows = []
        for pair in self.pairs:
            top = ", ".join("%s %+.2f" % (name, delta)
                            for name, delta in pair.top_deltas(3))
            pair_rows.append([pair.a, pair.b, "%.3f" % pair.distance, top])
        if pair_rows:
            sections.append(render_table(
                ["A", "B", "distance", "largest feature deltas (B - A)"],
                pair_rows, title="Cross-cluster distances (population-scaled)"))

        if self.suite is not None:
            lines = ["Representative suite (greedy k-center):"]
            lines.append("  selected: %s" % ", ".join(self.suite.selected))
            lines.append("  coverage radius: %.3f" % self.suite.coverage_radius)
            for name in self.member_names():
                lines.append("  %s -> %s" % (name, self.suite.assignment[name]))
            sections.append("\n".join(lines))

        if self.drift:
            lines = ["Epoch-over-epoch drift:"]
            for cluster in sorted(self.drift):
                for report in self.drift[cluster]:
                    lines.extend(report.summary_lines())
            sections.append("\n".join(lines))
        else:
            sections.append("Epoch-over-epoch drift: no cluster has two or "
                            "more compared epochs")
        return "\n\n".join(sections)


def _bytes_label(value: float) -> str:
    for unit, scale in (("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if value >= scale:
            return "%.1f %s" % (value / scale, unit)
    return "%.0f B" % value


def _evolution_to_dict(report: EvolutionReport) -> Dict:
    return {
        "before": report.before_name,
        "after": report.after_name,
        "shifts": {dimension: {
            "median_before": shift.median_before,
            "median_after": shift.median_after,
            "orders_of_magnitude": shift.orders_of_magnitude,
        } for dimension, shift in report.shifts.items()},
        "peak_to_median_before": report.peak_to_median_before,
        "peak_to_median_after": report.peak_to_median_after,
        "burstiness_reduction": report.burstiness_reduction,
        "small_job_fraction_before": report.small_job_fraction_before,
        "small_job_fraction_after": report.small_job_fraction_after,
        "map_only_fraction_before": report.map_only_fraction_before,
        "map_only_fraction_after": report.map_only_fraction_after,
        "job_count_growth": report.job_count_growth,
        "summary": report.summary_lines(),
    }


def _epoch_chains(members: Sequence[CatalogEntry]) -> Dict[str, List[CatalogEntry]]:
    """Per-cluster members in epoch order (lexicographic; no-epoch first),
    for every cluster with at least two."""
    chains: Dict[str, List[CatalogEntry]] = {}
    for entry in members:
        chains.setdefault(entry.cluster, []).append(entry)
    ordered = {}
    for cluster, entries in chains.items():
        entries = sorted(entries, key=lambda entry: (entry.epoch is not None,
                                                     entry.epoch or "", entry.name))
        if len(entries) >= 2:
            ordered[cluster] = entries
    return ordered


def compare_catalog(catalog, members: Optional[Sequence[str]] = None,
                    pairs: Optional[Sequence[Tuple[str, str]]] = None,
                    suite_size: Optional[int] = None,
                    small_job_threshold_bytes: float = DEFAULT_SMALL_JOB_THRESHOLD_BYTES,
                    executor=None, checkpoint_dir: Optional[str] = None,
                    profiles: Optional[Dict[str, WorkloadProfile]] = None) -> FederationReport:
    """Compare every member store of a catalog in one federated pass.

    Args:
        catalog: a :class:`StoreCatalog`, :class:`FederatedSource`, or a
            catalog directory path.
        members: member names to compare (default: every catalog member).
            Needs at least two.
        pairs: focus pairs to detail with per-feature deltas (default: every
            unordered pair of the compared members).
        suite_size: when given, also select a representative suite of this
            size by greedy k-center.
        small_job_threshold_bytes: threshold of the small-job features.
        executor: optional :class:`~repro.engine.parallel.ParallelExecutor`
            profiling members in parallel, one member per worker task.
            Results are bit-identical to the serial walk.
        checkpoint_dir: per-member profile checkpoints live here
            (``<dir>/<member>.checkpoint.json``); reruns after appends fold
            only the new chunks per member.
        profiles: precomputed per-member profiles keyed by member name (the
            service daemon passes profiles computed under shared-scan
            admission); members without one are profiled here.

    Raises:
        AnalysisError: for fewer than two members, an unknown pair name, or
            an empty member store.
    """
    if isinstance(catalog, FederatedSource):
        federated = catalog if members is None else FederatedSource(
            [catalog.entry(name) for name in members])
        catalog_directory = os.path.commonpath(
            [entry.directory for entry in federated.members]) if federated.members else ""
    else:
        if not isinstance(catalog, StoreCatalog):
            catalog = StoreCatalog(os.fspath(catalog))
        catalog_directory = catalog.directory
        federated = FederatedSource.from_catalog(catalog, names=members)

    names = federated.names()
    if len(names) < 2:
        raise AnalysisError(
            "federated comparison needs at least two member stores "
            "(catalog %s has %d)" % (catalog_directory, len(names)))

    have = dict(profiles or {})
    missing = [entry for entry in federated.members if entry.name not in have]
    if missing:
        factory = functools.partial(_member_profile_consumers,
                                    threshold=small_job_threshold_bytes)
        scans = FederatedSource(missing).scan(factory, executor=executor,
                                              checkpoint_dir=checkpoint_dir)
        for name, scan in scans.items():
            profile = profile_from_scan(scan.result, name, small_job_threshold_bytes)
            profile.resume = scan.resume
            profile.checkpoint_path = scan.checkpoint_path
            have[name] = profile
    member_profiles = {name: have[name] for name in names}

    features = {name: features_from_profile(member_profiles[name]) for name in names}
    population = [features[name] for name in names]
    distances = {(a, b): workload_distance(features[a], features[b], population)
                 for a in names for b in names}

    if pairs is None:
        focus = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    else:
        focus = []
        for a, b in pairs:
            for name in (a, b):
                if name not in features:
                    raise AnalysisError(
                        "unknown member %r in comparison pair %s,%s (have: %s)"
                        % (name, a, b, ", ".join(names)))
            focus.append((a, b))
    pair_reports = []
    for a, b in focus:
        deltas = {feature: features[b].values[feature] - features[a].values[feature]
                  for feature in FEATURE_NAMES}
        pair_reports.append(PairComparison(a=a, b=b, distance=distances[(a, b)],
                                           deltas=deltas))

    suite = (select_workload_suite(population, suite_size)
             if suite_size is not None else None)

    drift: Dict[str, List[EvolutionReport]] = {}
    for cluster, chain in _epoch_chains(federated.members).items():
        reports = []
        for earlier, later in zip(chain, chain[1:]):
            reports.append(evolution_from_profiles(member_profiles[earlier.name],
                                                   member_profiles[later.name]))
        drift[cluster] = reports

    return FederationReport(
        catalog_directory=catalog_directory,
        members=list(federated.members),
        profiles=member_profiles,
        features=features,
        distances=distances,
        pairs=pair_reports,
        suite=suite,
        drift=drift,
        small_job_threshold_bytes=float(small_job_threshold_bytes),
    )
