"""Federated scans: N member stores, per-store consumer states, one API.

The paper's closing argument (§7) compares seven clusters side by side; this
module is the engine seam that makes such multi-store analyses first-class.
A :class:`FederatedSource` holds an ordered set of catalog members and runs
the existing :class:`~repro.engine.pipeline.ScanPipeline` contract **per
member** — every member store gets its own fresh consumer states, its own
chunk order, and (optionally) its own resumable checkpoint — so per-member
results are bit-identical to scanning each store alone, serial or parallel.

Member scans fan out over worker processes via
:class:`~repro.engine.parallel.ParallelExecutor` (one member per task; each
worker re-opens the member it was handed through
:func:`~repro.engine.parallel.get_worker_store`).  Point and top-k lookups
ride the PR-9 cost-aware planner per member through :meth:`FederatedSource.query`
— index sidecars are consulted member by member, and a stale sidecar on one
member degrades only that member to a scan (the planner's lenient path).
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError, TraceFormatError
from .catalog import CatalogEntry, StoreCatalog
from .parallel import get_worker_store
from .pipeline import PipelineResult, run_resumable_scan, scan_with_rolling_checkpoint
from .planner import execute_planned
from .source import TraceSource

__all__ = ["FederatedSource", "MemberScan"]


class MemberScan:
    """One member's share of a federated scan.

    Attributes:
        name: the catalog member name.
        result: the member's :class:`~repro.engine.pipeline.PipelineResult`
            (per-consumer results/errors, decode counters).
        resume: the member's checkpoint-resume report, or ``None`` for a cold
            scan (see :func:`~repro.engine.pipeline.run_resumable_scan`).
        checkpoint_path: where the member's fresh checkpoint was saved, if
            checkpointing was requested.
    """

    def __init__(self, name: str, result: PipelineResult,
                 resume: Optional[Dict[str, object]] = None,
                 checkpoint_path: Optional[str] = None):
        self.name = name
        self.result = result
        self.resume = resume
        self.checkpoint_path = checkpoint_path


def _member_checkpoint_path(checkpoint_dir: str, name: str) -> str:
    return os.path.join(checkpoint_dir, "%s.checkpoint.json" % (name,))


def _scan_member(task: Tuple) -> MemberScan:
    """Scan one member store; runs in a worker process (or inline, serially).

    The task carries only picklable payloads: the member name and directory,
    a module-level consumer factory, and the member's checkpoint path, which
    rolls under :func:`~repro.engine.pipeline.scan_with_rolling_checkpoint`:
    a member that was rewritten rather than appended to scans cold instead of
    failing the whole federation.
    """
    name, directory, factory, checkpoint_dir = task
    store = get_worker_store(directory)
    source = TraceSource.wrap(store)
    consumers = factory(source, name)
    checkpoint_path = (None if checkpoint_dir is None
                       else _member_checkpoint_path(checkpoint_dir, name))
    merged, report, saved = scan_with_rolling_checkpoint(
        functools.partial(run_resumable_scan, source, consumers,
                          meta={"member": name}),
        checkpoint_path)
    return MemberScan(name, merged, resume=report, checkpoint_path=saved)


class FederatedSource:
    """An ordered set of member stores scanned through one pipeline contract.

    Construct from a :class:`~repro.engine.catalog.StoreCatalog` (or a catalog
    directory path) via :meth:`from_catalog`, or directly from
    :class:`~repro.engine.catalog.CatalogEntry` instances.  Members keep
    their catalog order (member-name sorted) unless an explicit ``names``
    selection reorders them.
    """

    def __init__(self, members: Sequence[CatalogEntry]):
        self.members: List[CatalogEntry] = list(members)
        seen = set()
        for entry in self.members:
            if entry.name in seen:
                raise TraceFormatError("federated source has two members named %r"
                                       % (entry.name,))
            seen.add(entry.name)

    @classmethod
    def from_catalog(cls, catalog, names: Optional[Sequence[str]] = None) -> "FederatedSource":
        """A federated view over a catalog (or catalog directory path).

        Raises:
            TraceFormatError: for an unknown member name.
        """
        if not isinstance(catalog, StoreCatalog):
            catalog = StoreCatalog(os.fspath(catalog))
        if names is None:
            members = catalog.members()
        else:
            members = [catalog.entry(name) for name in names]
        return cls(members)

    def names(self) -> List[str]:
        return [entry.name for entry in self.members]

    def __len__(self) -> int:
        return len(self.members)

    def entry(self, name: str) -> CatalogEntry:
        for member in self.members:
            if member.name == name:
                return member
        raise TraceFormatError(
            "federated source has no member named %r (have: %s)"
            % (name, ", ".join(self.names()) or "<none>"))

    def source(self, name: str) -> TraceSource:
        """A :class:`TraceSource` over one member's current store handle."""
        return TraceSource.wrap(self.entry(name).open())

    def scan(self, consumer_factory: Callable, executor=None,
             checkpoint_dir: Optional[str] = None) -> Dict[str, MemberScan]:
        """Run one shared scan per member, each with fresh consumer states.

        Args:
            consumer_factory: ``factory(source, member_name) -> [consumers]``
                building a fresh consumer list per member.  Must be a
                module-level (picklable) callable when ``executor`` fans
                members out over worker processes.
            executor: optional :class:`~repro.engine.parallel.ParallelExecutor`
                running one member per worker task.  The serial path runs the
                identical per-member code, so results are bit-identical.
            checkpoint_dir: when given, each member resumes from (and rolls
                forward) ``<dir>/<member>.checkpoint.json`` — appends since
                the last scan fold only the new chunks, bit-identical to a
                cold rescan.  A checkpoint that no longer validates falls
                back to a cold scan for that member only.

        Raises:
            AnalysisError: when the federation has no members.
        """
        if not self.members:
            raise AnalysisError("federated scan needs at least one member store")
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
        tasks = [(entry.name, entry.directory, consumer_factory, checkpoint_dir)
                 for entry in self.members]
        if executor is None:
            scans = [_scan_member(task) for task in tasks]
        else:
            scans = executor.map(_scan_member, tasks)
        return {scan.name: scan for scan in scans}

    def query(self, query, names: Optional[Sequence[str]] = None,
              use_index: bool = True) -> Dict[str, object]:
        """Run one engine query per member through the cost-aware planner.

        Each member consults its own index sidecar (stale sidecars degrade
        that member to a scan — the planner's lenient path) and returns its
        own :class:`~repro.engine.operators.QueryResult` with the chosen
        :class:`~repro.engine.planner.Plan` attached.
        """
        selected = self.members if names is None else [self.entry(name) for name in names]
        return {entry.name: execute_planned(entry.open(), query, use_index=use_index)
                for entry in selected}

    def info(self) -> List[Dict]:
        """Per-member store metadata (with catalog name / cluster / epoch)."""
        return [entry.info() for entry in self.members]
