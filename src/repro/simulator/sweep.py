"""Scenario sweeps: fan a grid of replay configurations out in parallel.

The paper's evaluation questions are comparative — FIFO vs fair scheduling
(§6.2), cache admission/eviction policies (§4.2/§4.3), cluster sizings — and
each cell of such a comparison is one independent replay of the same trace.
:class:`ScenarioSweep` runs a list (or a cross-product grid) of
:class:`Scenario` configurations against one trace source, fanning the
replays out over the engine's :class:`~repro.engine.parallel.ParallelExecutor`
process pool, and merges the per-scenario metric summaries into a single
comparison report.

Scenarios are plain picklable specs — scheduler/cache/cluster are named and
parameterized, not instantiated — so only the spec and the store *directory*
cross the process boundary; each worker opens the chunked store itself and
streams it with bounded memory through a
:class:`~repro.simulator.replay.StreamingReplayer`.

Spec files (``repro replay --sweep sweep.json``) accept either an explicit
scenario list, a grid to cross-multiply, or both::

    {
      "grid": {
        "schedulers": ["fifo", "fair"],
        "caches": [{"cache": "none"},
                   {"cache": "lru", "cache_gb": 512}],
        "nodes": [100]
      },
      "scenarios": [
        {"name": "capacity-tier", "scheduler": "capacity",
         "scheduler_kwargs": {"interactive_share": 0.3}, "cache": "none"}
      ]
    }

Doctest — a grid crosses every scheduler with every cache::

    >>> scenarios = expand_grid({"schedulers": ["fifo", "fair"],
    ...                          "caches": [{"cache": "none"},
    ...                                     {"cache": "lru", "cache_gb": 1}]})
    >>> [scenario.name for scenario in scenarios]
    ['fifo/none', 'fifo/lru', 'fair/none', 'fair/lru']
    >>> scenarios[3].build_replayer().scheduler.__class__.__name__
    'FairScheduler'
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..core.report import render_table
from ..engine.parallel import ParallelExecutor
from ..errors import SimulationError
from ..traces.trace import Trace
from .cache import (CachePolicy, LfuCache, LruCache, NoCache,
                    SizeThresholdCache, UnlimitedCache)
from .cluster import ClusterConfig
from .metrics import SimulationMetrics
from .replay import DEFAULT_LOOKAHEAD, StreamingReplayer
from .scheduler import CapacityScheduler, FairScheduler, FifoScheduler, Scheduler

__all__ = [
    "Scenario",
    "ScenarioOutcome",
    "ScenarioSweep",
    "SweepResult",
    "expand_grid",
    "load_sweep_spec",
    "SCHEDULER_NAMES",
    "CACHE_NAMES",
]

GB = 1e9

#: Scheduler spec names accepted by :class:`Scenario`.
SCHEDULER_NAMES = ("fifo", "fair", "capacity")

#: Cache-policy spec names accepted by :class:`Scenario`.
CACHE_NAMES = ("none", "unlimited", "lru", "lfu", "size-threshold")


@dataclass
class Scenario:
    """One cell of a sweep: a named (scheduler × cache × cluster) combination.

    Attributes:
        name: label used in the comparison report.
        scheduler: one of :data:`SCHEDULER_NAMES`.
        scheduler_kwargs: extra constructor arguments (e.g.
            ``interactive_share`` for the capacity scheduler; its slot totals
            are filled in from the cluster config automatically).
        cache: one of :data:`CACHE_NAMES`.
        cache_gb: capacity in GB for the capacity-bounded policies.
        cache_kwargs: extra cache constructor arguments (e.g.
            ``size_threshold_bytes``).
        nodes / map_slots_per_node / reduce_slots_per_node: cluster sizing.
        max_jobs: optional cap on replayed jobs.
        lookahead: streaming submission look-ahead.
        shards: time-window shard count for the replay (0 or 1 = unsharded).
        shard_mode: ``"exact"`` (bit-identical, single engine) or
            ``"windowed"`` (parallel windows, approximate contention); see
            :class:`~repro.simulator.sharded.ShardedReplayer`.
    """

    name: str
    scheduler: str = "fifo"
    scheduler_kwargs: Dict = field(default_factory=dict)
    cache: str = "none"
    cache_gb: float = 1024.0
    cache_kwargs: Dict = field(default_factory=dict)
    nodes: int = 100
    map_slots_per_node: int = 4
    reduce_slots_per_node: int = 2
    max_jobs: Optional[int] = None
    lookahead: int = DEFAULT_LOOKAHEAD
    shards: int = 0
    shard_mode: str = "exact"

    # -- factories ---------------------------------------------------------
    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(n_nodes=self.nodes,
                             map_slots_per_node=self.map_slots_per_node,
                             reduce_slots_per_node=self.reduce_slots_per_node)

    def build_scheduler(self) -> Scheduler:
        if self.scheduler == "fifo":
            return FifoScheduler(**self.scheduler_kwargs)
        if self.scheduler == "fair":
            return FairScheduler(**self.scheduler_kwargs)
        if self.scheduler == "capacity":
            config = self.cluster_config()
            return CapacityScheduler(total_map_slots=config.total_map_slots,
                                     total_reduce_slots=config.total_reduce_slots,
                                     **self.scheduler_kwargs)
        raise SimulationError("unknown scheduler %r (supported: %s)"
                              % (self.scheduler, ", ".join(SCHEDULER_NAMES)))

    def build_cache(self) -> CachePolicy:
        capacity = float(self.cache_gb) * GB
        if self.cache == "none":
            return NoCache(**self.cache_kwargs)
        if self.cache == "unlimited":
            return UnlimitedCache(**self.cache_kwargs)
        if self.cache == "lru":
            return LruCache(capacity_bytes=capacity, **self.cache_kwargs)
        if self.cache == "lfu":
            return LfuCache(capacity_bytes=capacity, **self.cache_kwargs)
        if self.cache == "size-threshold":
            return SizeThresholdCache(capacity_bytes=capacity, **self.cache_kwargs)
        raise SimulationError("unknown cache policy %r (supported: %s)"
                              % (self.cache, ", ".join(CACHE_NAMES)))

    def build_replayer(self) -> StreamingReplayer:
        """Instantiate a fresh bounded-memory replayer for this scenario.

        ``shards > 1`` returns a :class:`ShardedReplayer`; windowed shards
        inside a sweep cell run serially (``processes=1``) so the sweep's own
        process fan-out stays the only pool.
        """
        if self.shards and self.shards > 1:
            from .sharded import ShardedReplayer

            return ShardedReplayer(cluster_config=self.cluster_config(),
                                   scheduler=self.build_scheduler(),
                                   cache=self.build_cache(),
                                   max_simulated_jobs=self.max_jobs,
                                   lookahead=self.lookahead,
                                   shards=self.shards,
                                   mode=self.shard_mode,
                                   processes=1)
        return StreamingReplayer(cluster_config=self.cluster_config(),
                                 scheduler=self.build_scheduler(),
                                 cache=self.build_cache(),
                                 max_simulated_jobs=self.max_jobs,
                                 lookahead=self.lookahead)

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "scheduler": self.scheduler,
            "scheduler_kwargs": dict(self.scheduler_kwargs),
            "cache": self.cache,
            "cache_gb": self.cache_gb,
            "cache_kwargs": dict(self.cache_kwargs),
            "nodes": self.nodes,
            "map_slots_per_node": self.map_slots_per_node,
            "reduce_slots_per_node": self.reduce_slots_per_node,
            "max_jobs": self.max_jobs,
            "lookahead": self.lookahead,
            "shards": self.shards,
            "shard_mode": self.shard_mode,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise SimulationError("unknown scenario fields %s (known: %s)"
                                  % (sorted(unknown), sorted(known)))
        if "name" not in data:
            data = dict(data)
            data["name"] = "%s/%s" % (data.get("scheduler", "fifo"),
                                      data.get("cache", "none"))
        return cls(**data)


def _axis_labels(specs: List[Dict], key: str, default: str, detail) -> List[str]:
    """Unique display label per axis entry.

    Entries sharing the same ``key`` name (e.g. two ``lru`` caches with
    different capacities) get the ``detail`` suffix appended; any labels
    still colliding after that get a ``#k`` counter.
    """
    bases = [str(spec.get(key, default)) for spec in specs]
    labels = []
    for spec, base in zip(specs, bases):
        extra = detail(spec) if bases.count(base) > 1 else None
        labels.append("%s-%s" % (base, extra) if extra else base)
    seen: Dict[str, int] = {}
    unique = []
    for label in labels:
        seen[label] = seen.get(label, 0) + 1
        unique.append(label if seen[label] == 1 else "%s#%d" % (label, seen[label]))
    return unique


def expand_grid(grid: Dict) -> List[Scenario]:
    """Cross-multiply a grid spec into concrete scenarios.

    Grid keys: ``schedulers`` (names or dicts with ``scheduler``/
    ``scheduler_kwargs``), ``caches`` (names or dicts with ``cache``/
    ``cache_gb``/``cache_kwargs``), ``nodes`` (ints).  Missing axes default
    to a single FIFO / no-cache / 100-node cell.  Scenario names are
    ``scheduler/cache[/nodes]`` (nodes suffixed only when that axis varies);
    axis entries that repeat a policy name — a cache-sizing sweep, say — are
    disambiguated with the capacity (``lru-512GB``) or a ``#k`` counter.
    """
    schedulers = grid.get("schedulers", ["fifo"])
    caches = grid.get("caches", ["none"])
    nodes_axis = grid.get("nodes", [100])
    sched_specs = [{"scheduler": s} if isinstance(s, str) else dict(s)
                   for s in schedulers]
    cache_specs = [{"cache": c} if isinstance(c, str) else dict(c)
                   for c in caches]
    sched_labels = _axis_labels(sched_specs, "scheduler", "fifo",
                                lambda spec: None)
    cache_labels = _axis_labels(cache_specs, "cache", "none",
                                lambda spec: "%gGB" % float(spec.get("cache_gb", 1024.0)))
    scenarios: List[Scenario] = []
    for sched_label, sched_spec in zip(sched_labels, sched_specs):
        for cache_label, cache_spec in zip(cache_labels, cache_specs):
            for nodes in nodes_axis:
                spec = dict(sched_spec)
                spec.update(cache_spec)
                spec["nodes"] = int(nodes)
                name = "%s/%s" % (sched_label, cache_label)
                if len(nodes_axis) > 1:
                    name += "/%dn" % int(nodes)
                spec.setdefault("name", name)
                scenarios.append(Scenario.from_dict(spec))
    return scenarios


def load_sweep_spec(spec: Union[str, Dict]) -> List[Scenario]:
    """Load scenarios from a JSON file path or an already-parsed dict.

    The spec may carry a ``grid`` (cross-multiplied), an explicit
    ``scenarios`` list, or both (grid cells first).

    Raises:
        SimulationError: when the spec is unreadable or yields no scenarios.
    """
    if isinstance(spec, str):
        try:
            with open(spec, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SimulationError("cannot read sweep spec %s: %s" % (spec, exc))
    if not isinstance(spec, dict):
        raise SimulationError("sweep spec must be a JSON object, got %r" % type(spec).__name__)
    scenarios: List[Scenario] = []
    if "grid" in spec:
        scenarios.extend(expand_grid(spec["grid"]))
    for entry in spec.get("scenarios", []):
        scenarios.append(Scenario.from_dict(entry))
    if not scenarios:
        raise SimulationError("sweep spec defines no scenarios "
                              "(provide 'grid' and/or 'scenarios')")
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise SimulationError("duplicate scenario names in sweep spec: %s"
                              % sorted({n for n in names if names.count(n) > 1}))
    return scenarios


@dataclass
class ScenarioOutcome:
    """Result of one scenario's replay."""

    scenario: Scenario
    metrics: SimulationMetrics

    @property
    def summary(self) -> Dict[str, float]:
        return self.metrics.summary()


@dataclass
class SweepResult:
    """All scenario outcomes of one sweep, with a comparison report."""

    outcomes: List[ScenarioOutcome]

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, name: str) -> ScenarioOutcome:
        for outcome in self.outcomes:
            if outcome.scenario.name == name:
                return outcome
        raise KeyError(name)

    def render(self) -> str:
        """Side-by-side comparison table of all scenarios."""
        headers = ["scenario", "jobs", "finished", "mean wait s", "p95 wait s",
                   "p50 compl s", "p99 compl s", "util %", "cache hit %"]
        rows = []
        for outcome in self.outcomes:
            summary = outcome.summary
            cache_hit = summary.get("cache_hit_rate")
            rows.append([
                outcome.scenario.name,
                "%d" % summary["jobs"],
                "%d" % summary["finished_jobs"],
                "%.1f" % summary["mean_wait_s"],
                "%.1f" % summary["p95_wait_s"],
                "%.1f" % summary["p50_completion_s"],
                "%.1f" % summary["p99_completion_s"],
                "%.1f" % (100.0 * summary["mean_utilization"]),
                "-" if cache_hit is None else "%.1f" % (100.0 * cache_hit),
            ])
        return render_table(headers, rows, title="scenario sweep")

    def to_json(self, indent: Optional[int] = None) -> str:
        payload = [
            {"scenario": outcome.scenario.to_dict(), "summary": outcome.summary}
            for outcome in self.outcomes
        ]
        return json.dumps(payload, indent=indent, sort_keys=True)


def _run_store_scenario(task) -> SimulationMetrics:
    """Worker entry point: open the store and stream one scenario's replay."""
    store_directory, scenario_dict = task
    scenario = Scenario.from_dict(scenario_dict)
    return scenario.build_replayer().replay_store(store_directory)


class ScenarioSweep:
    """Run a set of scenarios against one trace source and compare them.

    Args:
        scenarios: the cells to run (see :func:`load_sweep_spec` /
            :func:`expand_grid`).
        executor: the :class:`~repro.engine.parallel.ParallelExecutor` to fan
            store-backed sweeps out with; a default (cpu-count) executor when
            omitted.
    """

    def __init__(self, scenarios: Sequence[Scenario],
                 executor: Optional[ParallelExecutor] = None):
        self.scenarios = list(scenarios)
        if not self.scenarios:
            raise SimulationError("a sweep needs at least one scenario")
        self.executor = executor or ParallelExecutor()

    def run(self, source) -> SweepResult:
        """Replay every scenario against ``source``.

        ``source`` may be a chunked-store directory (or
        :class:`~repro.engine.store.ChunkedTraceStore`) — replayed with
        bounded memory and fanned out over worker processes — or an
        in-memory :class:`~repro.traces.trace.Trace`, replayed serially.
        """
        from ..engine.store import ChunkedTraceStore

        if isinstance(source, Trace):
            metrics_list = [
                scenario.build_replayer().replay(source)
                for scenario in self.scenarios
            ]
        else:
            directory = source.directory if isinstance(source, ChunkedTraceStore) else str(source)
            # Validate the store up front so a bad path fails fast, once.
            ChunkedTraceStore(directory)
            tasks = [(directory, scenario.to_dict()) for scenario in self.scenarios]
            metrics_list = self.executor.map(_run_store_scenario, tasks)
        return SweepResult(outcomes=[
            ScenarioOutcome(scenario=scenario, metrics=metrics)
            for scenario, metrics in zip(self.scenarios, metrics_list)
        ])
