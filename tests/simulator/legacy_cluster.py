"""The per-node slot model of the legacy replay loop.

:class:`Cluster` places each task on a node with a rotating cursor and keeps
per-node occupancy counters; the vectorized engine replaced it with the
aggregate :class:`~repro.simulator.cluster.SlotLedger`, because no replay
metric observes which node ran a task.  The differential oracle in
``legacy_replay.py`` still runs on this model, so it lives beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SimulationError
from repro.simulator.cluster import ClusterConfig

__all__ = ["Node", "Cluster"]


@dataclass
class Node:
    """One worker node with its slot occupancy counters."""

    node_id: int
    map_slots: int
    reduce_slots: int
    busy_map_slots: int = 0
    busy_reduce_slots: int = 0

    @property
    def free_map_slots(self) -> int:
        return self.map_slots - self.busy_map_slots

    @property
    def free_reduce_slots(self) -> int:
        return self.reduce_slots - self.busy_reduce_slots

    def acquire(self, kind: str) -> None:
        """Occupy one slot of ``kind`` ('map' or 'reduce')."""
        if kind == "map":
            if self.free_map_slots <= 0:
                raise SimulationError("node %d has no free map slots" % self.node_id)
            self.busy_map_slots += 1
        elif kind == "reduce":
            if self.free_reduce_slots <= 0:
                raise SimulationError("node %d has no free reduce slots" % self.node_id)
            self.busy_reduce_slots += 1
        else:
            raise SimulationError("unknown slot kind %r" % (kind,))

    def release(self, kind: str) -> None:
        """Release one slot of ``kind``."""
        if kind == "map":
            if self.busy_map_slots <= 0:
                raise SimulationError("node %d released a map slot it did not hold" % self.node_id)
            self.busy_map_slots -= 1
        elif kind == "reduce":
            if self.busy_reduce_slots <= 0:
                raise SimulationError("node %d released a reduce slot it did not hold" % self.node_id)
            self.busy_reduce_slots -= 1
        else:
            raise SimulationError("unknown slot kind %r" % (kind,))


class Cluster:
    """Slot accounting over a set of nodes.

    Slot acquisition uses a least-loaded-node policy, which spreads tasks
    evenly — the behaviour the default Hadoop scheduler approximates with its
    per-heartbeat assignment.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.nodes: List[Node] = [
            Node(node_id=index, map_slots=config.map_slots_per_node,
                 reduce_slots=config.reduce_slots_per_node)
            for index in range(config.n_nodes)
        ]
        # Aggregate busy counters keep free_slots()/utilization() O(1); the
        # per-node counters stay authoritative for placement decisions.
        self._busy = {"map": 0, "reduce": 0}
        self._cursor = {"map": 0, "reduce": 0}

    # ------------------------------------------------------------------
    def free_slots(self, kind: str) -> int:
        """Total free slots of ``kind`` across the cluster."""
        return self._capacity(kind) - self.busy_slots(kind)

    def busy_slots(self, kind: str) -> int:
        """Total busy slots of ``kind`` across the cluster."""
        if kind not in self._busy:
            raise SimulationError("unknown slot kind %r" % (kind,))
        return self._busy[kind]

    def _capacity(self, kind: str) -> int:
        if kind == "map":
            return self.config.total_map_slots
        if kind == "reduce":
            return self.config.total_reduce_slots
        raise SimulationError("unknown slot kind %r" % (kind,))

    def total_busy_slots(self) -> int:
        return self._busy["map"] + self._busy["reduce"]

    def utilization(self) -> float:
        """Fraction of all slots currently busy."""
        return self.total_busy_slots() / self.config.total_slots

    def acquire_slot(self, kind: str) -> Optional[Node]:
        """Acquire one slot of ``kind`` using a rotating-cursor placement.

        The cursor spreads consecutive tasks across nodes (approximating the
        per-heartbeat round-robin of the Hadoop JobTracker) while keeping the
        operation O(1) amortized.  Returns the node, or ``None`` when no slot
        of that kind is free.
        """
        if self.free_slots(kind) <= 0:
            return None
        n_nodes = len(self.nodes)
        start = self._cursor[kind]
        for offset in range(n_nodes):
            node = self.nodes[(start + offset) % n_nodes]
            free = node.free_map_slots if kind == "map" else node.free_reduce_slots
            if free > 0:
                node.acquire(kind)
                self._busy[kind] += 1
                self._cursor[kind] = (start + offset + 1) % n_nodes
                return node
        return None  # pragma: no cover - free_slots() > 0 guarantees a hit

    def release_slot(self, node: Node, kind: str) -> None:
        """Release a slot previously acquired on ``node``."""
        node.release(kind)
        if self._busy[kind] <= 0:
            raise SimulationError("released a %s slot that was not acquired" % kind)
        self._busy[kind] -= 1
