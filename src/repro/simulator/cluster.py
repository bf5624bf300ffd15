"""Cluster model: the cluster configuration and slot accounting.

Hadoop clusters of the paper's era expose capacity as fixed numbers of map and
reduce *slots* per node (TaskTracker); a job's tasks occupy slots for their
duration and the cluster utilization figures in Figure 7 count active slots.
:class:`SlotLedger` keeps that accounting; the scheduler decides which queued
tasks get the free slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError

__all__ = ["ClusterConfig", "SlotLedger"]


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of a simulated cluster.

    Attributes:
        n_nodes: number of worker nodes.
        map_slots_per_node: concurrent map tasks a node can run.
        reduce_slots_per_node: concurrent reduce tasks a node can run.
        disk_bandwidth_bps: per-node disk bandwidth (used by the HDFS model).
        network_bandwidth_bps: per-node network bandwidth (used for shuffle).
    """

    n_nodes: int = 100
    map_slots_per_node: int = 4
    reduce_slots_per_node: int = 2
    disk_bandwidth_bps: float = 100e6
    network_bandwidth_bps: float = 125e6

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise SimulationError("cluster needs at least one node")
        if self.map_slots_per_node <= 0 or self.reduce_slots_per_node <= 0:
            raise SimulationError("slots per node must be positive")
        if self.disk_bandwidth_bps <= 0 or self.network_bandwidth_bps <= 0:
            raise SimulationError("bandwidths must be positive")

    @property
    def total_map_slots(self) -> int:
        return self.n_nodes * self.map_slots_per_node

    @property
    def total_reduce_slots(self) -> int:
        return self.n_nodes * self.reduce_slots_per_node

    @property
    def total_slots(self) -> int:
        return self.total_map_slots + self.total_reduce_slots


class SlotLedger:
    """Aggregate busy/free slot counters without per-node placement.

    The vectorized replay engine tracks slot occupancy with two integers per
    slot kind.  This is exact for every recorded metric: nothing the replayer
    measures (wait times, completion times, active-slot counts) observes
    *which* node ran a task — only how many slots of each kind are busy.
    """

    __slots__ = ("map_capacity", "reduce_capacity", "busy_map", "busy_reduce")

    def __init__(self, config: ClusterConfig):
        self.map_capacity = config.total_map_slots
        self.reduce_capacity = config.total_reduce_slots
        self.busy_map = 0
        self.busy_reduce = 0

    def free_slots(self, kind: str) -> int:
        if kind == "map":
            return self.map_capacity - self.busy_map
        if kind == "reduce":
            return self.reduce_capacity - self.busy_reduce
        raise SimulationError("unknown slot kind %r" % (kind,))

    def acquire(self, kind: str, count: int = 1) -> None:
        """Occupy ``count`` slots of ``kind``."""
        if kind == "map":
            self.busy_map += count
            if self.busy_map > self.map_capacity:
                raise SimulationError("acquired more map slots than exist")
        elif kind == "reduce":
            self.busy_reduce += count
            if self.busy_reduce > self.reduce_capacity:
                raise SimulationError("acquired more reduce slots than exist")
        else:
            raise SimulationError("unknown slot kind %r" % (kind,))

    def release(self, kind: str, count: int = 1) -> None:
        """Release ``count`` slots of ``kind``."""
        if kind == "map":
            self.busy_map -= count
            if self.busy_map < 0:
                raise SimulationError("released a map slot that was not acquired")
        elif kind == "reduce":
            self.busy_reduce -= count
            if self.busy_reduce < 0:
                raise SimulationError("released a reduce slot that was not acquired")
        else:
            raise SimulationError("unknown slot kind %r" % (kind,))

    def total_busy_slots(self) -> int:
        return self.busy_map + self.busy_reduce
