"""Simplified HDFS model: file namespace, replication, and read/write accounting.

The paper's §4 observations motivate storage-level policies (tiering, caching,
eviction).  To evaluate those policies the replayer needs a filesystem model
that tracks which files exist, how big they are, and how many bytes are read
and written.  The model is deliberately coarse because the quantities the
benchmarks compare (cache hit rates, bytes served from cache versus disk)
only need per-file access accounting, not block placement or transfer timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..errors import SimulationError

__all__ = ["HdfsFile", "HdfsConfig", "Hdfs"]


@dataclass(frozen=True)
class HdfsConfig:
    """Static HDFS parameters.

    Attributes:
        block_size: block size in bytes (128 MB default).
        replication: replicas per block.
        n_datanodes: number of datanodes (used for placement spreading).
        disk_bandwidth_bps: sequential read/write bandwidth per datanode.
        retain_files: keep an :class:`HdfsFile` entry per path.  Streaming
            replays of traces without recorded paths disable this so the
            namespace does not grow by one implicit entry per job.
    """

    block_size: float = 128 * 1024 * 1024
    replication: int = 3
    n_datanodes: int = 100
    disk_bandwidth_bps: float = 100e6
    retain_files: bool = True

    def __post_init__(self):
        if self.block_size <= 0:
            raise SimulationError("block_size must be positive")
        if self.replication <= 0:
            raise SimulationError("replication must be positive")
        if self.n_datanodes <= 0:
            raise SimulationError("n_datanodes must be positive")
        if self.disk_bandwidth_bps <= 0:
            raise SimulationError("disk_bandwidth_bps must be positive")


@dataclass
class HdfsFile:
    """One file in the namespace.

    Attributes:
        path: file path.
        size_bytes: logical size.
        created_at_s: simulation time of creation.
        last_access_s: simulation time of the most recent read or write.
        access_count: number of reads since creation.
    """

    path: str
    size_bytes: float
    created_at_s: float = 0.0
    last_access_s: float = 0.0
    access_count: int = 0


class Hdfs:
    """File namespace with creation and read/write accounting.

    The filesystem does not enforce capacity limits (production HDFS clusters
    are provisioned for their data); what matters for the paper's analyses is
    the access stream it observes, which it exposes to the attached cache via
    the ``on_read`` callback of :meth:`read`.
    """

    def __init__(self, config: Optional[HdfsConfig] = None):
        self.config = config or HdfsConfig()
        self._files: Dict[str, HdfsFile] = {}
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    # ------------------------------------------------------------------
    def __contains__(self, path: str) -> bool:
        return path in self._files

    def __len__(self) -> int:
        return len(self._files)

    def get(self, path: str) -> Optional[HdfsFile]:
        return self._files.get(path)

    def files(self) -> Iterable[HdfsFile]:
        return self._files.values()

    def total_bytes(self) -> float:
        """Logical bytes stored (not counting replication)."""
        return float(sum(entry.size_bytes for entry in self._files.values()))

    def raw_bytes(self) -> float:
        """Physical bytes stored including replication."""
        return self.total_bytes() * self.config.replication

    # ------------------------------------------------------------------
    def create(self, path: str, size_bytes: float, now_s: float = 0.0,
               overwrite: bool = True) -> HdfsFile:
        """Create (or overwrite) a file of the given size.

        Raises:
            SimulationError: when the file exists and ``overwrite`` is false,
                or the size is negative.
        """
        if size_bytes < 0:
            raise SimulationError("file size must be non-negative")
        if path in self._files and not overwrite:
            raise SimulationError("file %r already exists" % (path,))
        entry = HdfsFile(path=path, size_bytes=float(size_bytes), created_at_s=now_s,
                         last_access_s=now_s)
        if self.config.retain_files:
            self._files[path] = entry
        self.bytes_written += float(size_bytes)
        return entry

    def read(self, path: str, now_s: float, size_bytes: Optional[float] = None) -> HdfsFile:
        """Record a read of ``path`` and return its entry.

        Unknown paths are auto-created with the requested size: traces begin
        mid-life of a cluster, so the first read of a path implies the data
        already existed before the trace started.
        """
        entry = self._files.get(path)
        if entry is None:
            entry = self.create(path, size_bytes or 0.0, now_s)
            # The pre-existing data was not written during the simulation.
            self.bytes_written -= entry.size_bytes
        entry.access_count += 1
        entry.last_access_s = now_s
        read_bytes = size_bytes if size_bytes is not None else entry.size_bytes
        self.bytes_read += float(read_bytes)
        return entry
