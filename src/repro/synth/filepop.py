"""File popularity and path assignment.

Section 4 of the paper characterizes data-access behaviour through hashed HDFS
path names: access frequencies follow a Zipf-like distribution with a log-log
slope of about 5/6 for every workload (Figure 2), most jobs read files smaller
than a few GB which hold a small fraction of stored bytes (Figures 3-4),
re-accesses cluster within minutes to hours (Figure 5), and a large fraction
of jobs read pre-existing inputs or outputs (Figure 6).

:class:`FilePopularityModel` assigns input/output paths to a time-ordered job
stream with a dynamic popularity process that reproduces those behaviours
directly:

* with probability ``output_reaccess_fraction`` a job reads a path some
  earlier job *wrote* (Figure 6, "re-access pre-existing output");
* with probability ``input_reaccess_fraction`` it re-reads a path some
  earlier job *read* (Figure 6, "re-access pre-existing input");
* otherwise it reads a brand-new path.

Re-access targets are drawn with weight ``access_count x recency`` — a
preferential-attachment process whose rank-frequency curve is Zipf-like
(Figure 2), with the recency half-life controlling the Figure-5 re-access
interval distribution.  When per-job input sizes are supplied, re-access
candidates are restricted to files of similar size (same log10-decade), so
file size stays consistent with the reading job's input size and — because
small jobs dominate — the most-accessed files are small ones, giving the
"80% of accesses hit <10% of stored bytes" behaviour of Figures 3-4.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SynthesisError
from .distributions import ZipfRank

__all__ = ["FilePopularityModel", "PathAssignment"]


class PathAssignment:
    """The result of assigning paths to a job stream.

    Attributes:
        input_paths: one input path per job (or ``None`` where unrecorded).
        output_paths: one output path per job (or ``None`` where unrecorded).
        input_file_sizes: size in bytes of each job's input file (matches the
            job's input size when per-job sizes were supplied).
    """

    def __init__(self, input_paths: List[Optional[str]], output_paths: List[Optional[str]],
                 input_file_sizes: List[float]):
        self.input_paths = input_paths
        self.output_paths = output_paths
        self.input_file_sizes = input_file_sizes


class _RecencyPopularityPool:
    """A pool of paths re-drawn with weight = access_count x exp(-age / halflife).

    Pools are keyed by size bin (log10 decade of the file size); bin ``None``
    pools everything together, which is the behaviour used when per-job sizes
    are not supplied.
    """

    def __init__(self, halflife_s: float, max_entries: int = 4000,
                 count_exponent: float = 1.15, recency_floor: float = 0.2):
        self.halflife_s = float(halflife_s)
        self.max_entries = int(max_entries)
        # Superlinear popularity weighting steepens the head of the resulting
        # rank-frequency curve (towards the paper's ~5/6 slope); the recency
        # floor keeps genuinely popular files re-accessible for the whole
        # trace so some re-accesses span hours-to-days (Figure 5: only ~75%
        # of re-accesses fall within 6 hours).
        self.count_exponent = float(count_exponent)
        self.recency_floor = float(recency_floor)
        self._paths: Dict[Optional[int], List[str]] = defaultdict(list)
        self._times: Dict[Optional[int], List[float]] = defaultdict(list)
        self._counts: Dict[Optional[int], List[float]] = defaultdict(list)
        self._index: Dict[Optional[int], Dict[str, int]] = defaultdict(dict)
        self._sizes: Dict[Optional[int], List[float]] = defaultdict(list)

    def record(self, bin_id: Optional[int], path: str, time_s: float, size: float) -> None:
        """Record an access (read or write) of ``path`` at ``time_s``."""
        index = self._index[bin_id]
        if path in index:
            position = index[path]
            self._times[bin_id][position] = time_s
            self._counts[bin_id][position] += 1.0
            return
        if len(self._paths[bin_id]) >= self.max_entries:
            # Evict the oldest entry to bound memory and work per draw.
            oldest = int(np.argmin(self._times[bin_id]))
            evicted = self._paths[bin_id][oldest]
            del self._index[bin_id][evicted]
            self._paths[bin_id].pop(oldest)
            self._times[bin_id].pop(oldest)
            self._counts[bin_id].pop(oldest)
            self._sizes[bin_id].pop(oldest)
            self._index[bin_id] = {p: i for i, p in enumerate(self._paths[bin_id])}
        index = self._index[bin_id]
        index[path] = len(self._paths[bin_id])
        self._paths[bin_id].append(path)
        self._times[bin_id].append(time_s)
        self._counts[bin_id].append(1.0)
        self._sizes[bin_id].append(size)

    def has(self, bin_id: Optional[int]) -> bool:
        return bool(self._paths[bin_id])

    def draw(self, bin_id: Optional[int], now: float, rng: np.random.Generator) -> "tuple[str, float]":
        """Draw a (path, size) pair with popularity x recency weighting."""
        times = np.asarray(self._times[bin_id], dtype=float)
        counts = np.asarray(self._counts[bin_id], dtype=float)
        ages = np.maximum(now - times, 0.0)
        recency = self.recency_floor + (1.0 - self.recency_floor) * np.exp(
            -math.log(2.0) * ages / self.halflife_s
        )
        weights = counts ** self.count_exponent * recency
        total = weights.sum()
        if not np.isfinite(total) or total <= 0:
            pick = len(times) - 1
        else:
            pick = int(rng.choice(times.size, p=weights / total))
        return self._paths[bin_id][pick], self._sizes[bin_id][pick]


class FilePopularityModel:
    """Assigns input/output paths to a time-ordered job stream.

    Args:
        n_input_files: approximate target for the number of distinct input
            paths (used to scale path namespaces; the dynamic process may
            create more or fewer).
        n_output_files: same for output paths.
        zipf_slope: retained for API compatibility and used for the static
            output-path popularity when sizes are not supplied.
        input_reaccess_fraction: fraction of jobs that re-read a previously
            read input path.
        output_reaccess_fraction: fraction of jobs whose input is the output
            path of an earlier job.
        reaccess_halflife_s: recency half-life of re-access target selection;
            controls the Figure-5 re-access interval distribution.
    """

    def __init__(self, n_input_files: int, n_output_files: int, zipf_slope: float = 5.0 / 6.0,
                 input_reaccess_fraction: float = 0.4, output_reaccess_fraction: float = 0.2,
                 reaccess_halflife_s: float = 3 * 3600.0):
        if n_input_files <= 0 or n_output_files <= 0:
            raise SynthesisError("file counts must be positive")
        if not 0.0 <= input_reaccess_fraction <= 1.0:
            raise SynthesisError("input_reaccess_fraction must be in [0, 1]")
        if not 0.0 <= output_reaccess_fraction <= 1.0:
            raise SynthesisError("output_reaccess_fraction must be in [0, 1]")
        if input_reaccess_fraction + output_reaccess_fraction > 1.0:
            raise SynthesisError("re-access fractions must sum to at most 1")
        if reaccess_halflife_s <= 0:
            raise SynthesisError("reaccess_halflife_s must be positive")
        if zipf_slope <= 0:
            raise SynthesisError("zipf_slope must be positive")
        self.n_input_files = int(n_input_files)
        self.n_output_files = int(n_output_files)
        self.zipf_slope = float(zipf_slope)
        self.input_reaccess_fraction = float(input_reaccess_fraction)
        self.output_reaccess_fraction = float(output_reaccess_fraction)
        self.reaccess_halflife_s = float(reaccess_halflife_s)

    # ------------------------------------------------------------------
    def assign(self, submit_times: Sequence[float], rng: np.random.Generator,
               record_inputs: bool = True, record_outputs: bool = True,
               input_prefix: str = "/data/in", output_prefix: str = "/data/out",
               input_bytes: Optional[Sequence[float]] = None,
               output_bytes: Optional[Sequence[float]] = None) -> PathAssignment:
        """Assign paths to jobs submitted at ``submit_times`` (must be sorted).

        When ``input_bytes`` is provided (one value per job), re-access
        candidates are restricted to files whose size falls in the same log10
        decade as the job's input, keeping file size consistent with the
        job's recorded input volume.

        Returns a :class:`PathAssignment`; when ``record_inputs`` or
        ``record_outputs`` is false the corresponding path lists are all
        ``None`` (modelling traces that do not record those dimensions).
        """
        submit_times = np.asarray(list(submit_times), dtype=float)
        n_jobs = submit_times.size

        size_bins = self._size_bins(input_bytes, n_jobs)
        output_sizes = self._as_array(output_bytes, n_jobs, default=0.0)
        input_sizes_in = self._as_array(input_bytes, n_jobs, default=float("nan"))

        read_pool = _RecencyPopularityPool(self.reaccess_halflife_s)
        write_pool = _RecencyPopularityPool(self.reaccess_halflife_s)

        input_paths: List[Optional[str]] = []
        output_paths: List[Optional[str]] = []
        assigned_sizes: List[float] = []

        mode_draws = rng.uniform(0.0, 1.0, max(n_jobs, 1))
        rewrite_draws = rng.uniform(0.0, 1.0, max(n_jobs, 1))
        fresh_counter = 0
        out_counter = 0

        # Static output popularity (repeated writes of the same output path,
        # e.g. a daily job overwriting its result) — Zipf over a fixed space.
        output_zipf = ZipfRank(self.n_output_files, self.zipf_slope)
        out_ranks = output_zipf.sample(rng, max(n_jobs, 1)).astype(int)

        for index in range(n_jobs):
            now = float(submit_times[index])
            bin_id = size_bins[index]
            mode = mode_draws[index]

            if mode < self.output_reaccess_fraction and write_pool.has(bin_id):
                path, size = write_pool.draw(bin_id, now, rng)
            elif (mode < self.output_reaccess_fraction + self.input_reaccess_fraction
                  and read_pool.has(bin_id)):
                path, size = read_pool.draw(bin_id, now, rng)
            else:
                fresh_counter += 1
                path = "%s/%s%08d" % (input_prefix,
                                      ("b%02d/" % bin_id) if bin_id is not None else "",
                                      fresh_counter)
                size = input_sizes_in[index]
                if not np.isfinite(size):
                    size = float(256 * 1024 * 1024)
            read_pool.record(bin_id, path, now, size)

            # Output path: mostly fresh, sometimes a repeat of a popular slot.
            if rewrite_draws[index] < 0.5:
                out_path = "%s/%08d" % (output_prefix, int(out_ranks[index]))
            else:
                out_counter += 1
                out_path = "%s/u%08d" % (output_prefix, out_counter)
            out_size = float(output_sizes[index])
            # Written data becomes a re-access candidate in the size bin of the
            # *output* volume — a later job reading it will have an input of
            # roughly that size.
            write_bin = self._bin_of(out_size) if size_bins is not _UNBINNED else None
            write_pool.record(write_bin, out_path, now, out_size)

            input_paths.append(path if record_inputs else None)
            output_paths.append(out_path if record_outputs else None)
            assigned_sizes.append(float(size))

        return PathAssignment(input_paths, output_paths, assigned_sizes)

    # ------------------------------------------------------------------
    @staticmethod
    def _as_array(values: Optional[Sequence[float]], n_jobs: int, default: float) -> np.ndarray:
        if values is None:
            return np.full(n_jobs, default, dtype=float)
        array = np.asarray(list(values), dtype=float)
        if array.size != n_jobs:
            raise SynthesisError("per-job size arrays must have one entry per job")
        return array

    @staticmethod
    def _bin_of(size: float) -> int:
        return int(math.floor(math.log10(max(size, 1.0))))

    def _size_bins(self, input_bytes: Optional[Sequence[float]], n_jobs: int):
        """Per-job size-bin keys, or the sentinel for unbinned operation."""
        if input_bytes is None:
            return _UNBINNED
        array = np.asarray(list(input_bytes), dtype=float)
        if array.size != n_jobs:
            raise SynthesisError("input_bytes must have one entry per job")
        return [self._bin_of(value) for value in array]


class _UnbinnedSizeKeys:
    """Sentinel sequence: every job maps to the single bin ``None``."""

    def __getitem__(self, index):
        return None


_UNBINNED = _UnbinnedSizeKeys()
