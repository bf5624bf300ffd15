"""File access pattern analysis (§4.2-4.3, Figures 2-6 of the paper).

Given a trace whose jobs carry hashed input/output path names, this module
computes:

* access frequency versus rank and the Zipf slope (Figure 2);
* the fraction of jobs versus accessed file size, and the fraction of stored
  bytes versus file size (Figures 3 and 4), from which the "80-x rule" of
  §4.2 is derived;
* re-access interval distributions: input→input (a file read again) and
  output→input (a job reading what an earlier job wrote) (Figure 5);
* the fraction of jobs whose input re-accesses pre-existing input or output
  (Figure 6).

Every analysis is a shared-scan **chunk consumer**
(:class:`~repro.engine.pipeline.ChunkConsumer`): :class:`PathStatsConsumer`
folds per-path maxima and access counts in one vectorized pass (one fold
feeds Figure 2's rank-frequencies *and* the Figure 3/4 size profiles *and*
the 80-x rule), and :class:`ReaccessConsumer` — order-sensitive, so it runs
in the pipeline's sequential lane — folds the Figure 5 intervals and Figure 6
fractions in a single pass of its own.  Both key their state on dense
integer path ids from an :class:`~repro.engine.pipeline.Interner`, so a
chunk costs one gather through dictionary codes (or one ``dict`` pass over a
raw column) and the per-path arrays are indexed by id; paths are sorted only
when a snapshot or a result is emitted.  Callers reach these folds through
:func:`repro.core.sharedscan.run_characterization_scan`, which also turns a
path-statistics fold into Figure 2's ranks and the Figure 3/4 profiles with
the ``*_from_path_stats`` helpers below.  All results here are exact
(dictionary- and counter-based) — identical across representations,
chunkings and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..engine.pipeline import ChunkConsumer, Interner, ScanChunk
from ..errors import AnalysisError
from ..units import GB
from .stats import EmpiricalCDF, empirical_cdf
from .zipf import RankFrequency, rank_frequencies_from_counts

__all__ = [
    "SizeAccessProfile",
    "ReaccessIntervals",
    "ReaccessFractions",
    "ReaccessResult",
    "AccessPatternResult",
    "PathStatsConsumer",
    "ReaccessConsumer",
    "rank_frequencies_from_path_stats",
    "profile_from_path_stats",
    "eighty_x_from_profile",
]


# ---------------------------------------------------------------------------
# Shared path-statistics fold (Figures 2, 3, 4 and the 80-x rule)
# ---------------------------------------------------------------------------
class PathStatsConsumer(ChunkConsumer):
    """Per-path (max reported bytes, access count) fold for one path kind.

    The size of a file is estimated as the largest input (or output) bytes
    any job reported against that path — traces only record per-job volumes,
    not catalog sizes, and the maximum over accesses is the closest
    observable proxy.  The fold state is an :class:`Interner` whose per-id
    arrays are the maxima and counts: each chunk turns its path column into
    per-row ids and scatters into them with ``np.maximum.at`` /
    ``np.add.at``.  Paths are sorted once, when the state is snapshotted or
    finalized; maxima and integer counts are order-independent, so serial,
    merged and per-row results coincide exactly.
    """

    resumable = True
    _FILLS = {"maxima": 0.0, "counts": 0}

    def __init__(self, kind: str, name: Optional[str] = None):
        if kind not in ("input", "output"):
            raise AnalysisError("kind must be 'input' or 'output'")
        self.kind = kind
        self.name = name or ("path_stats_%s" % kind)
        self.columns = ("%s_path" % kind, "%s_bytes" % kind)

    def make_state(self):
        return Interner(self._FILLS)

    def snapshot(self, state) -> Dict[str, object]:
        return {"known_paths": state.sort(),
                "maxima": state.trimmed("maxima"), "counts": state.trimmed("counts")}

    def restore(self, payload: Dict[str, object]):
        return Interner(self._FILLS, known=payload["known_paths"],
                        arrays={key: payload[key] for key in self._FILLS})

    def fold(self, state, chunk: ScanChunk):
        ids = state.ids(chunk, self.columns[0])
        # Reported sizes clamp at zero: the maxima start there.
        sizes = np.nan_to_num(chunk.column(self.columns[1]), nan=0.0)
        recorded = ids >= 0
        if not recorded.all():
            ids, sizes = ids[recorded], sizes[recorded]
        np.maximum.at(state.arrays["maxima"], ids, sizes)
        np.add.at(state.arrays["counts"], ids, 1)
        return state

    def merge(self, a, b):
        if len(b):
            ids = a.intern(b.values())
            np.maximum.at(a.arrays["maxima"], ids, b.trimmed("maxima"))
            a.arrays["counts"][ids] += b.trimmed("counts")
        return a

    def finalize(self, state) -> Dict[str, List[float]]:
        if not len(state):
            raise AnalysisError("trace has no recorded %s paths" % self.kind)
        return {path: [high, count]
                for path, high, count in zip(state.sort().tolist(),
                                             state.trimmed("maxima").tolist(),
                                             state.trimmed("counts").tolist())}


def rank_frequencies_from_path_stats(stats: Dict[str, List[float]],
                                     min_items: int = 2) -> RankFrequency:
    """The Figure-2 rank-frequency curve from a path-statistics fold.

    The access counts of :class:`PathStatsConsumer` are the per-path access
    tallies Figure 2 ranks, so the shared scan derives Figure 2 from the same
    fold as Figures 3/4.
    """
    return rank_frequencies_from_counts(
        {path: int(entry[1]) for path, entry in stats.items()}, min_items=min_items)


# ---------------------------------------------------------------------------
# Figures 3 and 4: jobs and stored bytes versus file size
# ---------------------------------------------------------------------------
@dataclass
class SizeAccessProfile:
    """Access behaviour versus file size for one path kind (input or output).

    Attributes:
        jobs_cdf: CDF of per-job accessed-file size (fraction of jobs whose
            file is at most a given size) — the top panel of Figures 3/4.
        stored_bytes_cdf: CDF of stored bytes versus file size (fraction of
            all stored bytes contributed by files at most a given size) —
            the bottom panel of Figures 3/4.
        file_sizes: size of each distinct file (bytes).
        jobs_below_gb_fraction: fraction of jobs accessing files ≤ a few GB
            (the paper's 90% observation); computed at 4 GB.
        bytes_below_gb_fraction: fraction of stored bytes in those files
            (the paper's ≤16% observation); computed at 4 GB.
    """

    jobs_cdf: EmpiricalCDF
    stored_bytes_cdf: EmpiricalCDF
    file_sizes: np.ndarray
    jobs_below_gb_fraction: float
    bytes_below_gb_fraction: float


def profile_from_path_stats(stats: Dict[str, List[float]],
                            small_file_threshold: float = 4 * GB) -> SizeAccessProfile:
    """Build the Figure-3/4 profile from a per-path statistics fold.

    The per-access size multiset is each file's size repeated by its access
    count — the CDF sorts it anyway, so expanding counts is equivalent to the
    historical per-access second scan.
    """
    if not stats:
        raise AnalysisError("trace has no recorded paths")
    sizes = np.array([entry[0] for entry in stats.values()], dtype=float)
    counts = np.array([entry[1] for entry in stats.values()], dtype=np.int64)
    # Sort the distinct file sizes once and expand by access count: the
    # expansion of a sorted sequence is sorted, so the per-access CDF needs
    # no million-element sort (identical values to sorting the expansion).
    order = np.argsort(sizes)
    per_access = np.repeat(sizes[order], counts[order])
    jobs_cdf = EmpiricalCDF(
        values=per_access,
        fractions=np.arange(1, per_access.size + 1, dtype=float) / per_access.size)

    file_size_array = sizes[order]
    total_stored = float(file_size_array.sum())
    if total_stored <= 0:
        stored_cdf = EmpiricalCDF(values=file_size_array,
                                  fractions=np.linspace(1.0 / max(1, file_size_array.size), 1.0,
                                                        file_size_array.size))
    else:
        stored_cdf = EmpiricalCDF(values=file_size_array,
                                  fractions=np.cumsum(file_size_array) / total_stored)
    return SizeAccessProfile(
        jobs_cdf=jobs_cdf,
        stored_bytes_cdf=stored_cdf,
        file_sizes=file_size_array,
        jobs_below_gb_fraction=jobs_cdf.fraction_at_or_below(small_file_threshold),
        bytes_below_gb_fraction=stored_cdf.fraction_at_or_below(small_file_threshold),
    )


def eighty_x_from_profile(profile: SizeAccessProfile,
                          job_fraction: float = 0.8) -> float:
    """The "80-x" rule of §4.2 read off an already-computed size profile.

    Following how the paper derives the rule from Figures 3 and 4, the
    computation is size-threshold based: find the file size below which
    ``job_fraction`` of all jobs' accesses fall (top panel), then return the
    percentage of stored bytes held by files up to that size (bottom panel).
    The paper reports values between 1 and 8 — an "80-1" to "80-8" rule.
    """
    if not 0.0 < job_fraction < 1.0:
        raise AnalysisError("job_fraction must be in (0, 1)")
    size_threshold = profile.jobs_cdf.quantile(job_fraction)
    return 100.0 * profile.stored_bytes_cdf.fraction_at_or_below(size_threshold)


# ---------------------------------------------------------------------------
# Figures 5 and 6: re-access intervals and fractions (order-sensitive)
# ---------------------------------------------------------------------------
@dataclass
class ReaccessIntervals:
    """Distributions of data re-access intervals (Figure 5).

    Attributes:
        input_input: CDF of intervals between successive reads of the same
            input path (``None`` when no such re-reads exist).
        output_input: CDF of intervals between a job writing a path and a
            later job reading it (``None`` when absent).
        fraction_within_6h: fraction of all re-accesses (both kinds pooled)
            that happen within six hours — the paper reports 75%.
    """

    input_input: Optional[EmpiricalCDF]
    output_input: Optional[EmpiricalCDF]
    fraction_within_6h: float


@dataclass
class ReaccessFractions:
    """Fractions of jobs whose input re-accesses pre-existing data (Figure 6).

    Attributes:
        input_reaccess: fraction of jobs reading a path some earlier job read.
        output_reaccess: fraction of jobs reading a path some earlier job wrote.
        any_reaccess: fraction of jobs doing either.
        jobs_with_paths: number of jobs that recorded an input path at all.
    """

    input_reaccess: float
    output_reaccess: float
    any_reaccess: float
    jobs_with_paths: int


@dataclass
class ReaccessResult:
    """Joint result of the single re-access fold (Figures 5 and 6).

    ``fractions`` is ``None`` when no job recorded an input path (the shared
    scan then records an :class:`AnalysisError` for ``reaccess_fractions``).
    """

    intervals: ReaccessIntervals
    fractions: Optional[ReaccessFractions]


class ReaccessConsumer(ChunkConsumer):
    """Order-sensitive fold of the Figure-5 intervals and Figure-6 fractions.

    The semantics are the paper's sequential row walk: for each job reading a
    path, the governing earlier access is the most recent *write* of that
    path when one exists at least as recent as the last read (output→input),
    else the most recent *read* (input→input); a job re-accesses data when
    its input path was read or written by any earlier job.  The fold declares
    ``ordered=True`` and runs in the pipeline's sequential lane (an unsorted
    store raises instead of silently producing wrong intervals).

    Each chunk is evaluated vectorized instead of row by row: reads and
    writes become ``(path id, row)`` events keyed on one :class:`Interner`
    shared by both path columns, the most recent in-chunk predecessor of
    each read is a ``searchsorted`` over the packed event keys (a read at
    row *i* never sees row *i*'s own write, exactly like the sequential
    walk), and the interner's per-id carry times from earlier chunks fill
    the segment starts.  Every derived quantity is order-free (interval
    *multisets* feed sorted CDFs; hit counters are sums), so the results are
    identical to the row walk.
    """

    ordered = True
    #: Resumable *when the appended data follows the old data in time* (the
    #: store's sorted flag survives the append) — the per-path carry arrays
    #: are exactly the walk's state after the checkpointed prefix.  When new
    #: data interleaves in time, the shared scan falls back to a full rescan
    #: for this consumer (and says so).
    resumable = True
    _FILLS = {"read_t": -np.inf, "write_t": -np.inf}

    def __init__(self, has_input: bool, has_output: bool, name: str = "reaccess"):
        self.name = name
        self.has_input = has_input
        self.has_output = has_output
        columns = ["submit_time_s"]
        if has_input:
            columns.append("input_path")
        if has_output:
            columns.append("output_path")
        self.columns = tuple(columns)

    def make_state(self):
        return {
            # Last read/write time of every path, indexed by its id.
            "paths": Interner(self._FILLS),
            "input_input": [], "output_input": [],  # lists of per-chunk arrays
            "jobs_with_paths": 0, "input_hits": 0, "output_hits": 0, "any_hits": 0,
        }

    def snapshot(self, state) -> Dict[str, object]:
        paths = state["paths"]
        return {
            "known_paths": paths.sort(),
            "read_t": paths.trimmed("read_t"), "write_t": paths.trimmed("write_t"),
            # Interval lists concatenate once here; finalize concatenates
            # anyway, so the restored single-array form folds on identically.
            "input_input": (np.concatenate(state["input_input"])
                            if state["input_input"] else np.zeros(0)),
            "output_input": (np.concatenate(state["output_input"])
                             if state["output_input"] else np.zeros(0)),
            "jobs_with_paths": int(state["jobs_with_paths"]),
            "input_hits": int(state["input_hits"]),
            "output_hits": int(state["output_hits"]),
            "any_hits": int(state["any_hits"]),
        }

    def restore(self, payload: Dict[str, object]):
        state = self.make_state()
        state["paths"] = Interner(self._FILLS, known=payload["known_paths"],
                                  arrays={key: payload[key] for key in self._FILLS})
        for key in ("input_input", "output_input"):
            intervals = np.asarray(payload[key], dtype=float)
            state[key] = [intervals] if intervals.size else []
        for key in ("jobs_with_paths", "input_hits", "output_hits", "any_hits"):
            state[key] = int(payload[key])
        return state

    def fold(self, state, chunk: ScanChunk):
        if not self.has_input:
            return state  # no reads: nothing re-accesses, writes are never consulted
        paths = state["paths"]
        times = np.asarray(chunk.column("submit_time_s"), dtype=float)
        read_ids = paths.ids(chunk, "input_path")
        read_rows = np.flatnonzero(read_ids >= 0)
        n_reads = int(read_rows.size)
        state["jobs_with_paths"] += n_reads
        if self.has_output:
            write_ids = paths.ids(chunk, "output_path")
            write_rows = np.flatnonzero(write_ids >= 0)
        else:
            write_ids = write_rows = np.zeros(0, dtype=np.int64)
        if n_reads == 0 and not write_rows.size:
            return state
        read_codes = read_ids[read_rows]
        write_codes = write_ids[write_rows]
        read_t = paths.arrays["read_t"]
        write_t = paths.arrays["write_t"]

        # Events packed as id * stride + row sort by (path, row); row order
        # stands in for time order because the ordered lane verified
        # non-decreasing submit times.
        stride = times.size + 1
        read_keys = read_codes * stride + read_rows
        write_keys = write_codes * stride + write_rows
        read_order = np.argsort(read_keys)
        sorted_read_keys = read_keys[read_order]
        sorted_read_times = times[read_rows[read_order]]
        sorted_read_codes = read_codes[read_order]
        write_order = np.argsort(write_keys)
        sorted_write_keys = write_keys[write_order]
        sorted_write_times = times[write_rows[write_order]]

        if n_reads:
            # Most recent earlier write of the same path: the predecessor in
            # the packed write keys ('left' excludes the read's own row).
            position = np.searchsorted(sorted_write_keys, sorted_read_keys,
                                       side="left") - 1
            in_chunk = position >= 0
            if in_chunk.any():
                same_path = np.zeros(n_reads, dtype=bool)
                same_path[in_chunk] = (
                    sorted_write_keys[position[in_chunk]] // stride
                    == sorted_read_codes[in_chunk])
                previous_write = np.where(
                    same_path, sorted_write_times[np.maximum(position, 0)],
                    write_t[sorted_read_codes])
            else:
                previous_write = write_t[sorted_read_codes]
            # Most recent earlier read: the previous packed read of the path.
            previous_read = read_t[sorted_read_codes]
            same_prev = np.zeros(n_reads, dtype=bool)
            same_prev[1:] = sorted_read_codes[1:] == sorted_read_codes[:-1]
            previous_read[same_prev] = sorted_read_times[
                np.nonzero(same_prev)[0] - 1]

            has_write = previous_write > -np.inf
            has_read = previous_read > -np.inf
            write_governs = has_write & (~has_read | (previous_write >= previous_read))
            read_governs = has_read & ~write_governs
            if write_governs.any():
                state["output_input"].append(
                    sorted_read_times[write_governs] - previous_write[write_governs])
            if read_governs.any():
                state["input_input"].append(
                    sorted_read_times[read_governs] - previous_read[read_governs])
            state["output_hits"] += int(has_write.sum())
            state["input_hits"] += int((has_read & ~has_write).sum())
            state["any_hits"] += int((has_read | has_write).sum())
            _carry_last(read_t, sorted_read_codes, sorted_read_times)
        if write_rows.size:
            _carry_last(write_t, sorted_write_keys // stride, sorted_write_times)
        return state

    def finalize(self, state) -> ReaccessResult:
        input_input = (np.concatenate(state["input_input"])
                       if state["input_input"] else np.zeros(0))
        output_input = (np.concatenate(state["output_input"])
                        if state["output_input"] else np.zeros(0))
        pooled = np.concatenate([input_input, output_input])
        fraction_6h = float(np.mean(pooled <= 6 * 3600.0)) if pooled.size else 0.0
        intervals = ReaccessIntervals(
            input_input=empirical_cdf(input_input) if input_input.size else None,
            output_input=empirical_cdf(output_input) if output_input.size else None,
            fraction_within_6h=fraction_6h,
        )
        fractions = None
        if state["jobs_with_paths"]:
            fractions = ReaccessFractions(
                input_reaccess=state["input_hits"] / state["jobs_with_paths"],
                output_reaccess=state["output_hits"] / state["jobs_with_paths"],
                any_reaccess=state["any_hits"] / state["jobs_with_paths"],
                jobs_with_paths=state["jobs_with_paths"],
            )
        return ReaccessResult(intervals=intervals, fractions=fractions)


def _carry_last(carry: np.ndarray, sorted_ids: np.ndarray, sorted_times: np.ndarray) -> None:
    """Store the time of each id's last event (ids sorted, times in row order)."""
    last = np.ones(sorted_ids.size, dtype=bool)
    last[:-1] = sorted_ids[1:] != sorted_ids[:-1]
    carry[sorted_ids[last]] = sorted_times[last]


# ---------------------------------------------------------------------------
# Combined result
# ---------------------------------------------------------------------------
@dataclass
class AccessPatternResult:
    """All §4 access-pattern analyses for one trace.

    Any component that cannot be computed because the trace lacks the required
    path dimension is ``None`` — mirroring how the paper omits workloads from
    figures when their traces miss the needed fields.
    """

    workload: str
    input_ranks: Optional[RankFrequency]
    output_ranks: Optional[RankFrequency]
    input_profile: Optional[SizeAccessProfile]
    output_profile: Optional[SizeAccessProfile]
    intervals: Optional[ReaccessIntervals]
    fractions: Optional[ReaccessFractions]
    eighty_x_input: Optional[float]
