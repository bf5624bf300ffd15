"""Workload specifications.

A :class:`WorkloadSpec` is a statistical description of a workload: enough
information for :mod:`repro.traces.generator` to synthesize a trace whose
marginal distributions and cluster structure match a paper workload (it stands
in for the paper's non-public traces; see docs/architecture.md), and enough
metadata for the benchmark harness to label its output.

The specification mirrors what the paper publishes about each workload:

* Table 1 — machine count, trace length, total job count.
* Table 2 — per-job-class populations and 6-D centroids (input, shuffle,
  output bytes; duration; map and reduce task-seconds) with a class label.
* Figure 2 — Zipf shape parameter of the file-access popularity (≈ 5/6).
* Figures 5, 6 — re-access behaviour (fraction of jobs re-reading existing
  input / output, and the time scale of re-accesses).
* Figure 7/8 — arrival process: mean rate, diurnal amplitude, burstiness.
* Figure 10 — mix of job-name first words / frameworks.
* §3 — which optional dimensions (names, paths) the trace records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import SpecError
from ..units import parse_bytes, parse_duration

__all__ = ["JobClassSpec", "NameMixEntry", "ArrivalSpec", "AccessSpec", "WorkloadSpec"]


@dataclass(frozen=True)
class JobClassSpec:
    """One row of the paper's Table 2: a cluster of similarly-behaving jobs.

    Attributes:
        label: the human label the paper assigns (e.g. ``"Small jobs"``).
        count: number of jobs of this class in the full-scale workload.
        input_bytes: centroid input size in bytes.
        shuffle_bytes: centroid shuffle size in bytes.
        output_bytes: centroid output size in bytes.
        duration_s: centroid job duration in seconds.
        map_task_seconds: centroid total map task time (slot-seconds).
        reduce_task_seconds: centroid total reduce task time (slot-seconds).
        dispersion: multiplicative spread of the log-normal jitter applied
            around the centroid when sampling jobs (sigma of ln-space).
    """

    label: str
    count: int
    input_bytes: float
    shuffle_bytes: float
    output_bytes: float
    duration_s: float
    map_task_seconds: float
    reduce_task_seconds: float
    dispersion: float = 0.6

    def __post_init__(self):
        if self.count <= 0:
            raise SpecError("job class %r must have a positive count" % (self.label,))
        for name in ("input_bytes", "shuffle_bytes", "output_bytes", "duration_s",
                     "map_task_seconds", "reduce_task_seconds"):
            if getattr(self, name) < 0:
                raise SpecError("job class %r: %s must be non-negative" % (self.label, name))
        if self.dispersion < 0:
            raise SpecError("job class %r: dispersion must be non-negative" % (self.label,))

    @property
    def centroid(self) -> Tuple[float, float, float, float, float, float]:
        """Centroid in the 6-D feature space used by the clustering analysis."""
        return (
            self.input_bytes,
            self.shuffle_bytes,
            self.output_bytes,
            self.duration_s,
            self.map_task_seconds,
            self.reduce_task_seconds,
        )

    @property
    def is_map_only(self) -> bool:
        return self.shuffle_bytes == 0 and self.reduce_task_seconds == 0

    @staticmethod
    def from_table_row(label: str, count: int, input_size: str, shuffle_size: str,
                       output_size: str, duration: str, map_task_seconds: float,
                       reduce_task_seconds: float, dispersion: float = 0.6) -> "JobClassSpec":
        """Build a class spec from human-readable Table 2 strings.

        Sizes accept strings such as ``"4.7 TB"`` and durations such as
        ``"4 hrs 30 min"`` (multiple terms are summed).
        """
        return JobClassSpec(
            label=label,
            count=count,
            input_bytes=parse_bytes(input_size),
            shuffle_bytes=parse_bytes(shuffle_size),
            output_bytes=parse_bytes(output_size),
            duration_s=_parse_compound_duration(duration),
            map_task_seconds=float(map_task_seconds),
            reduce_task_seconds=float(reduce_task_seconds),
            dispersion=dispersion,
        )


def _parse_compound_duration(text) -> float:
    """Parse durations like ``"4 hrs 30 min"`` by summing each number+unit term."""
    if isinstance(text, (int, float)):
        return float(text)
    tokens = text.split()
    if len(tokens) % 2 != 0:
        raise SpecError("cannot parse duration %r" % (text,))
    total = 0.0
    for index in range(0, len(tokens), 2):
        total += parse_duration("%s %s" % (tokens[index], tokens[index + 1]))
    return total


@dataclass(frozen=True)
class NameMixEntry:
    """One slice of the Figure-10 job-name mix.

    Attributes:
        first_word: the first word of the job name (e.g. ``"insert"``).
        framework: the framework the word is attributed to
            (``"hive"``, ``"pig"``, ``"oozie"``, ``"native"``).
        weight: fraction of jobs whose name begins with this word.
    """

    first_word: str
    framework: str
    weight: float

    def __post_init__(self):
        if not self.first_word:
            raise SpecError("name mix entry needs a non-empty first word")
        if self.weight <= 0:
            raise SpecError("name mix entry %r must have positive weight" % (self.first_word,))


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival process parameters (Figures 7 and 8).

    Attributes:
        diurnal_amplitude: relative amplitude of the daily sinusoid in the
            submission rate (0 = flat, 1 = rate swings between 0 and 2x mean).
        weekend_factor: multiplicative factor applied to the rate on weekends.
        burstiness: dispersion of the per-hour rate multiplier (sigma of a
            log-normal); larger values produce larger peak-to-median ratios.
        peak_to_median: the paper-reported peak-to-median ratio of hourly
            task-time, retained for benchmark comparison (not used directly
            by the generator).
    """

    diurnal_amplitude: float = 0.3
    weekend_factor: float = 0.8
    burstiness: float = 1.0
    peak_to_median: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise SpecError("diurnal_amplitude must be within [0, 1]")
        if self.weekend_factor <= 0:
            raise SpecError("weekend_factor must be positive")
        if self.burstiness < 0:
            raise SpecError("burstiness must be non-negative")


@dataclass(frozen=True)
class AccessSpec:
    """File-access behaviour parameters (Figures 2, 3, 4, 5 and 6).

    Attributes:
        zipf_slope: magnitude of the log-log rank-frequency slope (the paper
            reports ≈ 5/6 for every workload).
        distinct_input_files: number of distinct input paths at full scale.
        distinct_output_files: number of distinct output paths at full scale.
        input_reaccess_fraction: fraction of jobs whose input path was already
            read by an earlier job (Figure 6, "re-access pre-existing input").
        output_reaccess_fraction: fraction of jobs whose input path is the
            output of an earlier job (Figure 6, "re-access pre-existing output").
        reaccess_halflife_s: time scale of re-accesses; 75% of re-accesses
            happen within ~6 hours in the paper (Figure 5).
    """

    zipf_slope: float = 5.0 / 6.0
    distinct_input_files: int = 10000
    distinct_output_files: int = 10000
    input_reaccess_fraction: float = 0.4
    output_reaccess_fraction: float = 0.2
    reaccess_halflife_s: float = 3 * 3600.0

    def __post_init__(self):
        if self.zipf_slope <= 0:
            raise SpecError("zipf_slope must be positive")
        if self.distinct_input_files <= 0 or self.distinct_output_files <= 0:
            raise SpecError("distinct file counts must be positive")
        for name in ("input_reaccess_fraction", "output_reaccess_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SpecError("%s must be within [0, 1]" % (name,))
        if self.reaccess_halflife_s <= 0:
            raise SpecError("reaccess_halflife_s must be positive")


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete statistical description of one workload.

    Attributes:
        name: workload name (e.g. ``"FB-2009"``).
        machines: cluster size from Table 1.
        trace_length_s: trace length from Table 1, in seconds.
        job_classes: Table-2 job classes.
        name_mix: Figure-10 name mix; empty when the trace lacks job names.
        arrival: arrival-process parameters.
        access: file-access parameters.
        has_names: whether job names are recorded (False for FB-2010).
        has_input_paths: whether input paths are recorded
            (False for FB-2009 and CC-a).
        has_output_paths: whether output paths are recorded
            (False for FB-2009, FB-2010 and CC-a).
        description: free-form description used in reports.
    """

    name: str
    machines: int
    trace_length_s: float
    job_classes: Tuple[JobClassSpec, ...]
    name_mix: Tuple[NameMixEntry, ...] = ()
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    access: AccessSpec = field(default_factory=AccessSpec)
    has_names: bool = True
    has_input_paths: bool = True
    has_output_paths: bool = True
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise SpecError("workload spec needs a name")
        if self.machines <= 0:
            raise SpecError("workload %r: machines must be positive" % (self.name,))
        if self.trace_length_s <= 0:
            raise SpecError("workload %r: trace_length_s must be positive" % (self.name,))
        if not self.job_classes:
            raise SpecError("workload %r: needs at least one job class" % (self.name,))
        if self.has_names and not self.name_mix:
            raise SpecError(
                "workload %r records job names but has an empty name mix" % (self.name,)
            )

    @property
    def total_jobs(self) -> int:
        """Total job count at full scale (sum of class counts; Table 1 column)."""
        return sum(job_class.count for job_class in self.job_classes)

    def scaled_counts(self, scale: float) -> List[int]:
        """Per-class job counts for a scaled-down run.

        Every class keeps at least one job so rare-but-huge classes (which
        dominate bytes moved) are not silently dropped by small scales.
        """
        if scale <= 0:
            raise SpecError("scale must be positive, got %r" % (scale,))
        return [max(1, int(round(job_class.count * scale))) for job_class in self.job_classes]

    def name_mix_weights(self) -> Tuple[List[NameMixEntry], List[float]]:
        """Return name-mix entries and normalized weights (empty lists if none)."""
        entries = list(self.name_mix)
        if not entries:
            return [], []
        total = sum(entry.weight for entry in entries)
        return entries, [entry.weight / total for entry in entries]
