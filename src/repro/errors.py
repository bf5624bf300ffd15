"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so callers
can distinguish library failures from programming errors with a single
``except`` clause.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "TraceFormatError",
    "SpecError",
    "AnalysisError",
    "ClusteringError",
    "SimulationError",
    "SchedulingError",
    "CacheError",
    "SynthesisError",
    "ScalingError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SchemaError(ReproError):
    """A job record violates the trace schema (bad types, negative sizes...)."""


class TraceFormatError(ReproError):
    """A trace file could not be read or parsed (missing file, bad header, malformed row)."""


class SpecError(ReproError):
    """A workload specification is inconsistent or incomplete."""


class AnalysisError(ReproError):
    """A characterization step cannot run (e.g. empty trace, missing dimension)."""


class ClusteringError(AnalysisError):
    """k-means or the job-clustering pipeline failed (e.g. fewer points than k)."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class SchedulingError(SimulationError):
    """A scheduler was asked to do something impossible (e.g. negative slots)."""


class CacheError(SimulationError):
    """A cache policy was misconfigured (e.g. negative capacity)."""


class SynthesisError(ReproError):
    """Workload synthesis failed (bad distribution parameters, empty source)."""


class ScalingError(SynthesisError):
    """A workload scale-down request is invalid (e.g. scale factor <= 0)."""
