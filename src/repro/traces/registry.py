"""Registry of the seven paper workloads.

The registry is a fixed table mapping workload names ("FB-2009", "CC-c", ...)
to their :class:`~repro.traces.spec.WorkloadSpec` and offers one-call trace
generation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SpecError
from .cloudera import CLOUDERA_WORKLOADS
from .facebook import FACEBOOK_WORKLOADS
from .generator import generate_trace
from .spec import WorkloadSpec
from .trace import Trace

__all__ = [
    "PAPER_WORKLOAD_NAMES",
    "get_spec",
    "registered_names",
    "load_workload",
    "load_all_paper_workloads",
    "DEFAULT_SCALES",
]

#: Names of the seven paper workloads, in Table 1 order.
PAPER_WORKLOAD_NAMES = ("CC-a", "CC-b", "CC-c", "CC-d", "CC-e", "FB-2009", "FB-2010")

#: Default down-scale factor applied when generating each paper workload for
#: tests and benchmarks.  The Cloudera workloads are small enough to generate
#: at full scale; the two Facebook workloads (>1.1M jobs each) are scaled to a
#: few tens of thousands of jobs, which preserves their class mixture.
DEFAULT_SCALES = {
    "CC-a": 1.0,
    "CC-b": 1.0,
    "CC-c": 1.0,
    "CC-d": 1.0,
    "CC-e": 1.0,
    "FB-2009": 0.02,
    "FB-2010": 0.02,
}

_REGISTRY: Dict[str, WorkloadSpec] = {**CLOUDERA_WORKLOADS, **FACEBOOK_WORKLOADS}


def get_spec(name: str) -> WorkloadSpec:
    """Look up a registered workload spec by name.

    Raises:
        SpecError: if the name is unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpecError(
            "unknown workload %r; registered workloads: %s" % (name, ", ".join(sorted(_REGISTRY)))
        )


def registered_names() -> List[str]:
    """All registered workload names, in Table 1 order."""
    return list(PAPER_WORKLOAD_NAMES)


def load_workload(name: str, seed: int = 0, scale: Optional[float] = None,
                  time_scale: Optional[float] = None) -> Trace:
    """Generate the named workload's trace.

    Args:
        name: a registered workload name.
        seed: RNG seed for deterministic generation.
        scale: job-count scale factor; defaults to the workload's
            :data:`DEFAULT_SCALES` entry.
        time_scale: trace-length scale factor.  When omitted, scaled-down
            workloads are also compressed in time by the same factor (bounded
            below by one week where possible) so jobs-per-hour density — and
            with it the hourly burstiness and correlation statistics — stays
            comparable to the full-scale workload (the SWIM scale-down of §7).
    """
    spec = get_spec(name)
    if scale is None:
        scale = DEFAULT_SCALES[name]
    if time_scale is None and scale < 1.0:
        # Keep at least a week of trace when the full workload allows it, so
        # the Figure-7 weekly views stay meaningful.
        week_fraction = min(1.0, (7 * 24 * 3600.0) / spec.trace_length_s)
        time_scale = max(scale, week_fraction)
    return generate_trace(spec, seed=seed, scale=scale, time_scale=time_scale)


def load_all_paper_workloads(seed: int = 0, scale: Optional[float] = None,
                             scale_overrides: Optional[Dict[str, float]] = None) -> Dict[str, Trace]:
    """Generate every paper workload; returns ``{name: trace}`` in Table 1 order.

    ``scale`` (if given) applies to every workload; ``scale_overrides`` lets
    callers adjust individual workloads on top of that.
    """
    overrides = scale_overrides or {}
    traces = {}
    for name in PAPER_WORKLOAD_NAMES:
        effective = overrides.get(name, scale if scale is not None else DEFAULT_SCALES[name])
        traces[name] = load_workload(name, seed=seed, scale=effective)
    return traces
