"""Trace substrate: job schema, trace containers, I/O, and the paper workloads.

Public surface::

    from repro.traces import Job, Trace, load_workload, read_trace, write_trace

See docs/architecture.md for the full subpackage inventory.
"""

from .schema import FEATURE_DIMENSIONS, NUMERIC_DIMENSIONS, Job
from .trace import Trace, TraceSummary
from .io import (
    iter_csv,
    iter_jsonl,
    iter_trace,
    read_csv,
    read_jsonl,
    read_trace,
    write_csv,
    write_jsonl,
    write_trace,
)
from .hadoop_log import format_job_line, parse_history_lines, parse_job_line, read_history_log
from .anonymize import Anonymizer, anonymize_trace
from .export import AggregatedMetrics, aggregate_trace
from .spec import AccessSpec, ArrivalSpec, JobClassSpec, NameMixEntry, WorkloadSpec
from .generator import SpecTraceGenerator, generate_trace
from .facebook import FB_2009, FB_2010, FACEBOOK_WORKLOADS
from .cloudera import CC_A, CC_B, CC_C, CC_D, CC_E, CLOUDERA_WORKLOADS
from .registry import (
    DEFAULT_SCALES,
    PAPER_WORKLOAD_NAMES,
    get_spec,
    load_all_paper_workloads,
    load_workload,
    registered_names,
)

__all__ = [
    "Job",
    "Trace",
    "TraceSummary",
    "NUMERIC_DIMENSIONS",
    "FEATURE_DIMENSIONS",
    "read_csv",
    "read_jsonl",
    "read_trace",
    "iter_csv",
    "iter_jsonl",
    "iter_trace",
    "write_csv",
    "write_jsonl",
    "write_trace",
    "parse_job_line",
    "parse_history_lines",
    "read_history_log",
    "format_job_line",
    "Anonymizer",
    "anonymize_trace",
    "AggregatedMetrics",
    "aggregate_trace",
    "WorkloadSpec",
    "JobClassSpec",
    "NameMixEntry",
    "ArrivalSpec",
    "AccessSpec",
    "SpecTraceGenerator",
    "generate_trace",
    "FB_2009",
    "FB_2010",
    "FACEBOOK_WORKLOADS",
    "CC_A",
    "CC_B",
    "CC_C",
    "CC_D",
    "CC_E",
    "CLOUDERA_WORKLOADS",
    "PAPER_WORKLOAD_NAMES",
    "DEFAULT_SCALES",
    "get_spec",
    "registered_names",
    "load_workload",
    "load_all_paper_workloads",
]
