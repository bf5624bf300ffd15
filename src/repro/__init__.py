"""repro: reproduction of "Interactive Analytical Processing in Big Data Systems:
A Cross-Industry Study of MapReduce Workloads" (Chen, Alspaugh, Katz — VLDB 2012).

The library has five layers (see DESIGN.md):

* :mod:`repro.traces` — job-level trace schema, I/O, and statistical models of
  the paper's seven workloads (FB-2009, FB-2010, CC-a..CC-e).
* :mod:`repro.synth` — synthesis primitives (distributions, arrival processes,
  file popularity) and the SWIM-style scaled-workload synthesizer.
* :mod:`repro.core` — the paper's characterization methodology: data access,
  temporal and compute pattern analysis, k-means job clustering, burstiness.
* :mod:`repro.simulator` — a discrete-event MapReduce cluster simulator used
  to replay workloads and evaluate storage-cache and scheduling policies.
* :mod:`repro.engine` — the columnar trace engine: out-of-core chunked
  storage and parallel scan/aggregate operators for production-scale traces.

Quickstart::

    import repro

    trace = repro.load_workload("FB-2009", scale=0.001, seed=1)
    report = repro.characterize(trace)
    print(report.render())

Scaling to large traces
-----------------------

The paper's production traces span hundreds of thousands to millions of jobs;
a Python list of :class:`Job` objects stops being the right representation
long before that.  The :mod:`repro.engine` subsystem keeps every numeric
dimension as one contiguous NumPy column instead:

* ``trace.to_columnar()`` converts an in-memory trace to a
  :class:`~repro.engine.ColumnarTrace` whose Trace-compatible accessors
  (``dimension``, ``feature_matrix``, Table-1 reductions) run at array speed;
* :meth:`repro.engine.ChunkedTraceStore.write` spills any trace — or any lazy
  job iterator from :func:`repro.traces.iter_trace` — to a chunked,
  block-compressed on-disk store with per-chunk zone maps, so conversion and every later scan
  are bounded by chunk size, not trace size;
* :class:`repro.engine.Query` describes lazy ``scan → filter → project →
  group-by/aggregate → top-k/limit`` pipelines; ``execute`` streams them one
  chunk at a time, skipping chunks whose zone maps cannot match, and
  :class:`repro.engine.ParallelExecutor` fans chunk scans out over worker
  processes, merging exact partial aggregates and percentile sketches.

::

    from repro.engine import ChunkedTraceStore, Query, execute

    store = ChunkedTraceStore.write("fb2009.store", repro.traces.iter_trace("fb2009.csv.gz"))
    big = (Query().filter("input_bytes", ">", 1e9)
                  .aggregate(jobs=("count", "input_bytes"),
                             p99_duration=("p99", "duration_s")))
    print(execute(store, big).aggregates)

The same pipelines are scriptable via ``python -m repro engine convert|info|query``,
and ``examples/large_trace_engine.py`` walks a 1M-job trace end to end.
"""

from .errors import ReproError
from .traces import Job, Trace, load_workload, load_all_paper_workloads, PAPER_WORKLOAD_NAMES
from .core import WorkloadCharacterizer, characterize
from .engine import ChunkedTraceStore, ColumnarTrace, ParallelExecutor, Query, execute

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "ReproError",
    "Job",
    "Trace",
    "load_workload",
    "load_all_paper_workloads",
    "PAPER_WORKLOAD_NAMES",
    "WorkloadCharacterizer",
    "characterize",
    "ColumnarTrace",
    "ChunkedTraceStore",
    "Query",
    "execute",
    "ParallelExecutor",
]
