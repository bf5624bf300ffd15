"""Command-line interface.

``python -m repro`` (or the ``repro-workloads`` console script) exposes the
main workflows:

* ``generate`` — synthesize a paper workload trace and write it to disk;
* ``characterize`` — run the full characterization on a workload, a trace
  file, or — out-of-core via streamed engine scans — a chunked columnar
  store (``--store``);
* ``synthesize`` — build a SWIM-style scaled workload from a trace;
* ``replay`` — replay a workload on the simulated cluster, either
  materialized or streamed with bounded memory from a chunked store
  (``--store``) or a trace file (``--streaming``); ``--sweep spec.json``
  fans a grid of (scheduler × cache × cluster) scenarios out over worker
  processes and prints a comparison table;
* ``anonymize`` — hash paths/names in a trace and optionally export the
  aggregated metrics JSON for offsite sharing;
* ``compare`` — compare two traces (evolution report: median shifts,
  burstiness change);
* ``bench`` — run the benchmark suite and print the report; ``--store``
  reproduces Table 1, Figures 1-10 and Table 2 directly from chunked
  columnar store(s) without materializing jobs;
* ``engine`` — columnar trace engine: convert a trace (or re-encode an
  existing store, which is also how a legacy v1/v2 store migrates to v3) to
  the chunked on-disk columnar store, **append** fresh jobs to a store
  (``ingest``, crash-safe), inspect a store (``info --sizes`` breaks the
  disk footprint down per column; ``info --json``
  emits the machine-readable metadata the service catalog consumes), build
  secondary-index sidecars (``index build``/``status``/``drop``), and run
  filtered/grouped aggregate and top-k queries over it — planned through
  the indexes when fresh ones exist (``query --explain`` prints the chosen
  access path; ``--no-index`` forces the scan path), optionally in
  parallel;
* ``serve`` — run the trace-analytics daemon: an HTTP server over a catalog
  of named stores with shared-scan admission, append-aware result caching,
  background feed ingest and workload-drift subscriptions (see
  ``docs/service.md``).

``characterize --store`` supports **checkpointed incremental runs**:
``--checkpoint PATH`` persists the scan's fold states; after an ``engine
ingest``, ``--resume PATH`` folds only the appended chunks (bit-identical to
a full rescan, which non-resumable analyses transparently fall back to).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .bench.suite import CHARACTERIZATION_EXPERIMENT_IDS, EXPERIMENT_IDS, render_suite, run_suite
from .engine import ChunkedTraceStore, ParallelExecutor, Query
from .errors import ReproError
from .core.characterization import characterize
from .core.evolution import compare_evolution
from .simulator.replay import WorkloadReplayer
from .simulator.sweep import (
    CACHE_NAMES,
    SCHEDULER_NAMES,
    Scenario,
    ScenarioSweep,
    load_sweep_spec,
)
from .synth.swim import SwimSynthesizer
from .traces.anonymize import Anonymizer, anonymize_trace
from .traces.export import aggregate_trace
from .traces.io import iter_trace, read_trace, write_trace
from .traces.registry import load_workload, registered_names
from .units import HOUR

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-workloads",
        description="MapReduce workload characterization, synthesis and replay "
                    "(reproduction of Chen, Alspaugh & Katz, VLDB 2012).",
    )
    parser.add_argument("--version", action="version", version="repro %s" % __version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a workload trace")
    generate.add_argument("workload", choices=registered_names(), help="workload name")
    generate.add_argument("--scale", type=float, default=None, help="job-count scale factor")
    generate.add_argument("--seed", type=int, default=0, help="generation seed")
    generate.add_argument("--output", required=True, help="output trace path (.csv/.jsonl[.gz])")

    character = subparsers.add_parser("characterize", help="characterize a workload")
    source = character.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=registered_names(), help="generate and characterize")
    source.add_argument("--trace", help="characterize an existing trace file")
    source.add_argument("--store", help="characterize a chunked columnar store "
                                        "out-of-core (streamed engine scans)")
    character.add_argument("--scale", type=float, default=None, help="scale for generated workloads")
    character.add_argument("--seed", type=int, default=0)
    character.add_argument("--no-cluster", action="store_true", help="skip the Table-2 clustering step")
    character.add_argument("--processes", type=int, default=None, metavar="N",
                           help="fan the shared scan of a --store source out "
                                "over N worker processes")
    character.add_argument("--checkpoint", metavar="PATH",
                           help="save a characterization checkpoint (JSON + "
                                ".npz) after the scan — --store sources only")
    character.add_argument("--resume", metavar="PATH",
                           help="resume from a checkpoint of an earlier scan: "
                                "resumable analyses fold only the chunks "
                                "appended since (ingest), the rest rescan — "
                                "--store sources only")

    synthesize = subparsers.add_parser("synthesize", help="SWIM-style scaled synthesis")
    synth_source = synthesize.add_mutually_exclusive_group(required=True)
    synth_source.add_argument("--workload", choices=registered_names())
    synth_source.add_argument("--trace", help="source trace file")
    synthesize.add_argument("--jobs", type=int, default=2000, help="synthetic job count")
    synthesize.add_argument("--hours", type=float, default=4.0, help="replay window in hours")
    synthesize.add_argument("--machines", type=int, default=20, help="target cluster size")
    synthesize.add_argument("--seed", type=int, default=0)
    synthesize.add_argument("--scale", type=float, default=None)
    synthesize.add_argument("--output", required=True, help="output synthetic trace path")

    replay = subparsers.add_parser(
        "replay",
        help="replay a workload on the simulator (materialized or streaming)")
    replay_source = replay.add_mutually_exclusive_group(required=True)
    replay_source.add_argument("--workload", choices=registered_names())
    replay_source.add_argument("--trace", help="trace file to replay")
    replay_source.add_argument("--store", help="chunked columnar store directory "
                                               "(streamed with bounded memory)")
    replay.add_argument("--scale", type=float, default=None)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--nodes", type=int, default=100, help="simulated cluster size")
    replay.add_argument("--max-jobs", type=int, default=None, help="cap on replayed jobs")
    replay.add_argument("--scheduler", choices=list(SCHEDULER_NAMES), default="fifo",
                        help="scheduling policy (default fifo)")
    replay.add_argument("--cache", choices=list(CACHE_NAMES), default="none",
                        help="storage-cache policy (default none)")
    replay.add_argument("--cache-gb", type=float, default=1024.0,
                        help="cache capacity in GB for bounded policies")
    replay.add_argument("--streaming", action="store_true",
                        help="stream a --trace file lazily instead of materializing it "
                             "(--store always streams)")
    replay.add_argument("--shards", type=int, default=0, metavar="N",
                        help="split a --store replay into N time-window "
                             "shards (0/1 = unsharded)")
    replay.add_argument("--shard-mode", choices=["exact", "windowed"],
                        default="exact",
                        help="exact: one engine threaded across boundaries, "
                             "bit-identical to unsharded; windowed: windows "
                             "replay in parallel worker processes, "
                             "cross-boundary contention approximated")
    replay.add_argument("--lookahead", type=int, default=None,
                        help="bound on submissions queued ahead of simulated time")
    replay.add_argument("--sweep", metavar="SPEC.json",
                        help="run a scenario sweep (grid/list of scheduler x cache x "
                             "cluster cells) instead of a single replay")
    replay.add_argument("--processes", type=int, default=None, metavar="N",
                        help="worker processes for a store-backed --sweep or for "
                             "--shard-mode windowed shards")
    replay.add_argument("--output", help="also write the sweep results JSON here")

    anonymize = subparsers.add_parser("anonymize",
                                      help="anonymize a trace and/or export aggregated metrics")
    anon_source = anonymize.add_mutually_exclusive_group(required=True)
    anon_source.add_argument("--workload", choices=registered_names())
    anon_source.add_argument("--trace", help="trace file to anonymize")
    anonymize.add_argument("--scale", type=float, default=None)
    anonymize.add_argument("--seed", type=int, default=0)
    anonymize.add_argument("--salt", default="repro", help="anonymization salt")
    anonymize.add_argument("--output", help="write the anonymized trace here (.csv/.jsonl[.gz])")
    anonymize.add_argument("--aggregate", help="also write the aggregated-metrics JSON here")

    compare = subparsers.add_parser("compare",
                                    help="evolution comparison of two traces (before vs after)")
    compare.add_argument("--before-workload", choices=registered_names())
    compare.add_argument("--before-trace")
    compare.add_argument("--after-workload", choices=registered_names())
    compare.add_argument("--after-trace")
    compare.add_argument("--scale", type=float, default=None)
    compare.add_argument("--seed", type=int, default=0)

    bench = subparsers.add_parser("bench", help="run the benchmark suite")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--scale", type=float, default=None, help="uniform workload scale")
    bench.add_argument("--store", action="append", metavar="DIR",
                       help="run the suite on chunked columnar store(s) instead of "
                            "generating workloads (repeatable; defaults to the "
                            "characterization experiments, streamed out-of-core)")
    bench.add_argument("--experiments", nargs="*", choices=list(EXPERIMENT_IDS),
                       help="subset of experiments to run")
    bench.add_argument("--no-simulation", action="store_true",
                       help="skip experiments that need the replay simulator")
    bench.add_argument("--processes", type=int, default=None, metavar="N",
                       help="worker processes for the shared scan of "
                            "store-backed traces")
    bench.add_argument("--output", help="also write the report to this file")

    engine = subparsers.add_parser("engine",
                                   help="columnar trace engine (convert / info "
                                        "/ index / query)")
    engine_actions = engine.add_subparsers(dest="engine_command", required=True)

    convert = engine_actions.add_parser("convert",
                                        help="convert a trace to a chunked columnar store")
    convert_source = convert.add_mutually_exclusive_group(required=True)
    convert_source.add_argument("--workload", choices=registered_names(),
                                help="generate and convert a paper workload")
    convert_source.add_argument("--trace", help="trace file (.csv/.jsonl[.gz]); streamed lazily")
    convert_source.add_argument("--store", help="existing store directory "
                                                "(re-encoding, streamed chunk by "
                                                "chunk; migrates a legacy v1/v2 "
                                                "store to v3)")
    convert.add_argument("--scale", type=float, default=None)
    convert.add_argument("--seed", type=int, default=0)
    convert.add_argument("--output", required=True, help="store directory to create")
    convert.add_argument("--chunk-rows", type=int, default=65536,
                         help="rows per on-disk chunk (bounds conversion memory)")
    convert.add_argument("--codec", default=None,
                         help="block codec (default zlib; lzma always "
                              "available, zstd/lz4 when installed)")
    convert.add_argument("--level", type=int, default=None,
                         help="codec compression level (codec default if "
                              "omitted)")

    ingest = engine_actions.add_parser(
        "ingest", help="append fresh jobs to an existing store "
                       "(crash-safe manifest swap; zone maps extended)")
    ingest.add_argument("--store", required=True, help="store directory to append to")
    ingest_source = ingest.add_mutually_exclusive_group(required=True)
    ingest_source.add_argument("--trace", help="trace file with the new jobs; streamed lazily")
    ingest_source.add_argument("--workload", choices=registered_names(),
                               help="generate and append a paper workload")
    ingest.add_argument("--scale", type=float, default=None)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--chunk-rows", type=int, default=None,
                        help="rows per appended chunk (default: the store's "
                             "own chunk_rows)")
    ingest.add_argument("--codec", default=None,
                        help="create the store with this codec when "
                             "--store does not exist yet (appends always reuse "
                             "the store's own codec)")
    ingest.add_argument("--level", type=int, default=None,
                        help="codec level for --codec (codec default if omitted)")

    info = engine_actions.add_parser("info", help="summarize a chunked columnar store")
    info.add_argument("--store", required=True, help="store directory")
    info.add_argument("--sizes", action="store_true",
                      help="also print the per-column on-disk size breakdown "
                           "(compressed vs uncompressed bytes and ratio)")
    info.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON (store uid, manifest "
                           "sequence, columns, sizes) instead of the table")

    index = engine_actions.add_parser(
        "index", help="build / inspect / drop the secondary-index sidecar "
                      "(sorted numeric indexes, inverted string indexes)")
    index.add_argument("action", choices=["build", "status", "drop"],
                       help="build: stream the store chunk-at-a-time and write "
                            "the sidecar; status: freshness and per-column "
                            "stats; drop: delete the sidecar")
    index.add_argument("--store", required=True, help="store directory")
    index.add_argument("--columns", nargs="*", default=None,
                       help="columns to index with 'build' (default: every "
                            "indexable column)")
    index.add_argument("--json", action="store_true",
                       help="emit the 'status' summary as JSON")

    query = engine_actions.add_parser("query",
                                      help="filtered aggregate / group-by / top-k over a store")
    query.add_argument("--store", required=True, help="store directory")
    query.add_argument("--where", action="append", default=[], metavar="COL OP VALUE",
                       help="filter, e.g. 'input_bytes > 1e9' (repeatable, ANDed)")
    query.add_argument("--agg", nargs="*", default=[], metavar="OP:COLUMN",
                       help="aggregates, e.g. count sum:input_bytes p99:duration_s")
    query.add_argument("--group-by", help="group aggregates by a column")
    query.add_argument("--top-k", metavar="COLUMN:K",
                       help="return the K rows with the largest COLUMN instead of aggregating")
    query.add_argument("--limit", type=int, default=None,
                       help="collect at most N matching rows (short-circuits the scan)")
    query.add_argument("--columns", nargs="*", help="projection for top-k/limit output")
    query.add_argument("--parallel", type=int, default=None, metavar="N",
                       help="fan the scan out over N worker processes")
    query.add_argument("--explain", action="store_true",
                       help="print the planner's chosen access path without "
                            "executing the query")
    query.add_argument("--no-index", action="store_true",
                       help="ignore any index sidecar (zone-map scan only)")
    query.add_argument("--json", action="store_true",
                       help="emit results, stats and the plan as JSON")

    fed_compare = engine_actions.add_parser(
        "compare", help="federated cross-store comparison over a catalog of "
                        "member stores (the paper's seven-cluster argument)")
    fed_compare.add_argument("--catalog", required=True,
                             help="catalog directory: each subdirectory holding "
                                  "a store manifest is one member (name "
                                  "'<cluster>@<epoch>' tags cluster and epoch; "
                                  "catalog.json can override per member)")
    fed_compare.add_argument("--members", nargs="*", default=None,
                             help="member names to compare (default: every "
                                  "member in the catalog)")
    fed_compare.add_argument("--pairs", action="append", default=None,
                             metavar="A,B",
                             help="focus pair to detail with per-feature "
                                  "deltas (repeatable; default: every pair)")
    fed_compare.add_argument("--suite-size", type=int, default=None, metavar="K",
                             help="also select K representative members by "
                                  "greedy k-center")
    fed_compare.add_argument("--threshold-gb", type=float, default=10.0,
                             help="small-job byte threshold in GB (default 10)")
    fed_compare.add_argument("--processes", type=int, default=None, metavar="N",
                             help="profile members in parallel over N worker "
                                  "processes (results identical to serial)")
    fed_compare.add_argument("--checkpoints", metavar="DIR",
                             help="per-member profile checkpoints directory; "
                                  "reruns after appends fold only new chunks")
    fed_compare.add_argument("--json", action="store_true",
                             help="emit the full machine-readable report as JSON")

    serve = subparsers.add_parser(
        "serve", help="run the trace-analytics service daemon over a store catalog")
    serve.add_argument("--catalog", required=True,
                       help="catalog directory: each subdirectory holding a "
                            "manifest.json is served as a named store")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (0 picks an ephemeral port; see "
                            "--ready-file)")
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="worker threads for scans/queries/replays")
    serve.add_argument("--batch-window-ms", type=float, default=50.0,
                       help="admission window: characterization requests for "
                            "the same store arriving within it share one scan")
    serve.add_argument("--cache-entries", type=int, default=256,
                       help="result-cache capacity in entries")
    serve.add_argument("--feed", action="append", default=[], metavar="STORE=PATH",
                       help="tail a JSONL trace feed into a named store "
                            "(repeatable); offsets persist across restarts")
    serve.add_argument("--poll-interval", type=float, default=1.0,
                       help="feed poll interval in seconds")
    serve.add_argument("--no-checkpoints", action="store_true",
                       help="disable the per-store characterization "
                            "checkpoints under <catalog>/.service/")
    serve.add_argument("--ready-file", metavar="PATH",
                       help="write {host, port, pid} JSON here once the "
                            "socket is bound (for scripts using --port 0)")
    return parser


def _load_source(args) -> "object":
    """Load a trace from --workload, --trace or --store arguments.

    ``--store`` returns a lazy :class:`ChunkedTraceStore` handle (for the
    commands that stream it); the others materialize a :class:`Trace`.
    """
    if getattr(args, "workload", None):
        return load_workload(args.workload, seed=args.seed, scale=args.scale)
    if getattr(args, "store", None) and not getattr(args, "trace", None):
        return ChunkedTraceStore(args.store)
    return read_trace(args.trace)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library failures (any :class:`~repro.errors.ReproError` — bad traces,
    impossible analyses, malformed stores) print one error line to stderr and
    exit 1 instead of dumping a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except ReproError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


def _dispatch(parser, args) -> int:
    if args.command == "generate":
        trace = load_workload(args.workload, seed=args.seed, scale=args.scale)
        write_trace(trace, args.output)
        print("wrote %d jobs to %s" % (len(trace), args.output))
        return 0

    if args.command == "characterize":
        if (args.checkpoint or args.resume) and not args.store:
            parser.error("--checkpoint/--resume need a --store source "
                         "(checkpoints record a chunk watermark)")
        trace = _load_source(args)
        report = characterize(trace, cluster=not args.no_cluster,
                              processes=args.processes,
                              resume_from=args.resume,
                              checkpoint_to=args.checkpoint)
        print(report.render())
        return 0

    if args.command == "synthesize":
        trace = _load_source(args)
        synthesizer = SwimSynthesizer(trace, seed=args.seed,
                                      source_machines=trace.machines or args.machines)
        plan = synthesizer.synthesize(n_jobs=args.jobs, horizon_s=args.hours * HOUR,
                                      target_machines=args.machines)
        write_trace(plan.trace, args.output)
        print(plan.describe())
        print("wrote synthetic trace to %s" % args.output)
        return 0

    if args.command == "replay":
        return _run_replay(parser, args)

    if args.command == "anonymize":
        trace = _load_source(args)
        anonymized = anonymize_trace(trace, Anonymizer(salt=args.salt), hash_job_ids=True)
        if args.output:
            write_trace(anonymized, args.output)
            print("wrote anonymized trace (%d jobs) to %s" % (len(anonymized), args.output))
        if args.aggregate:
            with open(args.aggregate, "w", encoding="utf-8") as handle:
                handle.write(aggregate_trace(anonymized).to_json(indent=2) + "\n")
            print("wrote aggregated metrics to %s" % args.aggregate)
        if not args.output and not args.aggregate:
            print(aggregate_trace(anonymized).to_json(indent=2))
        return 0

    if args.command == "compare":
        def load(workload, trace_path):
            if workload:
                return load_workload(workload, seed=args.seed, scale=args.scale)
            if trace_path:
                return read_trace(trace_path)
            parser.error("compare needs both a before and an after source")
        before = load(args.before_workload, args.before_trace)
        after = load(args.after_workload, args.after_trace)
        report = compare_evolution(before, after)
        print("\n".join(report.summary_lines()))
        return 0

    if args.command == "engine":
        return _run_engine(parser, args)

    if args.command == "serve":
        return _run_serve(parser, args)

    if args.command == "bench":
        traces = None
        experiments = args.experiments
        if args.store:
            traces = {}
            for directory in args.store:
                store = ChunkedTraceStore(directory)
                # Stores converted from plain trace files all default to the
                # manifest name "trace"; disambiguate collisions by directory
                # so no store silently drops out of the report.
                name = store.name
                if name in traces:
                    base = os.path.basename(os.path.normpath(directory))
                    name = "%s (%s)" % (store.name, base)
                    suffix = 2
                    while name in traces:
                        name = "%s (%s#%d)" % (store.name, base, suffix)
                        suffix += 1
                traces[name] = store
            if experiments is None:
                # Stores default to the characterization experiments: the
                # replay ablations need materialized Job objects and must be
                # requested explicitly.
                experiments = list(CHARACTERIZATION_EXPERIMENT_IDS)
        results = run_suite(seed=args.seed, scale=args.scale,
                            traces=traces,
                            experiments=experiments,
                            include_simulation=not args.no_simulation,
                            processes=args.processes)
        report = render_suite(results)
        print(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
        return 0

    parser.error("unknown command %r" % (args.command,))
    return 2


# ---------------------------------------------------------------------------
# replay subcommand
# ---------------------------------------------------------------------------
def _replay_scenario(args) -> Scenario:
    """Build the single-replay Scenario described by the CLI flags."""
    return Scenario(
        name="cli",
        scheduler=args.scheduler,
        cache=args.cache,
        cache_gb=args.cache_gb,
        nodes=args.nodes,
        max_jobs=args.max_jobs,
        shards=args.shards,
        shard_mode=args.shard_mode,
        **({"lookahead": args.lookahead} if args.lookahead is not None else {}),
    )


def _run_replay(parser, args) -> int:
    if args.sweep:
        return _run_replay_sweep(parser, args)

    if args.shards and args.shards > 1 and not args.store:
        parser.error("--shards needs --store: time-window sharding splits a "
                     "sorted chunked store (build one with 'repro engine "
                     "convert')")
    scenario = _replay_scenario(args)
    if args.store:
        replayer = scenario.build_replayer()
        if scenario.shards > 1:
            # The sweep runner pins shard workers to 1 process (its own pool
            # does the fan-out); a single CLI replay gets the cores itself.
            replayer.processes = args.processes
        metrics = replayer.replay_store(args.store)
        source_label = "store %s (streamed)" % args.store
        if scenario.shards > 1:
            source_label += ", %d %s shards" % (scenario.shards,
                                                scenario.shard_mode)
    elif args.trace and args.streaming:
        metrics = scenario.build_replayer().replay_path(args.trace)
        source_label = "trace %s (streamed)" % args.trace
    else:
        trace = _load_source(args)
        replayer = WorkloadReplayer(cluster_config=scenario.cluster_config(),
                                    scheduler=scenario.build_scheduler(),
                                    cache=scenario.build_cache(),
                                    max_simulated_jobs=args.max_jobs,
                                    **({"lookahead": args.lookahead}
                                       if args.lookahead is not None else {}))
        metrics = replayer.replay(trace)
        source_label = "trace (materialized)"
    print("replayed %d jobs (%d finished) on %d nodes [%s, scheduler=%s, cache=%s]"
          % (metrics.n_jobs, metrics.finished_jobs, args.nodes,
             source_label, args.scheduler, args.cache))
    print("mean wait %.1f s, median completion %.1f s, mean utilization %.1f%%" % (
        metrics.mean_wait_time(), metrics.median_completion_time(),
        100 * metrics.mean_utilization()))
    if args.cache != "none" and metrics.cache_stats is not None:
        print("cache hit rate %.1f%% (%.1f%% of bytes)" % (
            100 * metrics.cache_stats.hit_rate,
            100 * metrics.cache_stats.byte_hit_rate))
    return 0


def _run_replay_sweep(parser, args) -> int:
    from .engine import ParallelExecutor

    # Scenario identity (scheduler/cache/cluster) lives in the spec file;
    # rejecting the single-replay flags here beats silently ignoring them.
    if (args.scheduler != "fifo" or args.cache != "none"
            or args.cache_gb != 1024.0 or args.nodes != 100 or args.shards):
        parser.error("--scheduler/--cache/--cache-gb/--nodes/--shards apply "
                     "to single replays; with --sweep, define them per "
                     "scenario in the spec file")
    scenarios = load_sweep_spec(args.sweep)
    for scenario in scenarios:
        if args.max_jobs is not None:
            scenario.max_jobs = args.max_jobs
        if args.lookahead is not None:
            scenario.lookahead = args.lookahead
    sweep = ScenarioSweep(scenarios,
                          executor=ParallelExecutor(processes=args.processes))
    if args.store:
        source = args.store
    else:
        # Trace files and generated workloads are materialized once and the
        # scenarios run serially against the shared in-memory trace.
        source = _load_source(args)
    result = sweep.run(source)
    print(result.render())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.to_json(indent=2) + "\n")
        print("wrote sweep results JSON to %s" % args.output)
    return 0


# ---------------------------------------------------------------------------
# engine subcommand
# ---------------------------------------------------------------------------
def _build_engine_query(args) -> Query:
    """Build the engine Query from the CLI flags.

    Delegates to :func:`repro.service.requests.build_query` — the service's
    ``query`` endpoint consumes the same spec, so clause syntax and
    validation are identical on both surfaces.
    """
    from .service.requests import build_query

    return build_query({
        "where": list(args.where),
        "agg": list(args.agg),
        "group_by": args.group_by,
        "top_k": args.top_k,
        "limit": args.limit,
        "columns": args.columns,
    })


def _run_engine(parser, args) -> int:
    if args.engine_command == "convert":
        if args.workload:
            source = load_workload(args.workload, seed=args.seed, scale=args.scale)
        elif args.store:
            from .engine.pipeline import find_store_checkpoints
            from .engine.store import _conversion_source

            source = _conversion_source(args.store)  # store->store re-encode
            checkpoints = find_store_checkpoints(source)
            if checkpoints:
                raise ReproError(
                    "refusing to convert %s: checkpoint(s) reference this store "
                    "(%s); conversion mints a fresh store_uid, so a resume "
                    "against the converted copy would be rejected — finish or "
                    "delete the checkpoint(s) first"
                    % (args.store, ", ".join(checkpoints)))
        else:
            source = iter_trace(args.trace)  # lazy: bounded by --chunk-rows
        store = ChunkedTraceStore.write(args.output, source, chunk_rows=args.chunk_rows,
                                        name=args.workload or None,
                                        codec=args.codec, codec_level=args.level)
        print("wrote %d jobs in %d chunks to %s (format v3, codec %s)"
              % (store.n_jobs, store.n_chunks, args.output, store.codec))
        return 0

    if args.engine_command == "ingest":
        from .engine.store import MANIFEST_NAME

        if args.workload:
            source = load_workload(args.workload, seed=args.seed, scale=args.scale)
        else:
            source = iter_trace(args.trace)  # lazy: bounded by chunk rows
        if args.level is not None and args.codec is None:
            parser.error("--level requires --codec")
        store_exists = os.path.isfile(os.path.join(args.store, MANIFEST_NAME))
        if args.codec is not None and store_exists:
            parser.error("--codec only applies when creating a new store; %s "
                         "exists and appends reuse its own codec" % (args.store,))
        if args.codec is not None:
            store = ChunkedTraceStore.write(
                args.store, source, chunk_rows=args.chunk_rows or 65536,
                name=args.workload or None,
                codec=args.codec, codec_level=args.level)
            print("created %s (codec %s): %d jobs in %d chunks"
                  % (args.store, store.codec, store.n_jobs, store.n_chunks))
            return 0
        appender = ChunkedTraceStore.open_append(args.store)
        before_jobs = appender.store.n_jobs
        before_chunks = appender.store.n_chunks
        store = appender.append(source, chunk_rows=args.chunk_rows)
        print("appended %d jobs in %d chunks to %s "
              "(now %d jobs, %d chunks, sorted_by_submit_time=%s, "
              "manifest_sequence=%d)"
              % (store.n_jobs - before_jobs, store.n_chunks - before_chunks,
                 args.store, store.n_jobs, store.n_chunks,
                 store.sorted_by_submit_time, store.manifest_sequence))
        return 0

    if args.engine_command == "info":
        import json as json_module

        store = ChunkedTraceStore(args.store)
        info = store.info()
        if args.json:
            if args.sizes:
                info["column_sizes"] = store.column_sizes()
                info["column_raw_sizes"] = store.column_raw_sizes()
            print(json_module.dumps(info, indent=2, sort_keys=True))
            return 0
        for key in ("directory", "name", "store_uid", "machines",
                    "format_version", "manifest_sequence",
                    "sorted_by_submit_time", "n_jobs", "n_chunks",
                    "on_disk_bytes", "submit_time_range"):
            print("%-18s %s" % (key, info[key]))
        print("%-18s %s" % ("columns", ", ".join(info["columns"])))
        if args.sizes:
            sizes = store.column_sizes()
            total = sum(sizes.values()) or 1
            raw_sizes = store.column_raw_sizes()
            print("\nper-column on-disk bytes (format v3, codec %s):" % (store.codec,))
            print("  %-20s %12s %12s %7s" % ("column", "compressed",
                                             "uncompressed", "ratio"))
            for column, size in sorted(sizes.items(), key=lambda item: -item[1]):
                raw = raw_sizes.get(column, 0)
                print("  %-20s %12d %12d %6.1fx"
                      % (column, size, raw, raw / size if size else 0.0))
            raw_total = sum(raw_sizes.values())
            print("  %-20s %12d %12d %6.1fx"
                  % ("(total)", total, raw_total, raw_total / total))
            index_info = info.get("indexes")
            if index_info is not None:
                state = ("fresh" if index_info["fresh"]
                         else "STALE: %s" % index_info["stale_reason"])
                print("\nindex sidecar bytes (%s):" % (state,))
                from .engine import load_indexes

                index_sizes = load_indexes(store).sizes()
                for column, size in sorted(index_sizes.items(),
                                           key=lambda item: -item[1]):
                    kind = index_info["columns"][column]["kind"]
                    print("  %-20s %-9s %12d" % (column, kind, size))
        return 0

    if args.engine_command == "query":
        import json as json_module

        store = ChunkedTraceStore(args.store)
        query = _build_engine_query(args)
        use_index = not args.no_index
        if args.explain:
            from .engine import plan_query

            plan = plan_query(store, query, use_index=use_index)
            if args.json:
                print(json_module.dumps(plan.to_dict(), indent=2, sort_keys=True))
            else:
                print(plan.describe())
            return 0
        if args.parallel and query.is_aggregate_only():
            result = ParallelExecutor(processes=args.parallel).run(store, query)
        else:
            from .engine import execute_planned

            result = execute_planned(store, query, use_index=use_index)
        plan = result.plan
        if plan is not None and plan.stale_index:
            print("warning: stale index sidecar ignored -- rebuild it with "
                  "'repro engine index build --store %s'" % (args.store,),
                  file=sys.stderr)
        if args.json:
            payload = {
                "stats": {
                    "rows_scanned": result.rows_scanned,
                    "chunks_scanned": result.chunks_scanned,
                    "chunks_skipped": result.chunks_skipped,
                    "rows_matched": result.rows_matched,
                },
                "plan": plan.to_dict() if plan is not None else None,
            }
            if result.aggregates is not None:
                payload["aggregates"] = result.aggregates
            elif result.groups is not None:
                payload["groups"] = {
                    str(key if key != "" else "(missing)"): aggregates
                    for key, aggregates in result.groups.items()}
            else:
                payload["rows"] = result.row_dicts()
            print(json_module.dumps(payload, indent=2, sort_keys=True,
                                    default=float))
            return 0
        if result.aggregates is not None:
            for label, value in result.aggregates.items():
                print("%-24s %s" % (label, _render_value(value)))
        elif result.groups is not None:
            for key, aggregates in result.groups.items():
                rendered = ", ".join("%s=%s" % (label, _render_value(value))
                                     for label, value in aggregates.items())
                print("%-24s %s" % (key if key != "" else "(missing)", rendered))
        else:
            for row in result.row_dicts():
                print(row)
        print("-- scanned %d rows in %d chunks (%d skipped via zone maps), %d matched"
              % (result.rows_scanned, result.chunks_scanned,
                 result.chunks_skipped, result.rows_matched))
        if plan is not None:
            print("-- plan: %s" % (plan.summary(),))
        return 0

    if args.engine_command == "index":
        import json as json_module

        from .engine import build_indexes, drop_indexes, load_indexes

        store = ChunkedTraceStore(args.store)
        if args.action == "build":
            indexes = build_indexes(store, columns=args.columns or None)
            indexes.save()
            sizes = indexes.sizes()
            print("indexed %d columns over %d chunks / %d rows (%d sidecar "
                  "bytes, manifest_sequence=%d)"
                  % (len(indexes.columns), indexes.n_chunks, indexes.n_rows,
                     sum(sizes.values()), indexes.manifest_sequence))
            for column in indexes.columns:
                meta = indexes.column_meta[column]
                print("  %-20s %-9s %12d bytes" % (column, meta["kind"],
                                                   sizes.get(column, 0)))
            return 0
        if args.action == "drop":
            removed = drop_indexes(store)
            print("removed %d index sidecar file(s) from %s"
                  % (removed, args.store))
            return 0
        indexes = load_indexes(store)
        if indexes is None:
            print("no index sidecar in %s (build one with 'repro engine "
                  "index build')" % (args.store,))
            return 1
        info = indexes.info(store)
        if args.json:
            print(json_module.dumps(info, indent=2, sort_keys=True))
            return 0
        state = "fresh" if info["fresh"] else "STALE (%s)" % info["stale_reason"]
        print("index sidecar: %s" % (state,))
        print("covers %d chunks / %d rows at manifest_sequence=%d "
              "(store is at %d); %d bytes on disk"
              % (info["n_chunks"], info["n_rows"], info["manifest_sequence"],
                 store.manifest_sequence, info["on_disk_bytes"]))
        sizes = indexes.sizes()
        for column in indexes.columns:
            meta = info["columns"][column]
            stats = ", ".join("%s=%s" % (key, meta[key])
                              for key in sorted(meta)
                              if key not in ("kind", "file"))
            print("  %-20s %-9s %12d bytes  %s"
                  % (column, meta["kind"], sizes.get(column, 0), stats))
        return int(not info["fresh"])

    if args.engine_command == "compare":
        import json as json_module

        from .core.federation import compare_catalog
        from .units import GB

        pairs = None
        if args.pairs:
            pairs = []
            for item in args.pairs:
                a, separator, b = item.partition(",")
                if not separator or not a or not b:
                    parser.error("--pairs must look like A,B, got %r" % (item,))
                pairs.append((a, b))
        executor = (ParallelExecutor(processes=args.processes)
                    if args.processes else None)
        report = compare_catalog(
            args.catalog, members=args.members, pairs=pairs,
            suite_size=args.suite_size,
            small_job_threshold_bytes=args.threshold_gb * GB,
            executor=executor, checkpoint_dir=args.checkpoints)
        if args.json:
            print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        return 0

    parser.error("unknown engine command %r" % (args.engine_command,))
    return 2


# ---------------------------------------------------------------------------
# serve subcommand
# ---------------------------------------------------------------------------
def _run_serve(parser, args) -> int:
    import asyncio
    import signal

    from .service.server import TraceAnalyticsService

    feeds = {}
    for item in args.feed:
        store_name, separator, feed_path = item.partition("=")
        if not separator or not store_name or not feed_path:
            parser.error("--feed must look like STORE=PATH, got %r" % (item,))
        feeds[store_name] = feed_path

    async def amain() -> int:
        service = TraceAnalyticsService(
            args.catalog, host=args.host, port=args.port, workers=args.workers,
            batch_window_s=args.batch_window_ms / 1000.0,
            cache_entries=args.cache_entries, feeds=feeds,
            poll_interval_s=args.poll_interval,
            checkpoints=not args.no_checkpoints)
        await service.start(ready_file=args.ready_file)
        print("serving catalog %s at %s (%d stores%s)"
              % (service.catalog.directory, service.address,
                 len(service.catalog),
                 ", %d feeds" % len(service.tailers) if service.tailers else ""),
              file=sys.stderr, flush=True)
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signal_number, service.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal handlers
        await service.run_until_stopped()
        return 0

    try:
        return asyncio.run(amain())
    except KeyboardInterrupt:
        return 0


def _render_value(value):
    if isinstance(value, float):
        return "%.6g" % value
    if isinstance(value, list):  # CDF points
        return "[%d cdf points]" % len(value)
    return str(value)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
