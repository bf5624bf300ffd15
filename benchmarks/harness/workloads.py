"""The four workloads.  Each builds its inputs from ``corpus.columns(seed, n)``
in ``setup``, then repeats one ``round`` — a fixed script that visits every
operation class of the workload once or more — until the run's seconds are
spent.  Repeats of different classes are therefore interleaved: a noisy
neighbour's burst lands on every class a little instead of sinking one.

Every workload names three operation classes small / medium / large, the
paper's own trichotomy, and reports their latency as the three headline
end-to-end metrics (see README.md for what each is on each workload).

Product calls go through module attributes (``engine.execute``), never names
imported here, so that ``spans.install`` can wrap them from outside.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from repro import engine, simulator, traces
from repro.bench.suite import CHARACTERIZATION_EXPERIMENT_IDS
from repro.core import characterization, clustering, federation, sharedscan

import checks
import corpus
import httpload

CHUNK_ROWS = 8192
FORMAT_VERSION = 3


def directory_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def peak_rss_mb(pid="self") -> float:
    """VmHWM, not ru_maxrss: the latter is inherited across fork/exec."""
    with open("/proc/%s/status" % pid, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/%s/status" % pid)


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


class Ops:
    """Times operations by class and counts attempted / failed.

    ``bucket`` separates the samples of traced rounds from untraced ones; the
    warm-up round writes to a bucket nobody reads.  Every sample remembers the
    round it was taken in.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.bucket = "warmup"
        self.round = 0
        self.samples = defaultdict(lambda: defaultdict(list))
        self.sample_rounds = defaultdict(lambda: defaultdict(list))
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def timed(self, op_class: str, function, *args, **kwargs):
        self.attempted += 1
        recorder = self.recorder
        frame = (recorder.push("harness", op_class, {"op": self.attempted})
                 if recorder.enabled else None)
        start = time.perf_counter()
        try:
            value = function(*args, **kwargs)
        except Exception:
            self.fail("%s raised: %s" % (op_class, traceback.format_exc(limit=4)))
            raise
        finally:
            elapsed = time.perf_counter() - start
            if frame is not None:
                recorder.pop(frame)
        self.add(op_class, elapsed)
        return value

    def add(self, op_class: str, seconds: float) -> None:
        """A sample that is not an operation of its own (a second name for
        one, or an open-loop request timed from its due time)."""
        self.samples[self.bucket][op_class].append(seconds)
        self.sample_rounds[self.bucket][op_class].append(self.round)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, label: str, ok: bool) -> None:
        """A correctness check counts as one more operation."""
        self.attempted += 1
        if not ok:
            self.fail("check failed: " + label)

    def of(self, op_class: str, bucket: str = "plain"):
        return self.samples[bucket][op_class]

    def p50_ms(self, op_class: str, bucket: str = "plain") -> float:
        samples = self.of(op_class, bucket)
        return statistics.median(samples) * 1000.0 if samples else 0.0

    def steady_ms(self, op_class: str, q: float = 50.0) -> float:
        """The ``q``-th percentile of the class within each plain round, then
        the lower quartile of those over the rounds.  A neighbour's burst only
        ever adds time and rarely outlasts a few rounds; the quartile ignores
        up to three disturbed rounds in four, where the median of all samples
        moves as soon as half are."""
        by_round = defaultdict(list)
        for seconds, index in zip(self.of(op_class), self.sample_rounds["plain"][op_class]):
            by_round[index].append(seconds)
        if not by_round:
            return 0.0
        return percentile([percentile(samples, q) for samples in by_round.values()], 25) * 1000.0


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    #: operation classes reported as small_op_ms / medium_op_ms / large_op_ms
    small = medium = large = ""
    #: every class this workload can time (per-layer ``op.<class>.p50_ms``)
    classes = ()

    def __init__(self, seed: int, n_jobs: int, recorder, ops: Ops, src_dir: str,
                 smoke: bool = False):
        self.seed = seed
        self.n = n_jobs
        self.smoke = smoke  # short phases: plumbing, not numbers
        self.recorder = recorder
        self.ops = ops
        self.src_dir = src_dir
        self.rng = np.random.default_rng(seed)
        self.counters = defaultdict(float)
        self.corpus_sha256 = ""

    def setup(self, directory: str) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Oracles that need the end state; per-operation ones run in round()."""

    def probes(self) -> None:
        """Extra operation classes timed only in the traced run, after the
        measured rounds (they may change the store)."""

    def teardown(self) -> None:
        """Undo ``setup`` (stop processes); the directory is removed by the caller."""

    def headlines(self):
        """The three headline latencies, in ms."""
        return {"small_op_ms": self.ops.steady_ms(self.small),
                "medium_op_ms": self.ops.steady_ms(self.medium),
                "large_op_ms": self.ops.steady_ms(self.large)}

    def disk_bytes_per_job(self) -> float:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    # -- shared helpers -----------------------------------------------------
    def _columns(self):
        cols = corpus.columns(self.seed, self.n)
        self.corpus_sha256 = corpus.columns_sha256(cols)
        return cols

    def _write_store(self, directory: str, cols, name: str, index: bool):
        store = engine.write_store(directory, engine.ColumnarTrace(dict(cols), name=name),
                                   chunk_rows=CHUNK_ROWS, format_version=FORMAT_VERSION)
        if index:
            engine.build_indexes(store).save()
            store = engine.ChunkedTraceStore(directory)
        return store

    def _point_query(self, value: float):
        return (engine.Query().filter("input_bytes", "==", float(value))
                .project(["job_id", "input_bytes"]))


# ---------------------------------------------------------------------------
# ingest: the write path, with reads beside it
# ---------------------------------------------------------------------------
class Ingest(Workload):
    name = "ingest"
    small, medium, large = "append", "resume", "bulk"
    classes = ("bulk", "append", "resume", "fresh_lookup")
    APPENDS_PER_ROUND = 3
    LOOKUPS_PER_APPEND = 20

    def setup(self, directory: str) -> None:
        self.dir = directory
        cols = self._columns()
        self.bulk_rows = self.n // 2
        self.batch_rows = max(200, self.n // 50)
        self.bulk_path = os.path.join(directory, "bulk.jsonl")
        corpus.write_jsonl(corpus.take(cols, 0, self.bulk_rows), self.bulk_path)
        # The pristine state every round starts from: store + index + checkpoint.
        self.base = os.path.join(directory, "base")
        self.live = os.path.join(directory, "live")
        store = self._write_store(os.path.join(self.base, "store"), cols, "ingest", index=True)
        sharedscan.run_characterization_scan(
            store, checkpoint_to=os.path.join(self.base, "scan.ck.json"))
        self.batches = []
        last = float(cols["submit_time_s"][-1])
        for k in range(self.APPENDS_PER_ROUND):
            batch = corpus.columns(self.seed * 1000 + 1 + k, self.batch_rows, start_s=last,
                                   horizon_s=3600.0, id_prefix="a",
                                   first_index=self.n + k * self.batch_rows)
            last = float(batch["submit_time_s"][-1])
            path = os.path.join(directory, "batch%d.jsonl" % k)
            corpus.write_jsonl(batch, path)
            picks = self.rng.choice(self.batch_rows, size=self.LOOKUPS_PER_APPEND, replace=False)
            self.batches.append((path, batch, picks))
        self.final_rows = self.n + self.APPENDS_PER_ROUND * self.batch_rows

    def _bulk(self, target: str):
        store = engine.write_store(target, traces.iter_trace(self.bulk_path),
                                   chunk_rows=CHUNK_ROWS, format_version=FORMAT_VERSION)
        engine.build_indexes(store).save()
        return store

    def round(self) -> None:
        ops = self.ops
        target = os.path.join(self.dir, "bulk.store")
        with self.recorder.span("harness.inputs", "reset-live-store"):
            shutil.rmtree(target, ignore_errors=True)
            shutil.rmtree(self.live, ignore_errors=True)
            shutil.copytree(self.base, self.live)
            os.sync()
        store = ops.timed("bulk", self._bulk, target)
        ops.check("bulk row count", len(store) == self.bulk_rows)
        with self.recorder.span("harness.inputs", "sync"):
            # ext4 makes an fsync wait for other files' dirty pages; flush the
            # copy and the bulk store now so the appends pay only for their own.
            os.sync()

        live_store = os.path.join(self.live, "store")
        checkpoint = os.path.join(self.live, "scan.ck.json")
        for path, batch, picks in self.batches:
            ops.timed("append", engine.append_store, live_store, traces.iter_trace(path))
            store = engine.ChunkedTraceStore(live_store)
            bundle = ops.timed("resume", sharedscan.run_characterization_scan, store,
                               resume_from=checkpoint, checkpoint_to=checkpoint)
            self.counters["engine.pipeline.resume_chunks_folded"] = bundle.resume["new_chunks"]
            self.counters["engine.pipeline.rescanned_consumers"] = len(bundle.resume["rescanned"])
            for row in picks:
                result = ops.timed("fresh_lookup", engine.execute, store,
                                   self._point_query(batch["input_bytes"][row]))
                ops.check("fresh lookup finds the appended job",
                          str(batch["job_id"][row]) in result.rows.column("job_id").tolist()
                          and result.plan.used_index)

    def final_checks(self) -> None:
        store = engine.ChunkedTraceStore(os.path.join(self.live, "store"))
        self.ops.check("final row count", len(store) == self.final_rows)
        self.ops.check("index sidecar fresh after the appends", checks.index_is_fresh(store))
        self.ops.check("resumed characterization == cold rescan",
                       checks.resumed_equals_cold(store, os.path.join(self.live, "scan.ck.json")))
        self._file_sizes(store)

    def _file_sizes(self, store) -> None:
        rows = float(len(store))
        indexes = engine.load_indexes(store)
        index_bytes = sum(indexes.sizes().values()) if indexes is not None else 0
        dictionary_bytes = engine.StoreDictionary.load(store.directory).sidecar_bytes(store.directory)
        total = directory_bytes(store.directory)
        self.counters["engine.indexes.bytes_per_job"] = index_bytes / rows
        self.counters["engine.codecs.dictionary_bytes"] = dictionary_bytes
        self.counters["engine.store.bytes_per_job"] = (total - index_bytes) / rows

    def disk_bytes_per_job(self) -> float:
        return directory_bytes(os.path.join(self.live, "store")) / float(self.final_rows)


# ---------------------------------------------------------------------------
# batch: whole-store passes
# ---------------------------------------------------------------------------
class Batch(Workload):
    name = "batch"
    small, medium, large = "federate", "characterize", "replay"
    classes = ("characterize", "federate", "replay", "cluster", "federate_parallel2",
               "replay_sharded2")

    def setup(self, directory: str) -> None:
        self.catalog = os.path.join(directory, "catalog")
        cols = self._columns()
        self.store = self._write_store(os.path.join(self.catalog, "main"), cols, "main",
                                       index=False)
        self.member_rows = self.n
        for k, shift in enumerate((0.7, -0.7)):
            rows = self.n // 4
            sibling = corpus.columns(self.seed * 1000 + 11 + k, rows, id_prefix="s%d" % k,
                                     bytes_shift=shift)
            self._write_store(os.path.join(self.catalog, "sib%d" % k), sibling,
                              "sib%d" % k, index=False)
            self.member_rows += rows
        self.first = {}

    def _characterize(self) -> str:
        # ``repro characterize --store DIR --no-cluster``.  The k-means sweep
        # picks k from the data, so its wall swings 2.7x from seed to seed
        # (259-693 ms on ten seeds): it is the ungated ``cluster`` probe.
        return characterization.characterize(self.store, seed=0, cluster=False).render()

    def _same_every_round(self, label: str, value) -> None:
        self.ops.check("%s identical every round" % label,
                       self.first.setdefault(label, value) == value)

    def round(self) -> None:
        ops = self.ops
        self._same_every_round("characterize report", ops.timed("characterize", self._characterize))
        report = ops.timed("federate", federation.compare_catalog, self.catalog)
        self._same_every_round("federation report", report.to_dict())
        metrics = ops.timed("replay", simulator.StreamingReplayer().replay_store, self.store)
        ops.check("replay completes every job", metrics.n_jobs == self.n)
        self._same_every_round("replay digest", metrics.digest())

    def probes(self) -> None:
        for _ in range(3):
            self.ops.timed("cluster", clustering.cluster_jobs, self.store, seed=0)
            executor = engine.ParallelExecutor(processes=2)
            report = self.ops.timed("federate_parallel2", federation.compare_catalog,
                                    self.catalog, executor=executor)
            self._same_every_round("federation report", report.to_dict())
            metrics = self.ops.timed(
                "replay_sharded2",
                simulator.ShardedReplayer(shards=2, mode="exact").replay_store, self.store)
            self._same_every_round("replay digest", metrics.digest())

    def disk_bytes_per_job(self) -> float:
        return directory_bytes(self.catalog) / float(self.member_rows)


# ---------------------------------------------------------------------------
# interactive: closed loop of selective queries on an indexed store
# ---------------------------------------------------------------------------
class Interactive(Workload):
    name = "interactive"
    small, medium, large = "lookup", "range_agg", "scan_agg"
    LOOKUP_CLASSES = ("point_numeric", "point_string", "top_k", "limit_clustered")
    classes = ("lookup", "range_agg", "scan_agg") + LOOKUP_CLASSES + tuple(
        "scan." + name for name in LOOKUP_CLASSES + ("range_agg",)) + ("cli_startup",)
    # Shares put the median lookup inside the point_numeric class (sorted by
    # cost: point_string 15 %, limit_clustered 15 %, point_numeric 50 %,
    # top_k 20 %), not on a boundary between two classes.
    SHARES = (("point_numeric", 10), ("point_string", 3), ("limit_clustered", 3), ("top_k", 4))
    LOOKUPS_PER_ROUND = 600
    RANGES_PER_ROUND = 24
    SCANS_PER_ROUND = 3
    FORCED_SCAN_EVERY = 97  # prime: walks through every class of the 20-long pattern
    KEY_POOL = 5000
    TOP_COLUMNS = ("submit_time_s", "input_bytes", "duration_s")

    def setup(self, directory: str) -> None:
        self.store_dir = os.path.join(directory, "store")
        self.cols = self._columns()
        self.store = self._write_store(self.store_dir, self.cols, "interactive", index=True)
        self.truth = checks.GroundTruth(self.cols)
        self.keys = self.rng.choice(self.n, size=min(self.KEY_POOL, self.n), replace=False)
        pattern = [name for name, weight in self.SHARES for _ in range(weight)]
        self.pattern = [pattern[i] for i in self.rng.permutation(len(pattern))]
        self.lookups_done = 0
        self.ranges_done = 0
        self.path_counts = defaultdict(int)
        self.touched = defaultdict(lambda: [0.0, 0.0, 0.0])  # chunks, rows scanned, rows returned

    # -- query builders -----------------------------------------------------
    def _lookup(self, op_class: str, row: int, ordinal: int):
        cols = self.cols
        if op_class == "point_numeric":
            return self._point_query(cols["input_bytes"][row])
        if op_class == "point_string":
            return engine.Query().filter("name", "==", str(cols["name"][row])).count()
        if op_class == "top_k":
            column = self.TOP_COLUMNS[ordinal % 3]
            return engine.Query().top(column, (10, 100)[ordinal % 2]).project(["job_id", column])
        return (engine.Query().filter("workload", "==", str(cols["workload"][row]))
                .limit(100).project(["job_id", "workload"]))

    def _range(self, cut: float):
        return (engine.Query().filter("submit_time_s", ">", float(cut))
                .aggregate(n=("count", "input_bytes"), total=("sum", "input_bytes")))

    def _note_plan(self, op_class: str, result) -> None:
        self.path_counts[result.plan.access_path] += 1
        returned = result.rows.n_rows if result.rows is not None else 1
        bucket = self.touched["range_agg" if op_class == "range_agg" else "lookup"]
        bucket[0] += result.chunks_scanned / float(self.store.n_chunks)
        bucket[1] += result.rows_scanned
        bucket[2] += max(returned, 1)

    def _check_lookup(self, op_class: str, row: int, query, result) -> None:
        cols, ops = self.cols, self.ops
        if op_class == "point_numeric":
            ops.check("point lookup returns the key's job",
                      str(cols["job_id"][row]) in result.rows.column("job_id").tolist())
        elif op_class == "point_string":
            ops.check("name count == numpy count",
                      result.aggregates["count"] == self.truth.name_count(str(cols["name"][row])))
        elif op_class == "limit_clustered":
            ops.check("LIMIT returns 100 rows of the phase",
                      result.rows.n_rows == 100
                      and set(result.rows.column("workload").tolist())
                      == {str(cols["workload"][row])})
        else:
            ops.check("top-k values == numpy top-k",
                      result.rows.column(query.top_k_column).tolist()
                      == self.truth.top_values(query.top_k_column, query.top_k))

    def _forced_scan(self, op_class: str, query, result) -> None:
        scanned = self.ops.timed("scan." + op_class, engine.execute, self.store, query,
                                 use_planner=False)
        self.ops.check("%s: planner result == forced scan" % op_class,
                       checks.results_identical(result, scanned))

    def round(self) -> None:
        ops = self.ops
        for _ in range(self.LOOKUPS_PER_ROUND):
            ordinal = self.lookups_done
            self.lookups_done += 1
            op_class = self.pattern[ordinal % len(self.pattern)]
            row = int(self.keys[int(self.rng.integers(self.keys.size))])
            query = self._lookup(op_class, row, ordinal // len(self.pattern))
            result = ops.timed(op_class, engine.execute, self.store, query)
            ops.add("lookup", ops.of(op_class, ops.bucket)[-1])
            self._note_plan(op_class, result)
            self._check_lookup(op_class, row, query, result)
            if ordinal % self.FORCED_SCAN_EVERY == 0:
                self._forced_scan(op_class, query, result)
        # A seeded grid over ~90 % of the span: both index-skip and scan plans
        # occur, and every round covers the whole grid.  The cost is a
        # staircase in chunks touched, so the grid is centred on the middle of
        # a chunk: the median cut must not sit on a step.
        fractions = (np.arange(self.RANGES_PER_ROUND) + self.rng.random()) / self.RANGES_PER_ROUND
        centre = (self.store.n_chunks // 2 + 0.5) * CHUNK_ROWS / self.n
        half = min(0.45, centre - 0.02, 0.98 - centre)
        for fraction in self.rng.permutation(centre - half + 2 * half * fractions):
            cut = self.truth.submit_at(fraction)
            result = ops.timed("range_agg", engine.execute, self.store, self._range(cut))
            self._note_plan("range_agg", result)
            ops.check("range count == numpy count",
                      result.aggregates["n"] == self.truth.rows_after(cut))
            self.ranges_done += 1
            if self.ranges_done % 12 == 0:
                self._forced_scan("range_agg", self._range(cut), result)
        for _ in range(self.SCANS_PER_ROUND):
            query = (engine.Query().group_by("name")
                     .aggregate(n=("count", "input_bytes"), total=("sum", "input_bytes")))
            result = ops.timed("scan_agg", engine.execute, self.store, query)
            self.path_counts[result.plan.access_path] += 1
            ops.check("group-by counts == numpy counts",
                      {key: group["n"] for key, group in result.groups.items()}
                      == self.truth.name_counts)

    def probes(self) -> None:
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        for _ in range(3):
            done = self.ops.timed(
                "cli_startup", subprocess.run,
                [sys.executable, "-m", "repro", "engine", "info", "--store", self.store_dir],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            self.ops.check("engine info exits 0", done.returncode == 0)

    def final_checks(self) -> None:
        for path, count in self.path_counts.items():
            self.counters["engine.planner.path." + path] = count
        for name, (chunks, scanned, returned) in self.touched.items():
            done = self.lookups_done if name == "lookup" else self.ranges_done
            self.counters["engine.planner.chunks_touched_frac." + name] = chunks / max(done, 1)
            self.counters["engine.planner.rows_scanned_per_row_returned." + name] = (
                scanned / max(returned, 1.0))

    def disk_bytes_per_job(self) -> float:
        return directory_bytes(self.store_dir) / float(self.n)


# ---------------------------------------------------------------------------
# serve: the same engine behind the HTTP daemon
# ---------------------------------------------------------------------------
class Serve(Workload):
    name = "serve"
    small, medium, large = "open", "open", "cold"
    classes = ("cold", "hit", "open", "open.point", "open.top_k", "open.range", "open.pctl",
               "cold_full", "append", "refresh", "mixed")
    EXPERIMENTS_WITHOUT_KMEANS = tuple(
        name for name in CHARACTERIZATION_EXPERIMENT_IDS if name != "table2")
    RATE_PER_S = 50.0
    SLICE_S = 2.5
    COLD_PER_ROUND = 2
    KEY_POOL = 500          # > the daemon's default 256-entry result cache
    PRIMED_KEYS = 256
    ZIPF_A = 1.3
    PCTL_VARIANTS = 50
    # ~3/4 of the requests are answered from the cache, so the median sits in
    # the middle of the cached cluster; the always-missing range aggregates
    # are the slowest 15 % but for a few percentile misses, so the 90th
    # percentile sits in the middle of theirs.
    MIX = (("point", 0.70), ("top_k", 0.10), ("range", 0.15), ("pctl", 0.05))
    RANGE_BAND = (0.45, 0.55)   # narrow: one plan, one cost, never the same cut
    APPEND_ROWS = 500

    def setup(self, directory: str) -> None:
        self.dir = directory
        self.catalog = os.path.join(directory, "catalog")
        self.cols = self._columns()
        self._write_store(os.path.join(self.catalog, "main"), self.cols, "main", index=True)
        self.truth = checks.GroundTruth(self.cols)
        self.disk_at_setup = directory_bytes(self.catalog) / float(self.n)
        self.daemon = httpload.Daemon(self.catalog, directory, self.src_dir)
        self.daemon.wait_ready()
        self.port = self.daemon.port
        reply = httpload.request(self.recorder, self.port, "GET", "/healthz")
        if reply.status != 200:
            raise RuntimeError("daemon /healthz answered %d" % reply.status)
        self.keys = self.rng.choice(self.n, size=min(self.KEY_POOL, self.n), replace=False)
        self.slice_s = 0.5 if self.smoke else self.SLICE_S
        self.primed_keys = 32 if self.smoke else self.PRIMED_KEYS
        self.pctl_cuts = np.exp(self.rng.uniform(np.log(1e5), np.log(1e9), self.PCTL_VARIANTS))
        self.next_seed = 1
        self.rows = self.n
        self.last_submit_s = float(self.cols["submit_time_s"][-1])
        self.open_sent = []
        self.open_wall_s = self.open_window_s = 0.0
        self.metrics_before = None

    def teardown(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            daemon.stop()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.daemon.process.pid)

    def disk_bytes_per_job(self) -> float:
        return self.disk_at_setup

    # -- requests -----------------------------------------------------------
    def _post(self, path: str, body):
        reply = httpload.request(self.recorder, self.port, "POST", path, body)
        if reply.status != 200:
            raise RuntimeError("POST %s answered %d: %s" % (path, reply.status, reply.data[:200]))
        if reply.elapsed_s > httpload.REQUEST_LIMIT_S:
            raise RuntimeError("POST %s took %.1f s" % (path, reply.elapsed_s))
        return reply

    def _characterize(self, seed: int, experiments=EXPERIMENTS_WITHOUT_KMEANS):
        # Table 2 is a k-means sweep whose wall depends on the request seed and
        # on the data (383-739 ms over 24 requests against 176-221 ms for the
        # rest of the suite); like ``batch``, the gated class leaves it out and
        # ``cold_full`` is the ungated probe.
        body = {"seed": seed}
        if experiments is not None:
            body["experiments"] = list(experiments)
        return self._post("/v1/stores/main/characterize", body)

    def _open_request(self, kind: str, rank=None):
        """(method, path, body, expect) of one open-loop request."""
        path = "/v1/stores/main/query"
        if kind == "point":
            if rank is None:
                rank = min(int(self.rng.zipf(self.ZIPF_A)), self.keys.size) - 1
            row = int(self.keys[rank])
            value = float(self.cols["input_bytes"][row])
            # The endpoint returns rows only with a limit or a top-k.
            return ("POST", path, {"where": ["input_bytes == %r" % value], "limit": 10,
                                   "columns": ["job_id", "input_bytes"]},
                    str(self.cols["job_id"][row]))
        if kind == "top_k":
            variant = int(self.rng.integers(5))
            column = Interactive.TOP_COLUMNS[variant % 3]
            k = (10, 100)[variant % 2]
            return "POST", path, {"top_k": "%s:%d" % (column, k), "columns": ["job_id", column]}, k
        if kind == "range":
            low, high = self.RANGE_BAND
            cut = self.truth.submit_at(low + (high - low) * self.rng.random())
            return ("POST", path, {"where": ["submit_time_s > %r" % cut],
                                   "agg": ["count", "sum:input_bytes"]},
                    self.truth.rows_after(cut))
        cut = float(self.pctl_cuts[int(self.rng.integers(self.PCTL_VARIANTS))])
        return ("POST", path, {"where": ["input_bytes > %r" % cut],
                               "agg": ["p50:duration_s", "p99:duration_s"]}, None)

    def _schedule(self, seconds: float, append_every_s: float = 0.0):
        """Seeded Poisson arrivals at RATE_PER_S with the read mix; optionally
        an append request every ``append_every_s`` (the ungated mixed probe)."""
        kinds = [kind for kind, _share in self.MIX]
        shares = [share for _kind, share in self.MIX]
        schedule = []
        now = 0.0
        while True:
            now += float(self.rng.exponential(1.0 / self.RATE_PER_S))
            if now >= seconds:
                break
            kind = kinds[int(self.rng.choice(len(kinds), p=shares))]
            method, path, body, expect = self._open_request(kind)
            schedule.append((now, kind, method, path, body, expect))
        if append_every_s:
            for k in range(1, int(seconds / append_every_s)):
                schedule.append((k * append_every_s, "append", "POST",
                                 "/v1/stores/main/append", {"jobs": self._append_jobs()}, None))
            schedule.sort(key=lambda item: item[0])
        return schedule

    def _append_jobs(self):
        batch = corpus.columns(self.seed * 1000 + 500 + self.rows, self.APPEND_ROWS,
                               start_s=self.last_submit_s, horizon_s=600.0,
                               id_prefix="h", first_index=self.rows)
        self.last_submit_s = float(batch["submit_time_s"][-1])
        self.rows += self.APPEND_ROWS
        return corpus.records(batch)

    def _check_open(self, record, strict: bool) -> bool:
        """Status, the 10 s limit and, while nothing is appending (``strict``),
        the body against the ground truth."""
        if record.error is not None or record.response.status != 200:
            return False
        if record.done_s - record.sent_s > httpload.REQUEST_LIMIT_S:
            return False
        if not strict or record.kind == "pctl":
            return True
        body = record.response.json()
        if record.kind == "point":
            return record.expect in [row["job_id"] for row in body["rows"]]
        if record.kind == "top_k":
            return len(body["rows"]) == record.expect
        return body["aggregates"]["count"] == record.expect

    def _run_open(self, schedule, op_prefix: str):
        sent, wall = httpload.open_loop(self.recorder, self.port, schedule)
        for record in sent:
            if record.kind == "append":
                continue
            self.ops.attempted += 1
            self.ops.add(op_prefix, record.latency_s)
            if op_prefix == "open":
                self.ops.add("open." + record.kind, record.latency_s)
            if not self._check_open(record, strict=op_prefix == "open"):
                self.ops.fail("open-loop %s request: %s" % (
                    record.kind, record.error or record.response.data[:200]))
        return sent, wall

    def _prime(self) -> None:
        """A long-running daemon has seen its popular keys: touch the most
        popular ones once, in the discarded warm-up round."""
        for rank in range(min(self.primed_keys, self.keys.size)):
            _method, path, body, expect = self._open_request("point", rank)
            reply = self.ops.timed("prime", self._post, path, body)
            self.ops.check("primed lookup returns the key's job",
                           expect in [row["job_id"] for row in reply.json()["rows"]])

    def round(self) -> None:
        ops = self.ops
        if ops.bucket == "warmup":
            self._prime()
        for _ in range(self.COLD_PER_ROUND):
            seed = self.next_seed
            self.next_seed += 1
            cold = ops.timed("cold", self._characterize, seed)
            hit = ops.timed("hit", self._characterize, seed)
            ops.check("first characterize of a seed is a miss", cold.cache == "miss")
            ops.check("repeat characterize is a byte-identical hit",
                      hit.cache == "hit" and hit.data == cold.data)
        with self.recorder.span("harness.inputs", "open-loop-schedule"):
            schedule = self._schedule(self.slice_s)
            if ops.bucket != "warmup" and self.metrics_before is None:
                self.metrics_before = self._scrape()
        sent, wall = self._run_open(schedule, "open")
        if ops.bucket != "warmup":
            self.open_sent.extend(sent)
            self.open_wall_s += wall
            self.open_window_s += self.slice_s

    def headlines(self):
        # One request stream, two points on it: the median sits in the cached
        # lookups, the 90th percentile in the uncached range aggregates.
        values = super().headlines()
        values["medium_op_ms"] = self.ops.steady_ms("open", 90.0)
        return values

    # -- per-layer ----------------------------------------------------------
    def _scrape(self):
        text = httpload.request(self.recorder, self.port, "GET", "/metrics").data.decode("utf-8")
        totals = defaultdict(float)
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            head, _, value = line.rpartition(" ")
            totals[head.split("{", 1)[0]] += float(value)
        return totals

    def final_checks(self) -> None:
        after = self._scrape()
        before = self.metrics_before or defaultdict(float)

        def delta(name):
            return after[name] - before[name]

        hits, misses = delta("repro_cache_hits_total"), delta("repro_cache_misses_total")
        counters = self.counters
        counters["service.cache_hit_ratio"] = hits / max(hits + misses, 1.0)
        counters["service.cache_invalidations"] = delta("repro_cache_invalidations_total")
        counters["service.scans_started"] = delta("repro_scans_started_total")
        counters["service.scans_resumed"] = delta("repro_scans_resumed_total")
        counters["service.index_probes"] = delta("repro_index_probes_total")
        counters["service.full_scans"] = delta("repro_full_scans_total")
        reads = [record for record in self.open_sent if record.done_s is not None]
        if reads and self.open_wall_s:
            late_ms = [record.late_s * 1000.0 for record in reads]
            latency_ms = [record.latency_s * 1000.0 for record in reads]
            # Offered: what the Poisson schedule asked for in its window;
            # achieved: what completed by the time the last reply arrived.
            counters["service.open.offered_rps"] = len(self.open_sent) / self.open_window_s
            counters["service.open.achieved_rps"] = len(reads) / self.open_wall_s
            counters["service.open.late_p50_ms"] = percentile(late_ms, 50)
            counters["service.open.late_p99_ms"] = percentile(late_ms, 99)
            counters["service.open.p95_ms"] = percentile(latency_ms, 95)
            counters["service.open.p99_ms"] = percentile(latency_ms, 99)

    def probes(self) -> None:
        """Phase C (first fresh answer after new data) and the mixed
        read/write open loop: both append, so they run last and ungated."""
        ops = self.ops
        for _ in range(3):
            self.next_seed += 1
            ops.timed("cold_full", self._characterize, self.next_seed, None)
            reply = ops.timed("append", self._post, "/v1/stores/main/append",
                              {"jobs": self._append_jobs()})
            ops.check("append acknowledged with the new row count",
                      reply.json()["n_jobs"] == self.rows)
            fresh = ops.timed("refresh", self._characterize, 0)
            ops.check("characterize after an append is recomputed",
                      fresh.cache == "miss" and fresh.json()["n_jobs"] == self.rows)
        self._run_open(self._schedule(self.slice_s, append_every_s=self.slice_s / 5), "mixed")
        info = httpload.request(self.recorder, self.port, "GET", "/v1/stores/main").json()
        ops.check("post-append row count", info.get("n_jobs") == self.rows)


WORKLOADS = {cls.name: cls for cls in (Ingest, Batch, Interactive, Serve)}
