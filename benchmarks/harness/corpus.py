"""The one seeded corpus builder of the harness (vectorised, FB-2010 shaped).

``columns(seed, n_jobs)`` is the ground truth every workload and every
correctness oracle starts from: small jobs dominate (80/19/1 % small / medium /
large map-seconds), byte sizes are log-normal over many orders of magnitude,
input paths are Pareto(0.9)-skewed over an ``n/20`` pool, names come from a
7-word x 97 vocabulary, and a ``workload`` phase label is clustered in submit
time (so a LIMIT on one phase touches a handful of chunks).  Everything is a
numpy column; the product only ever sees them as a ``ColumnarTrace`` or a
JSONL file, exactly the inputs a user would hand it.

Same seed -> byte-identical columns (``columns_sha256``); the seed also drives
every operation schedule in ``workloads.py``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORDS = np.array(["insert", "select", "from", "piglatin", "oozie", "ad", "distcp"])
WORD_P = [0.35, 0.2, 0.1, 0.15, 0.1, 0.07, 0.03]
NAMES_PER_WORD = 97
N_PHASES = 50
HORIZON_S = 30 * 86400.0

NUMERIC = ("submit_time_s", "duration_s", "input_bytes", "shuffle_bytes",
           "output_bytes", "map_task_seconds", "reduce_task_seconds")
STRINGS = ("job_id", "name", "input_path", "output_path", "workload")


def columns(seed: int, n_jobs: int, start_s: float = 0.0, horizon_s: float = HORIZON_S,
            id_prefix: str = "j", first_index: int = 0, bytes_shift: float = 0.0):
    """Numpy columns of ``n_jobs`` jobs sorted by submit time.

    ``start_s``/``first_index`` place an append batch after an existing store;
    ``bytes_shift`` moves the log-normal byte means (the "shifted shape" of the
    sibling catalog members, so federation distances are not all zero).
    """
    rng = np.random.default_rng(seed)
    submit = start_s + np.cumsum(rng.exponential(horizon_s / n_jobs, size=n_jobs))
    kind = rng.random(n_jobs)
    map_s = np.where(kind < 0.80, rng.uniform(5.0, 45.0, size=n_jobs),
                     np.where(kind < 0.99, rng.uniform(60.0, 600.0, size=n_jobs),
                              rng.uniform(600.0, 5000.0, size=n_jobs)))
    has_reduce = rng.random(n_jobs) < 0.4
    reduce_s = np.where(has_reduce, map_s * 0.3, 0.0)
    input_b = rng.lognormal(17.0 + bytes_shift, 3.0, size=n_jobs)
    shuffle_b = np.where(has_reduce, input_b * 0.3, 0.0)
    output_b = rng.lognormal(14.0 + bytes_shift, 3.0, size=n_jobs)
    n_paths = max(64, n_jobs // 20)
    in_ids = np.minimum(rng.pareto(0.9, size=n_jobs) * 8.0, n_paths - 1).astype(np.int64)
    out_ids = rng.integers(0, n_paths, size=n_jobs)
    word_ids = rng.choice(WORDS.size, size=n_jobs, p=WORD_P)
    name_ids = rng.integers(0, NAMES_PER_WORD, size=n_jobs)
    index = np.arange(first_index, first_index + n_jobs)
    phase = (np.arange(n_jobs) * N_PHASES) // n_jobs
    return {
        "job_id": np.char.add(id_prefix, np.char.zfill(index.astype(np.str_), 8)),
        "submit_time_s": submit,
        "duration_s": map_s + reduce_s,
        "input_bytes": input_b,
        "shuffle_bytes": shuffle_b,
        "output_bytes": output_b,
        "map_task_seconds": map_s,
        "reduce_task_seconds": reduce_s,
        "name": np.char.add(np.char.add(WORDS[word_ids], " job "), name_ids.astype(np.str_)),
        "input_path": np.char.add("/data/", np.char.zfill(in_ids.astype(np.str_), 6)),
        "output_path": np.char.add("/out/", np.char.zfill(out_ids.astype(np.str_), 6)),
        "workload": np.char.add(id_prefix + "phase", np.char.zfill(phase.astype(np.str_), 3)),
    }


def columns_sha256(cols) -> str:
    """Digest of every column's bytes, in name order (the determinism check)."""
    digest = hashlib.sha256()
    for name in sorted(cols):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(cols[name]).tobytes())
    return digest.hexdigest()


def take(cols, start: int, stop: int):
    return {name: array[start:stop] for name, array in cols.items()}


def records(cols):
    """The columns as ``Job.to_dict``-shaped records (JSONL lines, HTTP append bodies)."""
    names = list(cols)
    lists = [cols[name].tolist() for name in names]
    return [dict(zip(names, row)) for row in zip(*lists)]


def write_jsonl(cols, path: str) -> None:
    """Write the columns as the JSON-lines trace file ``traces.iter_trace`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records(cols):
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
