"""Plumbing test of the benchmark harness (collected by tier-1).

Runs every workload once plain and once traced with ``--smoke`` (20k jobs,
1 s) and checks the contract of ``BENCHMARK.json``: a plain run emits exactly
the end-to-end metrics, a traced run exactly the per-layer metrics, each with
its declared unit and a finite value, no operation fails, and the corpus is a
function of the seed.  It asserts nothing about speed.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_declared_metrics(workload, trace, section):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert math.isfinite(metric["value"]), name
        if section == "end_to_end":
            assert metric["value"] > 0, name


def test_corpus_is_a_function_of_the_seed():
    sys.path.insert(0, HERE)
    try:
        import corpus
    finally:
        sys.path.remove(HERE)
    first = corpus.columns_sha256(corpus.columns(3, 2000))
    assert first == corpus.columns_sha256(corpus.columns(3, 2000))
    assert first != corpus.columns_sha256(corpus.columns(4, 2000))
    assert sorted(corpus.columns(3, 2000)) == sorted(corpus.NUMERIC + corpus.STRINGS)
