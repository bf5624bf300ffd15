"""Job-name and framework analysis (§6.1 and Figure 10 of the paper).

Job names are user- or framework-supplied strings.  Frameworks layered on top
of MapReduce (Hive, Pig, Oozie) generate names automatically, so the first
word of a job name identifies both the framework and — for Hive — the query
operator (insert, select, from).  Figure 10 ranks the most frequent first
words per workload, weighted three ways: by job count, by total I/O bytes, and
by task-time.

This module classifies names into frameworks, computes the weighted first-word
breakdowns, and summarizes framework shares of cluster load.  The analyses
stream the ``name`` / ``framework`` / derived weight columns chunk by chunk
from any :class:`~repro.engine.source.TraceSource`-wrappable representation;
all results are exact dictionary totals, identical across representations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.pipeline import ChunkConsumer, ScanChunk, fold_consumer
from ..engine.source import TraceSource
from ..errors import AnalysisError
from ..traces.schema import extract_first_word

__all__ = [
    "FRAMEWORK_KEYWORDS",
    "classify_framework",
    "FirstWordBreakdown",
    "NamingAnalysis",
    "NamingConsumer",
    "analyze_naming",
]

#: First words that identify a submitting framework.  Hive generates names
#: from the query text ("insert", "select", "from"), Pig prefixes "PigLatin",
#: Oozie prefixes "oozie", and distcp is the built-in copy tool.
FRAMEWORK_KEYWORDS = {
    "insert": "hive",
    "select": "hive",
    "from": "hive",
    "create": "hive",
    "piglatin": "pig",
    "pig": "pig",
    "oozie": "oozie",
    "distcp": "native",
}

#: The three Figure-10 weightings, in panel order.
WEIGHTINGS = ("jobs", "bytes", "task_seconds")


def classify_framework(first_word: Optional[str], declared: Optional[str] = None) -> str:
    """Classify a job into a framework.

    The declared framework (when the trace records one) wins; otherwise the
    first word of the job name decides; jobs without either are "native"
    (plain MapReduce API), and jobs with no name at all are "unknown".
    """
    if declared:
        return declared
    if first_word is None:
        return "unknown"
    return FRAMEWORK_KEYWORDS.get(first_word, "native")


@dataclass
class FirstWordBreakdown:
    """Share of a workload attributed to each job-name first word.

    Attributes:
        weighting: ``"jobs"``, ``"bytes"`` or ``"task_seconds"``.
        shares: (first word, share) pairs sorted by decreasing share; names
            beyond ``top_n`` are folded into ``"[others]"``.
    """

    weighting: str
    shares: List[Tuple[str, float]]

    def share_of(self, word: str) -> float:
        for name, share in self.shares:
            if name == word:
                return share
        return 0.0

    def top(self, n: int = 5) -> List[Tuple[str, float]]:
        return self.shares[:n]


@dataclass
class NamingAnalysis:
    """Complete §6.1 analysis for one workload.

    Attributes:
        workload: workload name.
        by_jobs / by_bytes / by_task_seconds: Figure-10 panels.
        framework_shares: framework -> share, for each weighting.
        top_words_cover: fraction of jobs covered by the top five words.
    """

    workload: str
    by_jobs: FirstWordBreakdown
    by_bytes: FirstWordBreakdown
    by_task_seconds: FirstWordBreakdown
    framework_shares: Dict[str, Dict[str, float]]
    top_words_cover: float

    def dominant_frameworks(self, weighting: str = "jobs", count: int = 2) -> List[str]:
        """The ``count`` frameworks with the largest share under a weighting."""
        shares = self.framework_shares.get(weighting, {})
        return sorted(shares, key=lambda name: shares[name], reverse=True)[:count]

    def framework_share(self, weighting: str = "jobs", frameworks: Tuple[str, ...] = ("hive", "pig", "oozie")) -> float:
        """Combined share of the query-like frameworks (paper: 20%-80%+)."""
        shares = self.framework_shares.get(weighting, {})
        return sum(shares.get(name, 0.0) for name in frameworks)


def _ranked_shares(totals: Dict[str, float], weighting: str, top_n: int) -> FirstWordBreakdown:
    """Turn word -> weight totals into the ranked, others-folded share list."""
    grand_total = sum(totals.values())
    if grand_total <= 0:
        # All-zero weights (e.g. a trace of zero-byte jobs weighted by bytes):
        # fall back to uniform shares over the observed words.
        shares = sorted(((word, 1.0 / len(totals)) for word in totals),
                        key=lambda pair: pair[1], reverse=True)
        return FirstWordBreakdown(weighting=weighting, shares=shares)
    ranked = sorted(totals.items(), key=lambda pair: pair[1], reverse=True)
    shares: List[Tuple[str, float]] = []
    others = 0.0
    for index, (word, total) in enumerate(ranked):
        if index < top_n:
            shares.append((word, total / grand_total))
        else:
            others += total / grand_total
    if others > 0:
        shares.append(("[others]", others))
    return FirstWordBreakdown(weighting=weighting, shares=shares)


class NamingConsumer(ChunkConsumer):
    """Shared-scan fold of every Figure-10 panel and the framework shares.

    Each chunk is grouped vectorized: ``np.unique`` over the (heavily
    repeating) names, first-word extraction cached per distinct name, and the
    three weightings accumulated by ``bincount`` over the group codes.  Job
    counts are integers (exact for every chunking and worker count); the
    byte/task-second totals group per chunk before entering the running
    dicts, so different chunkings can differ in the last float ulp — the same
    caveat as every chunk-folded sum in the engine.
    """

    resumable = True

    def __init__(self, has_framework: bool, workload: str = "trace",
                 top_n: int = 10, name: str = "naming"):
        self.name = name
        self.workload = workload
        self.top_n = top_n
        self.has_framework = has_framework
        self.columns = (("name", "framework") if has_framework else ("name",)) + (
            "total_bytes", "total_task_seconds")

    def make_state(self):
        return {
            "word_totals": {w: defaultdict(float) for w in WEIGHTINGS},
            "framework_totals": {w: defaultdict(float) for w in WEIGHTINGS},
            "n_named": 0,
            # name -> (word label, framework when none is declared)
            "cache": {},
        }

    def fold(self, state, chunk: ScanChunk):
        named = chunk.recorded_mask("name")
        n_named = int(named.sum())
        if n_named == 0:
            return state
        all_named = n_named == named.size
        byte_weights = chunk.column("total_bytes")
        task_weights = chunk.column("total_task_seconds")
        if not all_named:
            byte_weights = byte_weights[named]
            task_weights = task_weights[named]
        state["n_named"] += n_named

        # Code-native fold: the per-row decomposition comes from the cached
        # chunk.unique (an integer sort over dictionary codes on a v3 store),
        # word extraction and framework classification run once per *distinct*
        # name, and the per-row group keys stay integers end to end — no
        # per-row string array is ever built.
        unique_names, name_inverse = chunk.unique("name")
        cache = state["cache"]
        unique_words = []
        unique_frameworks = []
        for job_name in unique_names.tolist():
            cached = cache.get(job_name)
            if cached is None:
                first = extract_first_word(job_name)
                cached = cache[job_name] = (first or "[unnamed]",
                                            classify_framework(first, None))
            unique_words.append(cached[0])
            unique_frameworks.append(cached[1])
        name_words = np.asarray(unique_words, dtype=np.str_)
        name_frameworks = np.asarray(unique_frameworks, dtype=np.str_)

        word_labels, word_of_name = np.unique(name_words, return_inverse=True)
        word_codes = word_of_name.ravel()[name_inverse]

        if self.has_framework:
            # A declared per-row framework overrides the name-derived one;
            # both sides resolve into one sorted label vocabulary so the
            # per-row merge is a uint choice between two code arrays.
            declared_values, declared_inverse = chunk.unique("framework")
            has_declared = chunk.recorded_mask("framework")
            framework_labels = np.unique(np.concatenate([name_frameworks,
                                                         declared_values]))
            name_codes = np.searchsorted(framework_labels, name_frameworks)
            declared_codes = np.searchsorted(framework_labels, declared_values)
            framework_codes = np.where(has_declared,
                                       declared_codes[declared_inverse],
                                       name_codes[name_inverse])
        else:
            framework_labels, frame_of_name = np.unique(name_frameworks,
                                                        return_inverse=True)
            framework_codes = frame_of_name.ravel()[name_inverse]

        if not all_named:
            word_codes = word_codes[named]
            framework_codes = framework_codes[named]
        for labels, codes, totals in (
                (word_labels, word_codes, state["word_totals"]),
                (framework_labels, framework_codes, state["framework_totals"])):
            jobs = np.bincount(codes, minlength=labels.size)
            total_bytes = np.bincount(codes, weights=byte_weights, minlength=labels.size)
            total_tasks = np.bincount(codes, weights=task_weights, minlength=labels.size)
            jobs_dict = totals["jobs"]
            bytes_dict = totals["bytes"]
            tasks_dict = totals["task_seconds"]
            for label, n_jobs, byte_total, task_total in zip(
                    labels.tolist(), jobs.tolist(), total_bytes.tolist(), total_tasks.tolist()):
                if n_jobs == 0:
                    # Vocabulary entry with no named row in this chunk (e.g.
                    # the "" name's "[unnamed]" word): adding a zero would
                    # create a spurious label in the running totals.
                    continue
                jobs_dict[label] += n_jobs
                bytes_dict[label] += byte_total
                tasks_dict[label] += task_total
        return state

    def merge(self, a, b):
        for weighting in WEIGHTINGS:
            for word, total in b["word_totals"][weighting].items():
                a["word_totals"][weighting][word] += total
            for framework, total in b["framework_totals"][weighting].items():
                a["framework_totals"][weighting][framework] += total
        a["n_named"] += b["n_named"]
        return a

    def snapshot(self, state) -> Dict[str, object]:
        # Plain word/framework -> float dictionaries: they ride the JSON side
        # of the checkpoint (floats round-trip exactly).  The first-word memo
        # cache is derived data and is simply rebuilt on resume.
        return {
            "n_named": int(state["n_named"]),
            "word_totals": {weighting: dict(state["word_totals"][weighting])
                            for weighting in WEIGHTINGS},
            "framework_totals": {weighting: dict(state["framework_totals"][weighting])
                                 for weighting in WEIGHTINGS},
        }

    def restore(self, payload: Dict[str, object]):
        state = self.make_state()
        state["n_named"] = int(payload["n_named"])
        for key in ("word_totals", "framework_totals"):
            for weighting in WEIGHTINGS:
                state[key][weighting].update(
                    {label: float(total)
                     for label, total in payload[key].get(weighting, {}).items()})
        return state

    def finalize(self, state) -> NamingAnalysis:
        if state["n_named"] == 0:
            raise AnalysisError(
                "trace %r records no job names; naming analysis unavailable"
                % (self.workload,))
        breakdowns = {
            weighting: _ranked_shares(state["word_totals"][weighting], weighting, self.top_n)
            for weighting in WEIGHTINGS
        }
        framework_shares: Dict[str, Dict[str, float]] = {}
        for weighting in WEIGHTINGS:
            totals = state["framework_totals"][weighting]
            grand_total = sum(totals.values())
            if grand_total > 0:
                framework_shares[weighting] = {name: value / grand_total
                                               for name, value in totals.items()}
            else:
                framework_shares[weighting] = {name: 0.0 for name in totals}
        top_cover = sum(share for _, share in breakdowns["jobs"].top(5))
        return NamingAnalysis(
            workload=self.workload,
            by_jobs=breakdowns["jobs"],
            by_bytes=breakdowns["bytes"],
            by_task_seconds=breakdowns["task_seconds"],
            framework_shares=framework_shares,
            top_words_cover=top_cover,
        )


def analyze_naming(trace, top_n: int = 10) -> NamingAnalysis:
    """Run the full §6.1 analysis (all three weightings + framework shares).

    One streaming pass over the named jobs accumulates every panel of
    Figure 10 and the framework shares; jobs with no recorded name are
    excluded (as in the materialized ``with_names`` path).

    Raises:
        AnalysisError: when the trace records no job names at all.
    """
    source = TraceSource.wrap(trace)
    if not source.has_column("name") or source.is_empty():
        raise AnalysisError(
            "trace %r records no job names; naming analysis unavailable" % (source.name,)
        )
    consumer = NamingConsumer(has_framework=source.has_column("framework"),
                              workload=source.name, top_n=top_n)
    return fold_consumer(source, consumer)
