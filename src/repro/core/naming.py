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
from any :class:`~repro.engine.source.TraceSource`-wrappable representation,
classifying each distinct name once and folding per-row integer label ids;
all results are exact dictionary totals, identical across representations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.pipeline import ChunkConsumer, Interner, ScanChunk
from ..errors import AnalysisError
from ..traces.schema import extract_first_word

__all__ = [
    "FRAMEWORK_KEYWORDS",
    "classify_framework",
    "FirstWordBreakdown",
    "NamingAnalysis",
    "NamingConsumer",
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

    Job names are interned (:class:`~repro.engine.pipeline.Interner`): the
    first word and the name-derived framework are worked out once per
    *distinct* name and kept as label ids in the interner's per-name arrays,
    so each chunk's per-row labels are one gather through its name ids, and
    the three weightings accumulate by ``bincount`` over label ids.  The
    running totals are filled in sorted-label order (``_ranked_shares``
    breaks ties by insertion order).  Job counts are integers (exact for
    every chunking and worker count); the byte/task-second totals group per
    chunk before entering the running dicts, so different chunkings can
    differ in the last float ulp — the same caveat as every chunk-folded sum
    in the engine.
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
            # name id -> its word label id and name-derived framework label id
            "names": Interner({"word": -1, "framework": -1}),
            "words": Interner(),
            "frameworks": Interner(),
        }

    def fold(self, state, chunk: ScanChunk):
        names = state["names"]
        classified = len(names)
        name_ids = names.ids(chunk, "name")
        named = name_ids >= 0
        n_named = int(named.sum())
        if n_named == 0:
            return state
        state["n_named"] += n_named
        if len(names) > classified:
            firsts = [extract_first_word(job_name) for job_name in names.values(classified)]
            names.arrays["word"][classified:len(names)] = state["words"].intern(
                [first or "[unnamed]" for first in firsts])
            names.arrays["framework"][classified:len(names)] = state["frameworks"].intern(
                [classify_framework(first, None) for first in firsts])

        byte_weights = chunk.column("total_bytes")
        task_weights = chunk.column("total_task_seconds")
        if n_named < named.size:
            name_ids = name_ids[named]
            byte_weights = byte_weights[named]
            task_weights = task_weights[named]
        word_ids = names.arrays["word"][name_ids]
        framework_ids = names.arrays["framework"][name_ids]
        if self.has_framework:
            # A declared per-row framework overrides the name-derived one.
            declared = state["frameworks"].ids(chunk, "framework")
            if n_named < named.size:
                declared = declared[named]
            framework_ids = np.where(declared >= 0, declared, framework_ids)

        for labels, ids, totals in (
                (state["words"], word_ids, state["word_totals"]),
                (state["frameworks"], framework_ids, state["framework_totals"])):
            jobs = np.bincount(ids, minlength=len(labels))
            total_bytes = np.bincount(ids, weights=byte_weights, minlength=len(labels))
            total_tasks = np.bincount(ids, weights=task_weights, minlength=len(labels))
            label_values = labels.values()
            present = sorted(np.flatnonzero(jobs).tolist(), key=label_values.__getitem__)
            jobs_dict = totals["jobs"]
            bytes_dict = totals["bytes"]
            tasks_dict = totals["task_seconds"]
            for label, n_jobs, byte_total, task_total in zip(
                    [label_values[i] for i in present], jobs[present].tolist(),
                    total_bytes[present].tolist(), total_tasks[present].tolist()):
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
        # of the checkpoint (floats round-trip exactly).  The interned names
        # and labels are derived data and are simply rebuilt on resume.
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
