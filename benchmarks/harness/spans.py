"""Span recorder and layer probes, applied from outside the product.

Nothing under ``src/`` knows about this file.  ``install()`` wraps the public
entry points of each module (the *layer*) listed in ``PROBES`` so that, while
``Recorder.enabled`` is set, every call opens a span on ``perf_counter_ns``;
nested calls become child spans, and a layer's **self time** is its spans'
duration minus the part their children cover.  Spans stay in memory and are
written out once, when the run ends.  The probes cost one attribute test per
call while the recorder is off, which is how every end-to-end number is taken.

Spans *inside* the program (per-consumer folds, queue waits in the daemon) are
ROADMAP item 1 (``repro.obs``); when that lands, ``PROBES`` shrinks to nothing
and the recorder reads the program's own spans instead.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: Layers every workload reports, in the order the README's table lists them.
#: ``harness*`` are the benchmark's own time: the self time of an operation's
#: root span (``harness``), input preparation between operations
#: (``harness.inputs``) and an open-loop connection waiting for the next due
#: time (``harness.idle``).  ``service.*`` is the daemon as seen from the
#: client side of the socket; it is a subprocess, so the engine layers below
#: it show no time on the ``serve`` workload.
LAYERS = (
    "traces",
    "engine.store",
    "engine.codecs",
    "engine.indexes",
    "engine.planner",
    "engine.operators",
    "engine.pipeline",
    "engine.federation",
    "core.sharedscan",
    "core.characterization",
    "core.federation",
    "simulator.replay",
    "service.connect",
    "service.request",
    "service.read",
    "harness",
    "harness.inputs",
    "harness.idle",
)

#: (module, qualified name, layer).  Module-level functions are re-bound in
#: every loaded ``repro`` module that imported them by name.
PROBES = (
    ("repro.traces.io", "iter_jsonl", "traces"),
    ("repro.engine.store", "ChunkedTraceStore.__init__", "engine.store"),
    ("repro.engine.store", "ChunkedTraceStore.write", "engine.store"),
    ("repro.engine.store", "ChunkedTraceStore.read_chunk", "engine.store"),
    ("repro.engine.store", "StoreAppender.append", "engine.store"),
    ("repro.engine.codecs", "pack_block", "engine.codecs"),
    ("repro.engine.codecs", "unpack_block", "engine.codecs"),
    ("repro.engine.codecs", "StringDictionary.encode", "engine.codecs"),
    ("repro.engine.codecs", "StringDictionary.decode", "engine.codecs"),
    ("repro.engine.codecs", "StoreDictionary.load", "engine.codecs"),
    ("repro.engine.codecs", "StoreDictionary.save", "engine.codecs"),
    ("repro.engine.indexes", "build_indexes", "engine.indexes"),
    ("repro.engine.indexes", "load_indexes", "engine.indexes"),
    ("repro.engine.indexes", "extend_indexes", "engine.indexes"),
    ("repro.engine.indexes", "StoreIndexes.save", "engine.indexes"),
    ("repro.engine.indexes", "StoreIndexes.column", "engine.indexes"),
    ("repro.engine.planner", "plan_query", "engine.planner"),
    ("repro.engine.planner", "execute_planned", "engine.planner"),
    ("repro.engine.operators", "execute", "engine.operators"),
    ("repro.engine.pipeline", "ScanPipeline.run", "engine.pipeline"),
    ("repro.engine.pipeline", "Checkpoint.save", "engine.pipeline"),
    ("repro.engine.pipeline", "Checkpoint.load", "engine.pipeline"),
    ("repro.engine.federation", "FederatedSource.scan", "engine.federation"),
    ("repro.core.sharedscan", "run_characterization_scan", "core.sharedscan"),
    ("repro.core.characterization", "characterize", "core.characterization"),
    ("repro.core.report", "WorkloadReport.render", "core.characterization"),
    ("repro.core.federation", "compare_catalog", "core.federation"),
    ("repro.simulator.replay", "StreamingReplayer.replay_store", "simulator.replay"),
)


class _ThreadState:
    """One thread's open-span stack and closed spans (no locking needed)."""

    def __init__(self, thread_name: str):
        self.thread = thread_name
        self.stack = []
        self.spans = []
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)


class Recorder:
    """Collects spans while ``enabled``; one ``_ThreadState`` per thread."""

    def __init__(self):
        self.enabled = False
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- span protocol ------------------------------------------------------
    def push(self, layer: str, name: str, attrs=None):
        """Open a span; returns the frame to hand back to :meth:`pop`."""
        state = self._state()
        # [id, layer, name, start, child_ns, attrs]
        frame = [next(self._ids), layer, name, time.perf_counter_ns(), 0, attrs]
        state.stack.append(frame)
        return frame

    def pop(self, frame) -> None:
        end = time.perf_counter_ns()
        state = self._state()
        state.stack.pop()
        span_id, layer, name, start, child_ns, attrs = frame
        duration = end - start
        parent = None
        if state.stack:
            state.stack[-1][4] += duration
            parent = state.stack[-1][0]
        state.self_ns[layer] += duration - child_ns
        state.calls[layer] += 1
        state.spans.append((span_id, parent, layer, name, start, end, attrs))

    def add_busy(self, layer: str, busy_ns: int) -> None:
        """Charge accumulated time (a generator's ``next`` calls) to ``layer``
        as a child of whatever span is open, without one span per item."""
        state = self._state()
        state.self_ns[layer] += busy_ns
        if state.stack:
            state.stack[-1][4] += busy_ns

    def span(self, layer: str, name: str, attrs=None):
        return _Span(self, layer, name, attrs)

    # -- results ------------------------------------------------------------
    def self_seconds(self):
        totals = defaultdict(float)
        for state in self._states:
            for layer, value in state.self_ns.items():
                totals[layer] += value / 1e9
        return dict(totals)

    def calls(self):
        totals = defaultdict(int)
        for state in self._states:
            for layer, value in state.calls.items():
                totals[layer] += value
        return dict(totals)

    def root_seconds(self, thread_name: str) -> float:
        """Total duration of the parentless spans of one thread."""
        return sum(end - start for state in self._states if state.thread == thread_name
                   for _id, parent, _layer, _name, start, end, _attrs in state.spans
                   if parent is None) / 1e9

    def write(self, path: str, meta: dict) -> None:
        spans = []
        for state in self._states:
            for span_id, parent, layer, name, start, end, attrs in state.spans:
                record = {"id": span_id, "parent": parent, "thread": state.thread,
                          "layer": layer, "name": name, "start_ns": start, "end_ns": end}
                if attrs:
                    record.update(attrs)
                spans.append(record)
        spans.sort(key=lambda record: record["start_ns"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "self_s": self.self_seconds(),
                       "calls": self.calls(), "spans": spans}, handle)
            handle.write("\n")


class _Span:
    """Context manager form of push/pop; free when the recorder is off."""

    __slots__ = ("recorder", "layer", "name", "attrs", "frame")

    def __init__(self, recorder, layer, name, attrs):
        self.recorder, self.layer, self.name, self.attrs = recorder, layer, name, attrs
        self.frame = None

    def __enter__(self):
        if self.recorder.enabled:
            self.frame = self.recorder.push(self.layer, self.name, self.attrs)
        return self

    def __exit__(self, *exc_info):
        if self.frame is not None:
            self.recorder.pop(self.frame)
        return False


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------
def _wrap_function(recorder: Recorder, function, layer: str, name: str):
    def probe(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        frame = recorder.push(layer, name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.pop(frame)

    probe.__wrapped__ = function
    probe.__name__ = getattr(function, "__name__", name)
    probe.__doc__ = function.__doc__
    return probe


def _wrap_generator(recorder: Recorder, function, layer: str, name: str):
    """A generator's work happens inside ``next``: time each one, charge the
    total to ``layer`` under the consumer's open span, record one span."""

    def probe(*args, **kwargs):
        iterator = function(*args, **kwargs)
        if not recorder.enabled:
            yield from iterator
            return
        clock = time.perf_counter_ns
        started = clock()
        busy = 0
        items = 0
        try:
            while True:
                before = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    busy += clock() - before
                    return
                busy += clock() - before
                items += 1
                yield item
        finally:
            recorder.add_busy(layer, busy)
            state = recorder._state()
            state.calls[layer] += 1
            parent = state.stack[-1][0] if state.stack else None
            state.spans.append((next(recorder._ids), parent, layer, name, started,
                                clock(), {"busy_ns": busy, "items": items}))

    probe.__wrapped__ = function
    probe.__name__ = getattr(function, "__name__", name)
    return probe


def install(recorder: Recorder) -> int:
    """Wrap every probe point; returns how many were wrapped."""
    installed = 0
    for module_name, qualname, layer in PROBES:
        module = importlib.import_module(module_name)
        owner = module
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attribute = parts[-1]
        raw = owner.__dict__[attribute]
        name = "%s.%s" % (module_name.replace("repro.", "", 1), qualname)
        kind = type(raw)
        function = raw.__func__ if kind in (classmethod, staticmethod) else raw
        wrap = _wrap_generator if inspect.isgeneratorfunction(function) else _wrap_function
        wrapped = wrap(recorder, function, layer, name)
        if kind in (classmethod, staticmethod):
            wrapped = kind(wrapped)
        if owner is module:
            # ``from .x import f`` bound the original in other modules.
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is raw:
                        setattr(other, key, wrapped)
        else:
            setattr(owner, attribute, wrapped)
        installed += 1
    return installed
