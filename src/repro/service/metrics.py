"""Service observability: counters + latency sketches + ``/metrics`` rendering.

Counters are plain monotonic integers; request latencies feed the engine's
mergeable :class:`~repro.engine.aggregates.HistogramSketch` (log-bucketed, the
same sketch the streaming percentile analyses use), so ``/metrics`` can report
p50/p99 per endpoint without keeping per-request samples.  Everything is
guarded by one lock — requests are handled on the event loop but the heavy
work (and therefore most metric updates) happens in worker threads.

The ``/metrics`` endpoint renders the classic Prometheus text format
(``# TYPE`` comments plus ``name{label="..."} value`` lines) from stdlib
alone, so any scraper — or ``curl`` in the CI smoke job — can read it.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

from ..engine.aggregates import HistogramSketch

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe counters and per-endpoint latency sketches."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[tuple, float] = {}
        self._latencies: Dict[str, HistogramSketch] = {}
        self.started_at = time.time()

    # -- updates -----------------------------------------------------------
    def increment(self, name: str, value: float = 1.0, **labels) -> None:
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def observe_latency(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            sketch = self._latencies.get(endpoint)
            if sketch is None:
                sketch = self._latencies[endpoint] = HistogramSketch()
            sketch.update(np.array([max(0.0, seconds)], dtype=float))

    # -- reads -------------------------------------------------------------
    def counter(self, name: str, **labels) -> float:
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            return self._counters.get(key, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Flat name/labels -> value mapping (for tests and the info endpoint)."""
        with self._lock:
            flat = {}
            for (name, labels), value in sorted(self._counters.items()):
                suffix = ",".join("%s=%s" % item for item in labels)
                flat["%s{%s}" % (name, suffix) if suffix else name] = value
            return flat

    # -- rendering ---------------------------------------------------------
    def render(self, extra_gauges: Optional[Dict[str, float]] = None) -> str:
        """The Prometheus text exposition of every counter and sketch."""
        lines: List[str] = []
        with self._lock:
            by_name: Dict[str, List[tuple]] = {}
            for (name, labels), value in sorted(self._counters.items()):
                by_name.setdefault(name, []).append((labels, value))
            for name, series in by_name.items():
                lines.append("# TYPE %s counter" % name)
                for labels, value in series:
                    rendered = ",".join('%s="%s"' % item for item in labels)
                    lines.append("%s%s %s" % (
                        name, "{%s}" % rendered if rendered else "",
                        _format_value(value)))
            if self._latencies:
                lines.append("# TYPE repro_request_latency_seconds summary")
                for endpoint, sketch in sorted(self._latencies.items()):
                    if sketch.n == 0:
                        continue
                    for q in (50, 95, 99):
                        lines.append(
                            'repro_request_latency_seconds{endpoint="%s",quantile="0.%d"} %s'
                            % (endpoint, q, _format_value(sketch.percentile(q))))
                    lines.append('repro_request_latency_seconds_count{endpoint="%s"} %d'
                                 % (endpoint, sketch.n))
        lines.append("# TYPE repro_service_uptime_seconds gauge")
        lines.append("repro_service_uptime_seconds %s"
                     % _format_value(time.time() - self.started_at))
        for name, value in sorted((extra_gauges or {}).items()):
            lines.append("# TYPE %s gauge" % name)
            lines.append("%s %s" % (name, _format_value(value)))
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
