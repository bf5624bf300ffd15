"""The discrete-event queue of the legacy replay loop.

A minimal, heap-based event loop: one :class:`Event` object per scheduled
callback.  Events order by ``(time, priority, sequence)``; ties are broken by
priority then insertion order so the simulation is fully deterministic.  The
vectorized engine replaced it with a plain heap of tuples; the differential
oracle in ``legacy_replay.py`` still runs on it, so it lives beside it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

from repro.errors import SimulationError

__all__ = ["EventQueue", "Event"]


class Event:
    """A scheduled event.

    Attributes:
        time_s: simulation time at which the event fires.
        priority: tie-break priority (lower fires first).
        callback: zero-argument callable invoked when the event fires.
        cancelled: set via :meth:`cancel` to skip the callback.
    """

    __slots__ = ("time_s", "priority", "sequence", "callback", "cancelled")

    def __init__(self, time_s: float, priority: int, sequence: int, callback: Callable[[], None]):
        self.time_s = time_s
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time_s, self.priority, self.sequence) < (other.time_s, other.priority, other.sequence)


class EventQueue:
    """A deterministic discrete-event queue.

    Typical usage::

        queue = EventQueue()
        queue.schedule(10.0, lambda: print("at t=10"))
        queue.run()
    """

    def __init__(self):
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def schedule(self, time_s: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time_s``.

        Raises:
            SimulationError: when scheduling in the past.
        """
        if time_s < self._now:
            raise SimulationError(
                "cannot schedule an event at %.3f, before current time %.3f" % (time_s, self._now)
            )
        event = Event(time_s, priority, next(self._counter), callback)
        heapq.heappush(self._heap, event)
        return event

    def schedule_after(self, delay_s: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` after a relative delay."""
        if delay_s < 0:
            raise SimulationError("delay must be non-negative, got %r" % (delay_s,))
        return self.schedule(self._now + delay_s, callback, priority)

    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns False when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time_s
            self._processed += 1
            event.callback()
            return True
        return False

    def run(self, until_s: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until_s`` is reached, or ``max_events``.

        ``until_s`` is inclusive: events at exactly that time still fire.
        """
        executed = 0
        while self._heap:
            next_event = self._heap[0]
            if next_event.cancelled:
                heapq.heappop(self._heap)
                continue
            if until_s is not None and next_event.time_s > until_s:
                self._now = until_s
                return
            if max_events is not None and executed >= max_events:
                return
            self.step()
            executed += 1
