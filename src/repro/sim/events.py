"""Deterministic discrete-event simulation kernel.

All simulated time in the repository flows through one scheduler: the
:class:`EventKernel` owns a priority queue of timestamped callbacks and a
simulated clock that only advances when an event fires.  Domain objects
(federated clients, miners, their gradient-set exchange, the vanilla chain's
transaction queue, the gossip flood) schedule their work on the kernel instead of sampling scalar
delays, so "what happened when" is a single, inspectable event trace rather
than three timing models that can silently disagree.

Determinism is a hard requirement — the repository's central claim is that
per-round histories are bit-identical across the serial and cohort
backends.  The kernel guarantees it structurally:

* events are ordered by ``(time, tie_break, sequence)``;
* ``tie_break`` is drawn from the kernel's own seeded RNG stream at
  *scheduling* time (one draw per call), so simultaneous events are ordered
  by the seed, not by accidental insertion order;
* the kernel is single-threaded by construction — the cohort backend's helper
  processes share *numeric* work (local SGD), never kernel time, so the event
  trace cannot depend on the backend.

The optional trace records ``(time, name)`` per fired event;
:meth:`EventKernel.trace_digest` condenses it into a SHA-256 hex digest that
tests compare across backends and repeated runs.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from typing import Callable

import numpy as np

__all__ = ["EventKernel"]


class EventKernelError(RuntimeError):
    """The kernel was asked to do something unsound (negative delay, runaway run)."""


class ScheduledEvent:
    """A handle to one scheduled event; cancellation is lazy (skipped on pop)."""

    __slots__ = ("time", "name", "action", "cancelled")

    def __init__(self, time: float, name: str, action: Callable[[], None] | None) -> None:
        self.time = float(time)
        self.name = str(name)
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"ScheduledEvent(t={self.time:.6f}, name={self.name!r}, {state})"


class EventKernel:
    """Priority-queue discrete-event scheduler with a seeded total event order.

    Parameters
    ----------
    seed:
        Seeds the tie-breaking stream for simultaneous events.
    record_trace:
        When True every fired event is appended to :attr:`trace` as
        ``(time, name)``; :meth:`trace_digest` hashes the trace for
        cross-backend determinism checks.
    """

    def __init__(self, *, seed: int = 0, record_trace: bool = False) -> None:
        self.now: float = 0.0
        self.record_trace = bool(record_trace)
        self.trace: list[tuple[float, str]] = []
        self.events_processed: int = 0
        self._heap: list[tuple[float, int, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._tie_rng = np.random.Generator(np.random.PCG64(int(seed)))

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], None] | None = None, *, name: str = "event"
    ) -> ScheduledEvent:
        """Schedule ``action`` to fire ``delay`` simulated seconds from now."""
        if not math.isfinite(delay) or delay < 0.0:
            raise EventKernelError(
                f"event {name!r} scheduled with invalid delay {delay!r}"
            )
        return self.schedule_at(self.now + float(delay), action, name=name)

    def schedule_at(
        self, time: float, action: Callable[[], None] | None = None, *, name: str = "event"
    ) -> ScheduledEvent:
        """Schedule ``action`` at an absolute simulated time (>= now)."""
        if not math.isfinite(time) or time < self.now:
            raise EventKernelError(
                f"event {name!r} scheduled in the past (t={time!r} < now={self.now!r})"
            )
        event = ScheduledEvent(time, name, action)
        tie = int(self._tie_rng.integers(0, 2**32))
        heapq.heappush(self._heap, (event.time, tie, next(self._seq), event))
        return event

    # -- execution -----------------------------------------------------------
    def run(self, *, max_events: int = 1_000_000) -> float:
        """Fire events in order until the queue drains; return the clock.

        ``max_events`` guards against runaway self-scheduling callbacks.
        """
        fired = 0
        while self._heap:
            event = heapq.heappop(self._heap)[-1]
            if event.cancelled:
                continue
            if fired >= max_events:
                # Only a budget *violation* if work genuinely remains — a run
                # whose event count exactly equals the budget completes fine.
                raise EventKernelError(
                    f"event budget exhausted after {fired} events at t={self.now:.6f}"
                )
            self.now = event.time
            self.events_processed += 1
            fired += 1
            if self.record_trace:
                self.trace.append((event.time, event.name))
            if event.action is not None:
                event.action()
        return self.now

    def trace_digest(self) -> str:
        """SHA-256 hex digest of the fired-event trace (requires record_trace)."""
        h = hashlib.sha256()
        for time, name in self.trace:
            h.update(f"{time:.9f}|{name}\n".encode("utf-8"))
        return h.hexdigest()
