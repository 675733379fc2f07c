"""Deterministic discrete-event simulation kernel.

All simulated time in the repository flows through one scheduler: the
:class:`EventKernel` owns a priority queue of timestamped events and a
simulated clock that only advances when an event fires.  Domain objects
(miners, their gradient-set exchange, the mempool, federated clients) act as
*processes* that schedule work on the kernel instead of sampling scalar
delays, so "what happened when" is a single, inspectable event trace rather
than three timing models that can silently disagree.

Determinism is a hard requirement — the repository's central claim is that
per-round histories are bit-identical across the serial and cohort
backends.  The kernel guarantees it structurally:

* events are ordered by ``(time, priority, tie_break, sequence)``;
* ``tie_break`` is drawn from the kernel's own seeded RNG stream at
  *scheduling* time, so simultaneous events are ordered by the seed, not by
  accidental insertion order;
* the kernel is single-threaded by construction — the cohort backend's helper
  processes share *numeric* work (local SGD), never kernel time, so the event
  trace cannot depend on the backend.

The optional trace records ``(time, name)`` per fired event;
:meth:`EventKernel.trace_digest` condenses it into a SHA-256 hex digest that
tests compare across backends and repeated runs.

Two process styles are supported:

* **callbacks** — ``kernel.schedule(delay, action, name=...)``;
* **generators** — ``kernel.spawn(name, gen)`` where ``gen`` yields non-negative
  float delays (timeouts) or :class:`Signal` objects (wait until fired).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from typing import Callable, Generator

import numpy as np

__all__ = ["EventKernel"]


class EventKernelError(RuntimeError):
    """The kernel was asked to do something unsound (negative delay, runaway run)."""


class ScheduledEvent:
    """A handle to one scheduled event; cancellation is lazy (skipped on pop)."""

    __slots__ = ("time", "priority", "tie_break", "seq", "name", "action", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        tie_break: int,
        seq: int,
        name: str,
        action: Callable[[], None] | None,
    ) -> None:
        self.time = float(time)
        self.priority = int(priority)
        self.tie_break = int(tie_break)
        self.seq = int(seq)
        self.name = str(name)
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    @property
    def sort_key(self) -> tuple[float, int, int, int]:
        """The total event order: time, then priority, then seeded tie-break."""
        return (self.time, self.priority, self.tie_break, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"ScheduledEvent(t={self.time:.6f}, name={self.name!r}, {state})"


class Signal:
    """A named condition processes can wait on (``yield signal``) until fired.

    Firing wakes every waiter via a zero-delay kernel event, so wake-ups are
    ordered by the kernel's deterministic tie-breaking like any other event.
    The payload passed to :meth:`fire` becomes the value of the ``yield``
    expression in each waiting generator.
    """

    __slots__ = ("kernel", "name", "fired", "payload", "_waiters")

    def __init__(self, kernel: "EventKernel", name: str) -> None:
        self.kernel = kernel
        self.name = str(name)
        self.fired = False
        self.payload: object = None
        self._waiters: list[Callable[[object], None]] = []

    def fire(self, payload: object = None) -> None:
        """Fire the signal once; repeated fires are ignored."""
        if self.fired:
            return
        self.fired = True
        self.payload = payload
        for waiter in self._waiters:
            self.kernel.schedule(
                0.0, (lambda w=waiter: w(payload)), name=f"{self.name}:wake"
            )
        self._waiters.clear()

    def _add_waiter(self, resume: Callable[[object], None]) -> None:
        if self.fired:
            # Late waiters resume immediately (still via an event, for ordering).
            self.kernel.schedule(
                0.0, (lambda: resume(self.payload)), name=f"{self.name}:wake"
            )
        else:
            self._waiters.append(resume)


class EventKernel:
    """Priority-queue discrete-event scheduler with a seeded total event order.

    Parameters
    ----------
    seed:
        Seeds the tie-breaking stream for simultaneous events.  ``None``
        disables seeded tie-breaking (insertion order decides ties).
    record_trace:
        When True every fired event is appended to :attr:`trace` as
        ``(time, name)``; :meth:`trace_digest` hashes the trace for
        cross-backend determinism checks.
    """

    def __init__(self, *, seed: int | None = 0, record_trace: bool = False) -> None:
        self.now: float = 0.0
        self.record_trace = bool(record_trace)
        self.trace: list[tuple[float, str]] = []
        self.events_processed: int = 0
        self._heap: list[tuple[tuple[float, int, int, int], ScheduledEvent]] = []
        self._seq = itertools.count()
        self._tie_rng: np.random.Generator | None = (
            None if seed is None else np.random.Generator(np.random.PCG64(int(seed)))
        )

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self,
        delay: float,
        action: Callable[[], None] | None = None,
        *,
        name: str = "event",
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``action`` to fire ``delay`` simulated seconds from now."""
        if not math.isfinite(delay) or delay < 0.0:
            raise EventKernelError(
                f"event {name!r} scheduled with invalid delay {delay!r}"
            )
        return self.schedule_at(self.now + float(delay), action, name=name, priority=priority)

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None] | None = None,
        *,
        name: str = "event",
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``action`` at an absolute simulated time (>= now)."""
        if not math.isfinite(time) or time < self.now:
            raise EventKernelError(
                f"event {name!r} scheduled in the past (t={time!r} < now={self.now!r})"
            )
        tie = 0 if self._tie_rng is None else int(self._tie_rng.integers(0, 2**32))
        event = ScheduledEvent(time, priority, tie, next(self._seq), name, action)
        heapq.heappush(self._heap, (event.sort_key, event))
        return event

    # -- generator processes -------------------------------------------------
    def signal(self, name: str) -> Signal:
        """Create a named :class:`Signal` bound to this kernel."""
        return Signal(self, name)

    def spawn(
        self,
        name: str,
        generator: Generator[object, object, None],
        *,
        delay: float = 0.0,
    ) -> ScheduledEvent:
        """Run a generator as a named process.

        The generator may yield non-negative floats (sleep that many simulated
        seconds) or :class:`Signal` objects (suspend until the signal fires;
        the fire payload becomes the ``yield``'s value).  The process starts
        after ``delay`` seconds.
        """

        def step(send_value: object = None) -> None:
            try:
                yielded = generator.send(send_value)
            except StopIteration:
                return
            if isinstance(yielded, Signal):
                yielded._add_waiter(step)
            elif isinstance(yielded, (int, float)):
                self.schedule(float(yielded), step, name=name)
            else:
                raise EventKernelError(
                    f"process {name!r} yielded {type(yielded).__name__}; "
                    "expected a float delay or a Signal"
                )

        return self.schedule(delay, step, name=name)

    # -- execution -----------------------------------------------------------
    def run(self, *, until: float | None = None, max_events: int = 1_000_000) -> float:
        """Fire events in order until the queue drains (or ``until``/budget hits).

        Returns the kernel clock after the run.  ``until`` stops *before*
        firing any event scheduled later than it (the clock advances to
        ``until`` in that case).  ``max_events`` guards against runaway
        self-scheduling processes.
        """
        fired = 0
        while self._heap:
            key, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and event.time > until:
                self.now = float(until)
                return self.now
            if fired >= max_events:
                # Only a budget *violation* if work genuinely remains — a run
                # whose event count exactly equals the budget completes fine.
                raise EventKernelError(
                    f"event budget exhausted after {fired} events at t={self.now:.6f}"
                )
            heapq.heappop(self._heap)
            self.now = event.time
            self.events_processed += 1
            fired += 1
            if self.record_trace:
                self.trace.append((event.time, event.name))
            if event.action is not None:
                event.action()
        if until is not None and until > self.now:
            self.now = float(until)
        return self.now

    # -- introspection -------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of scheduled-but-unfired (non-cancelled) events."""
        return sum(1 for _, e in self._heap if not e.cancelled)

    def trace_digest(self) -> str:
        """SHA-256 hex digest of the fired-event trace (requires record_trace)."""
        h = hashlib.sha256()
        for time, name in self.trace:
            h.update(f"{time:.9f}|{name}\n".encode("utf-8"))
        return h.hexdigest()
