"""Tests for the discrete-event kernel.

Covers the kernel contract: ordering, cancellation, bounded runs, seeded
tie-breaking and trace digests.  The vanilla round's block packing is pinned
in ``tests/test_delay_parity.py`` (``VANILLA_GRID``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.events import EventKernel, EventKernelError

pytestmark = pytest.mark.sim


class TestEventKernel:
    def test_events_fire_in_time_order(self):
        kernel = EventKernel(seed=0)
        fired = []
        kernel.schedule(2.0, lambda: fired.append("b"), name="b")
        kernel.schedule(1.0, lambda: fired.append("a"), name="a")
        kernel.schedule(3.0, lambda: fired.append("c"), name="c")
        end = kernel.run()
        assert fired == ["a", "b", "c"]
        assert end == pytest.approx(3.0)
        assert kernel.events_processed == 3

    def test_clock_only_advances_at_events(self):
        kernel = EventKernel(seed=0)
        times = []
        kernel.schedule(0.5, lambda: times.append(kernel.now))
        kernel.schedule(1.5, lambda: times.append(kernel.now))
        kernel.run()
        assert times == [pytest.approx(0.5), pytest.approx(1.5)]

    def test_seeded_tie_breaking_is_seed_deterministic(self):
        def order(seed: int) -> list[str]:
            kernel = EventKernel(seed=seed)
            fired: list[str] = []
            for name in ("a", "b", "c", "d", "e"):
                kernel.schedule(1.0, (lambda n=name: fired.append(n)), name=name)
            kernel.run()
            return fired

        assert order(7) == order(7)
        # Across many seeds, at least one must deviate from insertion order.
        assert any(order(s) != ["a", "b", "c", "d", "e"] for s in range(20))

    def test_cancelled_events_are_skipped(self):
        kernel = EventKernel(seed=0)
        fired = []
        victim = kernel.schedule(1.0, lambda: fired.append("victim"))
        kernel.schedule(0.5, victim.cancel)
        kernel.schedule(2.0, lambda: fired.append("survivor"))
        kernel.run()
        assert fired == ["survivor"]
        assert kernel.events_processed == 2  # cancel event + survivor

    def test_negative_delay_and_past_scheduling_rejected(self):
        kernel = EventKernel(seed=0)
        with pytest.raises(EventKernelError):
            kernel.schedule(-0.1, lambda: None)
        kernel.schedule(1.0, lambda: None)
        kernel.run()
        with pytest.raises(EventKernelError):
            kernel.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("method", ("schedule", "schedule_at"))
    @pytest.mark.parametrize("as_type", (float, np.float64, np.float32))
    def test_non_finite_times_rejected_whatever_the_float_type(self, method, as_type):
        kernel = EventKernel(seed=0)
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(EventKernelError):
                getattr(kernel, method)(as_type(bad), lambda: None)
        # A rejected call leaves nothing behind to fire.
        assert kernel.run() == 0.0 and kernel.events_processed == 0
        # A finite numpy scalar is a perfectly good time.
        event = getattr(kernel, method)(as_type(1.5), lambda: None)
        assert event.time == 1.5 and type(event.time) is float
        assert kernel.run() == 1.5

    def test_max_events_guards_runaway_processes(self):
        kernel = EventKernel(seed=0)

        def reschedule() -> None:
            kernel.schedule(0.1, reschedule, name="loop")

        kernel.schedule(0.1, reschedule, name="loop")
        with pytest.raises(EventKernelError, match="event budget"):
            kernel.run(max_events=50)

    def test_run_completing_exactly_at_budget_is_not_an_error(self):
        kernel = EventKernel(seed=0)
        fired = []
        for i in range(3):
            kernel.schedule(0.1 * (i + 1), (lambda i=i: fired.append(i)))
        end = kernel.run(max_events=3)
        assert fired == [0, 1, 2]
        assert end == pytest.approx(0.3)

    def test_trace_digest_is_reproducible(self):
        def digest() -> str:
            kernel = EventKernel(seed=3, record_trace=True)
            for i in range(10):
                kernel.schedule(0.25 * i, name=f"e{i}")
            kernel.run()
            return kernel.trace_digest()

        assert digest() == digest()
        assert len(digest()) == 64
