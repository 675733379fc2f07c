"""Clocks used by the simulation.

FAIR-BFL's evaluation reports both *simulated* delay (driven by the delay
models of Section 4.6) and elapsed learning time.  The simulation therefore
keeps its own clock, advanced explicitly by the orchestrator; wall-clock
measurement is only used by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative

__all__ = ["SimulatedClock"]


@dataclass
class SimulatedClock:
    """A manually-advanced clock measuring simulated seconds.

    The clock never goes backwards; :meth:`advance` with a negative duration is
    rejected so that per-round delay accounting cannot silently corrupt the
    time axis used by the accuracy-vs-time figures (Figs. 4b / 7b).
    """

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        seconds = check_non_negative("seconds", seconds)
        self.now += seconds
        return self.now
