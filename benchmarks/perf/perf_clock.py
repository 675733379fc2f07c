"""The benchmark's clock, and a yardstick for the speed of the box it runs on.

Two artefacts of the sandbox this benchmark is run in would otherwise drown a
10 % change in the program under 25 % of run-to-run spread.  Both were measured
on identical work before anything here was written (numbers in ``README.md``):

* **Page-fault stalls.**  Kernel time on freshly mapped memory swings wildly:
  one ``cohort_population`` round costs 1.1-1.5 s of user time and 0.3-11.4 s
  of kernel time for the same ~29 000 minor faults.  :func:`clock` therefore
  excludes this process's own kernel CPU seconds.
* **Speed drift.**  The same 24 rounds take 7.5-9.4 s, CPU time tracking wall
  time, drifting by +-12 % over seconds and by more over minutes.
  :class:`Calibrator` times a fixed kernel right before and after each op;
  the op's seconds are divided by how much slower than nominal the kernel ran
  beside it, so metrics read in seconds *at the reference speed*.

Neither touches the program: they only decide how its time is read.
"""

from __future__ import annotations

import resource
import time

__all__ = ["clock", "Calibrator", "NOMINAL_KERNEL_S"]

#: Duration of :meth:`Calibrator.sample`'s kernel at the reference speed — the
#: sandbox's typical speed when the benchmark was defined.  Changing it rescales
#: every time-valued metric, so it is part of the benchmark's definition.
NOMINAL_KERNEL_S = 0.010


def clock() -> float:
    """Wall seconds minus the kernel CPU seconds this process has used.

    Time blocked on I/O, sleeps and other processes still counts; only this
    process's own kernel CPU does not.  (Kernel time is flushed once per
    scheduler tick, so a span of a few microseconds can be off by a tick's
    worth; sums and medians are not.)
    """
    return time.perf_counter() - resource.getrusage(resource.RUSAGE_SELF).ru_stime


class Calibrator:
    """Samples how much slower than nominal the box runs (~10 ms a sample).

    The kernel mixes what the program's hot paths are made of — interpreter
    bytecode and small dense numpy products — and depends on nothing in
    ``src/``, so a change to the program cannot move it.  Callers sample right
    before and right after an op, never inside a timed interval, and divide
    the op's seconds by the mean of the two slowdowns (:meth:`bracket`).
    """

    def __init__(self) -> None:
        import numpy as np  # after the BLAS pins are set

        self._np = np
        self._a = (np.arange(64 * 784, dtype=np.float64).reshape(64, 784) % 7.0) - 3.0
        self._b = (np.arange(784 * 64, dtype=np.float64).reshape(784, 64) % 5.0) - 2.0
        #: Every slowdown sampled so far (1.0 = the reference speed).
        self.history: list[float] = []
        self.sample()  # first touch of the arrays and of the BLAS code path
        self.history.clear()

    @property
    def slowdown(self) -> float:
        """The latest sample."""
        return self.history[-1]

    def sample(self) -> float:
        np, a, b = self._np, self._a, self._b
        started = clock()
        total = 0.0
        for _ in range(40):
            total += float(np.maximum(a @ b, 0.0).sum())
        for i in range(80_000):
            total += i * 0.5
        self.history.append((clock() - started) / NOMINAL_KERNEL_S)
        return self.history[-1]

    def bracket(self, before: float) -> float:
        """The slowdown over an op that started right after sample ``before``
        and ended just now: takes the closing sample and returns the mean."""
        return (before + self.sample()) / 2.0
