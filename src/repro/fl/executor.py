"""Execution of Procedure I (local updates) across clients.

:class:`ParallelExecutor` runs the selected clients' local updates on one of
two backends:

* ``serial`` — the original per-client loop, the default everywhere (tests,
  CLI, benchmarks);
* ``cohort`` — no per-client loop: the selected clients are grouped into
  same-shape cohorts and trained as stacked ``(clients, batch, features)``
  matrix ops by :class:`~repro.fl.cohort.CohortTrainer` (the path that scales
  to 100k+ clients).  A chunk too wide for one gathered part is sharded by
  rows over the coordinator and W - 1 forked helper processes, which write one
  shared parameter buffer in place (W: ``max_workers``, or by default as many
  processes as multi-threaded BLAS leaves CPUs for).

Both backends yield bit-identical histories.  Every stochastic draw of a
local update comes from the *owning client's* private RNG stream (see
:mod:`repro.utils.rng`), so the order in which clients train cannot change the
numbers; the cohort backend draws each client's permutations from that stream
on the coordinator and uses kernels chosen for bit-identical floating-point
results (see :mod:`repro.nn.cohort`).
"""

from __future__ import annotations

import os

import numpy as np

from repro.fl.client import ClientUpdate, FLClient, LocalTrainingConfig
from repro.fl.cohort import CohortTrainer
from repro.utils.validation import check_choice, check_positive

__all__ = [
    "EXECUTOR_BACKENDS",
    "ParallelExecutor",
    "check_executor_settings",
]

#: The supported backends: the per-client loop and the vectorized cohort.
EXECUTOR_BACKENDS = ("serial", "cohort")


def check_executor_settings(backend: str, workers: int | None) -> None:
    """Validate a (backend, worker-count) pair: the one rule behind configs and the executor."""
    check_choice("executor_backend", backend, EXECUTOR_BACKENDS)
    if workers is not None:
        check_positive("executor_workers", workers)


def resolve_worker_count(max_workers: int | None) -> int:
    """Resolve ``max_workers`` (``None`` means one worker per CPU this process may run on)."""
    if max_workers is None:
        # The affinity mask, not ``os.cpu_count()``: a pinned process (taskset,
        # a container's cpuset) must not start more workers than it has CPUs.
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    return int(check_positive("executor_workers", max_workers))


def _blas_threads() -> int:
    """Threads one BLAS call may use: OpenBLAS's and MKL's pins, else one per usable CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return resolve_worker_count(None)


class ParallelExecutor:
    """Runs ``FLClient.local_update`` for the selected clients.

    Parameters
    ----------
    backend:
        One of :data:`EXECUTOR_BACKENDS`.
    max_workers:
        The process count a cohort chunk is sharded over (default: the CPUs
        this process may run on divided by the threads each BLAS call may
        use, so that W processes never run more BLAS threads than there are
        CPUs — unpinned, that is one process).  The serial backend ignores it.

    The cohort trainer and its helper processes are created lazily on first
    use and reused across rounds; call :meth:`close` (or use the executor as a
    context manager) to stop them.
    """

    def __init__(self, backend: str = "serial", max_workers: int | None = None) -> None:
        check_executor_settings(backend, max_workers)
        self.backend = backend
        # Every cohort process runs BLAS: unless told otherwise, do not let W
        # processes of multi-threaded BLAS oversubscribe the CPUs (two of
        # two-thread OpenBLAS ran a 100k-client round 10 % slower than one).
        self.max_workers = (
            int(max_workers) if max_workers is not None
            else max(1, resolve_worker_count(None) // _blas_threads())
        )
        self._cohort: CohortTrainer | None = None

    # ------------------------------------------------------------------
    def run_local_updates(
        self,
        clients: dict[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        local_config: LocalTrainingConfig,
    ) -> list[ClientUpdate]:
        """Run Procedure I for ``selected`` and return updates in that order."""
        if self.backend == "cohort":
            return self._ensure_cohort().run_local_updates(
                clients, selected, global_parameters, local_config
            )
        return [clients[cid].local_update(global_parameters, local_config) for cid in selected]

    def iter_update_blocks(
        self,
        clients: dict[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        local_config: LocalTrainingConfig,
    ):
        """Stream trained :class:`~repro.fl.cohort.CohortBlock` chunks (cohort only).

        The streaming form never materialises one ``ClientUpdate`` per client,
        which is what bounds memory for 100k+-client rounds.
        """
        if self.backend != "cohort":
            raise ValueError(
                f"iter_update_blocks requires the 'cohort' backend, got {self.backend!r}"
            )
        return self._ensure_cohort().iter_update_blocks(
            clients, selected, global_parameters, local_config
        )

    def evaluate_population(
        self,
        clients: dict[int, FLClient],
        selected: list[int],
        parameters: np.ndarray,
    ) -> list[float]:
        """Batched per-client evaluation of shared ``parameters`` (cohort only)."""
        if self.backend != "cohort":
            raise ValueError(
                f"evaluate_population requires the 'cohort' backend, got {self.backend!r}"
            )
        return self._ensure_cohort().evaluate_population(clients, selected, parameters)

    def _ensure_cohort(self) -> CohortTrainer:
        if self._cohort is None:
            self._cohort = CohortTrainer(max_workers=self.max_workers)
        return self._cohort

    def close(self) -> None:
        """Stop the cohort trainer's helper processes, if it started any."""
        if self._cohort is not None:
            self._cohort.close()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(backend={self.backend!r}, max_workers={self.max_workers})"
