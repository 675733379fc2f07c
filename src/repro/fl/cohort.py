"""Cohort execution of Procedure I: whole-population local updates at once.

:class:`CohortTrainer` replaces the per-client Python loop with one loop over
stacked operands (:class:`repro.nn.cohort.CohortModel`).  Selected clients
are grouped into *cohorts* of statistically identical shape (same model
factory, same train and validation shard shapes) and each cohort trains as a
handful of stacked ``(clients, batch, features)`` matrix ops.

Bit-exactness contract
----------------------
The produced :class:`~repro.fl.client.ClientUpdate` objects are byte-identical
to what ``FLClient.local_update`` returns on the serial path:

* the per-client RNG streams are preserved — each client's mini-batch
  permutations are drawn from *its own* ``client.rng``, one per epoch, in
  epoch order, exactly as ``FLClient.local_update``'s ``minibatches`` calls
  draw them (streams are private per client, so drawing them up front cannot
  change any value);
* there is no second set of numeric kernels to keep in parity: the layers,
  the loss, ``accuracy``, the SGD step and the FedProx term are the serial
  path's own objects and functions run on ``(clients, ...)`` operands, and
  each yields per client the bytes of that client's 2-D call (the two NumPy
  properties this rests on are stated in :mod:`repro.nn.cohort`);
* the one client state a round changes is its RNG stream, and only the
  coordinator draws from it.

Process sharding
----------------
With ``max_workers`` W > 1, a chunk of two or more parts (see below) is split
into W contiguous groups of parts.  The coordinator trains the first group
and W − 1 forked helper processes train the others concurrently, each writing
its rows of the chunk's ``(chunk, P)`` parameter matrix in place.  That matrix
lives in one of two anonymous ``MAP_SHARED`` mappings of
``max_cohort_size × P`` float64s, mapped once before the helpers fork and
reused for every chunk, so no chunk allocates or faults in a parameter
matrix.  The helpers inherit the client map at fork; a task carries only its
rows' permutations (drawn on the coordinator, which alone touches client RNG
streams) and the global vector, and a helper answers with its rows' losses.
A part's bytes do not depend on the process that trains it.  A chunk trains
into whichever mapping no kept :class:`CohortBlock` (or row view of one)
references, and in a private array on the coordinator alone when both are
referenced, so a kept block is never overwritten.  W = 1, a one-part chunk, or a platform without ``fork`` trains
in-process.  :meth:`CohortTrainer.close` stops the helpers and unmaps the
buffers; a helper that dies fails the chunk with :class:`RuntimeError`.

The same helpers and buffers shard a ``serial`` round
(:meth:`CohortTrainer.shard_local_updates`): a task is a function and its
arguments, so a helper runs a chunk's rows or a group of clients'
``FLClient.local_update`` alike, and the fork, teardown and death handling
are shared.  A serial row is copied into its client's own update and then
released from both processes' resident sets (the bytes stay in the mapping).
When the trainer uploads its updates, each is hashed by the process that
trained it: a helper's answer carries its rows' SHA-256 digests beside their
losses and stream states, so Procedure II does not hash them serially.

Memory contract
---------------
Cohorts are chunked to at most ``max_cohort_size`` clients, and a chunk trains
in parts of as many clients as keep a gathered operand within
:data:`GATHER_ROWS` rows, so peak memory is
``O(max_cohort_size · P + W · GATHER_ROWS · features + distinct shards)``
regardless of the population size: one ``(max_cohort_size, P)`` parameter
mapping shared by all W processes (the second is touched only while a block
is kept), one part's ``grads`` scratch (fully rewritten by every backward,
never zeroed) and gathered mini-batch per process, and each
*distinct* training shard once — replicated populations share archetype
arrays, which is observed by object identity and gathered through a
per-client shard index.  The 4 608-client ``cohort_population`` benchmark
workload peaks at ~119 MiB of process RSS (~281 MiB with whole-chunk operands).
:meth:`CohortTrainer.iter_update_blocks` streams these chunks to the caller
without ever materialising one ``ClientUpdate`` per client, which is what
lets a 100k-client round fit in bounded memory (see
``FedAvgTrainer._run_round_streaming``), as long as the caller drops each
:class:`CohortBlock` before asking for the next one.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import sys
import traceback
import weakref
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.blockchain.transaction import _digest_vector
from repro.fl.client import ClientUpdate, FLClient, LocalTrainingConfig
from repro.nn.cohort import CohortModel
from repro.nn.optim import add_proximal_term, sgd_step
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.utils.validation import check_positive

__all__ = ["EXECUTOR_BACKENDS", "CohortTrainer"]

#: The supported backends of Procedure I: the per-client loop and the cohort.
EXECUTOR_BACKENDS = ("serial", "cohort")


def _default_workers() -> int:
    """The CPUs this process may run on divided by the threads one BLAS call may use.

    Every cohort process runs BLAS, so W processes must not run more BLAS
    threads than there are CPUs (two of two-thread OpenBLAS ran a 100k-client
    round 10 % slower than one).  Unpinned BLAS runs one thread per CPU: W = 1.
    The CPUs are the affinity mask's, not ``os.cpu_count()``: a pinned process
    (taskset, a container's cpuset) must not start more processes than it has.
    """
    has_mask = hasattr(os, "sched_getaffinity")
    cpus = len(os.sched_getaffinity(0)) if has_mask else os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1

#: Default cohort chunk width, the clients of one streamed :class:`CohortBlock`:
#: a chunk of MNIST-scale logreg clients holds one 32 MB ``(chunk, P)`` matrix
#: beside its ``GATHER_ROWS``-bounded operands and the distinct shards.
DEFAULT_MAX_COHORT_SIZE = 512

#: Gathered operand rows a training step holds at a time: a chunk trains
#: ``GATHER_ROWS // rows-per-client`` clients at a time, so its mini-batch and
#: ``grads`` scratch do not grow with ``max_cohort_size``.
GATHER_ROWS = 1024


@dataclass
class CohortBlock:
    """One trained cohort chunk, streamed before any aggregation.

    Consumer contract: drop the block (``del block`` at the end of a ``for``
    body) before asking the stream for the next one.  A kept block keeps its
    ``(chunk, P)`` parameter matrix alive while the next chunk trains (into
    another buffer, or a private one); copy out whatever must outlive it.

    Attributes
    ----------
    client_ids:
        The chunk's clients, in selection order within the chunk.
    parameters:
        Updated flat parameters, shape ``(len(client_ids), P)``; row ``i``
        is byte-identical to the serial ``ClientUpdate.parameters`` of
        ``client_ids[i]``.
    train_losses:
        Per-client mean step losses, equal to the serial ``train_loss``.
    """

    client_ids: list[int]
    parameters: np.ndarray
    train_losses: list[float]


def _stack_distinct(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack each distinct array *object* once: ``stacked[index[i]]`` is ``arrays[i]``.

    Replicated populations (``distinct_shards``) hand one archetype array to
    many clients; private shards simply stack one array per client.
    """
    distinct = {id(a): a for a in arrays}  # one entry per object, first-seen order
    slot = {key: i for i, key in enumerate(distinct)}
    index = np.fromiter((slot[id(a)] for a in arrays), dtype=np.intp, count=len(arrays))
    return np.stack(list(distinct.values())), index


def _compiled_model(
    models: dict[object, CohortModel], client: FLClient, num_parameters: int
) -> CohortModel:
    """The cohort model of ``client``'s factory, compiled once into ``models``."""
    factory = client.workspace.factory  # hashable: ``_group_key`` hashed it first
    model = models.get(factory)
    if model is None:
        model = models[factory] = CohortModel.from_module(factory())
    if model.num_parameters != int(num_parameters):
        raise ValueError(
            f"compiled cohort model has {model.num_parameters} parameters "
            f"but the global vector has {num_parameters}"
        )
    return model


def _train_rows(
    model: CohortModel,
    cohort: list[FLClient],
    orders: np.ndarray,
    params: np.ndarray,
    global_ref: np.ndarray,
    config: LocalTrainingConfig,
    width: int,
) -> list[float]:
    """Train ``cohort`` into ``params`` (one row per client), ``width`` clients at a time.

    ``orders[i, epoch]`` is client ``i``'s mini-batch permutation.  Returns
    the clients' mean step losses.  Clients train ``width`` at a time, so a
    gathered mini-batch holds at most GATHER_ROWS rows (or one client's)
    whatever the row count; no client's bytes depend on its part, nor on the
    process running it.
    """
    images, image_of = _stack_distinct([c.dataset.images for c in cohort])
    labels, label_of = _stack_distinct([c.dataset.labels for c in cohort])
    size, num_samples = len(cohort), int(images.shape[1])
    params[...] = global_ref
    starts = range(0, num_samples, config.batch_size)
    losses = np.empty((size, config.epochs * len(starts)))
    loss = SoftmaxCrossEntropyLoss()
    grads = np.empty((min(width, size), params.shape[1]))  # scratch: backward rewrites every column

    for lo in range(0, size, width):
        part = slice(lo, lo + width)
        p = params[part]
        g = grads[: p.shape[0]]
        for epoch in range(config.epochs):
            for step, start in enumerate(starts, epoch * len(starts)):
                sel = orders[part, epoch, start : start + config.batch_size]
                logits = model.forward(p, images[image_of[part, None], sel])
                losses[part, step] = loss.forward(logits, labels[label_of[part, None], sel])
                model.backward(p, g, loss.backward())
                if config.proximal_mu > 0.0:
                    add_proximal_term(g, p, global_ref, config.proximal_mu)
                sgd_step(p, g, learning_rate=config.learning_rate)
        model.template.clear_caches()  # the part's last mini-batch, as in the serial loop

    # One contiguous last-axis reduction per client: the same pairwise sum
    # as the serial ``np.mean`` over that client's list of step losses.
    return losses.mean(axis=1).tolist()


def _helper_loop(conn, clients, models, buffers, parent_pid: int) -> None:
    """A helper process: run the tasks it is sent until told to stop.

    A task is a function and its arguments; the function gets the inherited
    client map, compiled models and shared buffers first, and its return
    value is the answer.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the coordinator's to handle
    while True:
        if not conn.poll(1.0):
            if os.getppid() != parent_pid:
                return  # the coordinator died without stopping us
            continue
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        function, args = task
        try:
            result = function(clients, models, buffers, *args)
        except Exception:  # noqa: BLE001 - reported to the coordinator, which raises it
            result = traceback.format_exc()
        conn.send(result)


def _train_task(clients, models, buffers, index, lo, chunk, orders, global_ref, config, width):
    """A helper's share of a cohort chunk: train ``chunk`` into rows ``lo:`` of buffer ``index``."""
    cohort = [clients[cid] for cid in chunk]
    model = _compiled_model(models, cohort[0], global_ref.shape[0])
    try:
        params = buffers[index][lo : lo + len(chunk)]
        return _train_rows(model, cohort, orders, params, global_ref, config, width)
    finally:
        model.release()


def _local_update_task(
    clients, models, buffers, index, lo, chunk, states, global_ref, config, digests
):
    """A helper's share of a serial round: ``FLClient.local_update`` into rows ``lo:``.

    Each client's stream starts from the coordinator's ``states`` entry, and
    the answer is the clients' losses, the states their streams end in, and,
    when ``digests`` is set, the SHA-256 of each row it wrote (``None``
    otherwise), so the coordinator's upload need not hash it again.
    """
    rows = buffers[index]
    losses, ends, hashes = [], [], []
    for row, (cid, state) in enumerate(zip(chunk, states), lo):
        client = clients[cid]
        client.rng.bit_generator.state = state
        update = client.local_update(global_ref, config)
        rows[row] = update.parameters
        _release_row(rows, row)
        losses.append(update.train_loss)
        ends.append(client.rng.bit_generator.state)
        hashes.append(_digest_vector(update.parameters) if digests else None)
    return losses, ends, hashes


def _release_row(buffer: np.ndarray, row: int) -> None:
    """Drop ``buffer[row]`` of a shared buffer from this process's resident set.

    ``MADV_DONTNEED`` on a ``MAP_SHARED`` mapping keeps the bytes: only this
    process's page tables let go, and the next touch maps the pages back.
    """
    row_bytes = buffer.shape[1] * buffer.itemsize
    start = row * row_bytes - row * row_bytes % mmap.PAGESIZE
    buffer.base.madvise(mmap.MADV_DONTNEED, start, (row + 1) * row_bytes - start)


def _stop_helpers(procs: list, conns: list) -> None:
    """Ask the helpers to stop, and reap them (terminating any that do not)."""
    for conn in conns:
        try:
            conn.send(None)
        except OSError:
            pass  # already gone
    for proc, conn in zip(procs, conns):
        proc.join(5.0)
        if proc.exitcode is None:
            proc.terminate()
            proc.join()
        conn.close()


class _Helpers:
    """``count`` forked helper processes and the two shared buffers they write.

    Each buffer is an anonymous ``MAP_SHARED`` mapping of ``rows × P``
    float64s, mapped before the fork, so a helper's writes land in the
    coordinator's pages.  The helpers inherit ``clients`` (and its shards) at
    fork.  Unreferenced helpers are stopped when the pool is collected.
    """

    def __init__(self, clients, models, rows: int, num_parameters: int, count: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self.clients = clients
        self.num_parameters = num_parameters
        self._maps = [mmap.mmap(-1, rows * num_parameters * 8) for _ in range(2)]
        # ``np.ndarray(buffer=...)``, not ``np.frombuffer(...).reshape``: every
        # view of a buffer then holds the buffer itself as its ``.base``.
        self.buffers = [
            np.ndarray((rows, num_parameters), dtype=np.float64, buffer=m) for m in self._maps
        ]
        #: Per buffer, the most rows a chunk has written (pages ever touched).
        self.touched = [0, 0]
        self.procs: list = []
        self.conns: list = []
        self._stop = weakref.finalize(self, _stop_helpers, self.procs, self.conns)
        for _ in range(count):
            conn, child = ctx.Pipe()
            proc = ctx.Process(
                target=_helper_loop,
                args=(child, clients, models, self.buffers, os.getpid()),
                name="repro-cohort-helper",
                daemon=True,
            )
            proc.start()
            child.close()  # so a dead helper reads as EOF here
            self.procs.append(proc)
            self.conns.append(conn)

    def free_buffer(self) -> int | None:
        """A buffer no block or row view references (``None`` if both are kept)."""
        for index in (0, 1):
            # Two references are the list's and getrefcount's own argument.
            if sys.getrefcount(self.buffers[index]) <= 2:
                return index
        return None

    def run(self, tasks: list[tuple], own):
        """Send ``tasks[i]`` (a function and its arguments) to helper ``i``, call ``own()`` here.

        Returns ``own()``'s result and the helpers' answers in task order.
        """
        busy = []
        try:
            for conn, task in zip(self.conns, tasks):
                conn.send(task)
                busy.append(conn)
            mine = own()
            answers = [conn.recv() for conn in busy]
        except (EOFError, OSError) as exc:
            codes = [proc.exitcode for proc in self.procs]
            raise RuntimeError(
                f"a cohort helper process died while training (exit codes {codes})"
            ) from exc
        for answer in answers:
            if isinstance(answer, str):
                raise RuntimeError(f"a cohort helper process failed:\n{answer}")
        return mine, answers

    def close(self, *, kill: bool = False) -> None:
        """Stop the helpers and unmap the buffers (a kept view defers its mapping's unmap)."""
        if kill:
            for proc in self.procs:
                proc.terminate()
        self._stop()
        self.buffers.clear()  # the helpers' ``args`` hold this very list
        for m in self._maps:
            try:
                m.close()
            except BufferError:
                pass  # a kept view: the mapping goes with its last view


class CohortTrainer:
    """Runs Procedure I for many clients at once with stacked numpy kernels.

    ``max_workers`` is the process count W a multi-part chunk, or a serial
    round's clients (:meth:`shard_local_updates`), is sharded over (the
    coordinator plus ``W - 1`` helpers, forked on first use); call
    :meth:`close` to stop them.  ``None`` picks the CPUs this process
    may run on divided by the threads each BLAS call may use.
    """

    def __init__(
        self, max_cohort_size: int = DEFAULT_MAX_COHORT_SIZE, max_workers: int | None = 1
    ) -> None:
        if int(max_cohort_size) <= 0:
            raise ValueError(f"max_cohort_size must be positive, got {max_cohort_size}")
        self.max_cohort_size = int(max_cohort_size)
        workers = _default_workers() if max_workers is None else max_workers
        self.max_workers = int(check_positive("max_workers", workers))
        self._models: dict[object, CohortModel] = {}
        self._helpers: _Helpers | None = None

    # -- grouping -------------------------------------------------------
    @staticmethod
    def _group_key(client: FLClient) -> tuple:
        dataset = client.dataset
        return (
            client.workspace.factory,
            np.asarray(dataset.images).shape,
            np.asarray(dataset.val_images).shape,
        )

    def _cohort_chunks(
        self, clients: Mapping[int, FLClient], selected: list[int]
    ) -> Iterator[list[int]]:
        """Group ``selected`` into same-shape cohorts, chunked for memory."""
        groups: dict[tuple, list[int]] = {}
        for cid in selected:
            key = self._group_key(clients[int(cid)])
            groups.setdefault(key, []).append(int(cid))
        for members in groups.values():
            for start in range(0, len(members), self.max_cohort_size):
                yield members[start : start + self.max_cohort_size]

    # -- helper processes -----------------------------------------------
    def _helpers_for(self, clients: Mapping[int, FLClient], num_parameters: int) -> _Helpers | None:
        """The helpers for this client map, forked on first use (``None``: train in-process)."""
        if (
            self.max_workers < 2
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon  # may not have children
        ):
            return None
        helpers = self._helpers
        if helpers is not None and (
            helpers.clients is not clients or helpers.num_parameters != num_parameters
        ):
            self.close()  # the helpers' inherited clients or buffers are stale
            helpers = None
        if helpers is None:
            helpers = self._helpers = _Helpers(
                clients, self._models, self.max_cohort_size, num_parameters, self.max_workers - 1
            )
        return helpers

    def _run_on(self, helpers: _Helpers, tasks: list[tuple], own):
        """``helpers.run(tasks, own)``; any failure kills the pool.

        The helpers may be mid-task, so no answer may reach the next round.
        """
        try:
            return helpers.run(tasks, own)
        except BaseException:
            self._helpers = None
            helpers.close(kill=True)
            raise

    @property
    def shared_bytes(self) -> int:
        """Bytes of the shared parameter buffers that chunks have written so far."""
        helpers = self._helpers
        return 0 if helpers is None else sum(helpers.touched) * helpers.num_parameters * 8

    def close(self) -> None:
        """Stop the helper processes and unmap their buffers (idempotent)."""
        if self._helpers is not None:
            self._helpers.close()
            self._helpers = None

    # -- training -------------------------------------------------------
    def iter_update_blocks(
        self,
        clients: Mapping[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        config: LocalTrainingConfig,
    ) -> Iterator[CohortBlock]:
        """Train the selected clients cohort by cohort, yielding each block.

        Peak memory is bounded by ``max_cohort_size`` and
        :data:`GATHER_ROWS` regardless of ``len(selected)``, provided the
        caller keeps the :class:`CohortBlock` consumer contract.
        """
        global_ref = np.asarray(global_parameters, dtype=np.float64)
        for chunk in self._cohort_chunks(clients, selected):
            yield self._train_chunk(clients, chunk, global_ref, config)

    def run_local_updates(
        self,
        clients: Mapping[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        local_config: LocalTrainingConfig,
    ) -> list[ClientUpdate]:
        """``FLClient.local_update`` for every selected client, in selection order."""
        by_id: dict[int, ClientUpdate] = {}
        for block in self.iter_update_blocks(clients, selected, global_parameters, local_config):
            for i, cid in enumerate(block.client_ids):
                by_id[cid] = ClientUpdate(
                    client_id=cid,
                    parameters=block.parameters[i].copy(),
                    train_loss=block.train_losses[i],
                )
            del block  # the CohortBlock contract: drop it before the next chunk trains
        return [by_id[int(cid)] for cid in selected]

    def shard_local_updates(
        self,
        clients: Mapping[int, FLClient],
        selected: list[int],
        global_parameters: np.ndarray,
        config: LocalTrainingConfig,
        digests: bool,
    ) -> list[ClientUpdate] | None:
        """``FLClient.local_update`` for every selected client, sharded over the helpers.

        ``selected`` goes in chunks of up to ``max_cohort_size`` clients (a
        buffer's rows), each split into W contiguous groups: the coordinator
        runs the first in-process and the helpers the others, into their rows
        of a shared buffer, which are copied into each client's own
        :class:`ClientUpdate`.  A client's stream travels as its bit-generator
        state and the state it ends in is assigned back, so only the
        coordinator's streams count.  With ``digests`` every update also
        carries the SHA-256 of its parameters (``ClientUpdate.digest``), taken
        by the process that trained it: the coordinator hashes its own group
        while the helpers train theirs.  Returns the updates in selection
        order, or ``None`` when there are no helpers (train in-process).
        """
        global_ref = np.asarray(global_parameters, dtype=np.float64)
        helpers = self._helpers_for(clients, global_ref.shape[0])
        index = None if helpers is None else helpers.free_buffer()
        if index is None:
            return None
        rows = helpers.buffers[index]
        updates: list[ClientUpdate] = []
        for start in range(0, len(selected), self.max_cohort_size):
            chunk = [int(cid) for cid in selected[start : start + self.max_cohort_size]]
            bounds = [g * len(chunk) // self.max_workers for g in range(self.max_workers + 1)]
            groups = [(lo, chunk[lo:hi]) for lo, hi in zip(bounds[1:], bounds[2:]) if lo < hi]
            tasks = [
                (
                    _local_update_task,
                    (
                        index,
                        lo,
                        group,
                        [clients[cid].rng.bit_generator.state for cid in group],
                        global_ref,
                        config,
                        digests,
                    ),
                )
                for lo, group in groups
            ]
            own = chunk[: bounds[1]]

            def train_own():
                mine = [clients[cid].local_update(global_ref, config) for cid in own]
                if digests:
                    for update in mine:
                        update.digest = _digest_vector(update.parameters)
                return mine

            mine, answers = self._run_on(helpers, tasks, train_own)
            updates += mine
            for (lo, group), answer in zip(groups, answers):
                for row, (cid, loss, state, digest) in enumerate(zip(group, *answer), lo):
                    clients[cid].rng.bit_generator.state = state
                    updates.append(
                        ClientUpdate(
                            client_id=cid, parameters=rows[row].copy(), train_loss=loss,
                            digest=digest,
                        )
                    )
                    _release_row(rows, row)
        return updates

    def _train_chunk(
        self,
        clients: Mapping[int, FLClient],
        chunk: list[int],
        global_ref: np.ndarray,
        config: LocalTrainingConfig,
    ) -> CohortBlock:
        cohort = [clients[cid] for cid in chunk]
        model = _compiled_model(self._models, cohort[0], global_ref.shape[0])
        size = len(cohort)
        num_samples = int(np.shape(cohort[0].dataset.images)[0])

        # Per-client mini-batch permutations: one draw per epoch from each
        # client's private stream, in epoch order — the exact draws
        # minibatches performs on the serial path.
        orders = np.empty((size, config.epochs, num_samples), dtype=np.int64)
        for i, client in enumerate(cohort):
            for epoch in range(config.epochs):
                orders[i, epoch] = client.rng.permutation(num_samples)

        # A part gathers at most GATHER_ROWS rows (or one client's).
        rows = max(1, min(config.batch_size, num_samples))
        width = min(size, max(1, GATHER_ROWS // rows))
        helpers = self._helpers_for(clients, global_ref.shape[0]) if size > width else None
        index = None if helpers is None else helpers.free_buffer()
        try:
            if index is None:
                params = np.empty((size, global_ref.shape[0]))
                train_losses = _train_rows(model, cohort, orders, params, global_ref, config, width)
            else:
                params = helpers.buffers[index][:size]
                helpers.touched[index] = max(helpers.touched[index], size)
                # W contiguous groups of whole parts; the coordinator trains the first.
                parts, processes = -(-size // width), self.max_workers
                bounds = [
                    min(size, -(-g * parts // processes) * width) for g in range(processes + 1)
                ]
                tasks = [
                    (_train_task, (index, lo, chunk[lo:hi], orders[lo:hi], global_ref, config, width))
                    for lo, hi in zip(bounds[1:], bounds[2:])
                    if lo < hi
                ]
                own = slice(0, bounds[1])
                train_losses, answers = self._run_on(
                    helpers,
                    tasks,
                    lambda: _train_rows(
                        model, cohort[own], orders[own], params[own], global_ref, config, width
                    ),
                )
                for losses in answers:
                    train_losses += losses
        finally:
            # The template's parameters are views of ``params`` / ``grads`` by now:
            # release them, or it pins both matrices until the next chunk.
            model.release()

        return CohortBlock(client_ids=list(chunk), parameters=params, train_losses=train_losses)

    # -- evaluation -----------------------------------------------------
    def evaluate_population(
        self,
        clients: Mapping[int, FLClient],
        selected: list[int],
        parameters: np.ndarray,
    ) -> list[float]:
        """Batched ``client.evaluate(parameters)`` for every selected client.

        One stacked forward per distinct validation shard, where the serial
        path runs one forward per client.  Returns accuracies in
        ``selected`` order, each bit-identical to the serial
        ``FLClient.evaluate``.
        """
        global_ref = np.asarray(parameters, dtype=np.float64)
        by_id: dict[int, float] = {}
        # Every client is scored under the *same* parameters, so the accuracy
        # is a function of (model, validation shard): score each distinct
        # shard once, across chunks, and fan the float out.
        scored: dict[tuple[int, int, int], float] = {}
        for chunk in self._cohort_chunks(clients, selected):
            cohort = [clients[cid] for cid in chunk]
            model = _compiled_model(self._models, cohort[0], global_ref.shape[0])
            keys = [
                (id(model), id(c.dataset.val_images), id(c.dataset.val_labels)) for c in cohort
            ]
            fresh = {k: c.dataset for k, c in zip(keys, cohort) if k not in scored}
            if fresh:
                val_images = np.stack([d.val_images for d in fresh.values()])
                val_labels = np.stack([d.val_labels for d in fresh.values()])
                params = np.repeat(global_ref[None, :], len(fresh), axis=0)
                logits = model.forward(params, val_images)
                scored.update(zip(fresh, accuracy(logits, val_labels).tolist()))
                model.release()
            by_id.update((cid, scored[k]) for cid, k in zip(chunk, keys))
        return [by_id[int(cid)] for cid in selected]
