"""The one round-based trainer every system subclasses.

FAIR-BFL, the FL baselines and the vanilla blockchain are one round loop with
different procedures switched on, so what they share lives once, here:

* the lifecycle — the simulated clock and the history, :meth:`Trainer.run` /
  :meth:`Trainer.run_until`, :meth:`Trainer.close` and the context manager;
* the federated population — model factory, the workspace of scratch models,
  id-keyed clients, cohort trainer and selection stream — built when a
  dataset is passed;
* Procedure I — :meth:`Trainer.local_updates` runs it on the ``serial``
  per-client loop or the ``cohort`` engine (:class:`~repro.fl.cohort.CohortTrainer`),
  whose helper processes shard a large round on either backend;
* evaluation — the participants' mean verification accuracy;
* emission — the single step that advances the clock by a round's delay and
  appends its :class:`~repro.fl.history.RoundRecord`;
* partial-run checkpointing, described below.

A subclass supplies ``run_round(round_index)`` (and extends ``close`` when it
owns more than the helper pool).

Checkpointing
-------------
The ASHA search scheduler (:mod:`repro.search`) promotes a scenario from a
low-fidelity rung (few rounds) to a higher one without replaying the rounds it
already ran.  That requires every trainer to be able to (a) serialise its
*complete* resumable state after round ``r`` and (b) restore that state onto a
freshly-built instance so that continuing to round ``R`` is **bit-identical**
to an uninterrupted ``R``-round run.

The state capture is deliberately *exclusion-based* — it pickles everything in
the trainer's ``__dict__`` except the attributes named by
:attr:`Trainer.CHECKPOINT_EXCLUDE` (the dataset, the cohort trainer, and other
objects the constructor rebuilds deterministically) — so a subclass that adds
state (e.g. the momentum buffer of ``examples/custom_system.py``) is
checkpointed correctly without opting in.  Clients are the one special case:
an ``FLClient`` holds a data shard (large, rebuildable), so only its
*evolving* state travels — the private RNG stream state — and is restored
onto the freshly-built client objects.  A client keeps no other tally: its
rewards are on the pickled chain and its participation is in the history.

Why pickling the whole graph in one blob matters: trainers share objects
(FAIR-BFL's miners all reference the one :class:`~repro.crypto.keystore.KeyStore`).
A single ``pickle.dumps`` preserves that aliasing, so the restored graph has
exactly the sharing structure of the live one.

Determinism across backends comes for free: every stochastic draw in
a round is made either from a trainer-owned RNG stream or from the owning
client's private stream, and only the coordinator's streams count (the
cohort backend's helper processes receive their permutations, a sharded serial
round's helpers their clients' stream states, which come back) — so the
coordinator-side state captured here is authoritative for ``serial`` and
``cohort`` alike, on any process count (see ``tests/test_checkpoint.py`` and
``tests/test_serial_shards.py``).
"""

from __future__ import annotations

import io
import pickle

import numpy as np

from repro.datasets.federated import FederatedDataset
from repro.fl.client import ClientUpdate, FLClient, LocalTrainingConfig, ModelWorkspace
from repro.fl.cohort import CohortTrainer
from repro.fl.history import RoundRecord, TrainingHistory
from repro.nn.models import ModelFactory
from repro.nn.parameters import set_flat_parameters
from repro.utils.rng import new_rng
from repro.utils.timer import SimulatedClock

__all__ = ["CheckpointError", "Trainer"]

#: Version stamped into every checkpoint blob.  Restoring a blob with a
#: different version raises :class:`CheckpointError`, which resume paths
#: treat as "no usable checkpoint" (the run recomputes from scratch).
#: 4: the pickled round simulator no longer carries per-miner-count exchange
#: network objects (their class is gone, so a v3 FAIR-BFL blob cannot unpickle).
#: 5: the winning miner signs each block header and keyed chains verify it; a
#: v4 blob's headers are unsigned, so its chains would fail their first check.
#: 6: the chain is the only reward balance and a client's state is its RNG
#: stream; a v5 blob pickles the deleted reward ledger and per-client counters.
#: 7: the vanilla chain's height is a counter; a v6 ``blockchain`` blob holds
#: replica chains and a mempool instead, so it would resume at height 1.
#: 8: the event kernel's mining race names each block's signer; a v7 FAIR-BFL
#: blob carries the deleted winner stream and blocks its winners signed.
CHECKPOINT_SCHEMA_VERSION = 8

#: Procedure-I work (the selected clients' local samples × epochs × parameters)
#: from which a ``serial`` round is sharded over the helper pool.  Measured on
#: a 2-CPU box: 240 logistic-regression clients (26 M) are per-client Python
#: overhead and train no faster on two processes, 100 Figure-4 MLP clients
#: (692 M) train in ~0.55× the time, and forking and reaping a helper costs
#: 11-14 ms, which a 12-client sweep cell (1.6 M) must not pay.
SHARD_WORK = 64_000_000

#: The globals a checkpoint blob may name besides the classes of ``repro.*``
#: and of the trainer's own module: numpy's array, scalar, dtype,
#: bit-generator and seed-sequence reconstructors (under both names of
#: numpy's core package), and ``deque``.
_CHECKPOINT_GLOBALS = frozenset(
    [(f"numpy.{core}.{mod}", name) for core in ("core", "_core") for mod, name in (
        ("multiarray", "_reconstruct"), ("multiarray", "scalar"), ("numeric", "_frombuffer"))]
    + [("numpy", "dtype"), ("numpy", "ndarray"), ("collections", "deque")]
    + [("numpy.random._pickle", f"__{kind}_ctor") for kind in ("bit_generator", "generator")]
    + [("numpy.random.bit_generator", n) for n in ("SeedSequence", "__pyx_unpickle_SeedSequence")]
    + [("numpy.random._pcg64", "PCG64")]
)


class CheckpointError(RuntimeError):
    """A checkpoint blob cannot be restored onto this trainer."""


class _CheckpointUnpickler(pickle.Unpickler):
    """Unpickles only what a checkpoint is made of.

    A store is a plain directory, so a blob is untrusted input.  Outside
    :data:`_CHECKPOINT_GLOBALS` a blob may name only a class defined in a
    ``repro`` module or in ``trainer_module``: an imported name, a function or
    a dotted path (``os.system``, ``pickle.loads`` reached through a module
    that imports it) is refused before anything is called.
    """

    def __init__(self, blob: bytes, trainer_module: str) -> None:
        super().__init__(io.BytesIO(blob))
        self.trainer_module = trainer_module

    def find_class(self, module: str, name: str):
        if (module, name) in _CHECKPOINT_GLOBALS:
            return super().find_class(module, name)
        own = module == self.trainer_module or module.split(".")[0] == "repro"
        if own and "." not in name:
            found = super().find_class(module, name)
            if isinstance(found, type) and found.__module__ == module:
                return found
        raise CheckpointError(f"refused global {module}.{name}")


class Trainer:
    """A round-based trainer: population, lifecycle, evaluation, emission, checkpoints.

    Parameters
    ----------
    spec:
        The run's scenario (a :class:`~repro.runner.scenario.ScenarioSpec`,
        checked when it was built): ``spec.num_rounds`` is the default run
        length and ``spec.seed`` seeds every stream.
    dataset:
        The partitioned dataset of a *federated* trainer, or ``None`` for one
        without clients (the vanilla blockchain).  With a dataset the
        constructor builds the population from ``spec.model_name`` /
        ``hidden_sizes`` / ``backend`` / ``max_workers``.

    ``run_round`` must read the clock and every RNG stream from instance state
    (which is what makes partial runs resumable) and finish through
    :meth:`_emit`; attributes listed in :attr:`CHECKPOINT_EXCLUDE` must be
    rebuilt deterministically by ``__init__`` from the same spec/dataset.
    """

    label = "trainer"

    #: Whether Procedure II uploads every update as a transaction carrying
    #: its SHA-256 digest; a sharded round then hashes each update in the
    #: process that trained it.  Trainers that upload nothing pay no hash.
    uploads_updates = False

    #: Attributes rebuilt by the constructor (or unpicklable) and therefore
    #: excluded from the state blob.  Subclasses may extend it.
    CHECKPOINT_EXCLUDE: tuple[str, ...] = (
        "dataset",
        "clients",
        "cohort",
        "_pool",
        "_model_factory",
        "_workspace",
        "spec",
    )

    #: ``client_id -> FLClient``; None on a trainer without federated clients.
    clients: dict[int, FLClient] | None = None
    #: The cohort engine of a ``cohort``-backend population; None otherwise.
    cohort: CohortTrainer | None = None
    #: The population's helper pool (the cohort engine's, on either backend).
    _pool: CohortTrainer | None = None

    def __init__(self, spec, dataset: FederatedDataset | None = None) -> None:
        self.spec = spec
        self.dataset = dataset
        if dataset is not None:
            seed = spec.seed
            # A value-typed (hashable) factory: the cohort backend groups
            # clients by it.
            self._model_factory = ModelFactory(
                model_name=spec.model_name,
                input_dim=int(dataset.clients[0].images.shape[1]),
                num_classes=max(
                    10, int(max(int(c.labels.max(initial=0)) for c in dataset.clients) + 1)
                ),
                seed=seed,
                label=self.label,
                hidden_sizes=spec.hidden_sizes,
            )
            # The scratch model of local training: one, not one per client,
            # and gone when this trainer is.
            self._workspace = ModelWorkspace(self._model_factory)
            self.clients = {
                shard.client_id: FLClient(
                    shard,
                    self._workspace,
                    new_rng(seed, self.label, "client", shard.client_id),
                )
                for shard in dataset.clients
            }
            # Cheap: nothing forks until a multi-part cohort chunk or a
            # serial round worth sharding (:meth:`local_updates`).
            self._pool = CohortTrainer(max_workers=spec.max_workers)
            if spec.backend == "cohort":
                self.cohort = self._pool
            self._selection_rng = new_rng(seed, self.label, "selection")
        self.clock = SimulatedClock()
        self.history = TrainingHistory(label=self.label)

    # -- one round ------------------------------------------------------
    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one communication round; append and return its record."""
        raise NotImplementedError

    def local_updates(
        self,
        selected: list[int],
        global_parameters: np.ndarray,
        config: LocalTrainingConfig,
    ) -> list[ClientUpdate]:
        """Run Procedure I for ``selected`` and return their updates in that order.

        The one place that chooses the backend; both yield the same bytes.  A
        ``serial`` round of at least :data:`SHARD_WORK` is sharded over the
        pool's ``max_workers`` processes (``CohortTrainer.shard_local_updates``);
        with :attr:`uploads_updates` set, each process also hashes the updates
        it trained.
        """
        if self.cohort is not None:
            return self.cohort.run_local_updates(self.clients, selected, global_parameters, config)
        samples = sum(self.clients[cid].num_samples for cid in selected)
        if samples * config.epochs * np.size(global_parameters) >= SHARD_WORK:
            updates = self._pool.shard_local_updates(
                self.clients, selected, global_parameters, config, self.uploads_updates
            )
            if updates is not None:
                return updates
        return [self.clients[cid].local_update(global_parameters, config) for cid in selected]

    def mean_accuracy(self, client_ids: list[int], parameters: np.ndarray) -> float:
        """Mean verification accuracy of ``parameters`` across ``client_ids``.

        The paper averages per-client verification accuracies; evaluating the
        *new global parameters* on each participant's verification split makes
        the metric sensitive to aggregation quality (fairness weighting,
        discarding, poisoning) rather than to purely local fits, and keeps the
        accuracy comparisons of Figs. 4b/5b/7b apples-to-apples across
        systems.  The cohort backend scores the population batched — one
        stacked forward per distinct validation shard instead of one forward
        per participant through the caller's scratch model; the floats are
        bit-identical either way.  The serial loop loads ``parameters`` into
        the clients' shared scratch model once, not once per participant.
        """
        if self.cohort is not None:
            accuracies = self.cohort.evaluate_population(self.clients, client_ids, parameters)
        else:
            set_flat_parameters(self._workspace.model(), parameters)
            accuracies = [
                self.clients[cid].evaluate(parameters, loaded=True) for cid in client_ids
            ]
        return float(np.mean(accuracies))

    def _emit(self, round_index: int, delay: float, accuracy: float, **fields) -> RoundRecord:
        """Advance the clock by ``delay``; build, append and return the round's record."""
        self.clock.advance(delay)
        record = RoundRecord(
            round_index=round_index,
            delay=delay,
            accuracy=accuracy,
            elapsed_time=self.clock.now,
            **fields,
        )
        self.history.append(record)
        return record

    # -- lifecycle ------------------------------------------------------
    def rounds_completed(self) -> int:
        """Number of communication rounds this trainer has executed."""
        return len(self.history)

    def run(self, *, num_rounds: int | None = None) -> TrainingHistory:
        """Run ``num_rounds`` *additional* rounds and return the full history.

        Defaults to the spec's ``num_rounds``.  Round indices continue
        from ``len(self.history)``, so a fresh trainer, a second call and a
        restored checkpoint all step through the same loop.
        """
        rounds = self.spec.num_rounds if num_rounds is None else int(num_rounds)
        for r in range(len(self.history), len(self.history) + rounds):
            self.run_round(r)
        return self.history

    def run_until(self, total_rounds: int) -> TrainingHistory:
        """Continue running until ``total_rounds`` rounds exist in the history.

        A no-op when the trainer is already there; raises
        :class:`CheckpointError` when asked to run *backwards* (the caller
        resumed from a rung beyond the requested fidelity).
        """
        total_rounds = int(total_rounds)
        done = self.rounds_completed()
        if total_rounds < done:
            raise CheckpointError(
                f"cannot run to round {total_rounds}: trainer already completed {done}"
            )
        if total_rounds > done:
            self.run(num_rounds=total_rounds - done)
        return self.history

    def close(self) -> None:
        """Stop and reap the helper processes of either backend (idempotent)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- checkpointing --------------------------------------------------
    def checkpoint_state(self) -> bytes:
        """Serialise the trainer's complete resumable state into one blob."""
        exclude = set(self.CHECKPOINT_EXCLUDE)
        attrs = {k: v for k, v in self.__dict__.items() if k not in exclude}
        client_state = None
        if self.clients is not None:
            client_state = {
                int(cid): client.rng.bit_generator.state
                for cid, client in self.clients.items()
            }
        payload = {
            "version": CHECKPOINT_SCHEMA_VERSION,
            "trainer": type(self).__qualname__,
            "rounds": self.rounds_completed(),
            "attrs": attrs,
            "clients": client_state,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def restore_state(self, blob: bytes) -> None:
        """Restore a :meth:`checkpoint_state` blob onto this (fresh) instance.

        Raises :class:`CheckpointError` on a global no checkpoint is made of
        (:class:`_CheckpointUnpickler`), a version/trainer-class mismatch, an
        attribute set other than this trainer's checkpointed attributes (an
        extra one would outlive the code that deleted it), or a client
        population or RNG state that does not match — all signatures of a
        blob produced by different code or a different spec, or not by
        :meth:`checkpoint_state`, which resume paths treat as a miss rather
        than a corruption to propagate.  The whole blob is checked before
        anything is assigned, so a refused blob leaves this trainer as it was.
        """
        try:
            payload = _CheckpointUnpickler(blob, type(self).__module__).load()
        except Exception as exc:  # pickle raises a zoo of types
            raise CheckpointError(f"checkpoint blob cannot be unpickled: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema version {payload.get('version') if isinstance(payload, dict) else '?'!r} "
                f"does not match {CHECKPOINT_SCHEMA_VERSION}"
            )
        if payload.get("trainer") != type(self).__qualname__:
            raise CheckpointError(
                f"checkpoint was written by {payload.get('trainer')!r}, "
                f"cannot restore onto {type(self).__qualname__!r}"
            )
        attrs = payload.get("attrs")
        expected = set(self.__dict__) - set(self.CHECKPOINT_EXCLUDE)
        found = attrs.keys() if isinstance(attrs, dict) else set()
        if found != expected:
            raise CheckpointError(
                f"checkpoint state lacks trainer attributes {sorted(expected - found)} "
                f"or carries unknown ones {sorted(found - expected)}"
            )
        clients = self.clients
        client_state = payload.get("clients")
        if (clients is None) != (client_state is None):
            raise CheckpointError("checkpoint client state does not match this trainer")
        if clients is not None and (
            not isinstance(client_state, dict) or set(client_state) != {int(c) for c in clients}
        ):
            raise CheckpointError("checkpoint client population does not match this trainer")
        # Each RNG state is tried on a scratch generator before anything is assigned.
        rng_states = {}
        for cid, rng_state in (client_state or {}).items():
            scratch = type(clients[cid].rng.bit_generator)()
            try:
                scratch.state = rng_state
            except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                raise CheckpointError(f"checkpoint RNG state of client {cid} is malformed") from exc
            rng_states[cid] = scratch.state
        vars(self).update(attrs)
        for cid, rng_state in rng_states.items():
            clients[cid].rng.bit_generator.state = rng_state
