"""Partial-run checkpointing: stop a trainer at round ``r``, resume it later.

The ASHA search scheduler (:mod:`repro.search`) promotes a scenario from a
low-fidelity rung (few rounds) to a higher one without replaying the rounds it
already ran.  That requires every trainer to be able to (a) serialise its
*complete* resumable state after round ``r`` and (b) restore that state onto a
freshly-built instance so that continuing to round ``R`` is **bit-identical**
to an uninterrupted ``R``-round run.

:class:`CheckpointMixin` implements both generically.  The state capture is
deliberately *exclusion-based* — it pickles everything in the trainer's
``__dict__`` except the attributes named by :attr:`~CheckpointMixin.CHECKPOINT_EXCLUDE`
(the dataset, worker pools, and other objects the constructor rebuilds
deterministically) — so a subclass that adds state (e.g. the momentum buffer
of ``examples/custom_system.py``) is checkpointed correctly without opting in.
Clients are the one special case: an ``FLClient`` holds a data shard (large,
rebuildable), so only its *evolving* state travels — the private RNG stream
state, the participation counter, and the accumulated reward — and is
restored onto the freshly-built client objects.

Why pickling the whole graph in one blob matters: trainers share objects
(FAIR-BFL's miners all reference the one :class:`~repro.crypto.keystore.KeyStore`;
a :class:`~repro.sim.delay.DelayModel` and its kernel-backed round simulator
draw from one generator).  A single ``pickle.dumps`` preserves that aliasing,
so the restored graph has exactly the sharing structure of the live one.

Determinism across executor backends comes for free: every stochastic draw in
a round is made either from a trainer-owned RNG stream or from the owning
client's private stream, and the process backend ships/restores client RNG
states onto the coordinator after each round — so the coordinator-side state
captured here is authoritative for ``serial``/``thread``/``process``/``cohort``
alike (see ``tests/test_checkpoint.py``).
"""

from __future__ import annotations

import pickle

__all__ = ["CHECKPOINT_SCHEMA_VERSION", "CheckpointError", "CheckpointMixin"]

#: Version stamped into every checkpoint blob.  Restoring a blob with a
#: different version raises :class:`CheckpointError`, which resume paths
#: treat as "no usable checkpoint" (the run recomputes from scratch).
#: 4: the pickled round simulator no longer carries per-miner-count exchange
#: network objects (their class is gone, so a v3 FAIR-BFL blob cannot unpickle).
CHECKPOINT_SCHEMA_VERSION = 4


class CheckpointError(RuntimeError):
    """A checkpoint blob cannot be restored onto this trainer."""


class CheckpointMixin:
    """The round loop of a round-based trainer, plus capture/restore of its state.

    The mixin owns :meth:`run` and :meth:`run_until`; the host class supplies
    one round.  Requirements on the host class:

    * ``self.history`` is the :class:`~repro.fl.history.TrainingHistory`
      accumulated so far (``rounds_completed()`` is its length) and
      ``self.config.num_rounds`` the configured run length;
    * ``run_round(round_index)`` executes one communication round, appends
      its :class:`~repro.fl.history.RoundRecord` to ``self.history`` and
      returns it, reading the clock and every RNG stream from instance state
      (which is what makes partial runs resumable);
    * attributes listed in :attr:`CHECKPOINT_EXCLUDE` are rebuilt
      deterministically by ``__init__`` from the same spec/dataset.
    """

    #: Attributes rebuilt by the constructor (or unpicklable) and therefore
    #: excluded from the state blob.  The default covers all built-in
    #: trainers; subclasses may extend it.
    CHECKPOINT_EXCLUDE: tuple[str, ...] = (
        "dataset",
        "clients",
        "_clients_by_id",
        "executor",
        "_model_factory",
        "config",
    )

    # ------------------------------------------------------------------
    def _checkpoint_client_map(self) -> dict | None:
        """Mapping ``client_id -> FLClient`` for per-client state, or None.

        Trainers without federated clients (the vanilla blockchain) return
        None; the FL trainers return their client lookup so the mixin can
        capture and restore each client's RNG stream and counters.
        """
        return None

    def rounds_completed(self) -> int:
        """Number of communication rounds this trainer has executed."""
        return len(self.history)

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> bytes:
        """Serialise the trainer's complete resumable state into one blob."""
        exclude = set(self.CHECKPOINT_EXCLUDE)
        attrs = {k: v for k, v in self.__dict__.items() if k not in exclude}
        clients = self._checkpoint_client_map()
        client_state = None
        if clients is not None:
            client_state = {
                int(cid): {
                    "rng": client.rng.bit_generator.state,
                    "rounds_participated": int(client.rounds_participated),
                    "total_reward": float(client.total_reward),
                }
                for cid, client in clients.items()
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

        Raises :class:`CheckpointError` on a version/trainer-class mismatch or
        a client population that no longer matches — all signatures of a blob
        produced by different code or a different spec, which resume paths
        treat as a miss rather than a corruption to propagate.
        """
        try:
            payload = pickle.loads(blob)
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
        clients = self._checkpoint_client_map()
        client_state = payload.get("clients")
        if (clients is None) != (client_state is None):
            raise CheckpointError("checkpoint client state does not match this trainer")
        if clients is not None and set(client_state) != {int(c) for c in clients}:
            raise CheckpointError("checkpoint client population does not match this trainer")
        for name, value in payload["attrs"].items():
            setattr(self, name, value)
        if clients is not None:
            for cid, state in client_state.items():
                client = clients[cid]
                client.rng.bit_generator.state = state["rng"]
                client.rounds_participated = int(state["rounds_participated"])
                client.total_reward = float(state["total_reward"])

    # ------------------------------------------------------------------
    def run(self, *, num_rounds: int | None = None):
        """Run ``num_rounds`` *additional* rounds and return the full history.

        Defaults to the configured ``num_rounds``.  Round indices continue
        from ``len(self.history)``, so a fresh trainer, a second call and a
        restored checkpoint all step through the same loop.
        """
        rounds = self.config.num_rounds if num_rounds is None else int(num_rounds)
        for r in range(len(self.history), len(self.history) + rounds):
            self.run_round(r)
        return self.history

    def run_until(self, total_rounds: int):
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
