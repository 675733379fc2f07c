"""Transactions.

Three transaction kinds appear in FAIR-BFL:

* ``GRADIENT_UPLOAD`` — a client's local gradient ``w^i_{r+1}`` sent to its
  associated miner (vanilla BFL records these on-chain; FAIR-BFL keeps them
  off-chain by Assumption 2 and only the miners see them);
* ``GLOBAL_UPDATE`` — the aggregated global gradient ``w_{r+1}`` recorded in
  the block for round ``r+1``;
* ``REWARD`` — one ⟨client, reward⟩ entry of the reward list produced by
  Algorithm 2, appended to the block as a transaction.

Every transaction carries the sender ID, a payload digest and an optional
payload size (bytes) used by the block-size/queueing model.  A gradient
upload also carries its client's RSA signature over the canonical
serialisation, which miners verify (paper Figure 2).  Its vector travels with
the transaction until Procedure III stacks it; the payload is then released
and the digest, signature and ``client_index`` remain.  Global-update and
reward transactions are not signed one by one: the winning miner signs the
block header that commits to them (:meth:`repro.blockchain.block.Block.sign`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

from repro.crypto.keystore import KeyStore

__all__ = [
    "TransactionType",
    "Transaction",
    "make_gradient_transaction",
    "make_reward_transaction",
    "make_global_update_transaction",
]

#: Bytes per float64 element; used to estimate gradient-transaction sizes.
_BYTES_PER_ELEMENT = 8

#: The fields the canonical form (and therefore ``tx_id`` and the signature)
#: covers.  ``payload`` and ``signature`` are not identity: they stay attachable.
_IDENTITY_FIELDS = frozenset(
    {"tx_type", "sender", "round_index", "payload_digest", "payload_size_bytes", "metadata"}
)


class TransactionType(str, Enum):
    """The kinds of transactions circulating in the BFL network."""

    GRADIENT_UPLOAD = "gradient_upload"
    GLOBAL_UPDATE = "global_update"
    REWARD = "reward"


@dataclass
class Transaction:
    """A ledger transaction.

    Attributes
    ----------
    tx_type:
        One of :class:`TransactionType`.
    sender:
        The entity ID that created (and signed) the transaction.
    round_index:
        The communication round the transaction belongs to.
    payload_digest:
        SHA-256 hex digest of the payload (the gradient bytes or the reward
        record); the ledger stores digests, and the full payload travels with
        the transaction object inside the simulation.
    payload_size_bytes:
        Estimated wire size; feeds the block-size and queueing model.
    metadata:
        Free-form extra fields (e.g. reward amount, contribution label) with
        scalar values; held as a read-only mapping — assign a new dict to
        change it.
    payload:
        In-simulation payload (a gradient vector or a dict); excluded from the
        signed canonical form, which covers only the digest.  An upload's
        vector travels with the transaction until Procedure III stacks it,
        which sets ``payload`` to ``None``.
    signature:
        RSA signature over :meth:`signing_bytes` (gradient uploads; the
        block header signature covers the transactions inside a block).

    The canonical bytes and :attr:`tx_id` are derived at most once per
    object: they are sealed on first read and dropped whenever an identity
    field is reassigned, so they can be neither recomputed per read nor stale.
    A positive :meth:`verify` verdict is sealed the same way, bound to the
    key store object and the signature it was reached with: the miners of a
    committee share one transaction object, so RSA runs once per upload, not
    once per miner that receives it.
    """

    tx_type: TransactionType
    sender: str
    round_index: int
    payload_digest: str
    payload_size_bytes: int
    metadata: dict = field(default_factory=dict)
    payload: object | None = None
    signature: int | None = None

    def __setattr__(self, name: str, value: object) -> None:
        if name in _IDENTITY_FIELDS:
            if name == "metadata":
                value = MappingProxyType(dict(value))
            self.__dict__.pop("_sealed", None)
            self.__dict__.pop("_verdict", None)
        object.__setattr__(self, name, value)

    def __reduce__(self):
        # Through the constructor: a mappingproxy does not pickle, the
        # checkpoint blob (fl/trainer.py) carries whole chains, and a copy
        # must earn its own verify verdict.
        return type(self), (
            self.tx_type, self.sender, self.round_index, self.payload_digest,
            self.payload_size_bytes, dict(self.metadata), self.payload, self.signature,
        )

    @property
    def tx_id(self) -> str:
        """Deterministic transaction identifier (hash of the canonical form)."""
        return self._seal()[1]

    def signing_bytes(self) -> bytes:
        """Canonical byte string covered by the signature."""
        return self._seal()[0]

    def _seal(self) -> tuple[bytes, str]:
        """The canonical bytes and their SHA-256, derived once per identity."""
        sealed = self.__dict__.get("_sealed")
        if sealed is not None:
            return sealed
        canonical = json.dumps(
            {
                "type": self.tx_type.value,
                "sender": self.sender,
                "round": int(self.round_index),
                "digest": self.payload_digest,
                "size": int(self.payload_size_bytes),
                "metadata": {k: repr(v) for k, v in sorted(self.metadata.items())},
            },
            sort_keys=True,
        ).encode("utf-8")
        sealed = self.__dict__["_sealed"] = (canonical, hashlib.sha256(canonical).hexdigest())
        return sealed

    def sign(self, keystore: KeyStore) -> "Transaction":
        """Sign in place with the sender's private key and return ``self``."""
        self.signature = keystore.sign(self.sender, self.signing_bytes())
        return self

    def verify(self, keystore: KeyStore) -> bool:
        """Verify the signature against the sender's registered public key.

        A ``True`` verdict is sealed with ``keystore`` and the signature object
        it held; it is reused only while both are the same objects (a store
        never replaces a registered key) and no identity field has been
        reassigned.  A ``False`` verdict is never sealed.
        """
        signature = self.signature
        if signature is None:
            return False
        verdict = self.__dict__.get("_verdict")
        # Identity, not equality: ``True`` or ``1.0`` must not stand in for a
        # sealed ``1`` (``rsa_verify`` refuses anything but an ``int``).
        if verdict is not None and verdict[0] is keystore and verdict[1] is signature:
            return True
        if not keystore.verify(self.sender, self.signing_bytes(), signature):
            return False
        self.__dict__["_verdict"] = (keystore, signature)
        return True


def _digest_vector(vector: np.ndarray) -> str:
    """SHA-256 digest of a float64 vector's raw bytes.

    A contiguous float64 input is hashed through the buffer protocol, without
    a ``tobytes()`` copy; anything else is converted once first.
    """
    return hashlib.sha256(np.ascontiguousarray(vector, dtype=np.float64)).hexdigest()


def make_gradient_transaction(
    sender: str,
    round_index: int,
    gradient: np.ndarray,
    *,
    keystore: KeyStore | None = None,
    client_index: int | None = None,
    digest: str | None = None,
) -> Transaction:
    """Build (and optionally sign) a gradient-upload transaction.

    ``digest`` is the gradient's :func:`_digest_vector` when the process that
    trained it took it already; the gradient is hashed here otherwise.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    tx = Transaction(
        tx_type=TransactionType.GRADIENT_UPLOAD,
        sender=sender,
        round_index=int(round_index),
        payload_digest=_digest_vector(gradient) if digest is None else digest,
        payload_size_bytes=int(gradient.size) * _BYTES_PER_ELEMENT,
        metadata={} if client_index is None else {"client_index": int(client_index)},
        payload=gradient,
    )
    if keystore is not None:
        tx.sign(keystore)
    return tx


def make_global_update_transaction(
    sender: str, round_index: int, global_gradient: np.ndarray
) -> Transaction:
    """Build the (unsigned) global-update transaction for a round."""
    global_gradient = np.asarray(global_gradient, dtype=np.float64)
    return Transaction(
        tx_type=TransactionType.GLOBAL_UPDATE,
        sender=sender,
        round_index=int(round_index),
        payload_digest=_digest_vector(global_gradient),
        payload_size_bytes=int(global_gradient.size) * _BYTES_PER_ELEMENT,
        payload=global_gradient,
    )


def make_reward_transaction(
    sender: str,
    round_index: int,
    client_id: str,
    reward: float,
) -> Transaction:
    """Build one (unsigned) reward-list entry ⟨client, reward⟩; only high
    contributors are rewarded, so every record is labelled ``"high"``."""
    record = {"client": client_id, "reward": float(reward), "label": "high"}
    # Sorting the keys reorders them without changing the dump's length, so
    # the one encoding gives both the digest and the wire size.
    encoded = json.dumps(record, sort_keys=True)
    return Transaction(
        tx_type=TransactionType.REWARD,
        sender=sender,
        round_index=int(round_index),
        payload_digest=hashlib.sha256(encoded.encode("utf-8")).hexdigest(),
        payload_size_bytes=len(encoded),
        metadata=record,
        payload=record,
    )
