"""Golden pin of the signed ledger at seeds whose keys are not seed 0's.

Signatures sit outside ``tx_id`` (``Transaction._seal`` leaves them out), so
no history, transaction id, Merkle root or PoW nonce reads a key.  Each cell
below runs ``fairbfl`` or ``fairbfl-discard`` with attacks and signature
verification on, and must reproduce the values recorded here: the SHA-256 of
its canonical history payload, every block's ``tx_id`` list (as one SHA-256)
and the head block's hash.

The seeds are 3 and 1001 rather than 0 because seed 0 has always derived its
keys from the stream every seed now uses; a cell at another seed is the one
that would move if a key reached the ledger's identity.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.store.keys import canonical_json
from repro.store.records import history_to_payload
from repro.systems.registry import get_system

pytestmark = pytest.mark.ledger

# (system, seed) -> (history payload SHA-256, SHA-256 of the per-block tx_id lists, head hash)
GOLDEN = {
    ("fairbfl", 3): (
        "35132a90f5cd85500e6b28db071a23dba787e0afa18345be3f5a16f488ae916b",
        "dd84fad0060ed113a496a9d7fff21c0c28683ce78e22d0125b36a6872b0e8be6",
        "01a8452ec2d223ef5dcbc8d29b03e9667139224021258072c1051d36ca67285e",
    ),
    ("fairbfl", 1001): (
        "9f6ca05562f88d020aa81dd7718d802ed2e62ebcbf89c27ba790133e3c57b6fc",
        "28a73d078d714ba7e409ce4a2b547c78154e1a1c2dc7a77694aced3fe28d11a4",
        "0b6b6536e4999eba1c819dfb6622fb8cc612d789fbbdd112f3bbdecf037fdb41",
    ),
    ("fairbfl-discard", 3): (
        "58c3b0ec6165402a0b674075af7b376bebc90f158981e398c2a827012a928570",
        "6ee3de866943d945a7af69a303afd6f4e3e299796b336087230b5112bfa683d9",
        "07c74a044e828c89a6433f830966b5e3d35cddad4dec4436e9c5c25de888aabe",
    ),
    ("fairbfl-discard", 1001): (
        "6720cf3e8c2ebcd0adba041da301ffe0a089cd8a48fa2de6e9c4cc360b00f820",
        "9c7a26ef850d16def0b848589ff523184fcbb164e43dcacae7d042eb9774502c",
        "0c20d0afe3131ed913a47f505be58c1893ebf0edb61a5981d1ce58721a755b2f",
    ),
}


def _sha256(value) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "system, seed", sorted(GOLDEN), ids=[f"{name}/seed={seed}" for name, seed in sorted(GOLDEN)]
)
def test_signed_ledger_is_pinned(system, seed):
    spec = ScenarioSpec(
        name="ledger-golden",
        system=system,
        num_clients=8,
        num_samples=320,
        num_rounds=3,
        miners=2,
        attacks=True,
        verify_signatures=True,
        seed=seed,
    ).validate()
    trainer = get_system(system).build(spec, ExperimentEngine().dataset_for(spec)).trainer
    try:
        trainer.run_until(spec.num_rounds)
    finally:
        trainer.close()
    chain = trainer.chain
    assert chain.is_valid()
    observed = (
        _sha256(history_to_payload(trainer.history)),
        _sha256([[tx.tx_id for tx in block.transactions] for block in chain.blocks]),
        chain.last_block.block_hash,
    )
    assert observed == GOLDEN[system, seed]
