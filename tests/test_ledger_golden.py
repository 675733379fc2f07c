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
        "9289df9c1193739a7fd763dc92b6d6c5d421ccda3f1a1ce8c680a1bc4fb06cb0",
        "9f956758701e22bc28b734d3655028cf333312e084cb206337539bc7cb84952a",
        "07da34b7008d66636a3e8348a2d079d1fb6cfebd478f77401f671cc482d90f27",
    ),
    ("fairbfl", 1001): (
        "35768d8980f2d2846d21306c5e27e1f4c743623f51e17021a57a64f48187814a",
        "5f61b38c35b03f17b3197a6b37b0ddd7ebcf05d85c663f7dfcc6da85a7d4fea4",
        "09af622eb6fa8442579745e4fe623e7707787eb6a6bcf599bdfdba288b227911",
    ),
    ("fairbfl-discard", 3): (
        "58c3b0ec6165402a0b674075af7b376bebc90f158981e398c2a827012a928570",
        "6ee3de866943d945a7af69a303afd6f4e3e299796b336087230b5112bfa683d9",
        "07c74a044e828c89a6433f830966b5e3d35cddad4dec4436e9c5c25de888aabe",
    ),
    ("fairbfl-discard", 1001): (
        "80a2720aa527e7eab7986600b394edf41bdb34e581a5ca7f20edf58df87580f7",
        "f166addcd0b7158869070332a86ace58d46b566d8074b169aededfcbc72632b4",
        "0c682f0a4955658373d7a65fcc8693cb041c2a2713196cf14addb725cb821333",
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
