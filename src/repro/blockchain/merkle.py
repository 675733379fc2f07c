"""Merkle tree over transaction identifiers.

Blocks commit to their transaction set through a Merkle root, exactly as a
conventional blockchain does.
"""

from __future__ import annotations

from repro.crypto.hashing import sha256_hex

__all__ = ["merkle_root"]

#: Root used for an empty transaction list (a block with no transactions is
#: legal in vanilla blockchain — the "empty block" problem of Section 3.1).
EMPTY_ROOT = sha256_hex(b"empty-merkle-tree")


def _build_levels(leaves: list[str]) -> list[list[str]]:
    """Build all tree levels bottom-up; odd nodes are paired with themselves."""
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        current = levels[-1]
        nxt: list[str] = []
        for i in range(0, len(current), 2):
            left = current[i]
            right = current[i + 1] if i + 1 < len(current) else current[i]
            nxt.append(sha256_hex(left + right))
        levels.append(nxt)
    return levels


def merkle_root(tx_ids: list[str]) -> str:
    """Merkle root of a list of transaction IDs (hex strings)."""
    if not tx_ids:
        return EMPTY_ROOT
    return _build_levels([sha256_hex(t) for t in tx_ids])[-1][0]
