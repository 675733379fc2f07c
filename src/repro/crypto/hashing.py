"""SHA-256 helpers and proof-of-work target arithmetic.

Equation (4) of the paper defines mining as finding a nonce such that
``H(nonce + Block) < Target`` where ``Target = Target_1 / difficulty`` and
``Target_1`` is the maximum target.  These helpers implement that arithmetic
on 256-bit integers.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "sha256_hex",
    "difficulty_to_target",
    "meets_target",
    "target_work",
]

#: ``Target_1`` in the paper's Equation (4): the largest possible 256-bit value,
#: i.e. difficulty 1 accepts (almost) every hash.
MAX_TARGET: int = (1 << 256) - 1


def sha256_hex(data: bytes | str) -> str:
    """Hex-encoded SHA-256 digest of ``data`` (str inputs are UTF-8 encoded)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def hash_to_int(hex_digest: str) -> int:
    """Interpret a hex digest as a big-endian integer."""
    return int(hex_digest, 16)


def difficulty_to_target(difficulty: float) -> int:
    """Convert a mining difficulty to an absolute 256-bit target.

    ``difficulty = 1`` maps to :data:`MAX_TARGET` (every hash wins);
    larger difficulties shrink the target proportionally, so the expected
    number of hash evaluations to find a block grows linearly with difficulty.
    """
    if difficulty < 1.0:
        raise ValueError(f"difficulty must be >= 1, got {difficulty}")
    if float(difficulty).is_integer():
        # Exact integer arithmetic avoids the precision loss of float division
        # on 256-bit targets (difficulty 1 must map to exactly MAX_TARGET).
        return max(1, MAX_TARGET // int(difficulty))
    return max(1, min(MAX_TARGET, int(MAX_TARGET / float(difficulty))))


def target_work(target: int) -> int:
    """Expected hash evaluations to find a block under ``target``.

    Bitcoin's chain-work measure, ``2**256 // (target + 1)``: difficulty 1
    is worth exactly 1 and a power-of-two difficulty ``d`` exactly ``d``;
    other difficulties round down.  It is never below 1.
    """
    return (1 << 256) // (int(target) + 1)


def meets_target(hex_digest: str, target: int) -> bool:
    """True when ``H(...) < Target`` (the winning condition of Equation 4)."""
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    return hash_to_int(hex_digest) < target
