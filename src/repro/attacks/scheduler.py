"""Attacker designation and detection-rate accounting (Table 2's protocol).

"There are 10 indexed clients, and in each communication round, randomly
designate 1 to 3 clients as malicious nodes, and 10 rounds are executed in
total" (Section 5.4).  The :class:`AttackScheduler` reproduces that protocol
for any population size; :func:`detection_rate` computes the per-round and
average detection rates exactly as the paper defines them (fraction of the
round's attackers that appear in the round's drop list).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.base import Attack
from repro.attacks.gradient_attacks import SignFlipAttack

__all__ = ["AttackScheduler", "detection_rate"]


@dataclass
class AttackRoundLog:
    """Per-round record of who attacked and who was caught."""

    round_index: int
    attacker_ids: list[int]
    dropped_ids: list[int]

    @property
    def detected(self) -> list[int]:
        """Attackers that appear in the drop list."""
        dropped = set(self.dropped_ids)
        return [a for a in self.attacker_ids if a in dropped]

    @property
    def detection_rate(self) -> float:
        """Fraction of this round's attackers that were dropped (1.0 when no attackers)."""
        if not self.attacker_ids:
            return 1.0
        return len(self.detected) / len(self.attacker_ids)

    @property
    def false_positives(self) -> list[int]:
        """Honest clients that were dropped this round."""
        attackers = set(self.attacker_ids)
        return [d for d in self.dropped_ids if d not in attackers]


def detection_rate(logs: list[AttackRoundLog]) -> float:
    """Average of the per-round detection rates over rounds that had attackers."""
    rates = [log.detection_rate for log in logs if log.attacker_ids]
    return float(np.mean(rates)) if rates else 1.0


@dataclass
class AttackScheduler:
    """Randomly designates attackers each round and applies a forging attack.

    Parameters
    ----------
    attack:
        The gradient-forging attack malicious clients apply (default: sign
        flipping).
    min_attackers, max_attackers:
        Bounds of the per-round attacker count (paper: 1 to 3), as a
        validated scenario gives them (``0 <= min_attackers <=
        max_attackers``); not checked again here.

    Every round has attackers, as in Table 2's protocol.
    """

    attack: Attack = field(default_factory=SignFlipAttack)
    min_attackers: int = 1
    max_attackers: int = 3
    logs: list[AttackRoundLog] = field(default_factory=list)

    def designate(
        self, participants: list[int] | np.ndarray, rng: np.random.Generator
    ) -> list[int]:
        """Pick this round's attackers from the participating clients."""
        pool = [int(c) for c in np.asarray(participants).ravel()]
        if not pool or self.max_attackers == 0:
            return []
        rng.random()  # one unused draw per round: the seeded attacker stream includes it
        count = int(rng.integers(self.min_attackers, self.max_attackers + 1))
        count = min(count, len(pool))
        if count == 0:
            return []
        chosen = rng.choice(len(pool), size=count, replace=False)
        return sorted(pool[int(i)] for i in chosen)

    def forge(self, update, rng: np.random.Generator, *, global_parameters=None):
        """Apply the configured attack to one honest update."""
        return self.attack.apply(update, rng, global_parameters=global_parameters)

    def record_round(
        self, round_index: int, attacker_ids: list[int], dropped_ids: list[int]
    ) -> AttackRoundLog:
        """Log the round's attackers vs the incentive mechanism's drop list."""
        log = AttackRoundLog(
            round_index=int(round_index),
            attacker_ids=sorted(int(a) for a in attacker_ids),
            dropped_ids=sorted(int(d) for d in dropped_ids),
        )
        self.logs.append(log)
        return log

    def average_detection_rate(self) -> float:
        """The paper's 'Average Detection Rate' across all logged rounds."""
        return detection_rate(self.logs)
