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
from repro.utils.validation import check_probability

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
        Bounds of the per-round attacker count (paper: 1 to 3).
    probability:
        Probability that the round contains any attackers at all (1.0
        reproduces Table 2; lower values model sporadic adversaries).
    active_from, active_until:
        Activation window in **kernel simulated seconds**.  Round timing is
        event-driven (the discrete-event kernel advances the trainer's
        ``SimulatedClock``), so attack activation keys off that same clock
        rather than a wall-clock or a raw round index: designation outside
        ``[active_from, active_until)`` yields no attackers.  The defaults
        (``0.0``, ``None``) keep the adversary always active, reproducing
        Table 2's protocol.
    """

    attack: Attack = field(default_factory=SignFlipAttack)
    min_attackers: int = 1
    max_attackers: int = 3
    probability: float = 1.0
    active_from: float = 0.0
    active_until: float | None = None
    logs: list[AttackRoundLog] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.min_attackers < 0:
            raise ValueError(f"min_attackers must be >= 0, got {self.min_attackers}")
        if self.max_attackers < self.min_attackers:
            raise ValueError(
                f"max_attackers ({self.max_attackers}) must be >= min_attackers "
                f"({self.min_attackers})"
            )
        check_probability("probability", self.probability)
        if self.active_from < 0.0:
            raise ValueError(f"active_from must be >= 0, got {self.active_from}")
        if self.active_until is not None and self.active_until <= self.active_from:
            raise ValueError(
                f"active_until ({self.active_until}) must exceed active_from "
                f"({self.active_from})"
            )

    def is_active(self, sim_time: float | None) -> bool:
        """Whether the adversary is active at kernel time ``sim_time``.

        ``None`` (no simulated clock available) means always active, which is
        the pre-event-kernel behaviour.
        """
        if sim_time is None:
            return True
        if sim_time < self.active_from:
            return False
        return self.active_until is None or sim_time < self.active_until

    def designate(
        self,
        participants: list[int] | np.ndarray,
        rng: np.random.Generator,
        *,
        sim_time: float | None = None,
    ) -> list[int]:
        """Pick this round's attackers from the participating clients.

        ``sim_time`` is the kernel's simulated clock at the start of the
        round; outside the activation window no attackers are designated (and
        no RNG draws are consumed, so enabling a window does not perturb the
        attacker sequence of later active rounds).
        """
        pool = [int(c) for c in np.asarray(participants).ravel()]
        if not pool or self.max_attackers == 0:
            return []
        if not self.is_active(sim_time):
            return []
        if rng.random() > self.probability:
            return []
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
