"""Broadcast network with latency.

Miners broadcast gradient sets (Procedure III) and newly mined blocks
(Procedure V) to each other, and clients upload gradients to their associated
miner (Procedure II).  The :class:`BroadcastNetwork` models those message
exchanges with per-link latencies drawn from a configurable distribution; the
topology is a complete graph over its nodes (other shapes are the gossip
substrate's job — :mod:`repro.net.topology`).

Two delivery styles:

* **immediate** — :meth:`send` / :meth:`broadcast` sample a latency and return
  delivered messages synchronously (the caller owns time);
* **event-driven** — :meth:`send_via` / :meth:`broadcast_via` schedule the
  delivery on an :class:`~repro.sim.events.EventKernel`, so the message
  arrives as a timestamped event and handlers run at arrival time.

Long simulations deliver millions of messages, so the network keeps O(1)
*counters* (:attr:`message_count`, :attr:`total_latency`) instead of an
unbounded log; per-message recording is opt-in and bounded via
``record_limit`` (the newest ``record_limit`` messages are retained in
:attr:`recent_messages`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.utils.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import EventKernel, ScheduledEvent

__all__ = ["NetworkMessage", "BroadcastNetwork"]


@dataclass(frozen=True)
class NetworkMessage:
    """A delivered message with its simulated latency."""

    sender: str
    receiver: str
    payload: object
    latency: float


@dataclass
class BroadcastNetwork:
    """Complete-graph broadcast network over a set of node IDs.

    Parameters
    ----------
    node_ids:
        Participating node identifiers (miners and/or clients).
    rng:
        Generator for latency sampling.
    base_latency:
        Mean one-way latency in seconds between any two distinct nodes.
    jitter:
        Standard deviation of the log-normal multiplicative jitter applied to
        each delivery (0 disables jitter).
    record_limit:
        Per-message recording budget: ``0`` (default) disables recording and
        the network only maintains counters; a positive value keeps the newest
        that-many messages in :attr:`recent_messages`.
    """

    node_ids: list[str]
    rng: np.random.Generator
    base_latency: float = 0.05
    jitter: float = 0.25
    record_limit: int = 0
    _known: frozenset[str] = field(init=False, repr=False)
    message_count: int = field(default=0, init=False)
    total_latency: float = field(default=0.0, init=False)
    recent_messages: deque[NetworkMessage] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.node_ids:
            raise ValueError("BroadcastNetwork requires at least one node")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("node_ids must be unique")
        self.base_latency = check_non_negative("base_latency", self.base_latency)
        self.jitter = check_non_negative("jitter", self.jitter)
        if self.record_limit < 0:
            raise ValueError(f"record_limit must be >= 0, got {self.record_limit}")
        self._known = frozenset(self.node_ids)
        self.recent_messages = deque(maxlen=self.record_limit or None)

    def _sample_latency(self) -> float:
        if self.base_latency == 0.0:
            return 0.0
        if self.jitter == 0.0:
            return self.base_latency
        return float(self.base_latency * self.rng.lognormal(mean=0.0, sigma=self.jitter))

    def _account(self, msg: NetworkMessage) -> None:
        self.message_count += 1
        self.total_latency += msg.latency
        if self.record_limit:
            self.recent_messages.append(msg)

    # -- immediate delivery ---------------------------------------------------
    def send(self, sender: str, receiver: str, payload: object) -> NetworkMessage:
        """Deliver one point-to-point message and return it with its latency."""
        self._check_node(sender)
        self._check_node(receiver)
        latency = 0.0 if sender == receiver else self._sample_latency()
        msg = NetworkMessage(sender=sender, receiver=receiver, payload=payload, latency=latency)
        self._account(msg)
        return msg

    def broadcast(self, sender: str, payload: object) -> list[NetworkMessage]:
        """Deliver ``payload`` from ``sender`` to every other node.

        Returns the per-receiver messages; the broadcast completes when the
        slowest delivery arrives, so callers typically use
        ``max(m.latency for m in messages)`` as the broadcast latency.
        """
        self._check_node(sender)
        messages = [
            self.send(sender, receiver, payload)
            for receiver in self.node_ids
            if receiver != sender
        ]
        return messages

    def broadcast_latency(self, messages: list[NetworkMessage]) -> float:
        """Completion latency of a broadcast (max over deliveries, 0 for none)."""
        return max((m.latency for m in messages), default=0.0)

    def all_pairs_exchange(self, payload_by_sender: dict[str, object]) -> float:
        """Every sender broadcasts its payload; return the overall completion latency.

        This models Procedure III (gradient-set exchange among miners): the
        procedure finishes when the slowest delivery of the slowest broadcast
        lands, and all broadcasts run in parallel.
        """
        worst = 0.0
        for sender, payload in payload_by_sender.items():
            msgs = self.broadcast(sender, payload)
            worst = max(worst, self.broadcast_latency(msgs))
        return worst

    # -- event-driven delivery ------------------------------------------------
    def send_via(
        self,
        kernel: "EventKernel",
        sender: str,
        receiver: str,
        payload: object = None,
        *,
        on_deliver: Callable[[NetworkMessage], None] | None = None,
    ) -> "ScheduledEvent":
        """Schedule a point-to-point delivery on ``kernel``.

        The latency is sampled now (so the draw order is deterministic), the
        message is accounted and ``on_deliver`` invoked when the delivery
        event fires.
        """
        self._check_node(sender)
        self._check_node(receiver)
        latency = 0.0 if sender == receiver else self._sample_latency()
        msg = NetworkMessage(sender=sender, receiver=receiver, payload=payload, latency=latency)

        def deliver() -> None:
            self._account(msg)
            if on_deliver is not None:
                on_deliver(msg)

        return kernel.schedule(latency, deliver, name=f"net:{sender}->{receiver}")

    def broadcast_via(
        self,
        kernel: "EventKernel",
        sender: str,
        payload: object = None,
        *,
        on_deliver: Callable[[NetworkMessage], None] | None = None,
    ) -> list["ScheduledEvent"]:
        """Schedule deliveries of ``payload`` to every other node on ``kernel``."""
        self._check_node(sender)
        return [
            self.send_via(kernel, sender, receiver, payload, on_deliver=on_deliver)
            for receiver in self.node_ids
            if receiver != sender
        ]

    def _check_node(self, node_id: str) -> None:
        if node_id not in self._known:
            raise KeyError(f"unknown network node {node_id!r}")

    @property
    def mean_latency(self) -> float:
        """Average delivered latency so far (0 before any delivery)."""
        return self.total_latency / self.message_count if self.message_count else 0.0
