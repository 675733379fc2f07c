"""Flooding gossip over a fixed peer graph, scheduled on the event kernel.

One :meth:`GossipNetwork.propagate` call floods a single message (a mined
block, a chain head announcement) from an origin node through the peer graph:
each node forwards to its peers on first receipt, per-link latencies are
drawn log-normally around a base latency (calibrated from the scenario's
:class:`~repro.sim.delay.DelayParameters`; this is the only message-latency
model in the package), and the whole cascade
runs as events on a :class:`~repro.sim.events.EventKernel` seeded for the
call — so arrival times and the delivered set are
bit-deterministic for a given seed regardless of host, dict order, or thread
scheduling.

Only nodes in the ``active`` set participate: offline nodes and nodes on the
far side of a partition neither receive nor relay, which is exactly how a
split produces divergent chain views downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.sim.events import EventKernel
from repro.utils.rng import new_rng
from repro.utils.validation import check_non_negative

__all__ = ["GossipNetwork"]

#: Sigma of the log-normal multiplicative jitter on every link's latency.
GOSSIP_JITTER = 0.25


@dataclass(frozen=True)
class GossipOutcome:
    """What one flood achieved: who got the message, and when."""

    arrivals: Mapping[str, float]

    @property
    def max_latency(self) -> float:
        """Simulated seconds until the slowest delivery (0 for a lone origin)."""
        return max(self.arrivals.values(), default=0.0)


@dataclass
class GossipNetwork:
    """Seeded flooding gossip over ``peers`` (an undirected adjacency map).

    Parameters
    ----------
    peers:
        Node → peer tuple, as built by :func:`repro.net.topology.build_peer_sets`.
    base_latency:
        Mean one-way per-link latency in simulated seconds, scaled per link
        by a log-normal draw of sigma :data:`GOSSIP_JITTER`.

    Every receipt is forwarded to every active peer, so the delivered set is
    exactly the origin's connected component of the active subgraph.
    """

    peers: Mapping[str, tuple[str, ...]]
    base_latency: float = 0.05

    def __post_init__(self) -> None:
        if not self.peers:
            raise ValueError("GossipNetwork requires at least one node")
        self.base_latency = check_non_negative("base_latency", self.base_latency)

    def propagate(
        self,
        origin: str,
        *,
        active: Iterable[str] | None = None,
        seed: int = 0,
    ) -> GossipOutcome:
        """Flood one message from ``origin`` through the active subgraph."""
        if origin not in self.peers:
            raise ValueError(f"unknown gossip origin {origin!r}")
        active_set = set(self.peers) if active is None else set(active)
        if origin not in active_set:
            raise ValueError(f"gossip origin {origin!r} is not in the active set")
        kernel = EventKernel(seed=int(seed))
        rng = new_rng(int(seed), "net", "gossip")
        arrivals: dict[str, float] = {origin: 0.0}

        def forward(node: str) -> None:
            for peer in self.peers[node]:
                if peer not in active_set or peer in arrivals:
                    continue  # offline, partitioned away, or already holds the message
                kernel.schedule(
                    self._latency(rng),
                    _receiver(peer),
                    name=f"gossip:{node}->{peer}",
                )

        def _receiver(node: str):
            def receive() -> None:
                if node not in arrivals:  # else a duplicate: the first copy was relayed
                    arrivals[node] = kernel.now
                    forward(node)

            return receive

        forward(origin)
        kernel.run()
        return GossipOutcome(arrivals=arrivals)

    def _latency(self, rng: np.random.Generator) -> float:
        if self.base_latency == 0.0:
            return 0.0
        return float(self.base_latency * rng.lognormal(mean=0.0, sigma=GOSSIP_JITTER))
