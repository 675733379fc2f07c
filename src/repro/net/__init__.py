"""Peer-to-peer network substrate: per-node chain views over gossip.

This package turns the committee from a lock-step replicated ledger into a
small peer-to-peer network.  Each miner becomes a :class:`~repro.net.node.Node`
with its own peer set and chain view; blocks spread by seeded
flooding gossip over a configurable :mod:`topology <repro.net.topology>`;
timed partitions and churn traces (:mod:`repro.net.schedule`) fracture the
network into reachability components that mine divergent forks; and the
:class:`~repro.net.substrate.GossipSubstrate` reconciles them with the
deterministic fork-choice rule when connectivity returns.

The ``topology="global"`` axis value builds no substrate: the trainer settles
each round over the whole replicated committee, bit-identically to releases
that predate this package.
"""

from repro.net.gossip import GossipNetwork
from repro.net.node import Node
from repro.net.schedule import NetSchedule, parse_churn, parse_partition
from repro.net.substrate import GossipSubstrate
from repro.net.topology import TOPOLOGIES, build_peer_sets, connected_components

__all__ = [
    "TOPOLOGIES",
    "GossipNetwork",
    "GossipSubstrate",
    "NetSchedule",
    "Node",
    "build_peer_sets",
    "connected_components",
    "parse_churn",
    "parse_partition",
]
