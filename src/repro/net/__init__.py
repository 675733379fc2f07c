"""Peer-to-peer network substrate: per-node chain views over gossip.

This package turns the committee from a lock-step replicated ledger into a
small peer-to-peer network.  Each miner becomes a :class:`~repro.net.node.Node`
with its own chain view; blocks spread by seeded flooding gossip over the
peer sets of a configurable :mod:`topology <repro.net.topology>`;
timed partitions and churn traces (:mod:`repro.net.schedule`) fracture the
network into reachability components that mine divergent forks; and the
:class:`~repro.net.substrate.GossipSubstrate` reconciles them with the
deterministic fork-choice rule when connectivity returns.

The ``topology="global"`` axis value builds no substrate: the trainer settles
each round over the whole replicated committee, bit-identically to releases
that predate this package.
"""
