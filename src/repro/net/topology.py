"""Seeded peer-set topologies for the gossip substrate.

A topology maps every node to its peer set — the links gossip may use.  All
topologies are built deterministically from the experiment seed, so two
processes (or two nodes) constructing the same scenario agree on every link:

* ``global`` — the migration sentinel: no per-node substrate at all, the
  trainer keeps the single-committee path (a constant-latency all-pairs
  exchange, :mod:`repro.sim.rounds`) bit-identically (see
  :mod:`repro.net.substrate`);
* ``full`` — complete graph, every node peers with every other;
* ``ring`` — node ``i`` peers with ``i-1`` and ``i+1`` (mod ``n``);
* ``random_k`` — every node draws ``peer_k`` seeded peers; the undirected
  union is then repaired into a connected graph by linking component
  representatives in index order, so gossip can always reach every online
  node when no partition is active.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.utils.rng import new_rng

__all__ = ["TOPOLOGIES", "build_peer_sets", "connected_components"]

#: Recognised values of the ``topology`` scenario axis.
TOPOLOGIES = ("global", "full", "ring", "random_k")


def build_peer_sets(
    node_ids: Sequence[str],
    topology: str,
    *,
    peer_k: int = 2,
    seed: int = 0,
) -> dict[str, tuple[str, ...]]:
    """Build the undirected peer map for ``topology`` over ``node_ids``.

    ``global`` and ``full`` both yield the complete graph — callers that want
    the legacy single-network path must branch on the axis value *before*
    building a peer map (the substrate does).
    """
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r}; expected one of: " + ", ".join(TOPOLOGIES)
        )
    ids = list(node_ids)
    if not ids:
        raise ValueError("a topology needs at least one node")
    if len(set(ids)) != len(ids):
        raise ValueError("node_ids must be unique")
    n = len(ids)
    peers: dict[str, set[str]] = {nid: set() for nid in ids}

    if topology in ("global", "full"):
        for nid in ids:
            peers[nid] = set(ids) - {nid}
    elif topology == "ring":
        for i, nid in enumerate(ids):
            if n > 1:
                peers[nid].add(ids[(i - 1) % n])
                peers[nid].add(ids[(i + 1) % n])
    else:  # random_k
        if peer_k < 1:
            raise ValueError(f"peer_k must be >= 1, got {peer_k}")
        if n > 1 and peer_k >= n:
            raise ValueError(
                f"peer_k must be < the number of nodes ({n}), got {peer_k}"
            )
        rng = new_rng(seed, "net", "topology", n, peer_k)
        for i, nid in enumerate(ids):
            if n == 1:
                break
            choices = [other for other in ids if other != nid]
            picked = rng.choice(len(choices), size=peer_k, replace=False)
            for j in sorted(int(p) for p in picked):
                peers[nid].add(choices[j])
                peers[choices[j]].add(nid)
        # Connectivity repair: chain component representatives (smallest
        # member, in index order) so the graph is always one component.
        frozen = {nid: tuple(sorted(p)) for nid, p in peers.items()}
        components = connected_components(frozen, ids)
        for left, right in zip(components, components[1:]):
            peers[left[0]].add(right[0])
            peers[right[0]].add(left[0])

    return {nid: tuple(sorted(peers[nid])) for nid in ids}


def connected_components(
    peers: Mapping[str, tuple[str, ...]], nodes: Iterable[str]
) -> tuple[tuple[str, ...], ...]:
    """Connected components of the peer graph induced on ``nodes``.

    Links to nodes outside ``nodes`` are ignored (an offline or partitioned
    peer cannot relay).  Components and their members come back sorted, so
    every caller — on every node — sees the same decomposition.
    """
    members = sorted(set(nodes))
    member_set = set(members)
    seen: set[str] = set()
    components: list[tuple[str, ...]] = []
    for start in members:
        if start in seen:
            continue
        stack = [start]
        component: list[str] = []
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for peer in peers.get(node, ()):
                if peer in member_set and peer not in seen:
                    seen.add(peer)
                    stack.append(peer)
        components.append(tuple(sorted(component)))
    return tuple(sorted(components))
