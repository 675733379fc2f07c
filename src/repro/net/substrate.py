"""The gossip substrate: per-node chain views orchestrated for the trainer.

:class:`GossipSubstrate` is what :class:`repro.core.fairbfl.FairBFLTrainer`
drives when the ``topology`` axis is anything but ``"global"``.  It wraps each
miner in a :class:`~repro.net.node.Node` (the miner's own chain becomes that
node's view; lock-step replication ends here), and exposes the per-round
protocol:

1. :meth:`begin_round` — apply the churn trace, compute the round's
   reachability components (peer graph ∩ partition groups ∩ online set), and
   let every component converge internally: each member adopts the
   fork-choice-best chain among its reachable peers.  This is where a healed
   partition reconciles — the losing side reorgs onto the winner (most
   cumulative work, seeded hash tie-break).  Balances need no rebuilding:
   the adopted chain's reward transactions are the only record of them.
2. :meth:`absorb_uploads` — uploads addressed to unreachable (offline) miners
   are lost; the rest stay in the receiving miner's gradient set, the one
   pool of pending uploads.
3. The trainer settles Procedures III-V *per component* through the same
   method the ``global`` topology runs once over the whole committee (each
   component mines its own block on its own head), then calls
   :meth:`commit_block` to flood the block inside the component and measure
   the propagation latency.
4. :meth:`finish_round` — check whether every online node now shares one
   head; rounds whose block just reached network-wide agreement get their
   consensus delay resolved (simulated seconds from block creation to global
   agreement — a few gossip hops normally, whole rounds under a partition).

The substrate never draws from the trainer's RNG streams and ``"global"``
scenarios never construct one, which is what keeps their histories
bit-identical (the migration parity pin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.blockchain.chain import Blockchain, ForkChoice
from repro.net.gossip import GossipNetwork
from repro.net.node import Node
from repro.net.schedule import NetSchedule
from repro.net.topology import build_peer_sets, connected_components
from repro.utils.rng import new_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blockchain.miner import Miner
    from repro.blockchain.transaction import Transaction

__all__ = ["GossipSubstrate"]


@dataclass(frozen=True)
class NetRoundState:
    """One round's reachability picture."""

    round_index: int
    online: tuple[str, ...]
    components: tuple[tuple[str, ...], ...]
    partition_active: bool


@dataclass(frozen=True)
class BeginRoundReport:
    """What :meth:`GossipSubstrate.begin_round` did."""

    state: NetRoundState
    reorged: bool
    resolved: Mapping[int, float]


@dataclass
class GossipSubstrate:
    """Per-node chain views, gossip, partitions, and churn for one committee."""

    miners: "list[Miner]"
    topology: str
    peer_k: int = 2
    partition: str = "none"
    churn: str = "none"
    seed: int = 0
    base_latency: float = 0.05

    nodes: dict[str, Node] = field(init=False, repr=False)
    schedule: NetSchedule = field(init=False, repr=False)
    gossip: GossipNetwork = field(init=False, repr=False)
    fork_choice: ForkChoice = field(init=False, repr=False)
    total_reorgs: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.topology == "global":
            raise ValueError(
                "topology='global' runs the legacy single-network path; "
                "build no substrate for it"
            )
        self.miner_ids = [m.miner_id for m in self.miners]
        self.schedule = NetSchedule.parse(len(self.miners), self.partition, self.churn)
        peers = build_peer_sets(
            self.miner_ids, self.topology, peer_k=self.peer_k, seed=self.seed
        )
        self.gossip = GossipNetwork(peers, base_latency=self.base_latency)
        self.fork_choice = ForkChoice(salt=self.seed)
        self.nodes = {
            m.miner_id: Node(node_id=m.miner_id, chain=m.chain) for m in self.miners
        }
        self._seed_rng = new_rng(self.seed, "net", "gossip-seeds")
        self._pending_consensus: dict[int, float] = {}

    # -- round protocol -------------------------------------------------
    def round_state(self, round_index: int) -> NetRoundState:
        """Reachability components for ``round_index`` (deterministic order)."""
        online_indices = self.schedule.online_at(round_index)
        online_ids = {self.miner_ids[i] for i in online_indices}
        for node_id, node in self.nodes.items():
            node.online = node_id in online_ids
        components: list[tuple[str, ...]] = []
        for group in self.schedule.groups_at(round_index):
            members = [
                self.miner_ids[i] for i in group if self.miner_ids[i] in online_ids
            ]
            if members:
                components.extend(connected_components(self.gossip.peers, members))
        components.sort(key=lambda c: min(self.miner_ids.index(m) for m in c))
        return NetRoundState(
            round_index=round_index,
            online=tuple(self.miner_ids[i] for i in online_indices),
            components=tuple(components),
            partition_active=self.schedule.partition_active(round_index),
        )

    def begin_round(self, round_index: int, *, sim_time: float) -> BeginRoundReport:
        """Churn + component convergence + consensus-delay resolution."""
        state = self.round_state(round_index)
        reorgs_before = self.total_reorgs
        heal_latency = 0.0
        for component in state.components:
            members = [self.nodes[m] for m in component]
            best = self.fork_choice.best(n.chain for n in members)
            origin = next(n for n in members if n.chain is best)
            synced = [n.sync_with(origin, self.fork_choice) for n in members if n is not origin]
            if any(synced):
                outcome = self.gossip.propagate(
                    origin.node_id,
                    active=component,
                    seed=int(self._seed_rng.integers(0, 2**63)),
                )
                heal_latency = max(heal_latency, outcome.max_latency)
        self.total_reorgs = sum(n.reorgs for n in self.nodes.values())
        resolved = self._resolve(sim_time + heal_latency)
        return BeginRoundReport(
            state=state,
            reorged=self.total_reorgs > reorgs_before,
            resolved=resolved,
        )

    def absorb_uploads(
        self,
        transactions: "Sequence[Transaction]",
        client_to_miner: Mapping[int, str],
        state: NetRoundState,
    ) -> int:
        """Void the uploads addressed to offline miners; return how many were lost.

        The client picked its miner without knowing it left (an eclipse in
        miniature): the miner's gradient set is cleared so the gradients
        cannot re-enter the round through Procedure III.  Uploads to online
        miners stay where Procedure II put them, in their gradient sets.
        """
        online = set(state.online)
        senders = {tx.sender for tx in transactions}
        lost = sum(
            1
            for client_id, miner_id in client_to_miner.items()
            if miner_id not in online and f"client-{client_id}" in senders
        )
        for miner in self.miners:
            if miner.miner_id not in online and miner.gradient_set:
                miner.reset_round()
        return lost

    def commit_block(
        self, round_index: int, origin: str, component: Sequence[str], *, sim_time: float
    ) -> float:
        """Gossip a block just mined inside ``component``; return its max latency.

        Every member's chain already holds the block (Procedure V appends on
        each replica it ran over); what remains is to note the block's
        creation time — its consensus delay resolves once the whole network
        agrees — and to flood it, which measures the propagation latency in
        simulated seconds.
        """
        self._pending_consensus.setdefault(round_index, float(sim_time))
        if len(component) <= 1:
            return 0.0
        outcome = self.gossip.propagate(
            origin,
            active=component,
            seed=int(self._seed_rng.integers(0, 2**63)),
        )
        return outcome.max_latency

    def finish_round(self, *, sim_time: float, latency: float = 0.0) -> Mapping[int, float]:
        """Resolve consensus delays for rounds the network now agrees on."""
        return self._resolve(sim_time + latency)

    def _resolve(self, resolution_time: float) -> dict[int, float]:
        if not self._pending_consensus or self.chain_views() != 1:
            return {}
        resolved = {}
        for r in sorted(self._pending_consensus):
            created = self._pending_consensus.pop(r)
            resolved[r] = max(0.0, resolution_time - created)
        return resolved

    # -- views ----------------------------------------------------------
    def online_nodes(self) -> list[Node]:
        """The nodes currently online (per the flags set by :meth:`round_state`)."""
        return [n for n in self.nodes.values() if n.online]

    def best_chain(self) -> Blockchain:
        """The fork-choice-best view among online nodes — the canonical chain."""
        candidates = self.online_nodes() or list(self.nodes.values())
        return self.fork_choice.best(n.chain for n in candidates)

    def chain_views(self) -> int:
        """Number of distinct chain heads among online nodes."""
        nodes = self.online_nodes() or list(self.nodes.values())
        return len({n.head_hash for n in nodes})
