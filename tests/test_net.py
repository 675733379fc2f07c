"""Unit tests for the gossip substrate's building blocks (`repro.net`).

Topologies, partition/churn schedules, flooding gossip, per-node chain
views, and the substrate's round protocol — each in isolation, with the
trainer-level convergence behaviour pinned separately in
``tests/test_reorg.py`` and the migration parity in
``tests/test_net_parity.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain, ForkChoice
from repro.blockchain.miner import Miner
from repro.blockchain.transaction import make_gradient_transaction
from repro.net.gossip import GossipNetwork
from repro.net.node import Node
from repro.net.schedule import (
    ChurnEvent,
    NetSchedule,
    PartitionWindow,
    parse_churn,
    parse_partition,
)
from repro.net.substrate import GossipSubstrate
from repro.net.topology import TOPOLOGIES, build_peer_sets, connected_components

pytestmark = pytest.mark.net

IDS = [f"miner-{i}" for i in range(6)]


def _chain_with_blocks(rounds=0, miner_id="m"):
    chain = Blockchain(enforce_pow=False)
    chain.add_genesis(Block.genesis())
    for r in range(rounds):
        chain.add_block(
            Block.create(
                index=r + 1,
                previous_hash=chain.last_block.block_hash,
                round_index=r,
                miner_id=miner_id,
                transactions=[],
            )
        )
    return chain


class TestTopology:
    def test_axis_values(self):
        assert TOPOLOGIES == ("global", "full", "ring", "random_k")

    @pytest.mark.parametrize("topology", ["global", "full"])
    def test_complete_graph(self, topology):
        peers = build_peer_sets(IDS, topology)
        for nid, ps in peers.items():
            assert set(ps) == set(IDS) - {nid}

    def test_ring_neighbours(self):
        peers = build_peer_sets(IDS, "ring")
        n = len(IDS)
        for i, nid in enumerate(IDS):
            expected = {IDS[(i - 1) % n], IDS[(i + 1) % n]}
            assert set(peers[nid]) == expected

    def test_ring_two_nodes(self):
        peers = build_peer_sets(IDS[:2], "ring")
        assert peers == {IDS[0]: (IDS[1],), IDS[1]: (IDS[0],)}

    def test_random_k_connected_and_deterministic(self):
        for seed in range(5):
            a = build_peer_sets(IDS, "random_k", peer_k=1, seed=seed)
            b = build_peer_sets(IDS, "random_k", peer_k=1, seed=seed)
            assert a == b
            assert len(connected_components(a, a)) == 1

    def test_random_k_seed_changes_graph(self):
        graphs = {
            tuple(sorted(build_peer_sets(IDS, "random_k", peer_k=2, seed=s).items()))
            for s in range(8)
        }
        assert len(graphs) > 1

    def test_random_k_undirected(self):
        peers = build_peer_sets(IDS, "random_k", peer_k=2, seed=3)
        for nid, ps in peers.items():
            for peer in ps:
                assert nid in peers[peer]

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_topology_is_one_component(self, topology):
        peers = build_peer_sets(IDS, topology, peer_k=1, seed=2)
        assert connected_components(peers, IDS) == (tuple(sorted(IDS)),)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_every_topology_is_undirected_without_self_links(self, topology):
        peers = build_peer_sets(IDS, topology, peer_k=2, seed=4)
        for nid, ps in peers.items():
            assert nid not in ps
            assert all(nid in peers[peer] for peer in ps)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build_peer_sets(IDS, "mesh")
        with pytest.raises(ValueError, match="at least one node"):
            build_peer_sets([], "full")
        with pytest.raises(ValueError, match="unique"):
            build_peer_sets(["a", "a"], "full")
        with pytest.raises(ValueError, match="peer_k"):
            build_peer_sets(IDS, "random_k", peer_k=0)
        with pytest.raises(ValueError, match="peer_k"):
            build_peer_sets(IDS, "random_k", peer_k=len(IDS))

    def test_components_respect_induced_subgraph(self):
        peers = build_peer_sets(IDS[:4], "ring")
        # Remove one node from the induced set: the ring opens into a path.
        comps = connected_components(peers, IDS[:3])
        assert comps == ((IDS[0], IDS[1], IDS[2]),)
        # Removing an interior node splits the path.
        comps = connected_components(peers, [IDS[0], IDS[2]])
        assert comps == ((IDS[0],), (IDS[2],))

    def test_components_sorted_and_deterministic(self):
        peers = {"c": ("d",), "d": ("c",), "a": ("b",), "b": ("a",)}
        assert connected_components(peers, peers) == (("a", "b"), ("c", "d"))


class TestSchedule:
    def test_parse_partition_window_and_remainder(self):
        (window,) = parse_partition("2-4:0,1", 5)
        assert window == PartitionWindow(start=2, end=4, groups=((0, 1), (2, 3, 4)))

    def test_parse_partition_single_round_shorthand(self):
        (window,) = parse_partition("3:0|1", 3)
        assert window.start == window.end == 3
        assert window.groups == ((0,), (1,), (2,))

    def test_parse_partition_none(self):
        assert parse_partition("none", 4) == ()
        assert parse_partition("", 4) == ()

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("2-4", "expected"),
            ("x-4:0,1", "integers"),
            ("4-2:0,1", "start <= end"),
            ("1-2:0,9", "lie in"),
            ("1-2:0|0", "more than one group"),
            ("1-2:0,1,2,3", "at least two sides"),
            ("1-2:0;2-3:0", "overlap"),
            ("1-2:|", "empty group"),
        ],
    )
    def test_parse_partition_errors(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_partition(spec, 4)

    def test_partition_needs_two_nodes(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            parse_partition("0-1:0", 1)

    def test_parse_churn_events_sorted(self):
        events = parse_churn("3:+0;1:-0", 2)
        assert events == (
            ChurnEvent(round_index=1, node_index=0, online=False),
            ChurnEvent(round_index=3, node_index=0, online=True),
        )

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("1:0", "expected"),
            ("x:-0", "integers"),
            ("-1:-0", "round must be"),
            ("1:-9", "lie in"),
            ("0:-0;0:-1", "every node offline"),
        ],
    )
    def test_parse_churn_errors(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_churn(spec, 2)

    def test_schedule_online_at(self):
        schedule = NetSchedule.parse(3, "none", "1:-0;3:+0")
        assert schedule.online_at(0) == (0, 1, 2)
        assert schedule.online_at(1) == (1, 2)
        assert schedule.online_at(2) == (1, 2)
        assert schedule.online_at(3) == (0, 1, 2)

    def test_schedule_groups_at(self):
        schedule = NetSchedule.parse(4, "1-2:0,1", "none")
        assert schedule.groups_at(0) == ((0, 1, 2, 3),)
        assert schedule.groups_at(1) == ((0, 1), (2, 3))
        assert schedule.partition_active(1)
        assert not schedule.partition_active(3)


class TestGossip:
    def _net(self, topology="full", n=6, **kwargs):
        peers = build_peer_sets(IDS[:n], topology)
        return GossipNetwork(peers, **kwargs)

    def test_flood_reaches_every_active_node(self):
        net = self._net("ring")
        outcome = net.propagate("miner-0", seed=1)
        assert frozenset(outcome.arrivals) == frozenset(IDS)
        assert outcome.arrivals["miner-0"] == 0.0
        assert outcome.max_latency > 0.0

    def test_flood_confined_to_active_set(self):
        net = self._net("full")
        active = {"miner-0", "miner-1", "miner-2"}
        outcome = net.propagate("miner-0", active=active, seed=1)
        assert frozenset(outcome.arrivals) == frozenset(active)

    def test_flood_deterministic_for_seed(self):
        a = self._net("ring").propagate("miner-2", seed=77)
        b = self._net("ring").propagate("miner-2", seed=77)
        assert a.arrivals == b.arrivals
        c = self._net("ring").propagate("miner-2", seed=78)
        assert c.arrivals != a.arrivals

    def test_zero_base_latency(self):
        net = self._net("ring", base_latency=0.0)
        outcome = net.propagate("miner-0", seed=1)
        assert outcome.max_latency == 0.0

    def test_propagate_errors(self):
        net = self._net("full")
        with pytest.raises(ValueError, match="unknown gossip origin"):
            net.propagate("ghost")
        with pytest.raises(ValueError, match="not in the active set"):
            net.propagate("miner-0", active={"miner-1"})


class TestNode:
    def _node(self, rounds=0):
        return Node(node_id="n0", chain=_chain_with_blocks(rounds))

    def test_sync_with_adopts_longer_chain_and_counts_reorg(self):
        fork_choice = ForkChoice(salt=0)
        a = Node(node_id="a", chain=_chain_with_blocks(1, miner_id="a"))
        b = Node(node_id="b", chain=_chain_with_blocks(3, miner_id="b"))
        assert a.sync_with(b, fork_choice)
        assert a.head_hash == b.head_hash
        assert a.reorgs == 1  # it discarded its own round-0 block
        # Already in agreement: nothing changes.
        assert not a.sync_with(b, fork_choice)
        assert not b.sync_with(a, fork_choice)

    def test_sync_with_a_pure_extension_appends_without_a_reorg(self):
        fork_choice = ForkChoice(salt=0)
        node = self._node(rounds=1)
        donor = Blockchain(enforce_pow=False)
        donor.blocks = list(node.chain.blocks)
        donor.add_block(
            Block.create(
                index=2,
                previous_hash=donor.last_block.block_hash,
                round_index=1,
                miner_id="m",
                transactions=[],
            )
        )
        assert node.sync_with(Node(node_id="d", chain=donor), fork_choice)
        assert node.chain.height == 3
        assert node.reorgs == 0

    def test_sync_with_a_shorter_competing_view_changes_nothing(self):
        fork_choice = ForkChoice(salt=0)
        node = self._node(rounds=2)
        head = node.head_hash
        rival = Node(node_id="rival", chain=_chain_with_blocks(1, miner_id="rival"))
        assert not node.sync_with(rival, fork_choice)
        assert node.head_hash == head
        assert node.chain.height == 3
        assert node.reorgs == 0


class TestSubstrate:
    def _miners(self, n=4):
        miners = []
        for i in range(n):
            chain = Blockchain(enforce_pow=False)
            chain.add_genesis(Block.genesis())
            miners.append(Miner(miner_id=f"miner-{i}", chain=chain))
        return miners

    def _substrate(self, n=4, **kwargs):
        kwargs.setdefault("topology", "full")
        return GossipSubstrate(miners=self._miners(n), **kwargs)

    def test_global_topology_rejected(self):
        with pytest.raises(ValueError, match="global"):
            self._substrate(topology="global")

    def test_round_state_partition_and_churn(self):
        sub = self._substrate(partition="1-1:0,1", churn="1:-3")
        state = sub.round_state(0)
        assert state.components == (tuple(f"miner-{i}" for i in range(4)),)
        assert not state.partition_active
        state = sub.round_state(1)
        assert state.partition_active
        assert state.online == ("miner-0", "miner-1", "miner-2")
        assert state.components == (("miner-0", "miner-1"), ("miner-2",))
        assert not sub.nodes["miner-3"].online

    def test_begin_round_converges_components(self):
        sub = self._substrate()
        # Give miner-2 a longer private chain; begin_round pulls everyone onto it.
        sub.miners[2].chain.add_block(
            Block.create(
                index=1,
                previous_hash=sub.miners[2].chain.last_block.block_hash,
                round_index=0,
                miner_id="miner-2",
                transactions=[],
            )
        )
        assert sub.chain_views() == 2
        report = sub.begin_round(1, sim_time=0.0)
        assert sub.chain_views() == 1
        assert not report.reorged  # the others only extended their views
        assert sub.best_chain().height == 2

    def test_consensus_delay_resolution(self):
        sub = self._substrate(partition="1-1:0,1")
        # Round 0, no partition: the block resolves within the round.
        (whole,) = sub.begin_round(0, sim_time=0.0).state.components
        for member in whole:
            self._append(sub, member, round_index=0, miner_id="miner-0")
        sub.commit_block(0, "miner-0", whole, sim_time=10.0)
        resolved = sub.finish_round(sim_time=10.0, latency=0.5)
        assert resolved == {0: pytest.approx(0.5)}
        # Round 1, split: each side mines its own head -> no agreement yet.
        state = sub.round_state(1)
        for component in state.components:
            origin = component[0]
            for member in component:
                self._append(sub, member, round_index=1, miner_id=origin)
            sub.commit_block(1, origin, component, sim_time=20.0)
        assert sub.finish_round(sim_time=20.0) == {}
        # Round 2 heals: begin_round reorgs the losers and resolves round 1.
        report = sub.begin_round(2, sim_time=30.0)
        assert report.reorged
        assert set(report.resolved) == {1}
        assert report.resolved[1] >= 10.0

    def _append(self, sub, member, *, round_index, miner_id):
        chain = sub.nodes[member].chain
        chain.add_block(
            Block.create(
                index=chain.height,
                previous_hash=chain.last_block.block_hash,
                round_index=round_index,
                miner_id=miner_id,
                transactions=[],
            )
        )

    def test_absorb_uploads_drops_offline_receivers(self):
        sub = self._substrate(churn="0:-1")
        state = sub.round_state(0)
        txs = [
            make_gradient_transaction(f"client-{i}", 0, np.full(3, float(i)))
            for i in range(3)
        ]
        for i in range(3):
            sub.miners[i].gradient_set[txs[i].tx_id] = txs[i]
        mapping = {0: "miner-0", 1: "miner-1", 2: "miner-2"}
        lost = sub.absorb_uploads(txs, mapping, state)
        assert lost == 1
        # The offline miner's gradient set was voided; online ones kept theirs.
        assert not sub.miners[1].gradient_set
        assert list(sub.miners[0].gradient_set.values()) == [txs[0]]
        assert list(sub.miners[2].gradient_set.values()) == [txs[2]]

    def test_absorb_uploads_counts_only_clients_that_uploaded(self):
        # Client 1 was assigned the miner that left but sent nothing this
        # round, so none of its uploads is lost.
        sub = self._substrate(churn="0:-1")
        state = sub.round_state(0)
        tx = make_gradient_transaction("client-0", 0, np.ones(3))
        sub.miners[0].gradient_set[tx.tx_id] = tx
        assert sub.absorb_uploads([tx], {0: "miner-0", 1: "miner-1"}, state) == 0
        assert list(sub.miners[0].gradient_set.values()) == [tx]

    def test_total_reorgs_sums_what_each_node_counts(self):
        sub = self._substrate(partition="1-1:0,1")
        state = sub.round_state(1)
        assert len(state.components) == 2
        for component in state.components:
            for member in component:
                self._append(sub, member, round_index=1, miner_id=component[0])
        assert sub.begin_round(2, sim_time=0.0).reorged
        # Every node of the losing side left its fork once; nobody else did.
        losers = sorted(n.node_id for n in sub.nodes.values() if n.reorgs)
        assert losers in [sorted(c) for c in state.components]
        assert sub.total_reorgs == sum(n.reorgs for n in sub.nodes.values()) == len(losers)

    def test_commit_block_floods_and_notes_the_block(self):
        sub = self._substrate()
        state = sub.round_state(0)
        tx = make_gradient_transaction("client-0", 0, np.ones(3))
        component = state.components[0]
        for member in component:
            chain = sub.nodes[member].chain
            chain.add_block(
                Block.create(
                    index=chain.height,
                    previous_hash=chain.last_block.block_hash,
                    round_index=0,
                    miner_id="miner-0",
                    transactions=[tx],
                )
            )
        latency = sub.commit_block(0, "miner-0", component, sim_time=1.0)
        assert latency > 0.0
        assert sub.finish_round(sim_time=1.0, latency=latency) == {0: pytest.approx(latency)}

    def test_commit_block_singleton_component(self):
        sub = self._substrate()
        assert sub.commit_block(0, "miner-0", ("miner-0",), sim_time=0.0) == 0.0

    def test_commit_block_notes_a_singleton_component_s_block(self):
        # A lone component floods nothing, but its block's creation time is
        # still noted: the round resolves once the network agrees.
        sub = self._substrate()
        sub.round_state(0)
        assert sub.commit_block(0, "miner-0", ("miner-0",), sim_time=2.0) == 0.0
        assert sub.finish_round(sim_time=5.0) == {0: pytest.approx(3.0)}
        assert sub.finish_round(sim_time=9.0) == {}  # resolved once only

    def test_substrate_runs_deterministically(self):
        def trace():
            sub = self._substrate(partition="1-1:0,1", seed=9)
            log = []
            for r in range(3):
                report = sub.begin_round(r, sim_time=float(r))
                state = report.state
                for component in state.components:
                    origin = component[0]
                    for member in component:
                        self._append(sub, member, round_index=r, miner_id=origin)
                    log.append(sub.commit_block(r, origin, component, sim_time=float(r)))
                log.append(dict(sub.finish_round(sim_time=float(r))))
            return log, sub.best_chain().last_block.block_hash

        assert trace() == trace()
