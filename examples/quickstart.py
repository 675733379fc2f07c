#!/usr/bin/env python
"""Quickstart: run FAIR-BFL end to end on a small federated workload.

This script builds a synthetic-MNIST federated dataset, runs a few FAIR-BFL
communication rounds (local SGD -> RSA-signed uploads -> miner exchange ->
DBSCAN contribution identification -> fair aggregation -> proof-of-work
block), and prints the per-round delay/accuracy, the on-chain state, and the
reward distribution.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import api  # noqa: E402
from repro.core import FairBFLTrainer  # noqa: E402
from repro.core.results import summarize_history  # noqa: E402


def main() -> None:
    # A laptop-scale configuration: 12 clients, Dirichlet non-IID data, 8 rounds.
    spec = api.ScenarioSpec(num_clients=12, num_samples=1000, num_rounds=8)
    print("Building federated dataset (12 clients, Dirichlet non-IID)...")
    dataset = api.ExperimentEngine().dataset_for(spec)

    # The trainer is driven directly (rather than through api.run) because the
    # script inspects its ledger and reward state after the run.
    print("Running FAIR-BFL for 8 communication rounds...\n")
    trainer = FairBFLTrainer(dataset, spec)
    history = trainer.run()

    print(f"{'round':>5}  {'delay (s)':>10}  {'accuracy':>9}  {'participants':>12}  {'winner':>8}")
    for record in history.rounds:
        print(
            f"{record.round_index:>5}  {record.delay:>10.2f}  {record.accuracy:>9.3f}  "
            f"{len(record.participants):>12}  {record.extras['winning_miner']:>8}"
        )

    summary = summarize_history(history)
    print("\nSummary")
    print(f"  average delay        : {summary['average_delay']:.2f} s/round")
    print(f"  average accuracy     : {summary['average_accuracy']:.3f}")
    print(f"  final accuracy       : {summary['final_accuracy']:.3f}")
    print(f"  global test accuracy : {trainer.global_test_accuracy():.3f}")

    print("\nLedger state")
    print(f"  chain height         : {trainer.chain.height} blocks (genesis + 1 per round)")
    print(f"  chain valid          : {trainer.chain.is_valid()}")
    print(f"  replicas in sync     : "
          f"{len({m.chain.last_block.block_hash for m in trainer.miners}) == 1}")

    # The chain is the reward balance: each block records its round's reward list.
    print("\nTop rewarded clients (contribution-based incentive, read off the chain)")
    balances = trainer.chain.total_rewards_by_client()
    for client, total in sorted(balances.items(), key=lambda kv: kv[1], reverse=True)[:5]:
        print(f"  {client:>10} : {total:.3f}")


if __name__ == "__main__":
    main()
