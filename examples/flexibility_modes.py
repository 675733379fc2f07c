#!/usr/bin/env python
"""Flexibility by design: scale FAIR-BFL down to pure FL or pure blockchain.

Section 4 of the paper argues that the five procedures can be "coupled
flexibly and dynamically": dropping Procedures III and V leaves a pure FL
system, dropping Procedures I and IV leaves a pure blockchain.  This script
runs the same workload in all three operating modes and compares their delay
decomposition, accuracy, and ledger state -- the comparison the paper's
Figure 3 / Section 4.6 describes.

Run with:  python examples/flexibility_modes.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import api  # noqa: E402
from repro.core import FairBFLTrainer  # noqa: E402
from repro.core.flexibility import OperatingMode, procedures_for_mode  # noqa: E402


def main() -> None:
    base = api.ScenarioSpec(num_clients=12, num_samples=1000, num_rounds=6)
    dataset = api.ExperimentEngine().dataset_for(base)

    print("Procedures per operating mode")
    for mode in OperatingMode:
        names = ", ".join(p.value.split("-")[0] for p in procedures_for_mode(mode))
        print(f"  {mode.value:<10} -> procedures {names}")

    results = {}
    for mode in OperatingMode:
        trainer = FairBFLTrainer(dataset, base.with_overrides(mode=mode.value))
        history = trainer.run()
        avg_breakdown = {
            key: sum(r.extras["delay_breakdown"][key] for r in history.rounds) / len(history)
            for key in ("t_local", "t_up", "t_ex", "t_gl", "t_bl")
        }
        results[mode] = (trainer, history, avg_breakdown)

    print(
        f"\n{'mode':<12}{'delay':>8}{'T_local':>9}{'T_up':>8}{'T_ex':>8}{'T_gl':>8}"
        f"{'T_bl':>8}{'accuracy':>10}{'blocks':>8}"
    )
    for mode, (trainer, history, bd) in results.items():
        print(
            f"{mode.value:<12}{history.average_delay():>8.2f}{bd['t_local']:>9.2f}"
            f"{bd['t_up']:>8.2f}{bd['t_ex']:>8.2f}{bd['t_gl']:>8.2f}{bd['t_bl']:>8.2f}"
            f"{history.final_accuracy():>10.3f}{trainer.chain.height - 1:>8}"
        )

    print(
        "\nfl_only drops the ledger costs (T_ex = T_bl = 0, no blocks), chain_only drops the\n"
        "learning costs (T_local = 0, accuracy not measured), and full bfl pays both --\n"
        "exactly the scale-back behaviour of Figure 3."
    )


if __name__ == "__main__":
    main()
