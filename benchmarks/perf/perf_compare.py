"""``run.py --compare A.json B.json``: judge result file B against A.

One row per (workload, end-to-end metric) with both medians, both min-max
ranges, the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — better by more than the bound;
* ``unchanged`` — within the bound;
* ``unresolved`` — the run-to-run spread of either file (the distance between
  the quartiles of its repeats, as a share of their median) is wider than the
  bound *and* the two min-max ranges overlap, so the files cannot tell.

A larger share of failed operations in B is a regression too, and each
workload gets a row saying whether its history digest (accuracy, detection,
rewards, simulated delays — every round field) is byte-identical; a changed
digest is reported, not judged, because an issue may intend it.  Exits
non-zero on any regression.  Run on two result files of the same commit, this is the
benchmark's self-agreement check: every row must read ``unchanged``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

__all__ = ["judge", "compare"]


def judge(a: dict, b: dict, *, better: str, bound: float) -> str:
    """The verdict for one metric; ``a``/``b`` hold ``median``, ``min``, ``max``
    and the repeats' ``values`` (at least two)."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    quartiles = [statistics.quantiles(row["values"], n=4) for row in (a, b)]
    spread = max(
        (q[2] - q[0]) / abs(row["median"]) for q, row in zip(quartiles, (a, b))
    )
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str, declared: dict) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    verdicts: list[str] = []
    print(f"{'workload':22s} {'metric':22s} {'A median (min..max)':>34s} "
          f"{'B median (min..max)':>34s} {'bound':>6s}  verdict")
    for name in (w["name"] for w in declared["workloads"]):
        if name not in a or name not in b:
            continue
        for kind in declared["end_to_end"]:
            row_a, row_b = (side[name]["end_to_end"][kind["name"]] for side in (a, b))
            verdict = judge(row_a, row_b, better=kind["better"], bound=kind["bound"])
            verdicts.append(verdict)
            cells = [
                f"{row['median']:.4f} ({row['min']:.4f}..{row['max']:.4f})"
                for row in (row_a, row_b)
            ]
            print(f"{name:22s} {kind['name']:22s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{kind['bound'] * 100:5.1f}%  {verdict}")
        shares = [side[name]["ops_failed"] / side[name]["ops_attempted"] for side in (a, b)]
        verdict = "regressed" if shares[1] > shares[0] else "unchanged"
        verdicts.append(verdict)
        print(f"{name:22s} {'ops_failed/attempted':22s} {shares[0]:>34.6f} {shares[1]:>34.6f} "
              f"{'':>6s}  {verdict}")
        same = (a[name]["digest"], a[name]["sim_delay"]) == (b[name]["digest"], b[name]["sim_delay"])
        print(f"{name:22s} {'history digest':22s} {a[name]['digest'][:12]:>34s} "
              f"{b[name]['digest'][:12]:>34s} {'':>6s}  {'identical' if same else 'CHANGED'}")
    counts = {v: verdicts.count(v) for v in ("improved", "unchanged", "unresolved", "regressed")}
    print("\n" + ", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["regressed"] else 0
