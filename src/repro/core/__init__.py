"""FAIR-BFL core: the paper's primary contribution.

* :mod:`repro.core.procedures` — the five procedures of Algorithm 1 as
  composable functions (the modular design behind the flexibility claim);
* :mod:`repro.core.fairbfl` — the FAIR-BFL orchestrator tying learning,
  incentive, and ledger together round by round;
* :mod:`repro.core.flexibility` — functional scaling: full BFL, FL-only
  (drop Procedures III & V), chain-only (drop Procedures I & IV);
* :mod:`repro.core.convergence` — the paper's convergence criterion and the
  Theorem 3.1 bound;
* :mod:`repro.core.results` — cross-system comparison containers.
"""

from repro.core.fairbfl import FairBFLTrainer

__all__ = ["FairBFLTrainer"]
