"""Federated-learning substrate.

Implements the learning half of FAIR-BFL and both FL baselines used in the
paper's evaluation:

* :mod:`repro.fl.client` — per-client local SGD update (Algorithm 1,
  Procedure I), including FedProx's proximal variant;
* :mod:`repro.fl.aggregation` — simple averaging and the paper's
  contribution-weighted *fair aggregation* (Equation 1);
* :mod:`repro.fl.robust` — robust-aggregation defenses (norm clipping,
  Krum/multi-Krum, coordinate-wise median, trimmed mean) composable as
  clip → filter → aggregate pipelines (see ``docs/threat_model.md``);
* :mod:`repro.fl.selection` — random λn client selection and
  contribution-based selection (the discard strategy's side effect);
* :mod:`repro.fl.server` — the centralised parameter server used by the
  FedAvg / FedProx baselines;
* :mod:`repro.fl.cohort` — the vectorized cohort engine of Procedure I;
* :mod:`repro.fl.trainer` — the one round-based ``Trainer`` every system
  subclasses (population, Procedure I on the serial or cohort backend,
  lifecycle, evaluation, emission, checkpoints);
* :mod:`repro.fl.fedavg`, :mod:`repro.fl.fedprox` — the baseline trainers;
* :mod:`repro.fl.history` — per-round records shared by all trainers.
"""
