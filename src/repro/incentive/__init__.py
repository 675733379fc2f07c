"""Contribution-based incentive mechanism (the paper's Algorithm 2).

The winning miner clusters the round's gradient set (global update included),
labels clients in the global update's cluster as high-contribution and the
rest as low-contribution, computes cosine-distance contribution scores,
apportions a base reward, and applies a strategy (keep everything or discard
the low-contributing gradients and re-aggregate).

Modules
-------
* :mod:`repro.incentive.distance` — cosine distance utilities;
* :mod:`repro.incentive.clustering` — DBSCAN (the paper's default) and KMeans
  implemented from scratch;
* :mod:`repro.incentive.contribution` — Algorithm 2 itself;
* :mod:`repro.incentive.rewards` — reward apportioning;
* :mod:`repro.incentive.strategies` — the keep / discard strategies.
"""
