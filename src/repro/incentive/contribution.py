"""Algorithm 2: Client's Contribution Identification.

Given the round's gradient set ``W^k_{r+1}`` (one uploaded vector per
participating client) and the aggregated global update ``w_{r+1}``, the
algorithm:

1. clusters ``W ∪ {w_{r+1}}`` with the configured clustering algorithm
   (DBSCAN by default);
2. labels clients that share the global update's cluster as *high
   contribution* and everyone else as *low contribution*;
3. scores each high contributor by the cosine distance θ_i to the global
   update and apportions the round's base reward as ``θ_i / Σθ_k · base``;
4. hands the low-contribution set to the configured strategy (keep or
   discard).

One practical detail the paper leaves implicit: with DBSCAN the global update
itself may be labelled as noise (no cluster dense enough around it).  In that
case we fall back to treating the *largest* cluster as the high-contribution
group — the behaviour that keeps the mechanism usable rather than rejecting
every client — and record the fallback in the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.incentive.clustering import DBSCAN, ClusteringResult, KMeans, NOISE_LABEL, OwnedRows
from repro.incentive.distance import cosine_distance_to_reference
from repro.incentive.rewards import RewardEntry, apportion_rewards
from repro.utils.vectors import row_norms

__all__ = [
    "ContributionReport",
    "identify_contributions",
    "identify_contributions_in_place",
]


@dataclass
class ContributionReport:
    """The outcome of running Algorithm 2 on one round's gradient set.

    Attributes
    ----------
    high_contributors / low_contributors:
        Client IDs labelled high / low contribution.
    reward_list:
        The round's ⟨client, reward, θ_i⟩ entries (high contributors only).
    clustering:
        The raw clustering result over ``W ∪ {w_{r+1}}`` (the global update is
        the final row).
    used_fallback:
        True when the global update was DBSCAN noise and the largest cluster
        was used as the high-contribution group instead.
    """

    high_contributors: list[int]
    low_contributors: list[int]
    reward_list: list[RewardEntry]
    clustering: ClusteringResult
    used_fallback: bool = False


def identify_contributions(
    updates: np.ndarray,
    client_ids: list[int] | np.ndarray,
    global_update: np.ndarray,
    clusterer: DBSCAN | KMeans,
    base_reward: float,
) -> ContributionReport:
    """Run Algorithm 2 on one round's uploaded vectors.

    Parameters
    ----------
    updates:
        ``(k, d)`` matrix of the uploaded vectors (one row per client).
    client_ids:
        Length-``k`` list of the owning client IDs (row-aligned with ``updates``).
    global_update:
        The aggregated global vector ``w_{r+1}`` (computed with simple
        averaging before this call, per Algorithm 1 line 24).
    clusterer:
        The clustering algorithm (:func:`~repro.incentive.clustering.make_clusterer`).
    base_reward:
        The round's base reward, split among the high contributors.

    Returns
    -------
    ContributionReport
    """
    m = np.asarray(updates, dtype=np.float64)
    g = np.asarray(global_update, dtype=np.float64).ravel()
    if m.ndim != 2 or m.shape[0] == 0:
        raise ValueError(f"expected a non-empty (k, d) update matrix, got shape {m.shape}")
    if m.shape[1] != g.shape[0]:
        raise ValueError(
            f"global_update dimension {g.shape[0]} does not match updates dimension {m.shape[1]}"
        )
    # W ∪ {w_{r+1}}: the global update is the last row (Algorithm 1 line 25 /
    # Algorithm 2 line 1).
    stacked = np.empty((m.shape[0] + 1, m.shape[1]))
    stacked[:-1] = m
    stacked[-1] = g
    return identify_contributions_in_place(stacked, client_ids, clusterer, base_reward)


def identify_contributions_in_place(
    stacked: np.ndarray,
    client_ids: list[int] | np.ndarray,
    clusterer: DBSCAN | KMeans,
    base_reward: float,
) -> ContributionReport:
    """:func:`identify_contributions` on an owned ``W ∪ {w_{r+1}}`` buffer.

    ``stacked`` is the ``(k + 1, d)`` ``float64`` matrix of the ``k`` uploaded
    vectors with the global update as its last row.  Its row norms are
    computed once and serve twice: the θ_i are read from the buffer and the
    norms first, then both are handed over to the clusterer, whose cosine
    metric normalises the rows in place by those norms.  So the round needs
    no copy of the buffer and no second norm pass.
    """
    ids = [int(c) for c in np.asarray(client_ids).ravel()]
    if stacked.ndim != 2 or stacked.shape[0] < 2:
        raise ValueError(f"expected a (k + 1, d) matrix with k >= 1, got shape {stacked.shape}")
    if len(ids) != stacked.shape[0] - 1:
        raise ValueError(
            f"client_ids must align with updates rows, got {len(ids)} ids for "
            f"{stacked.shape[0] - 1} rows"
        )

    norms = row_norms(stacked)
    thetas_all = cosine_distance_to_reference(stacked[:-1], stacked[-1], norms[:-1])
    clustering = clusterer.fit(OwnedRows(stacked, norms))
    global_label = clustering.cluster_of(stacked.shape[0] - 1)

    used_fallback = False
    if global_label == NOISE_LABEL:
        # The global update sits in no dense cluster; fall back to the largest
        # client cluster so the mechanism still designates a high group.
        client_labels = clustering.labels[:-1]
        non_noise = client_labels[client_labels != NOISE_LABEL]
        if non_noise.size > 0:
            values, counts = np.unique(non_noise, return_counts=True)
            global_label = int(values[np.argmax(counts)])
            used_fallback = True
        else:
            # Everything is noise: treat every client as high contribution
            # (equivalent to falling back to simple averaging and equal reward).
            used_fallback = True

    client_labels = clustering.labels[:-1]
    if global_label == NOISE_LABEL:
        high_mask = np.ones(len(ids), dtype=bool)
    else:
        high_mask = client_labels == global_label

    # Mask-based selection over the stacked matrix: ids, θ scores, and the
    # reward apportioning all derive from one vectorised distance pass.
    ids_arr = np.asarray(ids, dtype=np.int64)
    high_ids = [int(c) for c in ids_arr[high_mask]]
    low_ids = [int(c) for c in ids_arr[~high_mask]]

    reward_list = apportion_rewards(high_ids, thetas_all[high_mask], base_reward=base_reward)

    return ContributionReport(
        high_contributors=high_ids,
        low_contributors=low_ids,
        reward_list=reward_list,
        clustering=clustering,
        used_fallback=used_fallback,
    )
