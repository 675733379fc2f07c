"""Post-identification strategies: keep everything or discard low contributors.

Algorithm 2 ends by applying a "predetermined strategy" to the gradient set:

* *keep all gradients* — the global update stays as computed; rewards are
  still uneven (FAIR in the figures);
* *discard* — low-contributing local gradients are removed and the global
  update is recomputed from the survivors (FAIR-Discard in the figures).  The
  discarded clients also sit out the following round (client selection side
  effect, handled by
  :class:`repro.fl.selection.ContributionBasedSelector`).

Both strategies operate on the stacked update matrix, the contribution report
and a row-aligned θ vector, returning the re-aggregated global update together
with the client ids that survived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.aggregation import fair_aggregate, simple_average
from repro.incentive.contribution import ContributionReport

__all__ = [
    "STRATEGIES",
    "StrategyOutcome",
    "Strategy",
    "make_strategy",
]

#: Canonical strategy names accepted by :func:`make_strategy`.
STRATEGIES = ("keep", "discard")


@dataclass(frozen=True)
class StrategyOutcome:
    """Result of applying a strategy to one round's gradient set.

    Attributes
    ----------
    global_update:
        The (possibly recomputed) global vector ``w_{r+1}``.
    discarded_client_ids:
        Clients whose gradients were removed (empty for the keep strategy).
    """

    global_update: np.ndarray
    discarded_client_ids: list[int]


class Strategy:
    """Base class for Algorithm 2 strategies."""

    name: str = "base"

    def apply(
        self,
        updates: np.ndarray,
        client_ids: list[int],
        report: ContributionReport,
        thetas: np.ndarray,
        *,
        use_fair_aggregation: bool = True,
    ) -> StrategyOutcome:
        """Apply the strategy to one round's gradient set.

        ``thetas`` is the length-``k`` vector of θ values, row-aligned with
        ``updates``, that weights Equation (1).  The orchestrator computes them
        on the uploaded parameter vectors while the report's θ come from the
        update directions — see :mod:`repro.core.procedures` for the rationale.
        """
        raise NotImplementedError


def _keep(
    updates: np.ndarray,
    client_ids: list[int],
    thetas: np.ndarray,
    keep_mask: np.ndarray | None,
    *,
    use_fair_aggregation: bool,
) -> StrategyOutcome:
    """Aggregate the rows ``keep_mask`` selects (all of them for ``None``).

    Equation (1) weights the survivors by their θ; plain averaging is used
    when fair aggregation is off or every θ is zero.  Keeping everything never
    indexes ``updates``, so it never copies the round's matrix.
    """
    m = np.asarray(updates, dtype=np.float64)
    t = np.asarray(thetas, dtype=np.float64).ravel()
    ids = np.asarray(client_ids, dtype=np.int64)
    if t.shape[0] != ids.shape[0]:
        raise ValueError(
            f"thetas must align with client_ids, got {t.shape[0]} values "
            f"for {ids.shape[0]} clients"
        )
    dropped: list[int] = []
    if keep_mask is not None:
        m, t, dropped = m[keep_mask], t[keep_mask], ids[~keep_mask].tolist()
    if not use_fair_aggregation or t.sum() <= 0:
        new_global = simple_average(m)
    else:
        new_global = fair_aggregate(m, t)
    return StrategyOutcome(global_update=new_global, discarded_client_ids=dropped)


class KeepAllStrategy(Strategy):
    """Keep every gradient; re-aggregate with fairness weights over all clients."""

    name = "keep"

    def apply(self, updates, client_ids, report, thetas, *, use_fair_aggregation=True):
        return _keep(updates, client_ids, thetas, None, use_fair_aggregation=use_fair_aggregation)


class DiscardStrategy(Strategy):
    """Drop low-contribution gradients and recompute the global update.

    If the report marks *every* client as low contribution (possible when the
    clustering degenerates), the strategy keeps everything rather than
    producing an undefined global update.
    """

    name = "discard"

    def apply(self, updates, client_ids, report, thetas, *, use_fair_aggregation=True):
        high = set(report.high_contributors)
        keep_mask = np.array([int(cid) in high for cid in client_ids], dtype=bool)
        return _keep(
            updates,
            client_ids,
            thetas,
            keep_mask if keep_mask.any() else None,
            use_fair_aggregation=use_fair_aggregation,
        )


def make_strategy(name: str) -> Strategy:
    """Factory resolving a strategy by name (``"keep"`` or ``"discard"``)."""
    key = name.strip().lower()
    if key == "keep":
        return KeepAllStrategy()
    if key == "discard":
        return DiscardStrategy()
    raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGIES}")
