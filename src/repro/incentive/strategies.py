"""Post-identification strategies: keep everything or discard low contributors.

Algorithm 2 ends by applying a "predetermined strategy" to the gradient set:

* *keep all gradients* — the global update stays as computed; rewards are
  still uneven (FAIR in the figures);
* *discard* — low-contributing local gradients are removed and the global
  update is recomputed from the survivors (FAIR-Discard in the figures).  The
  discarded clients also sit out the following round (client selection side
  effect, handled by
  :class:`repro.fl.selection.ContributionBasedSelector`).

Both strategies operate on the stacked update matrix and the contribution
report, returning the (possibly re-aggregated) global update together with the
indices that survived.
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
    "KeepAllStrategy",
    "DiscardStrategy",
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
    kept_client_ids:
        Clients whose gradients contribute to the final global update.
    discarded_client_ids:
        Clients whose gradients were removed (empty for the keep strategy).
    """

    global_update: np.ndarray
    kept_client_ids: list[int]
    discarded_client_ids: list[int]


class Strategy:
    """Base class for Algorithm 2 strategies."""

    name: str = "base"

    def apply(
        self,
        updates: np.ndarray,
        client_ids: list[int],
        global_update: np.ndarray,
        report: ContributionReport,
        *,
        use_fair_aggregation: bool = True,
        aggregation_thetas: dict[int, float] | np.ndarray | None = None,
    ) -> StrategyOutcome:
        """Apply the strategy to one round's gradient set.

        ``aggregation_thetas`` optionally supplies the θ values used for the
        Equation (1) weights; when omitted the report's (reward) θ values are
        reused.  The orchestrator passes θ computed on the uploaded parameter
        vectors here while the report's θ come from the update directions —
        see :mod:`repro.core.procedures` for the rationale.
        """
        raise NotImplementedError


def _aggregate(
    updates: np.ndarray,
    client_ids: list[int],
    report: ContributionReport,
    *,
    use_fair_aggregation: bool,
    aggregation_thetas: dict[int, float] | np.ndarray | None = None,
) -> np.ndarray:
    """Aggregate ``updates`` with Equation (1) weights (or plain averaging).

    ``aggregation_thetas`` may be a length-``k`` vector row-aligned with
    ``client_ids`` (the vectorised fast path used by the orchestrator) or a
    ``{client_id: θ}`` mapping; absent entries default to 0.
    """
    if not use_fair_aggregation:
        return simple_average(updates)
    source = aggregation_thetas if aggregation_thetas is not None else report.thetas
    if isinstance(source, np.ndarray):
        thetas = np.asarray(source, dtype=np.float64).ravel()
        if thetas.shape[0] != len(client_ids):
            raise ValueError(
                f"aggregation_thetas must align with client_ids, got {thetas.shape[0]} "
                f"values for {len(client_ids)} clients"
            )
    else:
        thetas = np.array([source.get(int(cid), 0.0) for cid in client_ids], dtype=np.float64)
    if thetas.sum() <= 0:
        return simple_average(updates)
    return fair_aggregate(updates, thetas)


class KeepAllStrategy(Strategy):
    """Keep every gradient; re-aggregate with fairness weights over all clients."""

    name = "keep"

    def apply(
        self,
        updates: np.ndarray,
        client_ids: list[int],
        global_update: np.ndarray,
        report: ContributionReport,
        *,
        use_fair_aggregation: bool = True,
        aggregation_thetas: dict[int, float] | np.ndarray | None = None,
    ) -> StrategyOutcome:
        ids = [int(c) for c in client_ids]
        new_global = _aggregate(
            np.asarray(updates, dtype=np.float64),
            ids,
            report,
            use_fair_aggregation=use_fair_aggregation,
            aggregation_thetas=aggregation_thetas,
        )
        return StrategyOutcome(
            global_update=new_global, kept_client_ids=ids, discarded_client_ids=[]
        )


class DiscardStrategy(Strategy):
    """Drop low-contribution gradients and recompute the global update.

    If the report marks *every* client as low contribution (possible when the
    clustering degenerates), the strategy keeps everything rather than
    producing an undefined global update.
    """

    name = "discard"

    def apply(
        self,
        updates: np.ndarray,
        client_ids: list[int],
        global_update: np.ndarray,
        report: ContributionReport,
        *,
        use_fair_aggregation: bool = True,
        aggregation_thetas: dict[int, float] | np.ndarray | None = None,
    ) -> StrategyOutcome:
        m = np.asarray(updates, dtype=np.float64)
        ids = [int(c) for c in client_ids]
        high = set(report.high_contributors)
        keep_mask = np.array([cid in high for cid in ids], dtype=bool)
        if not keep_mask.any():
            outcome = KeepAllStrategy().apply(
                m,
                ids,
                global_update,
                report,
                use_fair_aggregation=use_fair_aggregation,
                aggregation_thetas=aggregation_thetas,
            )
            return outcome
        ids_arr = np.asarray(ids, dtype=np.int64)
        kept_ids = [int(c) for c in ids_arr[keep_mask]]
        dropped_ids = [int(c) for c in ids_arr[~keep_mask]]
        kept_thetas = aggregation_thetas
        if isinstance(kept_thetas, np.ndarray):
            # Row-aligned vector: subset it alongside the update matrix.
            kept_thetas = np.asarray(kept_thetas, dtype=np.float64).ravel()[keep_mask]
        new_global = _aggregate(
            m[keep_mask],
            kept_ids,
            report,
            use_fair_aggregation=use_fair_aggregation,
            aggregation_thetas=kept_thetas,
        )
        return StrategyOutcome(
            global_update=new_global,
            kept_client_ids=kept_ids,
            discarded_client_ids=dropped_ids,
        )


def make_strategy(name: str) -> Strategy:
    """Factory resolving a strategy by name (``"keep"`` or ``"discard"``)."""
    key = name.strip().lower()
    if key in {"keep", "keep_all", "keepall"}:
        return KeepAllStrategy()
    if key == "discard":
        return DiscardStrategy()
    raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGIES}")
