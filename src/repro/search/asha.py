"""The successive-halving (ASHA-style) scheduler.

An exhaustive sweep spends a full ``R``-round run on every grid cell even
though most cells are visibly hopeless after a handful of rounds.  The
scheduler here spends its round-evaluations adaptively instead:

1. run every trial to the first rung's fidelity ``r₀`` rounds;
2. rank the trials by a promotion metric and keep the top ``1/eta`` fraction;
3. promote the survivors to the next rung ``r₀·eta`` — **resuming each from
   its stored checkpoint**, so a promotion costs only the new rounds — and
   repeat until the final rung ``R``.

Everything flows through :meth:`repro.runner.engine.ExperimentEngine.run_partial`,
so each rung evaluation is a first-class content-addressed record: an
interrupted search re-run with the same engine/store resumes from whatever
rungs already exist (bit-identically — promotion ranking is deterministic,
ties broken by trial declaration order), and concurrent searches over
overlapping grids share rung records.

Promotion metrics are validated against the registry's capability
declarations: accuracy-based metrics require a system whose registration
says ``needs_dataset=True`` (training happens, accuracies are real), so a
blockchain-only search must use the universal ``delay`` metric — the
mismatch is rejected up front with an actionable :class:`ScenarioError`
instead of silently ranking constant zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.results import summarize_history
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.systems.registry import get_system

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.runner.engine import ExperimentEngine

__all__ = [
    "PROMOTION_METRICS",
    "SearchResult",
    "run_search",
]


@dataclass(frozen=True)
class PromotionMetric:
    """How trials are ranked at each rung.

    Attributes
    ----------
    name:
        Public metric name (the CLI's ``--metric`` choice).
    summary_key:
        The :func:`~repro.core.results.summarize_history` field scored.
    mode:
        ``"max"`` (higher is better) or ``"min"``.
    needs_accuracy:
        Whether the metric reads training accuracies — only meaningful for
        systems registered with ``needs_dataset=True``; the capability check
        rejects the combination otherwise.
    """

    name: str
    summary_key: str
    mode: str
    needs_accuracy: bool

    def score(self, summary: Mapping[str, object]) -> float:
        """The trial's scalar score from its one-line run summary."""
        return float(summary[self.summary_key])


#: The pluggable promotion metrics, by public name.
PROMOTION_METRICS: dict[str, PromotionMetric] = {
    "final_accuracy": PromotionMetric("final_accuracy", "final_accuracy", "max", True),
    "avg_accuracy": PromotionMetric("avg_accuracy", "average_accuracy", "max", True),
    "delay": PromotionMetric("delay", "average_delay", "min", False),
}


def resolve_metric(metric: "PromotionMetric | str") -> PromotionMetric:
    """Normalise a metric name (or pass through a :class:`PromotionMetric`)."""
    if isinstance(metric, PromotionMetric):
        return metric
    try:
        return PROMOTION_METRICS[metric]
    except KeyError:
        raise ScenarioError(
            f"unknown promotion metric {metric!r}; expected one of: "
            + ", ".join(PROMOTION_METRICS)
        ) from None


def check_metric_supported(metric: PromotionMetric, spec: ScenarioSpec) -> None:
    """Reject metric/system pairs the registry's capabilities rule out.

    An accuracy-based metric over a system registered with
    ``needs_dataset=False`` (the vanilla blockchain) would rank constant
    zeros; the search refuses it cleanly and points at the ``delay`` metric,
    which is meaningful for every system.
    """
    system = get_system(spec.system)
    if metric.needs_accuracy and not system.capabilities.needs_dataset:
        raise ScenarioError(
            f"promotion metric {metric.name!r} reads training accuracies, but "
            f"system {system.name!r} is registered with needs_dataset=False "
            "(it performs no training); use metric='delay' to search it"
        )


def rung_schedule(
    max_rounds: int, *, eta: int = 3, min_rounds: int | None = None
) -> tuple[int, ...]:
    """The ascending rung fidelities ``(r₀, r₀·eta, …, R)``.

    ``min_rounds`` defaults to ``ceil(R / eta²)`` (a three-rung ladder), and
    the final rung is always exactly ``max_rounds``.
    """
    max_rounds = int(max_rounds)
    eta = int(eta)
    if eta < 2:
        raise ScenarioError(f"eta must be >= 2, got {eta}")
    if max_rounds < 1:
        raise ScenarioError(f"max_rounds must be positive, got {max_rounds}")
    if min_rounds is None:
        min_rounds = max(1, math.ceil(max_rounds / (eta * eta)))
    min_rounds = int(min_rounds)
    if not (1 <= min_rounds <= max_rounds):
        raise ScenarioError(
            f"min_rounds must lie in [1, max_rounds={max_rounds}], got {min_rounds}"
        )
    rungs: list[int] = []
    r = min_rounds
    while r < max_rounds:
        rungs.append(r)
        r *= eta
    rungs.append(max_rounds)
    return tuple(rungs)


@dataclass(frozen=True)
class TrialScore:
    """One trial's standing at one rung."""

    name: str
    spec: ScenarioSpec
    rounds: int
    score: float
    summary: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class RungResult:
    """One completed rung: the ranked trials and who got promoted."""

    rounds: int
    trials: tuple[TrialScore, ...]
    promoted: tuple[str, ...]


@dataclass
class SearchResult:
    """The outcome of one adaptive search.

    ``leaderboard`` ranks the final-rung survivors (best first);
    ``round_evaluations`` is what this search actually computed (checkpoint
    resumes and cache hits cost zero), against the
    ``grid_round_evaluations = len(trials) · R`` an exhaustive sweep of the
    same cohort would spend.
    """

    metric: str
    mode: str
    eta: int
    rungs: tuple[int, ...]
    rung_results: list[RungResult]
    leaderboard: tuple[TrialScore, ...]
    best: TrialScore
    round_evaluations: int
    grid_round_evaluations: int
    runs_computed: int
    cache_hits: int

    @property
    def evaluation_fraction(self) -> float:
        """Round-evaluations spent as a fraction of the exhaustive grid's."""
        if self.grid_round_evaluations <= 0:
            return 0.0
        return self.round_evaluations / self.grid_round_evaluations


def run_search(
    specs: Iterable[ScenarioSpec],
    *,
    engine: "ExperimentEngine",
    metric: "PromotionMetric | str" = "final_accuracy",
    eta: int = 3,
    min_rounds: int | None = None,
    max_rounds: int | None = None,
) -> SearchResult:
    """Run the successive-halving schedule over ``specs`` and return the result.

    Each spec is one trial; its full fidelity is ``max_rounds`` (default: the
    largest ``num_rounds`` among the trials).  The engine's attached store is
    what makes promotions cheap (checkpoint resume) and the whole search
    interruptible — without one the schedule still produces identical
    rankings, but every rung recomputes from round zero.
    """
    trials = list(specs)
    if not trials:
        raise ScenarioError("search needs at least one scenario")
    names = [spec.name for spec in trials]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ScenarioError(
            "search trials must have unique scenario names; duplicated: "
            + ", ".join(duplicates)
        )
    promotion = resolve_metric(metric)
    for spec in trials:
        check_metric_supported(promotion, spec)
    full = int(max_rounds) if max_rounds is not None else max(s.num_rounds for s in trials)
    rungs = rung_schedule(full, eta=eta, min_rounds=min_rounds)

    evals_before = engine.round_evaluations
    computed_before = engine.runs_computed
    hits_before = engine.cache_hits
    order = {spec.name: index for index, spec in enumerate(trials)}
    sign = -1.0 if promotion.mode == "max" else 1.0

    active = list(trials)
    rung_results: list[RungResult] = []
    leaderboard: tuple[TrialScore, ...] = ()
    for level, rounds in enumerate(rungs):
        scored: list[TrialScore] = []
        for spec in active:
            result = engine.run_partial(spec, rounds, resume_from=rungs[:level])
            summary = summarize_history(result.history)
            scored.append(
                TrialScore(
                    name=spec.name,
                    spec=spec,
                    rounds=rounds,
                    score=promotion.score(summary),
                    summary=summary,
                )
            )
        # Deterministic ranking: metric order, ties broken by the trials'
        # declaration order — so a killed-and-resumed search promotes the
        # exact same set and finishes bit-identically.
        scored.sort(key=lambda t: (sign * t.score, order[t.name]))
        if rounds == rungs[-1]:
            promoted: tuple[str, ...] = ()
            leaderboard = tuple(scored)
        else:
            keep = max(1, len(scored) // int(eta))
            promoted = tuple(t.name for t in scored[:keep])
            promoted_set = set(promoted)
            active = [spec for spec in active if spec.name in promoted_set]
        rung_results.append(RungResult(rounds=rounds, trials=tuple(scored), promoted=promoted))

    return SearchResult(
        metric=promotion.name,
        mode=promotion.mode,
        eta=int(eta),
        rungs=rungs,
        rung_results=rung_results,
        leaderboard=leaderboard,
        best=leaderboard[0],
        round_evaluations=engine.round_evaluations - evals_before,
        grid_round_evaluations=len(trials) * full,
        runs_computed=engine.runs_computed - computed_before,
        cache_hits=engine.cache_hits - hits_before,
    )
