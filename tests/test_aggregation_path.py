"""Byte-parity properties of the gradient-set -> global-update path.

Every defense is one :class:`~repro.fl.robust.DefensePipeline` whose filter
stages clip or select rows and which aggregates the survivors once, and both
Algorithm 2 strategies share one keep-mask aggregation.  The oracles below are
the per-stage composition and the strategy formulas those replaced, written
out here (on their own copies: the pipeline consumes its input) so the
pipeline and the strategies are held to them byte for byte:
on every chain :func:`~repro.fl.robust.make_defense` accepts, on round sizes
``k`` in {1, 2, 3, 7, 25}, and on matrices with duplicate and all-zero rows.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import fair_aggregate, simple_average
from repro.fl.robust import (
    coordinate_median,
    krum_scores,
    make_defense,
    trimmed_mean,
)
from repro.incentive.strategies import DiscardStrategy, KeepAllStrategy

pytestmark = pytest.mark.aggregation

FILTERS = ("norm_clip", "krum", "multi_krum")
AGGREGATORS = ("median", "trimmed_mean")
FRACTIONS = (0.0, 0.1, 0.2, 0.34, 0.49)


def _oracle_stage(name: str, fraction: float, m: np.ndarray):
    """One stage applied on its own: (rows, kept, aggregate, clipped)."""
    k = m.shape[0]
    everyone = list(range(k))
    if name == "norm_clip":
        # The pipeline's clip_rows works in place; the oracle clips its own copy.
        norms = np.linalg.norm(m, axis=1)
        max_norm = 1.0 * float(np.median(norms))
        over = norms > max_norm if max_norm > 0.0 else np.zeros(k, dtype=bool)
        clipped = m.copy()
        clipped[over] *= (max_norm / norms[over])[:, None]
        return clipped, everyone, clipped.mean(axis=0), int(np.count_nonzero(over))
    if name in ("krum", "multi_krum"):
        attackers = int(np.ceil(fraction * k))
        scores = krum_scores(m, attackers)
        select = max(1, k - attackers) if name == "multi_krum" else 1
        kept = sorted(int(i) for i in np.argsort(scores, kind="stable")[:select])
        survivors = m[kept]
        return survivors, kept, survivors.mean(axis=0), 0
    if name == "median":
        return m, everyone, coordinate_median(m), 0
    return m, everyone, trimmed_mean(m, int(np.ceil(fraction * k))), 0


def _oracle_pipeline(chain: str, fraction: float, m: np.ndarray):
    """Stages composed left to right; the last stage's aggregate wins."""
    kept = list(range(m.shape[0]))
    clipped = 0
    aggregate = None
    for name in chain.split("+"):
        m, stage_kept, aggregate, count = _oracle_stage(name, fraction, m)
        kept = [kept[i] for i in stage_kept]
        clipped += count
    return m, tuple(kept), aggregate, clipped


@st.composite
def direction_matrices(draw):
    k = draw(st.sampled_from((1, 2, 3, 7, 25)))
    d = draw(st.integers(1, 6))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(scale=scale, size=(k, d))
    for _ in range(draw(st.integers(0, k))):
        m[draw(st.integers(0, k - 1))] = m[draw(st.integers(0, k - 1))]
    for row in draw(st.lists(st.integers(0, k - 1), max_size=k)):
        m[row] = 0.0
    if draw(st.booleans()) and draw(st.booleans()):
        m[:] = 0.0
    return m


chains = st.builds(
    lambda filters, last: "+".join([*filters, *last]),
    st.lists(st.sampled_from(FILTERS), max_size=2),
    st.sampled_from(((),) + tuple((name,) for name in AGGREGATORS)),
).filter(bool)


@settings(max_examples=300, deadline=None)
@given(m=direction_matrices(), chain=chains, fraction=st.sampled_from(FRACTIONS))
def test_pipeline_equals_per_stage_composition(m, chain, fraction):
    consumed = m.copy()
    outcome = make_defense(chain, attacker_fraction=fraction).apply(consumed)
    rows, kept, aggregate, clipped = _oracle_pipeline(chain, fraction, m)
    assert outcome.aggregate.tobytes() == aggregate.tobytes()
    assert outcome.deltas.tobytes() == rows.tobytes()
    assert outcome.kept_indices == kept
    assert outcome.clipped == clipped
    # Every pipeline keeps a row, so the async stale screen never empties.
    assert len(outcome.kept_indices) >= 1
    # The survivors are the input's own leading rows: no copy of the round.
    assert np.shares_memory(outcome.deltas, consumed)


def _oracle_aggregate(m, thetas, fair):
    if not fair or thetas.sum() <= 0:
        return simple_average(m)
    return fair_aggregate(m, thetas)


@st.composite
def gradient_sets(draw):
    m = draw(direction_matrices())
    k = m.shape[0]
    ids = draw(st.lists(st.integers(0, 500), min_size=k, max_size=k, unique=True))
    thetas = np.asarray(
        draw(st.lists(st.sampled_from((0.0, 1e-9, 0.3, 1.0, 2.0)), min_size=k, max_size=k))
    )
    high = draw(st.lists(st.sampled_from(ids), max_size=k, unique=True))
    return m, ids, thetas, SimpleNamespace(high_contributors=high)


@settings(max_examples=200, deadline=None)
@given(case=gradient_sets(), fair=st.booleans())
def test_strategies_equal_their_formulas(case, fair):
    m, ids, thetas, report = case
    keep = KeepAllStrategy().apply(m, ids, report, thetas, use_fair_aggregation=fair)
    assert keep.global_update.tobytes() == _oracle_aggregate(m, thetas, fair).tobytes()
    assert keep.discarded_client_ids == []

    discard = DiscardStrategy().apply(m, ids, report, thetas, use_fair_aggregation=fair)
    mask = np.array([cid in set(report.high_contributors) for cid in ids])
    if not mask.any():
        mask[:] = True  # every client low: keep them all
    expected = _oracle_aggregate(m[mask], thetas[mask], fair)
    assert discard.global_update.tobytes() == expected.tobytes()
    assert discard.discarded_client_ids == [cid for cid, k in zip(ids, mask) if not k]


@pytest.mark.parametrize("fair", [True, False])
def test_keep_all_does_not_copy_the_matrix(fair):
    m = np.random.default_rng(0).normal(size=(100, 50_000))
    thetas = np.linspace(0.1, 1.0, 100)
    ids = list(range(100))
    report = SimpleNamespace(high_contributors=ids)
    tracemalloc.start()
    try:
        KeepAllStrategy().apply(m, ids, report, thetas, use_fair_aggregation=fair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * m.nbytes
