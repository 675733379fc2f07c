"""Procedure IV keeps one direction buffer per round, with the same bytes.

Algorithm 2 reads θ from one owned ``W ∪ {w_{r+1}}`` buffer and then clusters
it in place; row norms reduce a few rows at a time and Equation (1) sums a
block of columns at a time, so no kernel builds a ``(k, d)`` temporary.  The
``_parent_*`` oracles below are the whole-array expressions those kernels
replaced.  The properties hold every rewritten kernel to them byte for byte —
on ``k`` in {1, 7, 8, 9, 51} (around the 8-row norm block), on ``d`` that is
no multiple of the 1024-column block (including one- and two-column tails),
and on matrices with zero and duplicate rows — and check that no public
function writes to its input, except the defense, which consumes the round's
matrix in place.  ``TestRoundMemory`` bounds the tracemalloc peak of a
``fig4_sync``-sized round (50 × 50 890), where the parent's copies
(directions, their ``vstack`` with the global direction, the unit rows) read
3.08× the gradient matrix, and the defense's copies (``matrix − previous``,
the clipped copy, Krum's survivors, ``previous + deltas``) 4.16×.
Without a defense the non-finite screen reads the gradient matrix's norms,
which Equation (1)'s θ reuse: the screen keeps exactly ``finite_rows``'s rows
(NaN, ±Inf and overflowing ±1e200 rows included), the screened round equals
the parent's, and ``TestRoundNormPasses`` counts two norm passes and no
separate scan where the parent took three and one.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.procedures import RoundContext, procedure_global_update
from repro.fl.aggregation import (
    AVERAGE_BLOCK_COLUMNS,
    contribution_weights,
    fair_aggregate,
    simple_average,
    weighted_average,
)
from repro.fl.robust import clip_rows, make_defense
from repro.incentive.clustering import DBSCAN, KMeans, OwnedRows, make_clusterer
from repro.incentive.contribution import identify_contributions
from repro.incentive.distance import cosine_distance_to_reference
from repro.incentive.rewards import apportion_rewards
from repro.incentive.strategies import DiscardStrategy, KeepAllStrategy
from repro.utils import vectors
from repro.utils.vectors import (
    NORM_BLOCK_ROWS,
    finite_rows,
    finite_rows_of_norms,
    pairwise_cosine_distance_in_place,
    row_norms,
)

pytestmark = pytest.mark.aggregation

MiB = 2**20
B = AVERAGE_BLOCK_COLUMNS
EPS = 1e-12


# -- the parent expressions ----------------------------------------------------
def _parent_weighted_average(m, w):
    return (w[:, None] / w.sum() * m).sum(axis=0)


def _parent_unit_rows(m):
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms < EPS, 1.0, norms), norms.ravel() < EPS


def _parent_pairwise_cosine_distance(m):
    unit, zero_mask = _parent_unit_rows(m)
    sims = np.clip(unit @ unit.T, -1.0, 1.0)
    if zero_mask.any():
        sims[zero_mask, :] = 0.0
        sims[:, zero_mask] = 0.0
        sims[np.ix_(zero_mask, zero_mask)] = 1.0
    np.fill_diagonal(sims, 1.0)
    return 1.0 - sims


def _parent_cosine_distance_to_reference(m, r):
    row_norms_ = np.linalg.norm(m, axis=1)
    ref_norm = np.linalg.norm(r)
    sims = np.zeros(m.shape[0])
    if ref_norm >= EPS:
        valid = row_norms_ >= EPS
        dots = m @ r
        sims[valid] = np.clip(dots[valid] / (row_norms_[valid] * ref_norm), -1.0, 1.0)
    return 1.0 - sims


def _parent_global_update(matrix, ids, previous, clusterer, strategy, defense):
    """Procedure IV as the parent wrote it: one fresh array per step."""
    if defense is not None:
        outcome = defense.apply(matrix - previous[None, :])
        matrix = previous[None, :] + outcome.deltas
        ids = [ids[i] for i in outcome.kept_indices]
        base = previous + outcome.aggregate
    else:
        base = simple_average(matrix)
    report = identify_contributions(
        matrix - previous[None, :], ids, base - previous, clusterer, 1.0
    )
    outcome = strategy.apply(
        matrix, ids, report, _parent_cosine_distance_to_reference(matrix, base)
    )
    if defense is not None and defense.replaces_aggregation:
        return report, base
    return report, outcome.global_update


def _parent_screened_global_update(matrix, ids, previous, clusterer, strategy):
    """Procedure IV without a defense as the parent screened it: ``finite_rows``
    on the matrix, the survivors copied out, and every norm recomputed below."""
    rows = np.flatnonzero(finite_rows(matrix))
    kept = [ids[i] for i in rows]
    if not kept:
        return kept, None, previous
    return kept, *_parent_global_update(matrix[rows], kept, previous, clusterer, strategy, None)


def _rewards(report):
    return [(e.client_id, e.reward) for e in report.reward_list]


# -- inputs ---------------------------------------------------------------------
@st.composite
def matrices(draw, widths=(1, 2, 3, 7, B - 1, B + 1, B + 2, 2 * B + 1, 2 * B + 3)):
    k = draw(st.sampled_from((1, NORM_BLOCK_ROWS - 1, NORM_BLOCK_ROWS, NORM_BLOCK_ROWS + 1, 51)))
    d = draw(st.sampled_from(widths))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(scale=scale, size=(k, d))
    for _ in range(draw(st.integers(0, 3))):
        m[draw(st.integers(0, k - 1))] = m[draw(st.integers(0, k - 1))]
    for row in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        m[row] = 0.0
    return m


def _weights(draw, k):
    w = np.asarray(draw(st.lists(st.sampled_from((0.0, 1e-9, 0.3, 1.0, 2.0)), min_size=k, max_size=k)))
    if w.sum() <= 0:
        w[draw(st.integers(0, k - 1))] = 1.0
    return w


# -- kernels against the parent -------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(m=matrices())
def test_row_norms_equal_linalg_norm(m):
    before = m.tobytes()
    assert row_norms(m).tobytes() == np.linalg.norm(m, axis=1).tobytes()
    assert m.tobytes() == before


@settings(max_examples=80, deadline=None)
@given(m=matrices(), data=st.data())
def test_weighted_average_and_fair_aggregate_equal_parent(m, data):
    w = _weights(data.draw, m.shape[0])
    before = m.tobytes()
    assert weighted_average(m, w).tobytes() == _parent_weighted_average(m, w).tobytes()
    expected = _parent_weighted_average(m, contribution_weights(w))
    assert fair_aggregate(m, w).tobytes() == expected.tobytes()
    assert m.tobytes() == before


@settings(max_examples=80, deadline=None)
@given(m=matrices())
def test_pairwise_cosine_distance_equals_parent(m):
    before = m.tobytes()
    got = pairwise_cosine_distance_in_place(m.copy(), row_norms(m))
    assert got.tobytes() == _parent_pairwise_cosine_distance(m).tobytes()
    labels = DBSCAN(eps=0.7, min_samples=2).fit(m).labels
    assert m.tobytes() == before
    # A handed-over buffer is clustered in place, to the same labels.
    assert DBSCAN(eps=0.7, min_samples=2).fit(OwnedRows(m.copy())).labels.tobytes() == labels.tobytes()


@settings(max_examples=80, deadline=None)
@given(m=matrices(), reference=st.sampled_from(("row", "mean", "zero", "random")))
def test_cosine_distance_to_reference_equals_parent(m, reference):
    r = {
        "row": m[-1].copy(),
        "mean": m.mean(axis=0),
        "zero": np.zeros(m.shape[1]),
        "random": np.random.default_rng(1).normal(size=m.shape[1]),
    }[reference]
    before = m.tobytes()
    got = cosine_distance_to_reference(m, r)
    assert got.tobytes() == _parent_cosine_distance_to_reference(m, r).tobytes()
    assert m.tobytes() == before


@settings(max_examples=60, deadline=None)
@given(m=matrices(), clusters=st.integers(1, 4), seed=st.integers(0, 3))
def test_kmeans_cosine_labels_equal_parent(m, clusters, seed):
    # The parent normalised into a fresh array and then ran the Euclidean
    # Lloyd iterations on it.
    before = m.tobytes()
    got = KMeans(clusters, metric="cosine", seed=seed).fit(m)
    unit, _ = _parent_unit_rows(m)
    want = KMeans(clusters, metric="euclidean", seed=seed).fit(unit)
    assert got.labels.tobytes() == want.labels.tobytes()
    assert m.tobytes() == before
    owned = KMeans(clusters, metric="cosine", seed=seed).fit(OwnedRows(m.copy()))
    assert owned.labels.tobytes() == want.labels.tobytes()


@settings(max_examples=40, deadline=None)
@given(m=matrices())
def test_norm_clip_equals_parent(m):
    before = m.tobytes()
    norms = np.linalg.norm(m, axis=1)
    max_norm = float(np.median(norms))
    want = m.copy()
    over = norms > max_norm
    if max_norm > 0.0:
        want[over] *= (max_norm / norms[over])[:, None]
    # Clipping consumes its input: each call gets its own copy of m.
    owned = m.copy()
    got, count = clip_rows(owned, max_norm)
    assert got is owned
    assert got.tobytes() == want.tobytes()
    assert count == (int(np.count_nonzero(over)) if max_norm > 0.0 else 0)
    assert make_defense("norm_clip").apply(m.copy()).deltas.tobytes() == want.tobytes()
    assert m.tobytes() == before


clusterers = st.builds(
    make_clusterer,
    st.sampled_from(("dbscan", "kmeans")),
    eps=st.sampled_from((0.3, 0.7, 1.2)),
    min_samples=st.sampled_from((1, 3)),
    num_clusters=st.sampled_from((1, 2, 3)),
)


@settings(max_examples=60, deadline=None)
@given(m=matrices(), clusterer=clusterers, reference=st.sampled_from(("mean", "zero", "row")))
def test_identify_contributions_equals_parent(m, clusterer, reference):
    k = m.shape[0]
    ids = list(range(100, 100 + 3 * k, 3))
    g = {"mean": m.mean(axis=0), "zero": np.zeros(m.shape[1]), "row": m[0].copy()}[reference]
    before = (m.tobytes(), g.tobytes())
    report = identify_contributions(m, ids, g, clusterer, 1.0)
    assert (m.tobytes(), g.tobytes()) == before
    # The parent clustered a vstack copy and read θ from the input itself.
    stacked = np.vstack([m, g[None, :]])
    want = clusterer.fit(stacked)
    assert report.clustering.labels.tobytes() == want.labels.tobytes()
    assert sorted(report.high_contributors + report.low_contributors) == ids
    thetas = _parent_cosine_distance_to_reference(m, g)
    high = np.isin(ids, report.high_contributors)
    want_rewards = apportion_rewards(report.high_contributors, thetas[high], base_reward=1.0)
    assert _rewards(report) == [(e.client_id, e.reward) for e in want_rewards]


@settings(max_examples=40, deadline=None)
@given(
    m=matrices(widths=(3, B + 1)),
    strategy=st.sampled_from((KeepAllStrategy(), DiscardStrategy())),
    defense=st.sampled_from((None, "norm_clip+multi_krum", "krum", "median")),
    clusterer=clusterers,
)
def test_round_path_equals_parent_procedure(m, strategy, defense, clusterer):
    previous = np.random.default_rng(7).normal(size=m.shape[1])
    matrix = previous[None, :] + m
    ids = list(range(m.shape[0]))
    pipeline = None if defense is None else make_defense(defense)
    want_report, want_global = _parent_global_update(matrix, ids, previous, clusterer, strategy, pipeline)
    ctx = RoundContext(
        round_index=0, global_parameters=previous, gradient_matrix=matrix.copy(),
        gradient_client_ids=list(ids),
    )
    procedure_global_update(
        ctx, clusterer=clusterer, base_reward=1.0, strategy=strategy, defense=pipeline
    )
    assert ctx.new_global_parameters.tobytes() == want_global.tobytes()
    assert ctx.contribution_report.clustering.labels.tobytes() == want_report.clustering.labels.tobytes()
    assert _rewards(ctx.contribution_report) == _rewards(want_report)


# -- the norm-based screen -------------------------------------------------------
@st.composite
def screened_matrices(draw):
    """:func:`matrices` with some rows poisoned: a NaN or ±Inf entry, or finite
    entries of ±1e200 whose squares overflow (a finite row of infinite norm)."""
    m = draw(matrices(widths=(1, 3, B + 1)))
    for row in draw(st.lists(st.integers(0, m.shape[0] - 1), max_size=4)):
        kind = draw(st.sampled_from(("nan", "inf", "-inf", "huge")))
        if kind == "huge":
            signs = np.where(np.arange(m.shape[1]) % 2, -1.0, 1.0)
            m[row] = 1e200 * signs
        else:
            m[row, draw(st.integers(0, m.shape[1] - 1))] = float(kind)
    return m


@settings(max_examples=80, deadline=None)
@given(m=screened_matrices())
def test_norm_screen_keeps_the_rows_finite_rows_keeps(m):
    with np.errstate(over="ignore", invalid="ignore"):
        norms = row_norms(m)
    got = finite_rows_of_norms(m, norms)
    assert got.tobytes() == finite_rows(m).tobytes()


class _Recording(KeepAllStrategy):
    """Keep-all, remembering the ids and Equation (1)'s θ it was given."""

    def apply(self, updates, client_ids, report, thetas, *, use_fair_aggregation=True):
        self.seen = (list(client_ids), np.array(thetas))
        return super().apply(
            updates, client_ids, report, thetas, use_fair_aggregation=use_fair_aggregation
        )


@settings(max_examples=60, deadline=None)
@given(m=screened_matrices(), clusterer=clusterers)
def test_screened_round_equals_parent_procedure(m, clusterer):
    previous = np.random.default_rng(7).normal(size=m.shape[1])
    ids = list(range(10, 10 + m.shape[0]))
    matrix = previous[None, :] + m
    want, got = _Recording(), _Recording()
    ctx = RoundContext(
        round_index=0, global_parameters=previous, gradient_matrix=matrix.copy(),
        gradient_client_ids=list(ids),
    )
    with np.errstate(all="ignore"):
        kept, want_report, want_global = _parent_screened_global_update(
            matrix, ids, previous, clusterer, want
        )
        procedure_global_update(ctx, clusterer=clusterer, base_reward=1.0, strategy=got)
    assert ctx.gradient_client_ids == kept
    assert ctx.defense_rejected_ids == [cid for cid in ids if cid not in kept]
    assert ctx.new_global_parameters.tobytes() == want_global.tobytes()
    if kept:
        assert got.seen[0] == want.seen[0] == kept
        assert got.seen[1].tobytes() == want.seen[1].tobytes()
        # Bytes, not ==: an overflowing row's reward is NaN on both sides.
        want_rewards = np.array(_rewards(want_report), dtype=np.float64)
        assert np.array(_rewards(ctx.contribution_report)).tobytes() == want_rewards.tobytes()


# -- round memory ---------------------------------------------------------------
def _fig4_sync_round(seed=0, k=50, d=50_890, flipped=10):
    """A 50-client round over the mlp's 50 890 parameters: most clients share a
    direction, ``flipped`` of them upload its negation (so discard drops them)."""
    rng = np.random.default_rng(seed)
    previous = rng.normal(size=d)
    direction = rng.normal(size=d)
    signs = np.where(np.arange(k) < k - flipped, 1.0, -1.0)
    matrix = previous + signs[:, None] * direction + 0.5 * rng.normal(size=(k, d))
    return previous, matrix


class TestRoundMemory:
    """Deterministic round memory bounds (numpy reports its buffers to tracemalloc)."""

    @pytest.mark.parametrize(
        "strategy, defense, bound",
        [("keep", None, 1.3), ("discard", None, 1.3), ("keep", "norm_clip+multi_krum", 1.3)],
    )
    def test_global_update_peak_is_bounded_by_the_gradient_matrix(self, strategy, defense, bound):
        previous, matrix = _fig4_sync_round()
        ctx = RoundContext(
            round_index=0, global_parameters=previous, gradient_matrix=matrix,
            gradient_client_ids=list(range(matrix.shape[0])),
        )
        pipeline = None if defense is None else make_defense(defense)
        strategy_ = KeepAllStrategy() if strategy == "keep" else DiscardStrategy()
        tracemalloc.start()
        try:
            procedure_global_update(
                ctx,
                clusterer=DBSCAN(eps=0.7),
                base_reward=1.0,
                strategy=strategy_,
                defense=pipeline,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if strategy == "discard":
            assert len(ctx.strategy_outcome.discarded_client_ids) == 10
        ratio = peak / matrix.nbytes
        print(
            f"Procedure IV {strategy}/{defense or 'no defense'}: peak {peak / MiB:.1f} MiB "
            f"for a {matrix.nbytes / MiB:.1f} MiB matrix ({ratio:.2f}x, bound {bound}x)"
        )
        assert ratio <= bound


class TestRoundNormPasses:
    """How often a fig4_sync-sized round reads its buffers for norms or a screen."""

    @staticmethod
    def _counting(monkeypatch, name):
        """Count calls of ``repro.utils.vectors.<name>`` through every module bound to it."""
        original, calls = getattr(vectors, name), []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("repro") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("strategy", ["keep", "discard"])
    def test_a_round_without_a_defense_takes_two_norm_passes_and_no_screen(
        self, monkeypatch, strategy
    ):
        previous, matrix = _fig4_sync_round()
        norms = self._counting(monkeypatch, "row_norms")
        screens = self._counting(monkeypatch, "finite_rows")
        ctx = RoundContext(
            round_index=0, global_parameters=previous, gradient_matrix=matrix,
            gradient_client_ids=list(range(matrix.shape[0])),
        )
        procedure_global_update(
            ctx,
            clusterer=DBSCAN(eps=0.7),
            base_reward=1.0,
            strategy=KeepAllStrategy() if strategy == "keep" else DiscardStrategy(),
        )
        # The gradient matrix once (screen and Equation (1)'s θ), and the
        # direction buffer W ∪ {w_{r+1}} once (Algorithm 2's θ and DBSCAN).
        assert norms == [(50, 50_890), (51, 50_890)]
        assert screens == []
