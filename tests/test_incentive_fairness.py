"""Tests for the reward-fairness metric."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FairBFLTrainer
from repro.runner.engine import ExperimentEngine
from repro.incentive.fairness import jains_index


class TestJainsIndex:
    def test_equal_allocation_is_one(self):
        assert jains_index([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_k(self):
        assert jains_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_one(self):
        assert jains_index([0.0, 0.0]) == 1.0

    @pytest.mark.parametrize("winners, k", [(1, 1), (1, 4), (2, 4), (3, 4), (5, 8)])
    def test_equal_winners_among_k_is_their_share(self, winners, k):
        assert jains_index([2.5] * winners + [0.0] * (k - winners)) == pytest.approx(
            winners / k
        )

    def test_accepts_arrays_and_iterables(self):
        assert jains_index(np.array([[1.0, 0.0], [0.0, 0.0]])) == pytest.approx(0.25)
        assert jains_index({"a": 1.0, "b": 1.0}.values()) == pytest.approx(1.0)
        assert jains_index(v for v in (1.0, 0.0)) == pytest.approx(0.5)

    def test_scale_invariant(self):
        x = [0.2, 0.5, 1.3]
        assert jains_index(x) == pytest.approx(jains_index([10 * v for v in x]))

    def test_tiny_equal_rewards_stay_at_one(self):
        # Squared, these underflow into subnormals and the index read 1.0417.
        assert jains_index([5.58e-162, 5.58e-162]) == 1.0
        assert jains_index([5e-324, 0.0]) == 0.5

    def test_huge_rewards_do_not_overflow(self):
        # Squared, these overflow: the index raised OverflowError.
        assert jains_index([1e200, 1e200]) == 1.0
        assert jains_index([1.7e308, 0.0, 0.0, 0.0]) == 0.25

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            jains_index([-1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite(self, bad):
        # Left unchecked, either one makes the index nan.
        with pytest.raises(ValueError, match="finite"):
            jains_index([bad, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            jains_index([])

    def test_on_real_run(self, tiny_spec):
        """The incentive mechanism spreads rewards across clients rather than to one winner."""
        spec = tiny_spec.with_overrides(num_rounds=3)
        trainer = FairBFLTrainer(ExperimentEngine().dataset_for(spec), spec)
        trainer.run()
        rewards = list(trainer.chain.total_rewards_by_client().values())
        assert sum(rewards) > 0
        assert jains_index(rewards) > 1.0 / len(rewards)
        assert max(rewards) / sum(rewards) < 1.0


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_fairness_metric_bounds_property(rewards):
    """Property: Jain's index lies in (0, 1] for any non-negative allocation."""
    j = jains_index(rewards)
    assert 0.0 < j <= 1.0 + 1e-12
    # Perfectly equal allocations maximise Jain.
    assert jains_index([1.0] * len(rewards)) >= j - 1e-9


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20), st.randoms())
@settings(max_examples=50, deadline=None)
def test_fairness_metric_order_invariance_property(rewards, random):
    """Property: Jain's index does not depend on who got which reward."""
    shuffled = list(rewards)
    random.shuffle(shuffled)
    assert jains_index(shuffled) == pytest.approx(jains_index(rewards), rel=1e-12)
