"""Tests for repro.utils.rng: deterministic, independent random streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import RngRegistry, derive_seed, new_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "client", 3) == derive_seed(42, "client", 3)

    def test_different_labels_differ(self):
        assert derive_seed(42, "client", 3) != derive_seed(42, "client", 4)

    def test_different_base_seeds_differ(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_label_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_result_is_non_negative_63_bit(self):
        for i in range(50):
            s = derive_seed(i, "label", i * 7)
            assert 0 <= s < (1 << 63)

    def test_accepts_arbitrary_label_types(self):
        assert isinstance(derive_seed(0, ("tuple", 1), 2.5, None), int)


class TestNewRng:
    def test_same_labels_same_stream(self):
        a = new_rng(9, "x").random(5)
        b = new_rng(9, "x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_labels_independent(self):
        a = new_rng(9, "x").random(5)
        b = new_rng(9, "y").random(5)
        assert not np.allclose(a, b)


class TestRngRegistry:
    def test_memoises_streams(self):
        reg = RngRegistry(seed=5)
        assert reg.get("client", 0) is reg.get("client", 0)

    def test_distinct_names_distinct_streams(self):
        reg = RngRegistry(seed=5)
        assert reg.get("a") is not reg.get("b")

    def test_len_counts_streams(self):
        reg = RngRegistry(seed=5)
        reg.get("a")
        reg.get("b")
        reg.get("a")
        assert len(reg) == 2

    def test_reset_clears(self):
        reg = RngRegistry(seed=5)
        first = reg.get("a").random()
        reg.reset()
        assert len(reg) == 0
        assert reg.get("a").random() == pytest.approx(first)

    def test_fork_gives_independent_registry(self):
        reg = RngRegistry(seed=5)
        child = reg.fork("worker", 1)
        assert child.seed != reg.seed
        assert child.get("a").random() != pytest.approx(reg.get("a").random())

    def test_registry_reproducible_across_instances(self):
        a = RngRegistry(seed=11).get("x").random(4)
        b = RngRegistry(seed=11).get("x").random(4)
        np.testing.assert_array_equal(a, b)
