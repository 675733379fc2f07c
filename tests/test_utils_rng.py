"""Tests for repro.utils.rng: deterministic, independent random streams."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import derive_seed, new_rng


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
