"""Tests for repro.utils.vectors: packing and distance primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.vectors import (
    flatten_arrays,
    pairwise_cosine_distance_in_place,
    pairwise_euclidean_distance,
    row_norms,
    unflatten_array,
)


def pairwise_cosine_distance(m):
    """The pairwise cosine distances of a private copy of ``m``."""
    own = np.array(m, dtype=np.float64)
    return pairwise_cosine_distance_in_place(own, row_norms(own))


class TestFlattenUnflatten:
    def test_roundtrip(self):
        arrays_in = [np.arange(6).reshape(2, 3), np.array([7.0, 8.0]), np.array(9.0)]
        flat = flatten_arrays(arrays_in)
        assert flat.shape == (9,)
        restored = unflatten_array(flat, [(2, 3), (2,), ()])
        for orig, back in zip(arrays_in, restored):
            np.testing.assert_allclose(np.asarray(orig, dtype=float), back)

    def test_empty_input(self):
        assert flatten_arrays([]).shape == (0,)

    def test_unflatten_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="cannot be unflattened"):
            unflatten_array(np.zeros(5), [(2, 3)])

    def test_unflatten_returns_copies(self):
        flat = np.arange(4, dtype=float)
        (out,) = unflatten_array(flat, [(4,)])
        out[0] = 100.0
        assert flat[0] == 0.0

    def test_flatten_preserves_order(self):
        flat = flatten_arrays([np.array([1.0, 2.0]), np.array([3.0])])
        np.testing.assert_allclose(flat, [1.0, 2.0, 3.0])


class TestPairwiseDistances:
    def test_cosine_matrix_diagonal_zero(self):
        m = np.random.default_rng(0).normal(size=(5, 8))
        d = pairwise_cosine_distance(m)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)

    def test_cosine_matrix_symmetric(self):
        m = np.random.default_rng(1).normal(size=(6, 4))
        d = pairwise_cosine_distance(m)
        np.testing.assert_allclose(d, d.T, atol=1e-12)

    def test_cosine_matrix_matches_pairwise_function(self):
        m = np.random.default_rng(2).normal(size=(4, 5))
        d = pairwise_cosine_distance(m)
        for i in range(4):
            for j in range(4):
                cos = m[i] @ m[j] / (np.linalg.norm(m[i]) * np.linalg.norm(m[j]))
                assert d[i, j] == pytest.approx(1.0 - cos, abs=1e-9)

    def test_cosine_matrix_zero_rows(self):
        m = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = pairwise_cosine_distance(m)
        assert d[0, 1] == pytest.approx(1.0)
        assert d[0, 0] == pytest.approx(0.0)

    def test_cosine_parallel_rows_are_at_zero(self):
        m = np.array([[1.0, -2.0, 0.5], [3.0, -6.0, 1.5]])
        assert pairwise_cosine_distance(m)[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_opposite_rows_are_at_two(self):
        m = np.array([[1.0, 2.0], [-1.0, -2.0]])
        assert pairwise_cosine_distance(m)[0, 1] == pytest.approx(2.0)

    def test_cosine_orthogonal_rows_are_at_one(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        assert pairwise_cosine_distance(m)[0, 1] == pytest.approx(1.0)

    def test_euclidean_matrix(self):
        m = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_euclidean_distance(m)
        assert d[0, 1] == pytest.approx(5.0)
        assert d[1, 0] == pytest.approx(5.0)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            pairwise_cosine_distance(np.zeros(3))
        with pytest.raises(ValueError):
            pairwise_euclidean_distance(np.zeros(3))


# -- property-based tests ----------------------------------------------------
_vec = arrays(np.float64, st.integers(2, 20), elements=st.floats(-100, 100))


@given(_vec)
@settings(max_examples=50, deadline=None)
def test_flatten_unflatten_roundtrip_property(v):
    flat = flatten_arrays([v])
    (restored,) = unflatten_array(flat, [v.shape])
    np.testing.assert_allclose(restored, v)


@given(st.integers(2, 8), st.integers(2, 10))
@settings(max_examples=30, deadline=None)
def test_pairwise_cosine_bounds_property(rows, cols):
    m = np.random.default_rng(rows * 31 + cols).normal(size=(rows, cols))
    d = pairwise_cosine_distance(m)
    assert np.all(d >= -1e-9)
    assert np.all(d <= 2.0 + 1e-9)


@given(st.integers(2, 8), st.integers(2, 10), st.floats(1e-3, 1e3))
@settings(max_examples=30, deadline=None)
def test_pairwise_cosine_scale_invariance_property(rows, cols, scale):
    """Scaling one row by a positive factor leaves every distance in place."""
    m = np.random.default_rng(rows * 17 + cols).normal(size=(rows, cols))
    scaled = m.copy()
    scaled[0] *= scale
    np.testing.assert_allclose(
        pairwise_cosine_distance(scaled), pairwise_cosine_distance(m), atol=1e-9
    )
