"""Flat-vector packing and distance helpers.

FAIR-BFL moves model state around as flat gradient vectors: clients upload
them, miners exchange them, Algorithm 2 clusters them, and Equation (1)
aggregates them.  This module provides the vectorised packing/unpacking and
distance primitives shared by all of those components.

All functions operate on ``numpy.ndarray`` of ``float64`` and avoid Python
loops over elements (see the repository HPC guides): distances over a batch of
vectors are computed with a single matrix product.  Only the ``*_in_place``
functions write to their argument: they overwrite a buffer the caller owns,
which is how one round's direction buffer is normalised without a second
copy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "flatten_arrays",
    "unflatten_array",
    "row_norms",
    "finite_rows",
    "finite_rows_of_norms",
    "pairwise_cosine_distance_in_place",
    "pairwise_euclidean_distance",
]

#: A norm, or a sum of contributions, below this counts as zero.
NEAR_ZERO = 1e-12

#: Rows :func:`row_norms` and :func:`finite_rows` read at a time: their one
#: temporary is this many rows, whatever the height of the matrix.
NORM_BLOCK_ROWS = 8


def flatten_arrays(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Concatenate a sequence of arrays into a single 1-D ``float64`` vector.

    Parameters
    ----------
    arrays:
        Arrays of arbitrary shapes (e.g. per-layer weights and biases).

    Returns
    -------
    numpy.ndarray
        1-D vector holding all elements in iteration order.
    """
    chunks = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
    if not chunks:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(chunks)


def unflatten_array(vector: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Split a flat vector back into arrays with the given ``shapes``.

    Raises
    ------
    ValueError
        If the vector length does not match the total number of elements
        implied by ``shapes``.
    """
    vector = np.asarray(vector, dtype=np.float64).ravel()
    sizes = [int(math.prod(s)) for s in shapes]
    total = sum(sizes)
    if vector.size != total:
        raise ValueError(
            f"vector of length {vector.size} cannot be unflattened into shapes "
            f"totalling {total} elements"
        )
    out: list[np.ndarray] = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(vector[offset : offset + size].reshape(shape).copy())
        offset += size
    return out


def _check_rows(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix of row vectors, got ndim={m.ndim}")
    return m


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """ℓ2 norm of every row, byte-equal to ``np.linalg.norm(matrix, axis=1)``.

    Runs numpy's own expression (square, add along the row, square root) on
    :data:`NORM_BLOCK_ROWS` rows at a time, so every row goes through the same
    IEEE operations in the same order while the temporary stays a few rows
    instead of two copies of the matrix.
    """
    m = _check_rows(matrix)
    norms = np.empty(m.shape[0])
    for start in range(0, m.shape[0], NORM_BLOCK_ROWS):
        block = m[start : start + NORM_BLOCK_ROWS]
        np.sqrt(np.add.reduce(block * block, axis=1), out=norms[start : start + NORM_BLOCK_ROWS])
    return norms


def finite_rows(matrix: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows whose every entry is finite (no NaN, no ±Inf).

    Tests :data:`NORM_BLOCK_ROWS` rows at a time, so its one temporary is a
    few rows of booleans instead of a ``(k, d)`` mask.
    """
    m = _check_rows(matrix)
    finite = np.empty(m.shape[0], dtype=bool)
    for start in range(0, m.shape[0], NORM_BLOCK_ROWS):
        block = m[start : start + NORM_BLOCK_ROWS]
        np.isfinite(block).all(axis=1, out=finite[start : start + NORM_BLOCK_ROWS])
    return finite


def finite_rows_of_norms(matrix: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """:func:`finite_rows` of ``matrix``, read from its :func:`row_norms` ``norms``.

    A finite norm proves a finite row: a NaN entry makes the sum of squares
    NaN and an infinite one makes it +Inf.  Not every finite row has a finite
    norm (entries of ±1e200 overflow their squares), so the entries are
    scanned only when some norm is NaN or ±Inf.
    """
    finite = np.isfinite(norms)
    return finite if finite.all() else finite_rows(matrix)


def compact_rows_in_place(m: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Move the rows ``rows`` (ascending, distinct) of the owned matrix ``m`` to its top.

    Row ``rows[j]`` is copied onto row ``j``; since ``j <= rows[j]`` and the
    sources ascend, no source is overwritten before it is read.  Returns the
    leading-rows view ``m[:len(rows)]``; the rows below it are left stale.
    """
    for dst, src in enumerate(rows):
        if dst != src:
            m[dst] = m[src]
    return m[: len(rows)]


def normalise_rows_in_place(m: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Divide every row of the owned ``float64`` matrix ``m`` by its ℓ2 norm.

    ``norms`` is :func:`row_norms` of ``m`` as handed over; the caller
    computes it once and may read it elsewhere too.  Rows with norm below
    :data:`NEAR_ZERO` are left as they are; the mask of those rows is
    returned.
    """
    m /= np.where(norms < NEAR_ZERO, 1.0, norms)[:, None]
    return norms < NEAR_ZERO


def pairwise_cosine_distance_in_place(m: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pairwise cosine-distance matrix for the rows of the owned ``float64`` matrix ``m``.

    Normalises ``m``'s rows in place by their ``norms`` (see
    :func:`normalise_rows_in_place`) and takes their Gram matrix, so it needs
    no copy of ``m``.
    """
    m = _check_rows(m)
    zero_mask = normalise_rows_in_place(m, norms)
    sims = np.clip(m @ m.T, -1.0, 1.0)
    # Rows that were (near-)zero vectors are defined as orthogonal to everything
    # but identical to themselves.
    if zero_mask.any():
        sims[zero_mask, :] = 0.0
        sims[:, zero_mask] = 0.0
        sims[np.ix_(zero_mask, zero_mask)] = 1.0
    np.fill_diagonal(sims, 1.0)
    return 1.0 - sims


def pairwise_euclidean_distance(matrix: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean-distance matrix for the rows of ``matrix``."""
    m = _check_rows(matrix)
    sq = np.sum(m * m, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (m @ m.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)
