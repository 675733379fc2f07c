"""Distance computations for the incentive mechanism.

Algorithm 2 scores each high-contributing client by the cosine distance
θ_i between its uploaded vector and the global update.  The helper below
computes all θ_i in one vectorised pass and never copies the matrix.
"""

from __future__ import annotations

import numpy as np

from repro.utils.vectors import NEAR_ZERO, row_norms

__all__ = ["cosine_distance_to_reference"]


def cosine_distance_to_reference(
    matrix: np.ndarray, reference: np.ndarray, norms: np.ndarray | None = None
) -> np.ndarray:
    """Cosine distance of every row of ``matrix`` to ``reference``.

    Parameters
    ----------
    matrix:
        ``(k, d)`` matrix of uploaded vectors.
    reference:
        ``(d,)`` reference vector (the global update ``w_{r+1}``).
    norms:
        :func:`~repro.utils.vectors.row_norms` of ``matrix``, when the caller
        has them already; computed here otherwise.

    Returns
    -------
    numpy.ndarray
        Length-``k`` vector of distances in ``[0, 2]``; rows or references that
        are (near-)zero vectors are treated as orthogonal (distance 1).
    """
    m = np.asarray(matrix, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64).ravel()
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix of row vectors, got ndim={m.ndim}")
    if m.shape[1] != r.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix has {m.shape[1]} columns, reference has "
            f"{r.shape[0]} elements"
        )
    if norms is None:
        norms = row_norms(m)
    ref_norm = np.linalg.norm(r)
    sims = np.zeros(m.shape[0], dtype=np.float64)
    if ref_norm >= NEAR_ZERO:
        # One mat-vec over the full stacked matrix (no fancy-index copy);
        # near-zero rows keep similarity 0 ("orthogonal") via the mask.
        valid = norms >= NEAR_ZERO
        dots = m @ r
        sims[valid] = np.clip(dots[valid] / (norms[valid] * ref_norm), -1.0, 1.0)
    return 1.0 - sims
