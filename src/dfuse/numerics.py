"""Numerically stable dense-math primitives shared by the whole package.

Matrices are plain float64 row-major 2-D numpy arrays. Every product and
reduction here goes through non-optimized ``einsum``, never BLAS, so the
accumulation order is fixed left-to-right and results reproduce
bit-identically across runs and thread counts. Weight-fusion endpoint
comparisons depend on that.

The unchecked primitives (``softmax_pair``, ``row_norms``, ``scaled_dots``)
also take a stack of matrices with leading axes: einsum's ``...`` runs the
same inner loop over each slice, so every slice gets the bits of the 2-D call.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateEmbeddingError, UsageError

# Below this, a row is considered degenerate rather than normalizable.
ZERO_NORM_THRESHOLD = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array or raise ``UsageError``."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise UsageError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{name} contains non-finite entries")
    return arr


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # einsum keeps the summation order fixed; BLAS kernels may reorder.
    return np.einsum("ij,jk->ik", a, b, out=out, optimize=False)


def softmax_pair(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax and log-softmax of a float64 array, from one shift and exp.

    No input checks: for logits the caller built itself.
    """
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.einsum("...ij->...i", e)
    return e / total[..., None], shifted - np.log(total)[..., None]


def row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...ij,...ij->...i", m, m))


def l2_normalize_rows(m) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Raises ``DegenerateEmbeddingError`` if any row has norm below
    ``ZERO_NORM_THRESHOLD``; direction is otherwise preserved.
    """
    arr = as_matrix(m, "normalize input")
    norms = row_norms(arr)
    bad = np.flatnonzero(norms < ZERO_NORM_THRESHOLD)
    if bad.size:
        raise DegenerateEmbeddingError(
            f"row {int(bad[0])} has norm {norms[bad[0]]:.3e}, cannot normalize"
        )
    return arr / norms[:, None]


def similarity_matrix(a, b, sigma: float) -> np.ndarray:
    """Pairwise dot products between rows of ``a`` and ``b``, divided by ``sigma``."""
    am = as_matrix(a, "similarity lhs")
    bm = as_matrix(b, "similarity rhs")
    if am.shape[1] != bm.shape[1]:
        raise UsageError(
            f"similarity inputs disagree on feature dim: {am.shape[1]} vs {bm.shape[1]}"
        )
    if not np.isfinite(sigma) or sigma <= 0:
        raise UsageError(f"temperature must be a positive finite real, got {sigma}")
    return scaled_dots(am, bm, sigma)


def scaled_dots(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """Unchecked core of ``similarity_matrix``, for embeddings the caller just produced."""
    return np.einsum("...ik,...jk->...ij", a, b) / sigma
