"""Dense SPD linear algebra for Gaussian proposals and targets.

A Gaussian is held as plain arrays: a mean, a covariance and the
covariance's Cholesky factor ``(lower, log_det_half)`` from
:func:`cholesky`, for one matrix or a stack of them. The factor is
computed once per parameter update and reused for both sampling and
density evaluation, so a draw costs O(d^2) and a log-density costs one
triangular solve.

All Gaussian log-densities go through one kernel,
:func:`log_gaussian_pdf_stacked`: a forward substitution over rows of
residuals, one ``np.vecdot`` per coordinate after the first.
``np.vecdot`` reduces each row with the same BLAS dot as ``a @ b`` on
1-D arrays (``np.einsum`` and a batched triangular solve do not), so
the value at a point does not depend on how many other points, or which
factors, share the call; a single point is the one-row case.
"""

from __future__ import annotations

import math
import numpy as np

LOG_TWO_PI = math.log(2.0 * math.pi)

# Asymmetry beyond this is not rounding noise: an accumulator upstream
# was corrupted, or a covariance was given wrong.
SYMMETRY_ATOL = 1e-12

# A pivot at or below this cannot be distinguished from a singular
# matrix in double precision.
PIVOT_FLOOR = 1e-300


class NotPositiveDefinite(ValueError):
    """Cholesky pivot fell at or below the pivot floor."""


def check_symmetric(a: np.ndarray) -> None:
    """Raise ValueError unless every matrix of ``a`` (..., d, d) is
    symmetric to within ``SYMMETRY_ATOL`` absolute. :func:`cholesky`
    reads only the lower triangle, so it cannot tell by itself."""
    asym = np.abs(a - a.swapaxes(-1, -2)).max() if a.size else 0.0
    if asym > SYMMETRY_ATOL:
        raise ValueError(f"matrix is asymmetric by {asym:.3e} (tolerance {SYMMETRY_ATOL:.0e})")


def check_sigma(name: str, sigma: float) -> None:
    """Raise ValueError unless ``sigma**2 * I`` passes :func:`cholesky`:
    ``sigma`` positive and finite, and its square finite and above
    ``PIVOT_FLOOR``."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {sigma}")
    if not PIVOT_FLOOR < sigma * sigma < math.inf:
        raise ValueError(
            f"{name} must be positive and finite, with a finite square above {PIVOT_FLOOR:.0e}, got {sigma}"
        )


def regularize(scatter: np.ndarray, epsilon: float) -> np.ndarray:
    """Return ``scatter + epsilon * I`` for one matrix or a stack (..., d, d).

    Every matrix must be square and symmetric (:func:`check_symmetric`);
    the result is positive definite whenever ``scatter`` is PSD and
    ``epsilon`` > 0.
    """
    a = np.asarray(scatter, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    check_symmetric(a)
    return a + epsilon * np.eye(a.shape[-1])


def cholesky(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor one symmetric positive definite matrix or a stack (..., d, d).

    Returns ``(lower, log_det_half)``: the lower-triangular factors L
    (..., d, d) with L @ L.T equal to the source matrices, and half the
    log-determinant of each, the sum of the logs of L's diagonal, with
    shape (...); for one matrix that is a float. Every matrix is
    factored column by column with the same arithmetic, so a matrix gets
    the same bits in a stack as alone; one matrix is the one-row case.
    Raises :class:`NotPositiveDefinite` if any pivot is at or below
    ``PIVOT_FLOOR``, which signals a missing or too-small regularizer.
    """
    a = np.asarray(cov, dtype=float)
    d = a.shape[-1]
    stack = a.reshape(-1, d, d)
    lower = np.zeros(stack.shape)
    for j in range(d):
        # Column 0 has no products to subtract (x - 0.0 is x). After it,
        # np.vecdot reduces like the 1-D ``row @ row`` of one matrix, and
        # the column update needs a stacked matmul to match its 2-D
        # ``rows @ row``.
        row = lower[:, j, :j]
        pivot = stack[:, j, j] - np.vecdot(row, row) if j else stack[:, 0, 0]
        # min() propagates NaN, which fails the test like a small pivot.
        if not pivot.min() > PIVOT_FLOOR:
            bad = pivot[np.argmin(pivot > PIVOT_FLOOR)]
            raise NotPositiveDefinite(f"pivot {bad:.3e} at column {j} (floor {PIVOT_FLOOR:.0e})")
        ljj = np.sqrt(pivot)
        lower[:, j, j] = ljj
        if j + 1 < d:
            column = stack[:, j + 1 :, j]
            if j:
                column = column - (lower[:, j + 1 :, :j] @ row[..., None])[..., 0]
            lower[:, j + 1 :, j] = column / ljj[:, None]
    log_det_half = np.log(lower.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
    # Indexing with () turns the 0-d result of one matrix into a scalar.
    return lower.reshape(a.shape), log_det_half.reshape(a.shape[:-2])[()]


def log_gaussian_pdf_stacked(diff: np.ndarray, lower: np.ndarray, log_det_half) -> np.ndarray:
    """Normalized Gaussian log-density of residuals ``diff = x - mean``.

    ``diff`` has shape (..., d); ``lower`` (..., d, d) and
    ``log_det_half`` (...) broadcast against its leading axes, so each
    residual row may have its own factor. Solves ``lower @ w = diff`` by
    forward substitution and returns ``-d/2 log(2 pi) - log_det_half -
    w.w/2``. Every row's value is bit-identical to the value that row
    gets alone.
    """
    d = diff.shape[-1]
    w = np.empty(diff.shape)
    # Column 0 has no products to subtract (x - 0.0 is x), as in cholesky.
    w[..., 0] = diff[..., 0] / lower[..., 0, 0]
    for i in range(1, d):
        w[..., i] = (diff[..., i] - np.vecdot(w[..., :i], lower[..., i, :i])) / lower[..., i, i]
    return -0.5 * d * LOG_TWO_PI - log_det_half - 0.5 * np.vecdot(w, w)

