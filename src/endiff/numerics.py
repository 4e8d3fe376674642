"""Dense float64 helpers: row normalization, coupling Laplacians and their
spectral bracket, and central-difference gradients over a stack of bumped
copies.

All public operations work on 2-D numpy arrays of float64. The bracket is
the extreme singular values from LAPACK's SVD (`numpy.linalg.svd`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError

# Guard for row normalizations; layer-norm uses its own variance guard.
NORM_EPS = 1e-12
LAYER_NORM_EPS = 1e-5


def as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def row_l2_normalize(m: np.ndarray, eps: float = NORM_EPS) -> np.ndarray:
    """Divide each row by max(its L2 norm, eps)."""
    if eps <= 0:
        raise ContractError("eps must be positive")
    m = as_matrix(m)
    norms = np.sqrt(np.sum(m * m, axis=1, keepdims=True))
    return m / np.maximum(norms, eps)


def row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(as_matrix(m) ** 2, axis=1))


def laplacian(s: np.ndarray) -> np.ndarray:
    """Degree-minus-coupling Laplacian, with the degree diagonal from row sums of s."""
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"Laplacian needs a square matrix, got {s.shape}")
    return np.diag(s.sum(axis=1)) - s


@dataclass(frozen=True)
class SpectralBracket:
    """Largest and smallest singular values of a Laplacian."""

    lambda_max: float
    lambda_min: float

    def __post_init__(self):
        if not (0.0 <= self.lambda_min <= self.lambda_max + 1e-12):
            raise ContractError(
                f"invalid bracket ({self.lambda_max}, {self.lambda_min})"
            )


def laplacian_spectral_bracket(s: np.ndarray) -> SpectralBracket:
    """Bracket (largest, smallest singular value) of the Laplacian of s."""
    sv = np.linalg.svd(laplacian(s), compute_uv=False)
    return SpectralBracket(lambda_max=float(sv[0]), lambda_min=float(sv[-1]))


def finite_diff_grad(fn, at: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    With m = at.size, `fn` gets one (2m, r, c) stack of copies of `at`:
    copy k has its k-th entry (row-major) raised by h and copy m + k has it
    lowered by h. It returns the 2m function values, in stack order.
    """
    if h <= 0:
        raise ContractError("h must be positive")
    at = as_matrix(at)
    m = at.size
    flat = at.ravel()
    stack = np.tile(flat, (2, m, 1))
    k = np.arange(m)
    stack[0, k, k] = flat + h
    stack[1, k, k] = flat - h
    values = np.asarray(fn(stack.reshape((2 * m,) + at.shape)), dtype=np.float64)
    if values.shape != (2 * m,):
        raise DimensionError(
            f"finite-difference function must return {2 * m} values, "
            f"got shape {values.shape}")
    return ((values[:m] - values[m:]) / (2.0 * h)).reshape(at.shape)
