"""Dense float64 helpers: row normalization, coupling Laplacians and their
largest singular value, and central-difference gradients over a stack of
bumped copies.

The Laplacian and its lambda_max work on 2-D numpy arrays of float64. The
row helpers take a matrix or a stack of them over leading axes (`as_stack`),
and each row dot or squared row norm is one einsum (`row_dots`).
`finite_diff_grad` takes an array of any rank. lambda_max is the largest
singular value from LAPACK's SVD (`numpy.linalg.svd`).
"""

from __future__ import annotations

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


def as_stack(x) -> np.ndarray:
    """x as float64 with rows along its last two axes: an N x d matrix, or a
    stack of them over leading axes."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of them, got ndim={m.ndim}")
    return m


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i of each pair of rows along the last axis, (...,); with
    a = b the squared row norms."""
    return np.einsum("...ij,...ij->...i", a, b)


def row_l2_divisors(m: np.ndarray) -> np.ndarray:
    """max(L2 norm, NORM_EPS) of each row of m, as a column: what
    `row_l2_normalize` divides by, and the attention-head tape primitives
    their Q and K rows. Rows run along the last axis; leading axes are a
    batch."""
    return np.maximum(np.sqrt(row_dots(m, m))[..., None], NORM_EPS)


def row_l2_normalize(m: np.ndarray) -> np.ndarray:
    """Divide each row by max(its L2 norm, NORM_EPS), of a matrix or a stack."""
    m = as_stack(m)
    return m / row_l2_divisors(m)


def row_norms(m: np.ndarray) -> np.ndarray:
    m = as_stack(m)
    return np.sqrt(row_dots(m, m))


def laplacian(s: np.ndarray) -> np.ndarray:
    """Degree-minus-coupling Laplacian, with the degree diagonal from row sums of s."""
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"Laplacian needs a square matrix, got {s.shape}")
    return np.diag(s.sum(axis=1)) - s


def laplacian_lambda_max(s: np.ndarray) -> float:
    """Largest singular value of the Laplacian of s. The smallest is 0 and
    needs no solve: L 1 = S 1 - S 1 = 0."""
    return float(np.linalg.svd(laplacian(s), compute_uv=False)[0])


def finite_diff_grad(fn, at: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array of any
    rank, such as a matrix or a stack of them.

    With m = at.size, `fn` gets one (2m, *at.shape) stack of copies of `at`:
    copy k has its k-th entry (row-major) raised by h and copy m + k has it
    lowered by h. It returns the 2m function values, in stack order.
    """
    if h <= 0:
        raise ContractError("h must be positive")
    at = np.asarray(at, dtype=np.float64)
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
