"""Numerically stable reductions over double-precision arrays.

All reductions subtract the running max before exponentiation so that
inputs like [1000, 1000] never overflow, and rely on numpy's fixed
reduction order so repeated runs are byte-identical.
"""

import numpy as np


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


class ConfigError(ContractError):
    """A run's config, flags or sweep lists were refused before any run."""


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float64 array; 1-D input becomes a column vector."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ContractError(f"expected a matrix or vector, got ndim={a.ndim}")
    return a


def lse_cols(x) -> np.ndarray:
    """Column-wise lse of a (K, N) matrix, returned as (1, N)."""
    a = as_matrix(x)
    if a.shape[0] == 0:
        raise ContractError("lse over zero rows")
    m = a.max(axis=0, keepdims=True)
    return m + np.log(np.sum(np.exp(a - m), axis=0, keepdims=True))


def softmax_cols(x, out: np.ndarray = None) -> np.ndarray:
    """Column-wise softmax of a (K, N) matrix; each column sums to 1.

    Written into `out` when given (which may be x itself), else into one
    fresh array; the float operations are the same either way.
    """
    a = as_matrix(x)
    if a.shape[0] == 0:
        raise ContractError("softmax over zero rows")
    out = np.subtract(a, a.max(axis=0, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=0, keepdims=True)
    return out


def sigmoid(x) -> np.ndarray:
    """Logistic sigmoid, stable on both tails."""
    a = np.asarray(x, dtype=np.float64)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
