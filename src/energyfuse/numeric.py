"""Numerically stable reductions over double-precision arrays.

All reductions subtract the running max before exponentiation so that
inputs like [1000, 1000] never overflow, and rely on numpy's fixed
reduction order so repeated runs are byte-identical.
"""

import functools

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


def column_pass(a: np.ndarray, out: np.ndarray = None) -> tuple:
    """The column max of a (K, N) matrix, exp(a - max) and its column sum:
    the one pass every column lse and softmax derive from. exp(a - max) is
    written into `out` when given (which may be `a` itself), else into a
    fresh array; dividing it by the sum gives the softmax."""
    if a.shape[0] == 0:
        raise ContractError("column pass over zero rows")
    m = a.max(axis=0, keepdims=True)
    e = np.subtract(a, m, out=out)
    np.exp(e, out=e)
    return m, e, e.sum(axis=0, keepdims=True)


class ColumnPass:
    """One column pass over a (K, N) matrix of logits `x`, made on the first
    read of `lse` (1 x N), `prob` or `log_prob` (K x N) and kept, so every
    reader of one head's energy, softmax or log-softmax shares it. `lse` is
    max + log(sum), `prob` is exp(x - max) / sum, and `log_prob` is x - lse."""

    def __init__(self, x):
        self.x = as_matrix(x)

    def check_over(self, x: np.ndarray):
        """Refuse to stand for any array but `x` itself."""
        if x is not self.x:
            raise ContractError("the column pass was made over other logits")

    @functools.cached_property
    def _parts(self) -> tuple:
        return column_pass(self.x)

    @functools.cached_property
    def lse(self) -> np.ndarray:
        m, _, total = self._parts
        return m + np.log(total)

    @functools.cached_property
    def prob(self) -> np.ndarray:
        _, e, total = self._parts
        e /= total  # lse reads only the max and the sum
        return e

    @functools.cached_property
    def log_prob(self) -> np.ndarray:
        return self.x - self.lse


def sigmoid(x) -> np.ndarray:
    """Logistic sigmoid, stable on both tails."""
    a = np.asarray(x, dtype=np.float64)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
