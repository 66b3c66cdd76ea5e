"""Energy-based feature fusion.

One task's feature columns (input patterns) descend the Hopfield energy
toward the other task's feature columns (stored patterns), then the two
are fused by direct addition or a learned sigmoid gate. Each entry picks
its op namespace once (autodiff.ops): on DiffGraph tensors the damped
update is recorded as one fused tape node, on plain arrays the same
hopfield_steps computes it without a tape.
"""

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numeric
from .autodiff import ARRAY_OPS, ops
from .numeric import ContractError, as_matrix, lse


class Scheme(Enum):
    ADD = "add"
    GATED = "gated"


@dataclass
class PatternPair:
    """Input patterns xi (d x N) and stored patterns nu (d x M)."""

    xi: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        self.xi = as_matrix(self.xi)
        self.nu = as_matrix(self.nu)
        if self.xi.shape[0] != self.nu.shape[0]:
            raise ContractError(
                f"channel mismatch: xi {self.xi.shape} vs nu {self.nu.shape}"
            )
        if self.xi.shape[1] < 1 or self.nu.shape[1] < 1:
            raise ContractError("patterns need at least one column")


def check_schedule(gamma, steps):
    """gamma in [0, 1] and a whole number of steps >= 0."""
    if not 0.0 <= gamma <= 1.0:
        raise ContractError(f"gamma must be in [0, 1], got {gamma}")
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ContractError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ContractError(f"steps must be >= 0, got {steps}")


@dataclass
class FusionParams:
    """Fusion configuration; w1/w2 are the gate weights (Gated scheme only)."""

    scheme: Scheme = Scheme.ADD
    gamma: float = 1.0
    steps: int = 1
    w1: object = None  # d x d, ndarray or graph Tensor
    w2: object = None

    def __post_init__(self):
        check_schedule(self.gamma, self.steps)
        if self.scheme == Scheme.GATED:
            if self.w1 is None or self.w2 is None:
                raise ContractError("Gated scheme requires w1 and w2")
        elif self.w1 is not None or self.w2 is not None:
            raise ContractError("Add scheme takes no gate weights")


def hopfield_energy(xi_col, nu) -> float:
    """0.5 * xi.xi - lse(nu^T xi) for one input column."""
    x = np.asarray(xi_col, dtype=np.float64).ravel()
    nu = as_matrix(nu)
    if nu.shape[0] != x.size:
        raise ContractError(f"dimension mismatch: xi {x.size} vs nu {nu.shape}")
    return 0.5 * float(x @ x) - lse(nu.T @ x)


def hopfield_gradient(xi_col, nu) -> np.ndarray:
    """d/dxi of hopfield_energy: xi - nu softmax(nu^T xi)."""
    x = np.asarray(xi_col, dtype=np.float64).ravel()
    nu = as_matrix(nu)
    if nu.shape[0] != x.size:
        raise ContractError(f"dimension mismatch: xi {x.size} vs nu {nu.shape}")
    return x - nu @ numeric.softmax(nu.T @ x)


def _update(o, xi, nu, gamma: float, steps: int):
    """Damped retrieval update applied to every column of xi at once."""
    if gamma == 0.0 or steps == 0:
        return xi
    return o.hopfield(xi, nu, gamma, steps)


def hopfield_update(pair: PatternPair, gamma: float, steps: int) -> np.ndarray:
    """Run the damped update on a PatternPair; steps = 0 is the identity."""
    check_schedule(gamma, steps)
    return _update(ARRAY_OPS, pair.xi, pair.nu, gamma, steps)


def fuse(xi_updated, nu, params: FusionParams):
    """Combine updated input patterns with stored patterns.

    Add: xi + nu. Gated: nu + (W1 xi) * sigmoid(W2 xi), the W's acting as
    per-position channel mixes (1x1 convolution semantics).
    """
    if xi_updated.shape != nu.shape:
        raise ContractError(
            f"fuse shape mismatch: {xi_updated.shape} vs {nu.shape}"
        )
    if params.scheme == Scheme.ADD:
        return xi_updated + nu
    o = ops(xi_updated, nu, params.w1, params.w2)
    gate = o.sigmoid(o.matmul(params.w2, xi_updated))
    return nu + o.matmul(params.w1, xi_updated) * gate


def eb2f_apply(query_task, other_task, params: FusionParams):
    """Fused features for the query task.

    The other task's features are the input patterns (updated toward the
    query task's features, the stored patterns), then fused. With steps=0
    this is exactly fuse(other, query).
    """
    if query_task.shape != other_task.shape:
        raise ContractError(
            f"feature shape mismatch: {query_task.shape} vs {other_task.shape}"
        )
    o = ops(other_task, query_task)
    xi = _update(o, other_task, query_task, params.gamma, params.steps)
    return fuse(xi, query_task, params)
