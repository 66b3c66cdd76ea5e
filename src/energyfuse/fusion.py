"""Energy-based feature fusion.

One task's feature columns (input patterns) descend the Hopfield energy
toward the other task's feature columns (stored patterns), then the two
are fused by direct addition or a learned sigmoid gate. Each block
dispatches on its own inputs (autodiff.record): on DiffGraph tensors the
damped update is one fused tape node with its own VJP, on plain arrays
hopfield_steps computes it without a tape. gamma and steps are taken as
given: RunConfig checks them where they enter.
"""

import numpy as np

from . import numeric
from .autodiff import Tensor, raw, record
from .numeric import ContractError


def hopfield_energy(xi_col, nu) -> float:
    """0.5 * xi.xi - lse(nu^T xi) for one input column."""
    x = np.ravel(xi_col)
    return 0.5 * float(x @ x) - float(numeric.ColumnPass(nu.T @ x).lse[0, 0])


def hopfield_gradient(xi_col, nu) -> np.ndarray:
    """d/dxi of hopfield_energy: xi - nu softmax(nu^T xi)."""
    x = np.ravel(xi_col)
    return x - nu @ numeric.ColumnPass(nu.T @ x).prob.ravel()


def hopfield_steps(xi, nu, gamma: float, steps: int, saved):
    """x <- x*(1-gamma) + (nu @ softmax(nu^T x))*gamma, `steps` times,
    on ndarrays; each step's (x, attention) is appended to `saved`, a list or None.

    The (M, N) attention maps are written in place: into one (steps, M, N)
    block when they are saved, else into one buffer reused by every step.
    """
    nu_t = nu.T.copy()
    shape = (nu.shape[1], xi.shape[1])
    block = np.empty(shape if saved is None else (steps,) + shape)
    x = xi
    for k in range(steps):
        attn = block if saved is None else block[k]
        np.matmul(nu_t, x, out=attn)
        _, _, total = numeric.column_pass(attn, out=attn)
        attn /= total
        if saved is not None:
            saved.append((x, attn))
        x = x * (1.0 - gamma) + (nu @ attn) * gamma
    return x


def hopfield_update(xi, nu, gamma: float, steps: int):
    """Damped update of every column of xi (d, N) toward nu (d, M), `steps`
    times, with gamma and steps as given (RunConfig checks them): an array
    on arrays, one "hopfield" node on tape tensors whose value and adjoints
    match the op-by-op tape's bit for bit, and only it keeps every step's
    (x, attention) for the VJP. gamma = 0 or steps = 0 returns xi itself."""
    if gamma == 0.0 or steps == 0:
        return xi
    gamma = float(gamma)
    saved = [] if isinstance(xi, Tensor) or isinstance(nu, Tensor) else None
    x = hopfield_steps(raw(xi), raw(nu), gamma, steps, saved)
    # one input slot per adjoint term, in the op-by-op reverse order
    inputs = (nu, nu) * (steps - 1) + (nu, xi, xi, nu)
    nu = raw(nu)

    def vjp(g):
        """Yields the adjoint terms in the order of the node's input slots."""
        # Fortran-ordered nu: the layout the unfused tape's VJP multiplied
        # by (a transpose of a transposed copy), so sums match it bit for bit
        nu_f = np.asfortranarray(nu)
        # one (M, N) workspace serves every step; each yielded term is a
        # fresh product, so none of them aliases gs
        gs = np.empty(saved[0][1].shape)
        for k in range(len(saved) - 1, -1, -1):
            x, attn = saved[k]
            gm = g * gamma
            np.matmul(nu.T, gm, out=gs)
            # bit-equal to (gs * attn).sum(axis=0) only while einsum sums
            # the rows in order with a separate multiply and add (no FMA)
            gs -= np.einsum("ij,ij->j", gs, attn)
            gs *= attn
            yield gm @ attn.T
            if k == 0:
                yield g * (1.0 - gamma)
                yield nu_f @ gs
                yield (gs @ x.T).T
            else:
                yield (gs @ x.T).T
                g = g * (1.0 - gamma) + nu_f @ gs

    return record("hopfield", inputs, x, vjp)


def fuse(xi_updated, nu, gate=None):
    """Combine updated input patterns with stored patterns.

    Add (gate None): xi + nu. Gated, gate = (W1, W2): nu + (W1 xi) *
    sigmoid(W2 xi), the W's acting as per-position channel mixes (1x1
    convolution semantics), as one "gate" node with the value and adjoint
    terms of the tests' op-by-op chain, in its order, bit for bit.
    """
    if gate is None:
        return xi_updated + nu
    w1, w2 = gate
    xv, w1v, w2v = raw(xi_updated), raw(w1), raw(w2)
    mix = w1v @ xv
    sig = numeric.sigmoid(w2v @ xv)
    out = raw(nu) + mix * sig

    def vjp(g):
        g_mix = g * sig
        g_pre = g * mix * sig * (1.0 - sig)
        return (g, g_mix @ xv.T, w1v.T @ g_mix, g_pre @ xv.T, w2v.T @ g_pre)

    return record("gate", (nu, w1, xi_updated, w2, xi_updated), out, vjp)


def eb2f_apply(query_task, other_task, gamma: float, steps: int, gate=None):
    """Fused features for the query task.

    The other task's features are the input patterns (updated toward the
    query task's features, the stored patterns), then fused. With steps=0
    this is exactly fuse(other, query, gate).
    """
    if query_task.shape != other_task.shape:
        raise ContractError(
            f"feature shape mismatch: {query_task.shape} vs {other_task.shape}"
        )
    xi = hopfield_update(other_task, query_task, gamma, steps)
    return fuse(xi, query_task, gate)
