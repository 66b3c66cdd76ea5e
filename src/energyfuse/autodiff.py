"""Reverse-mode differentiation over a flat operation tape.

A DiffGraph records every tensor operation as a node (op tag, input ids,
value, VJP). Inputs always precede consumers on the tape, so one reverse
scan visits each node exactly once and accumulates exact adjoints.
It holds no model math: each model block is computed by its own module
and recorded as one node with DiffGraph.fused.
"""

from types import SimpleNamespace

import numpy as np

from . import numeric
from .numeric import ContractError, as_matrix


class Tensor:
    """A (rows, cols) float64 value recorded on a DiffGraph."""

    __slots__ = ("graph", "nid", "data")

    def __init__(self, graph, nid, data):
        self.graph = graph
        self.nid = nid
        self.data = data

    @property
    def shape(self):
        return self.data.shape

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ContractError(f"item() on non-scalar shape {self.data.shape}")
        return float(self.data[0, 0])

    # keep numpy from taking over mixed expressions; reflected ops run instead
    __array_ufunc__ = None

    # arithmetic sugar; scalars route through scale / shift
    def __add__(self, other):
        other = self.graph._lift(other)
        if isinstance(other, Tensor):
            return self.graph.add(self, other)
        return self.graph.shift(self, float(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self.graph._lift(other)
        if isinstance(other, Tensor):
            return self.graph.sub(self, other)
        return self.graph.shift(self, -float(other))

    def __rsub__(self, other):
        return self.graph.scale(self, -1.0).__add__(other)

    def __mul__(self, other):
        other = self.graph._lift(other)
        if isinstance(other, Tensor):
            return self.graph.mul(self, other)
        return self.graph.scale(self, float(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self.graph.scale(self, -1.0)

    def __matmul__(self, other):
        return self.graph.matmul(self, other)

    def __repr__(self):
        return f"Tensor(nid={self.nid}, shape={self.data.shape})"


class _Node:
    __slots__ = ("op", "inputs", "data", "vjp")

    def __init__(self, op, inputs, data, vjp):
        self.op = op
        self.inputs = inputs
        self.data = data
        self.vjp = vjp


class DiffGraph:
    """Single-writer tape of tensor operations.

    Each node's vjp(g) returns one adjoint term per input slot.
    A VJP holds arrays, not Tensors: a Tensor holds its graph, and that
    cycle would keep each tape alive until the garbage collector runs.
    """

    def __init__(self):
        self.nodes = []

    def _record(self, op, inputs, data, vjp) -> Tensor:
        self.nodes.append(_Node(op, tuple(t.nid for t in inputs), data, vjp))
        return Tensor(self, len(self.nodes) - 1, data)

    def leaf(self, value) -> Tensor:
        """A differentiable input; its gradient is reported by backward."""
        return self._record("leaf", (), as_matrix(value).copy(), lambda g: ())

    def constant(self, value) -> Tensor:
        """Data that participates in values but never needs a gradient."""
        return self._record("const", (), as_matrix(value).copy(), lambda g: ())

    def _lift(self, x):
        """Plain arrays become constants; tensors and scalars pass through."""
        return self.constant(x) if isinstance(x, np.ndarray) else x

    def _same_graph(self, *ts):
        for t in ts:
            if t.graph is not self:
                raise ContractError("tensors belong to different graphs")

    def _same_shape(self, op, a, b):
        self._same_graph(a, b)
        if a.shape != b.shape:
            raise ContractError(f"{op} shape mismatch: {a.shape} vs {b.shape}")

    # ---- elementwise / structural ops ----

    def add(self, a, b) -> Tensor:
        self._same_shape("add", a, b)
        return self._record("add", (a, b), a.data + b.data, lambda g: (g, g))

    def sub(self, a, b) -> Tensor:
        self._same_shape("sub", a, b)
        return self._record("sub", (a, b), a.data - b.data, lambda g: (g, -g))

    def mul(self, a, b) -> Tensor:
        self._same_shape("mul", a, b)
        av, bv = a.data, b.data
        return self._record("mul", (a, b), av * bv, lambda g: (g * bv, g * av))

    def scale(self, a, c: float) -> Tensor:
        return self._record("scale", (a,), a.data * c, lambda g: (g * c,))

    def shift(self, a, c: float) -> Tensor:
        return self._record("shift", (a,), a.data + c, lambda g: (g,))

    def add_col(self, a, b) -> Tensor:
        """a (K, N) plus a column vector b (K, 1) broadcast over columns."""
        a, b = self._lift(a), self._lift(b)
        self._same_graph(a, b)
        if b.cols != 1 or a.rows != b.rows:
            raise ContractError(f"add_col shapes: {a.shape} vs {b.shape}")
        return self._record(
            "add_col", (a, b), a.data + b.data,
            lambda g: (g, g.sum(axis=1, keepdims=True)),
        )

    def sub_row(self, a, b) -> Tensor:
        """a (K, N) minus a row vector b (1, N) broadcast over rows."""
        a, b = self._lift(a), self._lift(b)
        self._same_graph(a, b)
        if b.rows != 1 or a.cols != b.cols:
            raise ContractError(f"sub_row shapes: {a.shape} vs {b.shape}")
        return self._record(
            "sub_row", (a, b), a.data - b.data,
            lambda g: (g, -g.sum(axis=0, keepdims=True)),
        )

    def matmul(self, a, b) -> Tensor:
        a, b = self._lift(a), self._lift(b)
        self._same_graph(a, b)
        if a.cols != b.rows:
            raise ContractError(f"matmul shape mismatch: {a.shape} x {b.shape}")
        av, bv = a.data, b.data
        return self._record("matmul", (a, b), av @ bv, lambda g: (g @ bv.T, av.T @ g))

    def transpose(self, a) -> Tensor:
        return self._record("transpose", (a,), a.data.T.copy(), lambda g: (g.T,))

    # ---- nonlinearities ----

    def sigmoid(self, a) -> Tensor:
        s = numeric.sigmoid(a.data)
        return self._record("sigmoid", (a,), s, lambda g: (g * s * (1.0 - s),))

    def tanh(self, a) -> Tensor:
        y = np.tanh(a.data)
        return self._record("tanh", (a,), y, lambda g: (g * (1.0 - y * y),))

    def abs(self, a) -> Tensor:
        av = a.data
        return self._record("abs", (a,), np.abs(av), lambda g: (g * np.sign(av),))

    def softmax_cols(self, a) -> Tensor:
        s = numeric.softmax_cols(a.data)
        return self._record(
            "softmax_cols", (a,), s,
            lambda g: (s * (g - np.sum(g * s, axis=0, keepdims=True)),),
        )

    def lse_cols(self, a) -> Tensor:
        av = a.data
        return self._record(
            "lse_cols", (a,), numeric.lse_cols(av),
            lambda g: (numeric.softmax_cols(av) * g,),
        )

    # ---- reductions ----

    def sum(self, a) -> Tensor:
        shape = a.shape
        return self._record(
            "sum", (a,), np.array([[a.data.sum()]]),
            lambda g: (np.full(shape, g[0, 0]),),
        )

    # ---- fused blocks ----

    def fused(self, op: str, inputs, value, vjp) -> Tensor:
        """One node for a block the caller has already computed.

        `value` is the block's result (a float for a scalar) and vjp(g)
        returns one adjoint term per input slot; an input that gets
        several terms takes several slots, in the order the op-by-op
        tape would have accumulated them.
        """
        data = np.array([[value]]) if isinstance(value, float) else value
        return self._record(op, inputs, data, vjp)

    # ---- reverse pass ----

    def backward(self, output: Tensor) -> list:
        """Adjoint of `output` for every node; None where unreachable.

        Entries at leaf ids are d(output)/d(leaf).
        """
        self._same_graph(output)
        if output.data.shape != (1, 1):
            raise ContractError(
                f"backward needs a scalar output, got shape {output.data.shape}"
            )
        grads = [None] * len(self.nodes)
        # vjps may hand back g itself or a view of it, so a first adjoint is
        # borrowed and never written; only sums allocated here grow in place
        owned = [False] * len(self.nodes)
        grads[output.nid] = np.ones((1, 1))
        for nid in range(output.nid, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            for iid, ig in zip(node.inputs, node.vjp(g)):
                if grads[iid] is None:
                    grads[iid] = ig
                elif owned[iid]:
                    grads[iid] += ig
                else:
                    grads[iid] = grads[iid] + ig
                    owned[iid] = True
        return grads


# DiffGraph's op names computed on plain arrays, recording nothing
ARRAY_OPS = SimpleNamespace(
    matmul=numeric.matmul,
    lse_cols=numeric.lse_cols,
    sub_row=lambda a, b: np.asarray(a) - np.asarray(b),
    sigmoid=numeric.sigmoid,
    sum=lambda a: float(np.sum(a)),
    fused=lambda op, inputs, value, vjp: value,
)


def ops(*xs):
    """The graph of the first Tensor among xs, or ARRAY_OPS if none is.

    A pass picks its namespace once and then calls ops by DiffGraph's
    names, so one code path both computes and records.
    """
    for x in xs:
        if isinstance(x, Tensor):
            return x.graph
    return ARRAY_OPS


def raw(a) -> np.ndarray:
    """The numeric value of a Tensor or array, as an ndarray."""
    return a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)


def grad_check(f, point: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic gradient of f and central FD.

    f maps a Tensor to a scalar Tensor; it is re-run on fresh graphs for
    the finite-difference probes. Error per coordinate is
    |analytic - fd| / max(1e-12, |analytic| + |fd|).
    """
    point = as_matrix(point)
    g = DiffGraph()
    x = g.leaf(point)
    out = f(x)
    analytic = g.backward(out)[x.nid]
    if analytic is None:
        analytic = np.zeros_like(point)

    def value_at(p):
        gg = DiffGraph()
        return f(gg.leaf(p)).item()

    fd = np.zeros_like(point)
    for idx in np.ndindex(point.shape):
        dp = point.copy()
        dp[idx] += h
        up = value_at(dp)
        dp[idx] -= 2 * h
        dn = value_at(dp)
        fd[idx] = (up - dn) / (2 * h)

    denom = np.maximum(1e-12, np.abs(analytic) + np.abs(fd))
    return float(np.max(np.abs(analytic - fd) / denom))
