"""Reverse-mode differentiation over a flat operation tape.

A DiffGraph holds leaves and the nodes record appends (op tag, input
ids, value, VJP). Inputs always precede consumers on the tape, so one
reverse scan visits each node exactly once and accumulates exact
adjoints. It holds no model math: tensor arithmetic, sum_all and each
model block compute their value and pass it to record, which appends
one node when an input is a Tensor and returns the plain value otherwise.
"""

import collections

import numpy as np

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

    def item(self) -> float:
        return self.data.item()  # numpy refuses a value of more than one entry

    # keep numpy from taking over mixed expressions; reflected ops run instead
    __array_ufunc__ = None

    # arithmetic sugar: two tensors add; a number or an array shifts or scales
    def __add__(self, other):
        if isinstance(other, Tensor):
            if self.shape != other.shape:
                raise ContractError(f"add shape mismatch: {self.shape} vs {other.shape}")
            return record("add", (self, other), self.data + other.data, lambda g: (g, g))
        return _shift(self, other)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            raise ContractError(f"sub of two tensors {self.shape} and {other.shape}")
        return _shift(self, np.negative(other))

    def __rsub__(self, other):
        return _shift(_scale(self, -1.0), other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            raise ContractError(f"mul of two tensors {self.shape} and {other.shape}")
        return _scale(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)


def _check_fixed(op, a, c):
    """A shift or scale operand: a number, or an array, list or tuple whose
    np.shape is () or a's (a Python number skips np.shape's slow path)."""
    shape = () if isinstance(c, (int, float)) else np.shape(c)
    if shape not in ((), a.shape):
        raise ContractError(f"{op} of a {a.shape} tensor by {type(c).__name__} {shape}")


def _scale(a, c) -> Tensor:
    """a * c for a fixed c, which gets no adjoint."""
    _check_fixed("scale", a, c)
    return record("scale", (a,), a.data * c, lambda g: (g * c,))


def _shift(a, c) -> Tensor:
    """a + c for a fixed c, which gets no adjoint."""
    _check_fixed("shift", a, c)
    return record("shift", (a,), a.data + c, lambda g: (g,))


_Node = collections.namedtuple("_Node", "op inputs data vjp")


class DiffGraph:
    """Single-writer tape of tensor operations.

    Each node's vjp(g) returns or yields one adjoint term per input
    slot, and backward raises ContractError when the count differs.
    A VJP holds arrays, not Tensors: a Tensor holds its graph, and that
    cycle would keep each tape alive until the garbage collector runs.
    """

    def __init__(self):
        self.nodes = []

    def _append(self, op, inputs, data, vjp) -> Tensor:
        self.nodes.append(_Node(op, tuple(t.nid for t in inputs), data, vjp))
        return Tensor(self, len(self.nodes) - 1, data)

    def leaf(self, value) -> Tensor:
        """A differentiable input; its gradient is reported by backward.

        The tape borrows a float64 matrix rather than copying it: nothing
        writes into a bound value, and the caller must not either while
        the tape is in use.
        """
        return self._append("leaf", (), as_matrix(value), lambda g: ())

    def backward(self, output: Tensor) -> list:
        """Adjoint of `output` for every node; None where unreachable.

        Entries at leaf ids are d(output)/d(leaf).
        """
        if not isinstance(output, Tensor) or output.graph is not self:
            raise ContractError(f"{type(output).__name__} is not a tensor of this graph")
        if output.data.shape != (1, 1):
            raise ContractError(
                f"backward needs a scalar output, got shape {output.data.shape}"
            )
        grads = [None] * len(self.nodes)
        grads[output.nid] = np.ones((1, 1))
        for nid in range(output.nid, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            terms = iter(node.vjp(g))
            for iid in node.inputs:
                ig = next(terms, None)
                if ig is None:
                    raise ContractError(f"{node.op} VJP: too few terms for its slots")
                # a term may be g itself or a view of it, so sums are new arrays
                grads[iid] = ig if grads[iid] is None else grads[iid] + ig
            if next(terms, None) is not None:
                raise ContractError(f"{node.op} VJP: more terms than slots")
        return grads


def record(op: str, inputs, value, vjp):
    """`value` as one node on the graph of the first Tensor among `inputs`,
    every one of which must then be a Tensor of that graph, or `value`
    itself if none is a Tensor, so one code path both computes on arrays
    and records on a tape. A float `value` is kept as a (1, 1) array;
    vjp(g) returns or yields one adjoint term per input slot, a count that
    backward checks; an input that gets several terms takes several
    slots, in the order the op-by-op tape would have accumulated them."""
    for t in inputs:
        if isinstance(t, Tensor):
            graph = t.graph
            break
    else:
        return value
    for t in inputs:
        if not isinstance(t, Tensor) or t.graph is not graph:
            raise ContractError(f"{type(t).__name__} is not a tensor of this graph")
    data = np.array([[value]]) if isinstance(value, float) else value
    return graph._append(op, inputs, data, vjp)


def sum_all(a):
    """The sum of every entry: a float for an array, a "sum" node for a Tensor."""
    v = raw(a)
    return record("sum", (a,), float(v.sum()), lambda g: (np.full(v.shape, g[0, 0]),))


def raw(a) -> np.ndarray:
    """The numeric value of a Tensor or array, as an ndarray."""
    return a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)


FD_STEP = 1e-5


def central_differences(value_at, point: np.ndarray) -> np.ndarray:
    """Central differences of the scalar function value_at at point: per
    coordinate, add FD_STEP to a copy, evaluate, subtract twice the step
    from the same copy, evaluate."""
    h = FD_STEP
    two_h = 2 * h
    fd = np.zeros_like(point)
    for idx in np.ndindex(point.shape):
        probe = point.copy()
        probe[idx] += h
        up = value_at(probe)
        probe[idx] -= two_h
        fd[idx] = (up - value_at(probe)) / two_h
    return fd


def relative_error(analytic, fd) -> float:
    """Max over coordinates of |analytic - fd| / max(1e-12, |analytic| + |fd|)."""
    denom = np.maximum(1e-12, np.abs(analytic) + np.abs(fd))
    return float(np.max(np.abs(analytic - fd) / denom))


def grad_check(f, point: np.ndarray) -> float:
    """relative_error between the analytic gradient of f and central_differences.

    f maps a Tensor to a scalar Tensor; it is re-run on fresh graphs for
    the finite-difference probes.
    """
    point = as_matrix(point)
    g = DiffGraph()
    x = g.leaf(point)
    analytic = g.backward(f(x))[x.nid]
    fd = central_differences(lambda p: f(DiffGraph().leaf(p)).item(), point)
    return relative_error(analytic, fd)
