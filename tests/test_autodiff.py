"""Reverse-mode tape: hand gradients, finite differences, fused blocks."""

import numpy as np
import pytest

from energyfuse.autodiff import (
    ARRAY_OPS,
    DiffGraph,
    Tensor,
    grad_check,
    ops,
    raw,
)
from energyfuse.fusion import _update, hopfield_steps
from energyfuse.model import _dense
from energyfuse.numeric import ContractError
from energyfuse.objectives import IGNORE, berhu_map, seg_nll
from energyfuse.reliability import ReliabilityMask, rfa_dep_loss, rfa_seg_loss


def test_lse_gradient_is_softmax():
    """d lse / dx = softmax(x); at [0, 0] that is [0.5, 0.5]."""
    g = DiffGraph()
    x = g.leaf(np.array([[0.0], [0.0]]))
    out = g.sum(g.lse_cols(x))
    grads = g.backward(out)
    np.testing.assert_allclose(grads[x.nid], [[0.5], [0.5]], atol=1e-15)


def test_quadratic_form_gradient_is_the_point():
    g = DiffGraph()
    xi = np.array([[1.5], [-2.0], [0.25]])
    x = g.leaf(xi)
    out = g.scale(g.sum(g.mul(x, x)), 0.5)
    grads = g.backward(out)
    np.testing.assert_allclose(grads[x.nid], xi, atol=1e-15)


def test_backward_rejects_non_scalar_output():
    g = DiffGraph()
    x = g.leaf(np.ones((2, 3)))
    with pytest.raises(ContractError):
        g.backward(g.tanh(x))


def test_grad_check_accepts_correct_gradient():
    def f(x):
        return x.graph.sum(x.graph.lse_cols(x))

    rng = np.random.default_rng(3)
    for _ in range(20):
        err = grad_check(f, rng.normal(size=(5, 3)))
        assert err < 1e-6


def test_grad_check_flags_scaled_gradient():
    """A function whose recorded gradient is 10 percent high gets caught.

    The value is x^2, recorded as one fused node whose VJP returns
    1.1 * 2x, so the analytic gradient disagrees with the function's own
    values.
    """

    def f_bad(x):
        g = x.graph
        xv = x.data
        return g.sum(g.fused("square", (x,), xv * xv, lambda gy: (gy * 2.2 * xv,)))

    err = grad_check(f_bad, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert err > 1e-2


def test_grad_check_constant_function_near_zero():
    def f(x):
        return x.graph.sum(x.graph.shift(x.graph.scale(x, 0.0), 3.14))

    err = grad_check(f, np.array([[0.7, -0.3]]))
    assert err < 1e-8


def _layer(g, x, inp, **kw):
    """Dense layer "l" with W = x and b = x @ 1, so x reaches both slots."""
    bias = g.matmul(x, g.constant(np.ones((x.cols, 1))))
    return _dense(g, {"l_w": x, "l_b": bias}, "l", inp, **kw)


def _labels_of(y):
    """Argmax labels of y's columns, the first one IGNORE when there are two+."""
    lab = np.argmax(y.data, axis=0)
    if lab.size > 1:
        lab[0] = IGNORE
    return lab


OPS = [
    ("add", lambda g, x, y: g.add(x, y)),
    ("sub", lambda g, x, y: g.sub(x, y)),
    ("mul", lambda g, x, y: g.mul(x, y)),
    ("scale", lambda g, x, y: g.scale(x, -1.7)),
    ("shift", lambda g, x, y: g.shift(x, 0.3)),
    ("add_col", lambda g, x, y: g.add_col(x, g.matmul(x, np.ones((x.cols, 1))))),
    ("sub_row", lambda g, x, y: g.sub_row(x, g.matmul(np.ones((1, x.rows)), x))),
    ("matmul", lambda g, x, y: g.matmul(x, g.transpose(y))),
    ("transpose", lambda g, x, y: g.transpose(x)),
    ("sigmoid", lambda g, x, y: g.sigmoid(x)),
    ("tanh", lambda g, x, y: g.tanh(x)),
    ("abs", lambda g, x, y: g.abs(x)),
    ("softmax_cols", lambda g, x, y: g.softmax_cols(x)),
    ("lse_cols", lambda g, x, y: g.lse_cols(x)),
    ("sum", lambda g, x, y: g.sum(x)),
    # a plain-array operand on the left, as a detached teacher in reliability
    ("array operands", lambda g, x, y: np.exp(y.data) * (y.data - x)),
    ("hopfield", lambda g, x, y: _update(g, x, y, 0.7, 2)),
    ("dense", lambda g, x, y: _layer(g, x, y.data.T)),
    ("dense tanh", lambda g, x, y: _layer(g, x, g.transpose(x), tanh=True)),
    (
        "dense tanh skip",
        lambda g, x, y: _layer(
            g, x, g.transpose(y), tanh=True, skip=g.matmul(x, g.transpose(x))
        ),
    ),
    ("seg_nll", lambda g, x, y: seg_nll(x, _labels_of(y))),
    ("berhu_map", lambda g, x, y: berhu_map(x, 0.7)),
]


def test_every_op_matches_finite_differences():
    """Each op, read out through a fixed random linear functional."""
    rng = np.random.default_rng(4)
    for name, build in OPS:
        worst = 0.0
        for _ in range(100):
            rows = int(rng.integers(2, 6))
            cols = int(rng.integers(1, 6))
            other = rng.normal(size=(rows, cols))

            def f(x, build=build, other=other):
                g = x.graph
                y = g.constant(other)
                out = build(g, x, y)
                readout = np.sign(rng_readout) * (0.5 + np.abs(rng_readout))
                return g.sum(g.mul(out, g.constant(readout[: out.rows, : out.cols])))

            rng_readout = rng.normal(size=(8, 8))
            worst = max(worst, grad_check(f, rng.normal(size=(rows, cols))))
        assert worst < 1e-6, f"{name}: worst rel err {worst:.3e}"


def test_every_public_op_has_a_finite_difference_case():
    """The OPS list and the class cannot drift apart: each recording op of
    DiffGraph (all but the inputs, the caller-computed block and the
    reverse pass) has an entry."""
    public = {n for n, v in vars(DiffGraph).items() if callable(v) and n[0] != "_"}
    missing = public - {"leaf", "constant", "fused", "backward"} - {n for n, _ in OPS}
    assert not missing, sorted(missing)


def test_row_and_col_broadcast_ops():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        b_col = rng.normal(size=(rows, 1))
        b_row = rng.normal(size=(1, cols))

        def f(x):
            g = x.graph
            y = g.add_col(x, g.constant(b_col))
            z = g.sub_row(y, g.constant(b_row))
            return g.sum(g.tanh(z))

        assert grad_check(f, rng.normal(size=(rows, cols))) < 1e-6

        def f_col(c, shape=(rows, cols)):
            g = c.graph
            x = g.constant(np.ones(shape))
            return g.sum(g.sigmoid(g.add_col(x, c)))

        assert grad_check(f_col, b_col) < 1e-6


def test_operator_sugar_matches_methods():
    g = DiffGraph()
    x = g.leaf(np.array([[1.0, -2.0]]))
    y = g.leaf(np.array([[0.5, 4.0]]))
    np.testing.assert_array_equal(raw(x + y), raw(g.add(x, y)))
    np.testing.assert_array_equal(raw(x - y), raw(g.sub(x, y)))
    np.testing.assert_array_equal(raw(x * y), raw(g.mul(x, y)))
    np.testing.assert_array_equal(raw(x * 2.0), raw(g.scale(x, 2.0)))
    np.testing.assert_array_equal(raw(-x), raw(g.scale(x, -1.0)))


def test_ndarray_operands_lift_to_constants():
    """Mixing a numpy array into tensor arithmetic must not leak to numpy."""
    g = DiffGraph()
    x = g.leaf(np.array([[1.0, 2.0]]))
    arr = np.array([[10.0, 20.0]])
    for expr in (x + arr, arr + x, x - arr, arr - x, x * arr, arr * x):
        assert isinstance(expr, Tensor), type(expr)
    np.testing.assert_array_equal(raw(arr - x), arr - raw(x))


def test_backward_visits_each_node_once_via_accumulation():
    """x used twice: gradient must be the sum of both paths, not the last."""
    g = DiffGraph()
    x = g.leaf(np.array([[3.0]]))
    out = g.sum(g.add(g.mul(x, x), g.scale(x, 5.0)))  # x^2 + 5x
    grads = g.backward(out)
    np.testing.assert_allclose(grads[x.nid], [[2 * 3.0 + 5.0]], atol=1e-15)


def _unfused_hopfield(g, xi, nu, gamma, steps):
    """The damped update op by op, as the tape recorded it before fusion."""
    x = xi
    for _ in range(steps):
        attn = g.softmax_cols(g.matmul(g.transpose(nu), x))
        x = g.add(g.scale(x, 1.0 - gamma), g.scale(g.matmul(nu, attn), gamma))
    return x


def test_fused_hopfield_matches_unfused_chain_bit_for_bit():
    """Value and both adjoints equal the op-by-op tape exactly, with xi
    and nu also feeding consumers after the update."""
    rng = np.random.default_rng(6)
    d, n = 6, 10
    xi0 = rng.normal(size=(d, n))
    nu0 = rng.normal(size=(d, n))
    readout = rng.normal(size=(d, n))
    for steps in (1, 2, 8):
        for gamma in (0.3, 1.0):
            results = []
            for fused in (True, False):
                g = DiffGraph()
                xi = g.tanh(g.leaf(xi0))
                nu = g.tanh(g.leaf(nu0))
                if fused:
                    out = _update(g, xi, nu, gamma, steps)
                else:
                    out = _unfused_hopfield(g, xi, nu, gamma, steps)
                total = g.add(g.add(out, nu), g.mul(xi, g.constant(readout)))
                grads = g.backward(g.sum(g.mul(total, g.constant(readout))))
                results.append((out.data, grads[xi.nid], grads[nu.nid]))
            for got, want in zip(*results):
                assert np.array_equal(got, want), (steps, gamma)


def _fused_and_unfused(inputs, build_fused, build_unfused):
    """(value, adjoint of each input) from both builds of one block.

    Each input array enters as tanh(leaf) and also feeds a consumer
    recorded after the block, so every adjoint term of the block lands on
    an adjoint that already holds one and the accumulation order shows.
    """
    results = []
    for build in (build_fused, build_unfused):
        rng = np.random.default_rng(9)  # the same readouts for both builds
        g = DiffGraph()
        ts = [g.tanh(g.leaf(a)) for a in inputs]
        out = build(g, *ts)
        total = g.sum(g.mul(out, g.constant(rng.normal(size=out.shape))))
        for t in ts:
            total = g.add(total, g.sum(g.mul(t, g.constant(rng.normal(size=t.shape)))))
        grads = g.backward(total)
        results.append([out.data] + [grads[t.nid] for t in ts])
    return results


def _unfused_dense(g, w, name, x, tanh=False, skip=None):
    """The dense block op by op, as the tape recorded it before fusion."""
    y = g.add_col(g.matmul(w[name + "_w"], x), w[name + "_b"])
    if tanh:
        y = g.tanh(y)
    return y if skip is None else g.add(skip, y)


def test_fused_dense_matches_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(10)
    shapes = [(5, 7), (5, 1), (7, 9), (5, 9)]  # W, b, x, skip
    arrays = [rng.normal(size=s) for s in shapes]
    for tanh in (False, True):
        for with_skip in (False, True):
            for x_const in (False, True):

                def build(dense, g, wt, bt, xt, st):
                    x = xt.data if x_const else xt
                    skip = st if with_skip else None
                    return dense(g, {"l_w": wt, "l_b": bt}, "l", x, tanh=tanh, skip=skip)

                fused, unfused = _fused_and_unfused(
                    arrays,
                    lambda g, *ts: build(_dense, g, *ts),
                    lambda g, *ts: build(_unfused_dense, g, *ts),
                )
                for got, want in zip(fused, unfused):
                    assert np.array_equal(got, want), (tanh, with_skip, x_const)


def _unfused_seg_nll(g, logits, lab):
    """seg_nll op by op, as the tape recorded it before fusion."""
    k, n = logits.shape
    valid = lab != IGNORE
    one_hot = np.zeros((k, n))
    one_hot[lab[valid], np.nonzero(valid)[0]] = 1.0
    picked = g.matmul(np.ones((1, k)), logits * one_hot)
    lse_row = g.lse_cols(logits) * valid.astype(np.float64)[None, :]
    return g.sum(lse_row - picked) * (1.0 / int(valid.sum()))


def test_fused_seg_nll_matches_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(11)
    logits = 3.0 * rng.normal(size=(4, 30))
    lab = rng.integers(0, 4, size=30)
    lab[::7] = IGNORE
    fused, unfused = _fused_and_unfused(
        [logits],
        lambda g, t: seg_nll(t, lab),
        lambda g, t: _unfused_seg_nll(g, t, lab),
    )
    for got, want in zip(fused, unfused):
        assert np.array_equal(got, want)


def _unfused_berhu_map(g, diff, c):
    """berhu_map op by op, as the tape recorded it before fusion."""
    a = g.abs(diff)
    quad = (diff * diff) * (1.0 / (2.0 * c)) + (c / 2.0)
    sel = (a.data <= c).astype(np.float64)
    return a * sel + quad * (1.0 - sel)


def test_fused_berhu_map_matches_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(12)
    diff = 2.0 * rng.normal(size=(1, 40))
    for c in (0.3, 0.9):
        fused, unfused = _fused_and_unfused(
            [diff],
            lambda g, t: berhu_map(t, c),
            lambda g, t: _unfused_berhu_map(g, t, c),
        )
        for got, want in zip(fused, unfused):
            assert np.array_equal(got, want), c


def test_hopfield_reverse_pass_reuses_no_saved_memory():
    """steps=8, gamma=0.7: the attention maps hopfield_steps keeps for the
    VJP own disjoint memory, and the VJP's reused workspaces write into
    none of the node's inputs, value or kept maps, so a second reverse pass
    gives equal bits and the data reads as before."""
    rng = np.random.default_rng(8)
    steps = 8
    g = DiffGraph()
    xi = g.tanh(g.leaf(rng.normal(size=(6, 10))))
    nu = g.tanh(g.leaf(rng.normal(size=(6, 12))))
    saved = []
    hopfield_steps(xi.data, nu.data, 0.7, steps, saved)
    attn = [a for _, a in saved]
    assert len(attn) == steps
    for i in range(steps):
        for j in range(i + 1, steps):
            assert not np.shares_memory(attn[i], attn[j]), (i, j)
    out = _update(g, xi, nu, 0.7, steps)
    loss = g.sum(g.mul(out, g.constant(rng.normal(size=(6, 10)))))
    kept = [t.data.copy() for t in (xi, nu, out)]
    first = g.backward(loss)
    second = g.backward(loss)
    for t in (xi, nu):
        assert np.array_equal(first[t.nid], second[t.nid])
    for t, before in zip((xi, nu, out), kept):
        assert np.array_equal(t.data, before)


def test_backward_never_writes_into_a_borrowed_adjoint():
    """add, shift and transpose hand back g or a view of it; x feeds three
    consumers (add twice), so its adjoint is a sum that must not land in
    theirs."""
    g = DiffGraph()
    xv = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.array([[0.5, -1.0], [2.0, 0.25]])
    x = g.leaf(xv)
    a = g.add(x, x)
    s = g.shift(x, 1.5)
    t = g.transpose(x)
    tt = g.transpose(t)
    total = g.add(g.add(a, s), tt)
    out = g.sum(g.mul(total, g.constant(w)))
    grads = g.backward(out)
    # every consumer's adjoint is w (tt: w, t: w.T); x collects 2w + w + w
    for node in (total, a, s, tt):
        np.testing.assert_array_equal(grads[node.nid], w)
    np.testing.assert_array_equal(grads[t.nid], w.T)
    np.testing.assert_array_equal(grads[x.nid], 4.0 * w)


def _array_op_args(rng):
    """Arguments for every ARRAY_OPS op except fused, by name."""
    x = rng.normal(size=(4, 6))
    return {
        "matmul": (x, rng.normal(size=(6, 3))),
        "lse_cols": (x,),
        "sub_row": (x, rng.normal(size=(1, 6))),
        "sigmoid": (x * 40.0,),
        "sum": (x,),
    }


def _both_ways(name, args):
    """(array result, graph result) of one op on the same ndarray args."""
    g = DiffGraph()
    lifted = [g.constant(a) if isinstance(a, np.ndarray) else a for a in args]
    return np.asarray(getattr(ARRAY_OPS, name)(*args)), getattr(g, name)(*lifted).data


def test_array_ops_match_graph_ops_bit_for_bit():
    rng = np.random.default_rng(7)
    cases = _array_op_args(rng)
    assert set(cases) | {"fused"} == set(vars(ARRAY_OPS))
    for name, args in cases.items():
        assert callable(getattr(DiffGraph, name, None)), name
        got, want = _both_ways(name, args)
        if name == "sum":  # a float on arrays, a (1, 1) tensor on a graph
            got = got.reshape(1, 1)
        assert np.array_equal(got, want), name
    # a fused block's value passes through; a float becomes a (1, 1) value
    g = DiffGraph()
    for value in (rng.normal(size=(5, 7)), 0.1):
        got = ARRAY_OPS.fused("block", (), value, None)
        want = g.fused("block", (), value, None).data
        assert got is value
        assert np.array_equal(np.reshape(got, np.shape(want)), want)


def test_array_and_graph_passes_agree_bit_for_bit():
    """The distillation losses (masks with both sides present) and the
    Hopfield update give equal values on plain arrays and on graph leaves;
    the graph's teacher side is plain arrays, so no softmax is recorded."""
    rng = np.random.default_rng(13)
    logits = [2.0 * rng.normal(size=(4, 12)) for _ in range(2)]
    depths = [rng.normal(size=(1, 12)) for _ in range(2)]
    mask = ReliabilityMask(m=(np.arange(12) % 3 == 0).reshape(1, -1))
    g = DiffGraph()
    seg = rfa_seg_loss(*[g.leaf(a) for a in logits], mask)
    assert "softmax_cols" not in {node.op for node in g.nodes}
    assert np.array_equal([[rfa_seg_loss(*logits, mask)]], seg.data)
    dep = rfa_dep_loss(*[g.leaf(a) for a in depths], mask, 0.5)
    assert np.array_equal([[rfa_dep_loss(*depths, mask, 0.5)]], dep.data)
    xi, nu = rng.normal(size=(5, 7)), rng.normal(size=(5, 9))
    for steps in (1, 2, 8):
        want = _update(g, g.leaf(xi), g.leaf(nu), 0.7, steps).data
        assert np.array_equal(_update(ARRAY_OPS, xi, nu, 0.7, steps), want), steps


def test_ops_picks_the_first_tensors_graph():
    g = DiffGraph()
    arr = np.ones((2, 2))
    t = g.leaf(arr)
    assert ops(arr, 3.0) is ARRAY_OPS
    assert ops(arr, t) is g
    assert ops(DiffGraph().leaf(arr), t) is not g
