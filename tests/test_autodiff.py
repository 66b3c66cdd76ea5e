"""Reverse-mode tape: hand gradients, finite differences, fused blocks."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import ref_op
from energyfuse.autodiff import (
    DiffGraph,
    Tensor,
    grad_check,
    raw,
    record,
    sum_all,
)
from energyfuse.fusion import fuse, hopfield_steps, hopfield_update
from energyfuse.model import _dense, bind
from energyfuse.numeric import ColumnPass, ContractError
from energyfuse.objectives import IGNORE, LabelMap, berhu_map, seg_nll
from energyfuse.reliability import (
    ReliabilityMask,
    _kl_row,
    rfa_dep_loss,
    rfa_seg_loss,
)
from energyfuse.train import compute_losses
from energyfuse.verify import _tiny_setup


def test_lse_gradient_is_softmax():
    """d lse / dx = softmax(x) for the reference lse_cols op; at [0, 0]
    that is [0.5, 0.5]."""
    g = DiffGraph()
    x = g.leaf(np.array([[0.0], [0.0]]))
    out = sum_all(ref_op("lse_cols", x))
    grads = g.backward(out)
    np.testing.assert_allclose(grads[x.nid], [[0.5], [0.5]], atol=1e-15)


def test_quadratic_form_gradient_is_the_point():
    g = DiffGraph()
    xi = np.array([[1.5], [-2.0], [0.25]])
    x = g.leaf(xi)
    out = sum_all(ref_op("mul", x, x)) * 0.5
    grads = g.backward(out)
    np.testing.assert_allclose(grads[x.nid], xi, atol=1e-15)


def test_backward_rejects_non_scalar_output():
    g = DiffGraph()
    x = g.leaf(np.ones((2, 3)))
    with pytest.raises(ContractError):
        g.backward(ref_op("tanh", x))


def test_grad_check_accepts_correct_gradient():
    def f(x):
        return sum_all(ref_op("lse_cols", x))

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
        xv = x.data
        return sum_all(record("square", (x,), xv * xv, lambda gy: (gy * 2.2 * xv,)))

    err = grad_check(f_bad, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert err > 1e-2


def test_grad_check_constant_function_near_zero():
    def f(x):
        return sum_all(x * 0.0 + 3.14)

    err = grad_check(f, np.array([[0.7, -0.3]]))
    assert err < 1e-8


def _layer(x, inp, **kw):
    """Dense layer "l" with W = x and b = x @ 1, so x reaches both slots."""
    bias = ref_op("matmul", x, np.ones((x.shape[1], 1)))
    return _dense({"l_w": x, "l_b": bias}, "l", inp, **kw)


def _labels_of(y):
    """Argmax labels of y's columns, the first one IGNORE when there are two+."""
    lab = np.argmax(y.data, axis=0)
    if lab.size > 1:
        lab[0] = IGNORE
    return lab


def _gated(x, y):
    """Gated fusion of x into x + y, both gate weights computed from x."""
    w1 = ref_op("matmul", x, ref_op("transpose", y))
    w2 = ref_op("matmul", y, ref_op("transpose", x))
    return fuse(x, x + y, gate=(w1 * 0.5, w2 * 0.5))


OPS = [
    ("add", lambda x, y: x + y),
    ("sub", lambda x, y: ref_op("sub", x, y)),
    ("mul", lambda x, y: ref_op("mul", x, y)),
    ("scale", lambda x, y: x * -1.7),
    ("shift", lambda x, y: x + 0.3),
    (
        "add_col",
        lambda x, y: ref_op(
            "add_col", x, ref_op("matmul", x, np.ones((x.shape[1], 1)))
        ),
    ),
    (
        "sub_row",
        lambda x, y: ref_op(
            "sub_row", x, ref_op("matmul", np.ones((1, x.shape[0])), x)
        ),
    ),
    ("matmul", lambda x, y: ref_op("matmul", x, ref_op("transpose", y))),
    ("transpose", lambda x, y: ref_op("transpose", x)),
    ("sigmoid", lambda x, y: ref_op("sigmoid", x)),
    ("tanh", lambda x, y: ref_op("tanh", x)),
    ("abs", lambda x, y: ref_op("abs", x)),
    ("softmax_cols", lambda x, y: ref_op("softmax_cols", x)),
    ("lse_cols", lambda x, y: ref_op("lse_cols", x)),
    ("sum", lambda x, y: sum_all(x)),
    # a plain-array operand on the left, as a detached teacher in reliability
    ("array operands", lambda x, y: np.exp(y.data) * (y.data - x)),
    ("hopfield", lambda x, y: hopfield_update(x, y, 0.7, 2)),
    ("dense", lambda x, y: _layer(x, y.data.T)),
    ("dense tanh", lambda x, y: _layer(x, ref_op("transpose", x), tanh=True)),
    (
        "dense tanh skip",
        lambda x, y: _layer(
            x,
            ref_op("transpose", y),
            tanh=True,
            skip=ref_op("matmul", x, ref_op("transpose", x)),
        ),
    ),
    ("seg_nll", lambda x, y: seg_nll(x, LabelMap(_labels_of(y)), ColumnPass(x.data))),
    ("berhu_map", lambda x, y: berhu_map(x, 0.7)),
    # y is the detached teacher
    ("kl_row", lambda x, y: _kl_row(ColumnPass(y.data), x, ColumnPass(x.data))),
    ("gate", _gated),
]


def test_every_op_matches_finite_differences():
    """Each op, read out through a fixed random linear functional. The
    cases share one stream in this order, so a case added or moved before
    another changes the points that one is checked at."""
    rng = np.random.default_rng(4)
    for name, build in OPS:
        errors = []
        for _ in range(100):
            rows = int(rng.integers(2, 6))
            cols = int(rng.integers(1, 6))
            other = rng.normal(size=(rows, cols))

            def f(x, build=build, other=other):
                out = build(x, x.graph.leaf(other))
                readout = np.sign(rng_readout) * (0.5 + np.abs(rng_readout))
                return sum_all(out * readout[: out.shape[0], : out.shape[1]])

            rng_readout = rng.normal(size=(8, 8))
            errors.append(grad_check(f, rng.normal(size=(rows, cols))))
        worst = np.max(errors)  # NaN if any case is NaN, and then the assert fails
        assert worst < 1e-6, f"{name}: worst rel err {worst:.3e}"


def _generic_ops():
    """The tags the tape's generic ops record, read from one use of each on
    a scratch graph: a sum of two tensors, a shift and a scale by a number,
    a number minus a tensor and sum_all."""
    g = DiffGraph()
    x, y = g.leaf(np.ones((2, 2))), g.leaf(np.ones((2, 2)))
    x + y, x + 1.0, x * 2.0, 1.0 - x, sum_all(x)  # each records its nodes
    return {node.op for node in g.nodes} - {"leaf"}


def _phase2_ops():
    """The tags one phase-2 step of each fusion scheme records over its two
    per-scene tapes, leaves aside. A phase-2 step records shifts at any
    threshold (from pred - gt and student - teacher). The add step runs at
    pseudo_threshold = 1.0, where no target position clears the threshold
    (as can happen on ref-direct at 0.9), so it also covers a target scene
    with no pseudo-label, whose seg_nll terms are a plain 0.0."""
    recorded = set()
    for scheme, threshold in (("add", 1.0), ("gated", 0.0)):
        cfg, weights, scene_s, scene_t = _tiny_setup(scheme)
        cfg = replace(cfg, pseudo_threshold=threshold)
        for scene in (scene_s, scene_t):
            g = DiffGraph()
            compute_losses(bind(weights, g), scene, cfg, 2)
            recorded |= {node.op for node in g.nodes}
    return recorded - {"leaf"}


def test_every_public_op_has_a_finite_difference_case():
    """The OPS list cannot drift from the tape: every generic op and every
    op a training step records has a finite-difference case."""
    cases = {n for n, _ in OPS}
    for recorded in (_generic_ops(), _phase2_ops()):
        assert not recorded - cases, sorted(recorded - cases)


def test_every_public_op_is_recorded_by_a_training_step():
    """A phase-2 step records every generic op the tape offers, so the tape
    holds no op that only its tests run."""
    missing = _generic_ops() - _phase2_ops()
    assert not missing, sorted(missing)


def test_a_step_without_reliability_records_nothing_after_the_supervised_loss():
    """Phase 1, and phase 2 at beta = 0, keep the reliability loss off
    either scene's tape: each scene's share of the overall loss is its
    supervised share itself, the last node on the tape, not a shift of it
    by a plain 0.0."""
    cfg, weights, scene_s, scene_t = _tiny_setup("add")
    for phase, beta in ((1, 1.0), (2, 0.0)):
        run_cfg = replace(cfg, beta=beta)
        for scene in (scene_s, scene_t):
            g = DiffGraph()
            parts = compute_losses(bind(weights, g), scene, run_cfg, phase)
            assert parts["overall"] is parts["supervised"]
            assert parts["overall"].nid == len(g.nodes) - 1


def test_row_and_col_broadcast_ops():
    """The reference add_col and sub_row broadcasts, with plain-array and
    tensor operands."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        b_col = rng.normal(size=(rows, 1))
        b_row = rng.normal(size=(1, cols))

        def f(x):
            y = ref_op("add_col", x, b_col)
            z = ref_op("sub_row", y, b_row)
            return sum_all(ref_op("tanh", z))

        assert grad_check(f, rng.normal(size=(rows, cols))) < 1e-6

        def f_col(c, shape=(rows, cols)):
            return sum_all(ref_op("sigmoid", ref_op("add_col", np.ones(shape), c)))

        assert grad_check(f_col, b_col) < 1e-6


def test_ndarray_operands_are_held_by_shift_and_scale():
    """Mixing a numpy array into tensor arithmetic must not leak to numpy;
    the array is a fixed operand of a shift or scale node, not a node."""
    g = DiffGraph()
    x = g.leaf(np.array([[1.0, 2.0]]))
    arr = np.array([[10.0, 20.0]])
    for expr in (x + arr, arr + x, x - arr, arr - x, x * arr, arr * x):
        assert isinstance(expr, Tensor), type(expr)
    np.testing.assert_array_equal(raw(arr - x), arr - raw(x))
    assert {node.op for node in g.nodes} == {"leaf", "shift", "scale"}
    out = sum_all(arr * x + (arr - x))
    np.testing.assert_array_equal(g.backward(out)[x.nid], arr - 1.0)


def _leaf(g, shape):
    return g.leaf(np.ones(shape))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda g, x: x - _leaf(g, (2, 3)), r"sub of two tensors \(2, 3\) and \(2, 3\)"),
        (lambda g, x: x * _leaf(g, (2, 3)), r"mul of two tensors \(2, 3\) and \(2, 3\)"),
        (lambda g, x: x + np.ones((1, 3)), r"shift .* by ndarray \(1, 3\)"),
        (lambda g, x: x - np.ones(3), r"shift .* by ndarray \(3,\)"),
        (lambda g, x: np.ones((2, 1)) * x, r"scale .* by ndarray \(2, 1\)"),
        (lambda g, x: x * np.ones((3, 2)), r"scale .* by ndarray \(3, 2\)"),
        (lambda g, x: x * [1.0, 2.0, 3.0], r"scale .* by list \(3,\)"),
        (lambda g, x: x + [[1.0], [2.0]], r"shift .* by list \(2, 1\)"),
        (lambda g, x: x * [[1.0, 2.0]], r"scale .* by list \(1, 2\)"),
        (lambda g, x: x - [1.0, 2.0, 3.0], r"shift .* by ndarray \(3,\)"),
        (lambda g, x: [[1.0], [2.0]] - x, r"shift .* by list \(2, 1\)"),
        (lambda g, x: (1.0, 2.0, 3.0) + x, r"shift .* by tuple \(3,\)"),
        (lambda g, x: x + _leaf(g, (3, 2)), r"add shape mismatch: \(2, 3\) vs \(3, 2\)"),
        (lambda g, x: record("f", (x, np.ones((2, 3))), x.data, None), "ndarray is not"),
    ],
    ids=[
        "tensor-sub", "tensor-mul", "shift-row", "shift-1d", "scale-column",
        "scale-transposed", "scale-list-row", "shift-list-column",
        "scale-list-unbroadcastable", "sub-list-row", "rsub-list-column",
        "shift-tuple-row", "add-shapes", "fused-array-input",
    ],
)
def test_tensor_arithmetic_refuses_what_the_tape_cannot_record(build, message):
    """A ContractError naming the op and the shapes, not a TypeError or a
    numpy broadcast."""
    g = DiffGraph()
    x = _leaf(g, (2, 3))
    with pytest.raises(ContractError, match=message):
        build(g, x)


def test_backward_visits_each_node_once_via_accumulation():
    """x used twice: gradient must be the sum of both paths, not the last."""
    g = DiffGraph()
    x = g.leaf(np.array([[3.0]]))
    out = sum_all(ref_op("mul", x, x) + x * 5.0)  # x^2 + 5x
    grads = g.backward(out)
    np.testing.assert_allclose(grads[x.nid], [[2 * 3.0 + 5.0]], atol=1e-15)


def _unfused_hopfield(xi, nu, gamma, steps):
    """The damped update op by op, as the tape recorded it before fusion."""
    x = xi
    for _ in range(steps):
        attn = ref_op("softmax_cols", ref_op("matmul", ref_op("transpose", nu), x))
        x = x * (1.0 - gamma) + ref_op("matmul", nu, attn) * gamma
    return x


def test_fused_hopfield_matches_unfused_chain_bit_for_bit():
    """Value and both adjoints equal the op-by-op tape exactly, with xi
    and nu also feeding consumers after the update. The reference shape
    d=32, N=M=256 runs the VJP's einsum column dot over 256 rows: it is
    bit-equal only while einsum sums them in order with a separate
    multiply and add, as the unfused sum does."""
    rng = np.random.default_rng(6)
    for d, n, all_steps in ((6, 10, (1, 2, 8)), (32, 256, (1, 8))):
        xi0 = rng.normal(size=(d, n))
        nu0 = rng.normal(size=(d, n))
        readout = rng.normal(size=(d, n))
        for steps, gamma in itertools.product(all_steps, (0.3, 1.0)):
            results = []
            for fused in (True, False):
                g = DiffGraph()
                xi = ref_op("tanh", g.leaf(xi0))
                nu = ref_op("tanh", g.leaf(nu0))
                if fused:
                    out = hopfield_update(xi, nu, gamma, steps)
                else:
                    out = _unfused_hopfield(xi, nu, gamma, steps)
                total = out + nu + xi * readout
                grads = g.backward(sum_all(total * readout))
                results.append((out.data, grads[xi.nid], grads[nu.nid]))
            for got, want in zip(*results):
                assert np.array_equal(got, want), (d, n, steps, gamma)


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
        ts = [ref_op("tanh", g.leaf(a)) for a in inputs]
        out = build(*ts)
        total = sum_all(out * rng.normal(size=out.shape))
        for t in ts:
            total = total + sum_all(t * rng.normal(size=t.shape))
        grads = g.backward(total)
        results.append([out.data] + [grads[t.nid] for t in ts])
    return results


def _unfused_dense(w, name, x, tanh=False, skip=None):
    """The dense block op by op, as the tape recorded it before fusion."""
    y = ref_op("add_col", ref_op("matmul", w[name + "_w"], x), w[name + "_b"])
    if tanh:
        y = ref_op("tanh", y)
    return y if skip is None else skip + y


def test_fused_dense_matches_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(10)
    shapes = [(5, 7), (5, 1), (7, 9), (5, 9)]  # W, b, x, skip
    arrays = [rng.normal(size=s) for s in shapes]
    for tanh in (False, True):
        for with_skip in (False, True):
            for x_const in (False, True):

                def build(dense, wt, bt, xt, st):
                    x = xt.data if x_const else xt
                    skip = st if with_skip else None
                    return dense({"l_w": wt, "l_b": bt}, "l", x, tanh=tanh, skip=skip)

                fused, unfused = _fused_and_unfused(
                    arrays,
                    lambda *ts: build(_dense, *ts),
                    lambda *ts: build(_unfused_dense, *ts),
                )
                for got, want in zip(fused, unfused):
                    assert np.array_equal(got, want), (tanh, with_skip, x_const)


def _unfused_seg_nll(logits, lab):
    """seg_nll op by op, as the tape recorded it before fusion."""
    k, n = logits.shape
    valid = lab != IGNORE
    one_hot = np.zeros((k, n))
    one_hot[lab[valid], np.nonzero(valid)[0]] = 1.0
    picked = ref_op("matmul", np.ones((1, k)), logits * one_hot)
    lse_row = ref_op("lse_cols", logits) * valid.astype(np.float64)[None, :]
    return sum_all(ref_op("sub", lse_row, picked)) * (1.0 / int(valid.sum()))


def test_fused_seg_nll_matches_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(11)
    logits = 3.0 * rng.normal(size=(4, 30))
    lab = rng.integers(0, 4, size=30)
    lab[::7] = IGNORE
    fused, unfused = _fused_and_unfused(
        [logits],
        lambda t: seg_nll(t, LabelMap(lab), ColumnPass(t.data)),
        lambda t: _unfused_seg_nll(t, lab),
    )
    for got, want in zip(fused, unfused):
        assert np.array_equal(got, want)


def _unfused_berhu_map(diff, c):
    """berhu_map op by op, as the tape recorded it before fusion."""
    a = ref_op("abs", diff)
    quad = ref_op("mul", diff, diff) * (1.0 / (2.0 * c)) + (c / 2.0)
    sel = (a.data <= c).astype(np.float64)
    return a * sel + quad * (1.0 - sel)


def test_fused_berhu_map_matches_unfused_chain_bit_for_bit():
    rng = np.random.default_rng(12)
    diff = 2.0 * rng.normal(size=(1, 40))
    for c in (0.3, 0.9):
        fused, unfused = _fused_and_unfused(
            [diff],
            lambda t: berhu_map(t, c),
            lambda t: _unfused_berhu_map(t, c),
        )
        for got, want in zip(fused, unfused):
            assert np.array_equal(got, want), c


def _unfused_kl_row(teacher, student):
    """_kl_row op by op, as the tape recorded it before fusion."""
    tv = raw(teacher)
    t = ColumnPass(tv)
    t_log = tv - t.lse
    s_log = ref_op("sub_row", student, ref_op("lse_cols", student))
    prod = t.prob * (t_log - s_log)
    return ref_op("matmul", np.ones((1, tv.shape[0])), prod)


def test_fused_kl_row_matches_unfused_chain_bit_for_bit():
    """Value and adjoints, with a teacher read as its column pass; the
    array pass gives the same value."""
    rng = np.random.default_rng(14)
    arrays = [3.0 * rng.normal(size=(4, 30)) for _ in range(2)]  # teacher, student
    fused, unfused = _fused_and_unfused(
        arrays,
        lambda t, s: _kl_row(ColumnPass(t.data), s, ColumnPass(s.data)),
        _unfused_kl_row,
    )
    for got, want in zip(fused, unfused):
        assert np.array_equal(got, want)
    teacher, student = [np.tanh(a) for a in arrays]
    on_arrays = _kl_row(ColumnPass(teacher), student, ColumnPass(student))
    assert np.array_equal(on_arrays, fused[0])


def _unfused_gate(xi, nu, w1, w2):
    """The gated fusion op by op, as the tape recorded it before fusion."""
    sig = ref_op("sigmoid", ref_op("matmul", w2, xi))
    return nu + ref_op("mul", ref_op("matmul", w1, xi), sig)


def test_fused_gate_matches_unfused_chain_bit_for_bit():
    """Value and the adjoints of xi, nu and both gate weights; the array
    pass gives the same value."""
    rng = np.random.default_rng(15)
    shapes = [(6, 9), (6, 9), (6, 6), (6, 6)]  # xi, nu, W1, W2
    arrays = [2.0 * rng.normal(size=s) for s in shapes]
    fused, unfused = _fused_and_unfused(
        arrays,
        lambda xi, nu, w1, w2: fuse(xi, nu, gate=(w1, w2)),
        _unfused_gate,
    )
    for got, want in zip(fused, unfused):
        assert np.array_equal(got, want)
    xi, nu, w1, w2 = [np.tanh(a) for a in arrays]
    assert np.array_equal(fuse(xi, nu, gate=(w1, w2)), fused[0])


def test_hopfield_reverse_pass_reuses_no_saved_memory():
    """steps=8, gamma=0.7: the attention maps hopfield_steps keeps for the
    VJP own disjoint memory, and the VJP's reused workspaces write into
    none of the node's inputs, value or kept maps, so a second reverse pass
    gives equal bits and the data reads as before."""
    rng = np.random.default_rng(8)
    steps = 8
    g = DiffGraph()
    xi = ref_op("tanh", g.leaf(rng.normal(size=(6, 10))))
    nu = ref_op("tanh", g.leaf(rng.normal(size=(6, 12))))
    saved = []
    hopfield_steps(xi.data, nu.data, 0.7, steps, saved)
    attn = [a for _, a in saved]
    assert len(attn) == steps
    for i in range(steps):
        for j in range(i + 1, steps):
            assert not np.shares_memory(attn[i], attn[j]), (i, j)
    out = hopfield_update(xi, nu, 0.7, steps)
    loss = sum_all(out * rng.normal(size=(6, 10)))
    kept = [t.data.copy() for t in (xi, nu, out)]
    first = g.backward(loss)
    second = g.backward(loss)
    for t in (xi, nu):
        assert np.array_equal(first[t.nid], second[t.nid])
    for t, before in zip((xi, nu, out), kept):
        assert np.array_equal(t.data, before)


def _hopfield_reverse_pass_peak(steps):
    """Peak bytes the reverse pass of one reference-shape "hopfield" node
    (d=32, N=M=256, gamma 1.0) allocates above what it starts with."""
    rng = np.random.default_rng(19)
    g = DiffGraph()
    xi = g.leaf(rng.normal(size=(32, 256)))
    nu = g.leaf(rng.normal(size=(32, 256)))
    out = hopfield_update(xi, nu, 1.0, steps)
    loss = sum_all(out * rng.normal(size=out.shape))
    tracemalloc.start()
    try:
        g.backward(loss)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hopfield_reverse_pass_memory_does_not_grow_with_its_terms():
    """Each adjoint term is summed before the next one exists, so eight
    steps' 18 terms cost the reverse pass less than four (d, N) terms more
    than one step's 4; a VJP that lists its terms first holds all 18."""
    term = 32 * 256 * 8
    one, eight = _hopfield_reverse_pass_peak(1), _hopfield_reverse_pass_peak(8)
    assert eight - one < 4 * term, (one, eight)


def test_backward_checks_every_vjp_term_count():
    """A VJP yielding fewer or more terms than its node has input slots
    is a ContractError naming the op; a VJP's own ValueError passes on."""
    g = DiffGraph()
    a = g.leaf(np.ones((2, 2)))
    for count in (1, 3):
        out = sum_all(record("pair", (a, a), a.data, lambda gy: (gy for _ in range(count))))
        with pytest.raises(ContractError, match="pair VJP"):
            g.backward(out)

    def bad_vjp(gy):
        raise ValueError("inside the VJP")

    out = sum_all(record("pair", (a, a), a.data, bad_vjp))
    with pytest.raises(ValueError, match="inside the VJP") as err:
        g.backward(out)
    assert not isinstance(err.value, ContractError)


def test_backward_never_writes_into_a_borrowed_adjoint():
    """add, shift and transpose hand back g or a view of it; x feeds three
    consumers (add twice), so its adjoint is a sum that must not land in
    theirs."""
    g = DiffGraph()
    xv = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = np.array([[0.5, -1.0], [2.0, 0.25]])
    x = g.leaf(xv)
    a = x + x
    s = x + 1.5
    t = ref_op("transpose", x)
    tt = ref_op("transpose", t)
    total = a + s + tt
    out = sum_all(total * w)
    grads = g.backward(out)
    # every consumer's adjoint is w (tt: w, t: w.T); x collects 2w + w + w
    for node in (total, a, s, tt):
        np.testing.assert_array_equal(grads[node.nid], w)
    np.testing.assert_array_equal(grads[t.nid], w.T)
    np.testing.assert_array_equal(grads[x.nid], 4.0 * w)


def test_a_leaf_borrows_its_float64_matrix():
    """No copy: a bound weight is the caller's array itself."""
    a = np.arange(6.0).reshape(2, 3)
    assert DiffGraph().leaf(a).data is a


def test_record_and_sum_all_on_arrays_record_nothing():
    """With no Tensor among the inputs, a block's value comes back as the
    same object, and a sum is a float equal to the graph's (1, 1) sum."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 6))
    for value in (rng.normal(size=(5, 7)), 0.1):
        assert record("block", (x, 3.0), value, None) is value
    got = sum_all(x)
    assert type(got) is float
    g = DiffGraph()
    assert np.array_equal([[got]], sum_all(g.leaf(x)).data)


def test_array_and_graph_passes_agree_bit_for_bit():
    """The distillation losses (masks with both sides present) and the
    Hopfield update give equal values on plain arrays and on graph leaves;
    each seg side is one kl_row node, its teacher read as arrays."""
    rng = np.random.default_rng(13)
    logits = [2.0 * rng.normal(size=(4, 12)) for _ in range(2)]
    depths = [rng.normal(size=(1, 12)) for _ in range(2)]
    mask = ReliabilityMask(m=(np.arange(12) % 3 == 0).reshape(1, -1))
    # a leaf borrows its array, so the graph and the array pass share the passes
    cols = tuple(map(ColumnPass, logits))
    g = DiffGraph()
    seg = rfa_seg_loss(*[g.leaf(a) for a in logits], mask, cols)
    assert {node.op for node in g.nodes} == {"leaf", "kl_row", "scale", "sum", "add"}
    assert np.array_equal([[rfa_seg_loss(*logits, mask, cols)]], seg.data)
    dep = rfa_dep_loss(*[g.leaf(a) for a in depths], mask, 0.5)
    assert np.array_equal([[rfa_dep_loss(*depths, mask, 0.5)]], dep.data)
    xi, nu = rng.normal(size=(5, 7)), rng.normal(size=(5, 9))
    for steps in (1, 2, 8):
        want = hopfield_update(g.leaf(xi), g.leaf(nu), 0.7, steps).data
        assert np.array_equal(hopfield_update(xi, nu, 0.7, steps), want), steps


def test_record_and_sum_all_land_on_the_first_tensors_graph():
    """A Tensor input puts the node on its graph; a block that mixes a
    Tensor with an array input, or with another graph's Tensor, is refused."""
    g, other = DiffGraph(), DiffGraph()
    arr = np.ones((2, 2))
    t = g.leaf(arr)
    node = record("block", (t, t), arr * 2.0, lambda gr: (gr, gr))
    assert node.graph is g and g.nodes[node.nid].op == "block"
    assert np.array_equal(record("block", (t,), 0.1, None).data, [[0.1]])
    s = sum_all(t)
    assert s.graph is g and g.nodes[s.nid].op == "sum"
    for inputs in ((t, arr), (arr, t), (t, other.leaf(arr))):
        with pytest.raises(ContractError, match="is not a tensor of this graph"):
            record("block", inputs, arr, None)
