"""Energy maps, reliability masks, and masked mutual distillation."""

import numpy as np
import pytest

from energyfuse.autodiff import DiffGraph, raw
from energyfuse.numeric import ColumnPass, ContractError
from energyfuse.reliability import (
    ReliabilityMask,
    depth_energy_map,
    energy_softmax_identity,
    free_energy_map,
    reliability_mask,
    rfa_dep_loss,
    rfa_seg_loss,
    rfa_total,
)

LN4 = 1.3862943611198906
FE_2_0 = -2.1269280110429727
# KL(softmax([1,0]) || [0.5,0.5]) evaluated at 40 digits and rounded
KL_CONF_VS_UNIFORM = 0.11094407167172736


def _seg_loss(plain, fused, mask):
    """rfa_seg_loss with each map's column pass over its own values."""
    cols = (ColumnPass(raw(plain)), ColumnPass(raw(fused)))
    return rfa_seg_loss(plain, fused, mask, cols)


def test_free_energy_uniform_logits():
    e = free_energy_map(ColumnPass(np.zeros((4, 6))))
    np.testing.assert_allclose(e, -LN4, atol=1e-15)


def test_free_energy_hand_value():
    e = free_energy_map(ColumnPass(np.array([[2.0], [0.0]])))
    assert abs(e[0, 0] - FE_2_0) < 1e-15


def test_free_energy_shifts_opposite_to_logits():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 7))
    c = 3.7
    np.testing.assert_allclose(
        free_energy_map(ColumnPass(logits + c)),
        free_energy_map(ColumnPass(logits)) - c,
        atol=1e-12,
    )


def test_free_energy_bounded_by_max_logit():
    rng = np.random.default_rng(1)
    for _ in range(100):
        logits = rng.normal(size=(rng.integers(2, 9), 5)) * 10
        e = free_energy_map(ColumnPass(logits))
        assert np.all(e <= -logits.max(axis=0) + 1e-12)
    # uniform logits attain the gap ln K exactly
    k = 6
    e = free_energy_map(ColumnPass(np.full((k, 3), 2.0)))
    np.testing.assert_allclose(e, -2.0 - np.log(k), atol=1e-12)


def test_free_energy_rejects_single_class():
    with pytest.raises(ContractError):
        free_energy_map(ColumnPass(np.zeros((1, 4))))


def test_depth_energy_zero_residual():
    d = np.linspace(1, 2, 5).reshape(1, -1)
    np.testing.assert_array_equal(depth_energy_map(d, d, 1.0), np.zeros((1, 5)))


def test_depth_energy_linear_and_quadratic_branches():
    pred = np.array([[0.1, 2.0]])
    ref = np.zeros((1, 2))
    e = depth_energy_map(pred, ref, 1.0)
    np.testing.assert_allclose(e, [[0.1, 2.5]], atol=1e-15)


def test_depth_energy_shape_mismatch():
    with pytest.raises(ContractError):
        depth_energy_map(np.zeros((1, 3)), np.zeros((1, 4)), 1.0)


def test_mask_shape_mismatch():
    """(1, 3) against (1, 1) would broadcast into a 3-position mask."""
    with pytest.raises(ContractError, match=r"^shape mismatch: \(1, 3\) vs \(1, 1\)$"):
        reliability_mask(np.zeros((1, 3)), np.zeros((1, 1)))


def test_mask_dominance_and_ties():
    n = 5
    all_on = reliability_mask(np.ones((1, n)), np.zeros((1, n)))
    assert all_on.count == n
    ties = reliability_mask(np.ones((1, n)), np.ones((1, n)))
    assert ties.count == 0
    np.testing.assert_array_equal(ties.m, np.zeros((1, n)))


def test_mask_hand_case():
    mask = reliability_mask(np.array([[1.0, -1.0]]), np.array([[0.0, 0.0]]))
    np.testing.assert_array_equal(mask.m, [[1.0, 0.0]])
    assert mask.count == 1


def test_mask_partition_property():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        ep = np.round(rng.normal(size=(1, n)), 1)  # rounding forces ties
        ef = np.round(rng.normal(size=(1, n)), 1)
        mask = reliability_mask(ep, ef)
        on = mask.count
        off = int(np.sum(1.0 - mask.m))
        assert on + off == n


def test_mask_validation():
    with pytest.raises(ContractError):
        ReliabilityMask(m=np.array([[0.5, 1.0]]))
    # the count is derived from the entries, never passed in
    assert ReliabilityMask(m=np.array([[1.0, 0.0, 1.0]])).count == 2
    with pytest.raises(TypeError):
        ReliabilityMask(m=np.array([[1.0, 0.0]]), count=1)


@pytest.mark.parametrize("loss", ["seg", "dep"])
def test_rfa_losses_check_map_shapes_and_mask_size(loss):
    rows = 3 if loss == "seg" else 1

    def rfa(plain, fused, mask):
        if loss == "seg":
            return _seg_loss(plain, fused, mask)
        return rfa_dep_loss(plain, fused, mask, 1.0)

    mask = ReliabilityMask(m=np.array([[1.0, 0.0, 1.0, 0.0]]))
    with pytest.raises(ContractError, match=rf"^shape mismatch: \({rows}, 4\) vs \({rows}, 3\)$"):
        rfa(np.zeros((rows, 4)), np.zeros((rows, 3)), mask)
    with pytest.raises(ContractError, match="^mask covers 4 positions, the maps have 5$"):
        rfa(np.zeros((rows, 5)), np.zeros((rows, 5)), mask)


def test_rfa_seg_zero_for_identical_logits():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 9))
    mask = ReliabilityMask(m=(np.arange(9) % 2 == 0).astype(float))
    assert abs(_seg_loss(p, p.copy(), mask)) < 1e-15


def test_rfa_seg_all_ones_mask_hand_value():
    """All positions fused-taught: mean KL(softmax([1,0]) || uniform)."""
    n = 7
    p_plain = np.zeros((2, n))
    p_fused = np.vstack([np.ones(n), np.zeros(n)])
    mask = ReliabilityMask(m=np.ones((1, n)))
    loss = _seg_loss(p_plain, p_fused, mask)
    assert abs(loss - KL_CONF_VS_UNIFORM) < 1e-12


def test_rfa_seg_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 12))
        p1 = rng.normal(size=(k, n)) * 3
        p2 = rng.normal(size=(k, n)) * 3
        mask = ReliabilityMask(m=(rng.uniform(size=n) < 0.5).astype(float))
        assert _seg_loss(p1, p2, mask) >= 0.0


def test_rfa_seg_zero_iff_same_distributions():
    """Logit maps differing by per-column shifts induce equal distributions."""
    rng = np.random.default_rng(5)
    p = rng.normal(size=(3, 6))
    shifted = p + rng.normal(size=(1, 6))  # same softmax per column
    mask = ReliabilityMask(m=np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]))
    assert abs(_seg_loss(p, shifted, mask)) < 1e-12
    different = p.copy()
    different[0, 0] += 0.5
    assert _seg_loss(p, different, mask) > 1e-12


def test_rfa_seg_teacher_side_gradient_exactly_zero():
    """Gradients reach only the student branch on each side of the mask."""
    rng = np.random.default_rng(6)
    k, n = 3, 8
    plain_vals = rng.normal(size=(k, n))
    fused_vals = rng.normal(size=(k, n))
    m = (np.arange(n) % 2).astype(float)
    mask = ReliabilityMask(m=m)

    g = DiffGraph()
    p_plain = g.leaf(plain_vals)
    p_fused = g.leaf(fused_vals)
    loss = _seg_loss(p_plain, p_fused, mask)
    grads = g.backward(loss)
    g_plain = grads[p_plain.nid]
    g_fused = grads[p_fused.nid]
    # mask=0 positions: plain is the teacher there, fused the student
    off_cols = np.where(m == 0.0)[0]
    on_cols = np.where(m == 1.0)[0]
    assert np.all(g_plain[:, off_cols] == 0.0)
    assert np.all(g_fused[:, on_cols] == 0.0)
    assert np.any(g_fused[:, off_cols] != 0.0)
    assert np.any(g_plain[:, on_cols] != 0.0)


def test_rfa_dep_teacher_side_gradient_exactly_zero():
    rng = np.random.default_rng(7)
    n = 6
    plain_vals = rng.normal(size=(1, n)) + 2.0
    fused_vals = rng.normal(size=(1, n)) + 2.0
    m = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    mask = ReliabilityMask(m=m)
    g = DiffGraph()
    d_plain = g.leaf(plain_vals)
    d_fused = g.leaf(fused_vals)
    loss = rfa_dep_loss(d_plain, d_fused, mask, c=0.8)
    grads = g.backward(loss)
    on = m == 1.0
    assert np.all(grads[d_fused.nid][0, on] == 0.0)
    assert np.all(grads[d_plain.nid][0, ~on] == 0.0)


def test_rfa_dep_zero_for_identical_maps():
    d = np.array([[1.0, 2.0, 3.0]])
    mask = ReliabilityMask(m=np.array([1.0, 0.0, 1.0]))
    assert rfa_dep_loss(d, d.copy(), mask, c=0.5) == 0.0


def test_rfa_dep_all_zero_mask_linear_branch():
    """Residual 0.1 under c: the off-side mean is just 0.1."""
    n = 4
    d_plain = np.full((1, n), 1.0)
    d_fused = np.full((1, n), 1.1)
    mask = ReliabilityMask(m=np.zeros((1, n)))
    assert abs(rfa_dep_loss(d_plain, d_fused, mask, c=1.0) - 0.1) < 1e-12


def test_rfa_dep_swap_with_complemented_mask_keeps_value():
    """berHu is even, so swapping branches and flipping the mask is neutral."""
    rng = np.random.default_rng(8)
    n = 9
    a = rng.normal(size=(1, n))
    b = rng.normal(size=(1, n))
    m = (rng.uniform(size=n) < 0.4).astype(float)
    v1 = rfa_dep_loss(a, b, ReliabilityMask(m=m), c=0.7)
    v2 = rfa_dep_loss(b, a, ReliabilityMask(m=1.0 - m), c=0.7)
    assert abs(v1 - v2) < 1e-12


def test_degenerate_masks_stay_finite():
    rng = np.random.default_rng(9)
    p1 = rng.normal(size=(3, 5))
    p2 = rng.normal(size=(3, 5))
    d1 = rng.normal(size=(1, 5))
    d2 = rng.normal(size=(1, 5))
    for m in (np.zeros(5), np.ones(5)):
        mask = ReliabilityMask(m=m)
        assert np.isfinite(_seg_loss(p1, p2, mask))
        assert np.isfinite(rfa_dep_loss(d1, d2, mask, c=0.3))


def test_rfa_total_weighting():
    assert rfa_total(0.0, 0.0, alpha=0.001) == 0.0
    assert rfa_total(1.0, 0.0, alpha=0.001) == 1.0
    assert abs(rfa_total(0.5, 2.0, alpha=0.001) - 0.502) < 1e-15


def test_energy_softmax_identity_hand_case():
    lhs, rhs, diff = energy_softmax_identity([2.0, 0.0])
    assert abs(lhs - (-0.1269280110429725)) < 1e-15
    assert diff < 1e-12


def test_energy_softmax_identity_uniform():
    for k in (2, 5, 16):
        lhs, rhs, diff = energy_softmax_identity(np.full(k, 1.5))
        assert abs(lhs - (-np.log(k))) < 1e-12
        assert diff < 1e-12


def test_energy_softmax_identity_random_sweep():
    rng = np.random.default_rng(10)
    diffs = []
    for _ in range(1000):
        k = int(rng.integers(2, 17))
        logits = rng.uniform(-50, 50, size=k)
        _, _, diff = energy_softmax_identity(logits)
        diffs.append(diff)
        # additive shifts leave both routes unchanged
        _, _, diff_shift = energy_softmax_identity(logits + 17.0)
        diffs.append(diff_shift)
    assert np.max(diffs) < 1e-12
