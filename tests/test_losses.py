"""Task objectives: energy-form cross-entropy, reverse Huber, composites."""

import numpy as np
import pytest

from energyfuse.numeric import ColumnPass, ContractError
from energyfuse.objectives import (
    IGNORE,
    LabelMap,
    berhu_loss,
    berhu_map,
    four_term_total,
    overall_loss,
    pseudo_label,
    seg_nll,
    supervised_loss,
)
from energyfuse.config import RunConfig
from energyfuse.metrics import build_data, build_model
from energyfuse.train import train

SEG_NLL_2_0 = 0.1269280110429725  # lse([2,0]) - 2 at 40 digits, rounded
CONF_2_0 = 0.8807970779778824  # top softmax probability of [2, 0]


def _labels(values):
    return LabelMap(labels=np.asarray(values, dtype=np.int64))


def _nll(logits, labels):
    """seg_nll with the column pass over the logits themselves."""
    return seg_nll(logits, labels, ColumnPass(logits))


def test_seg_nll_hand_value():
    logits = np.array([[2.0], [0.0]])
    assert abs(_nll(logits, _labels([0])) - SEG_NLL_2_0) < 1e-15


def test_seg_nll_uniform_logits_is_log_k():
    for k in (2, 4, 7):
        logits = np.full((k, 5), 3.3)
        labels = _labels(np.arange(5) % k)
        assert abs(_nll(logits, labels) - np.log(k)) < 1e-12


def test_seg_nll_equals_softmax_cross_entropy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(1, 20))
        logits = rng.normal(size=(k, n)) * 5
        y = rng.integers(0, k, size=n)
        ce = float(np.mean(-np.log(ColumnPass(logits).prob[y, np.arange(n)])))
        assert abs(_nll(logits, _labels(y)) - ce) < 1e-12


def test_seg_nll_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(100):
        logits = rng.normal(size=(4, 9)) * 8
        y = rng.integers(0, 4, size=9)
        assert _nll(logits, _labels(y)) >= -1e-12


def test_seg_nll_ignores_masked_positions():
    logits = np.array([[2.0, 100.0], [0.0, -100.0]])
    labels = _labels([0, IGNORE])
    assert abs(_nll(logits, labels) - SEG_NLL_2_0) < 1e-15


def test_seg_nll_all_ignore_is_zero():
    logits = np.zeros((3, 4))
    assert _nll(logits, _labels([IGNORE] * 4)) == 0.0


def test_seg_nll_rejects_label_out_of_range():
    with pytest.raises(ContractError):
        _nll(np.zeros((3, 2)), _labels([0, 3]))
    # the message names the first label >= k in order; LabelMap itself
    # rejects a label below IGNORE
    for labels, bad in ([1, 4, IGNORE, 5], 4), ([0, IGNORE, 7, 4], 7):
        with pytest.raises(ContractError, match=rf"out of range \[0, 4\): {bad}$"):
            _nll(np.zeros((4, len(labels))), _labels(labels))


def test_seg_nll_rejects_a_label_count_other_than_the_positions():
    for n_labels in (1, 3):
        with pytest.raises(ContractError, match=f"^{n_labels} labels for 2 positions$"):
            _nll(np.zeros((3, 2)), _labels([0] * n_labels))


def test_label_map_rejects_negative_non_ignore():
    with pytest.raises(ContractError):
        _labels([0, -2])
    # the message names the first offender in order, not the smallest
    with pytest.raises(ContractError, match="negative label -2 is"):
        _labels([0, IGNORE, -2, -5])
    assert _labels([]).labels.size == 0
    assert _labels([IGNORE, 0]).labels.tolist() == [IGNORE, 0]


def test_berhu_zero_residual():
    d = np.array([[1.0, 2.0, 3.0]])
    assert berhu_loss(d, d.copy()) == 0.0


def test_berhu_hand_values():
    """Residuals [5,0]: c=1, mean (13+0)/2 = 6.5; residuals [1,1]: c=0.2,
    both quadratic, each (1+0.04)/0.4 = 2.6."""
    gt = np.zeros((1, 2))
    assert abs(berhu_loss(np.array([[5.0, 0.0]]), gt) - 6.5) < 1e-12
    assert abs(berhu_loss(np.array([[1.0, 1.0]]), gt) - 2.6) < 1e-12


def test_berhu_map_branches():
    e = np.array([[0.1, 2.0]])
    np.testing.assert_allclose(berhu_map(e, 1.0), [[0.1, 2.5]], atol=1e-15)
    np.testing.assert_allclose(berhu_map(-e, 1.0), [[0.1, 2.5]], atol=1e-15)


def test_berhu_map_zero_threshold_and_negative():
    e = np.array([[0.5, -0.5]])
    np.testing.assert_array_equal(berhu_map(e, 0.0), np.zeros((1, 2)))
    with pytest.raises(ContractError):
        berhu_map(e, -0.1)


def test_berhu_continuous_at_threshold():
    c = 0.37
    eps = 1e-8
    lo = berhu_map(np.array([[c - eps]]), c)[0, 0]
    hi = berhu_map(np.array([[c + eps]]), c)[0, 0]
    assert abs(hi - lo) < 1e-6


def test_berhu_shape_mismatch():
    with pytest.raises(ContractError):
        berhu_loss(np.zeros((1, 3)), np.zeros((1, 2)))


def test_four_term_total():
    assert four_term_total(0.0, 0.0, 0.0, 0.0) == 0.0
    assert four_term_total(1.0, 2.0, 3.0, 4.0) == 10.0
    a, b = 0.7, 1.3
    assert abs(four_term_total(a, a, b, b) - 2 * (a + b)) < 1e-15


def test_supervised_loss_weighting():
    assert supervised_loss(1.0, 0.0, 0.001) == 1.0
    assert abs(supervised_loss(0.0, 1000.0, 0.001) - 1.0) < 1e-12


def test_overall_loss_weighting():
    assert overall_loss(2.0, 5.0, 0.0) == 2.0
    assert abs(overall_loss(2.0, 3.0, 0.5) - 3.5) < 1e-15


def test_pseudo_label_threshold_zero_labels_everything():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 11))
    out = pseudo_label(ColumnPass(logits), 0.0)
    np.testing.assert_array_equal(out.labels, np.argmax(logits, axis=0))


def test_pseudo_label_threshold_one_ignores_everything():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(3, 8))
    out = pseudo_label(ColumnPass(logits), 1.0)
    assert np.all(out.labels == IGNORE)


def test_pseudo_label_hand_confidence():
    """[2, 0] has confidence ~0.8808: kept at 0.8, dropped at 0.9."""
    logits = np.array([[2.0], [0.0]])
    assert pseudo_label(ColumnPass(logits), 0.9).labels[0] == IGNORE
    assert pseudo_label(ColumnPass(logits), 0.8).labels[0] == 0
    # and the probability itself matches the frozen constant
    p = ColumnPass(logits).prob
    assert abs(p.max() - CONF_2_0) < 1e-15


def test_pseudo_label_monotone_in_threshold():
    """Raising the threshold never resurrects an ignored position."""
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 40)) * 2
    prev = pseudo_label(ColumnPass(logits), 0.0).labels
    for t in (0.3, 0.6, 0.9, 0.99):
        cur = pseudo_label(ColumnPass(logits), t).labels
        newly_labeled = (prev == IGNORE) & (cur != IGNORE)
        assert not np.any(newly_labeled)
        prev = cur


def test_loss_bundle_identities_enforced():
    """Every bundle a training step builds has supervised = seg + alpha * dep
    and overall = supervised + beta * rfa, bit for bit, in both phases."""
    cfg = RunConfig(
        t1=3, t2=3, lr=0.05, alpha=0.3, beta=0.7, seed=0, h=6, w=6, k=3,
        channels=4, n_scenes=4,
    )
    source, target = build_data(cfg)
    _, trace = train(build_model(cfg), source, target, cfg)
    assert [e.phase for e in trace] == [1, 1, 1, 2, 2, 2]
    for b in trace:
        assert b.supervised == b.seg_total + cfg.alpha * b.dep_total
        assert b.overall == b.supervised + cfg.beta * b.rfa
    assert any(b.rfa > 0.0 for b in trace[cfg.t1 :])
