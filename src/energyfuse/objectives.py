"""Task losses and composite objectives.

Segmentation uses the energy-form negative log-likelihood (equivalent to
softmax cross-entropy), depth uses the reverse Huber loss with a
per-image threshold, and the composite losses stack per-branch totals
into the supervised and overall objectives. Each loss dispatches on its
own inputs (autodiff.record): a plain-array call returns a float, a call
on DiffGraph tensors records on their graph.
"""

from dataclasses import dataclass

import numpy as np

from . import numeric
from .autodiff import raw, record, sum_all
from .numeric import ContractError

IGNORE = -1  # the one negative label: LabelMap rejects every label below it


@dataclass
class LabelMap:
    """Per-position integer class labels; IGNORE marks excluded positions."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.labels.size and self.labels.min() < IGNORE:
            bad = self.labels[self.labels < IGNORE][0]
            raise ContractError(f"negative label {bad} is not the IGNORE sentinel")


@dataclass
class LossBundle:
    """One step's phase and scalar losses, in loss_trace.csv's column
    order: supervised = seg_total + alpha * dep_total and overall =
    supervised + beta * rfa."""

    phase: int
    seg_total: float
    dep_total: float
    supervised: float
    rfa: float
    overall: float


def seg_nll(logits, labels: LabelMap, cols: numeric.ColumnPass) -> object:
    """Mean over labeled positions of -P[y] + lse(P).

    Algebraically the softmax cross-entropy. IGNORE positions contribute
    to neither numerator nor normalizer; an all-IGNORE map gives 0. `cols`
    is the column pass over the logits' values: the value reads its lse,
    the VJP its softmax.
    """
    lab = labels.labels
    k, n = logits.shape
    if lab.size != n:
        raise ContractError(f"{lab.size} labels for {n} positions")
    valid = lab != IGNORE
    used = lab[valid]  # LabelMap holds no label below IGNORE
    if used.size and used.max() >= k:
        raise ContractError(f"label out of range [0, {k}): {used[used >= k][0]}")
    n_valid = int(valid.sum())
    if n_valid == 0:
        return 0.0
    one_hot = np.zeros((k, n))
    one_hot[used, np.nonzero(valid)[0]] = 1.0
    ones = np.ones((1, k))
    valid_row = valid.astype(np.float64)[None, :]
    scale = 1.0 / n_valid
    lv = raw(logits)
    cols.check_over(lv)
    picked = ones @ (lv * one_hot)
    total = float(np.sum(cols.lse * valid_row - picked)) * scale

    def vjp(g):
        # the lse term, then the picked-logit term, as the op-by-op tape
        g_row = np.full((1, n), (g * scale)[0, 0])
        return (
            cols.prob * (g_row * valid_row),
            (ones.T @ -g_row) * one_hot,
        )

    return record("seg_nll", (logits, logits), total, vjp)


def berhu_map(diff, c: float):
    """Elementwise reverse Huber: |e| up to c, then (e^2 + c^2) / (2c).

    The two branches join with matching value and slope at |e| = c, so
    selecting the branch from current values keeps gradients exact.
    """
    if c < 0:
        raise ContractError(f"berhu threshold must be >= 0, got {c}")
    if c == 0.0:
        return diff * 0.0
    d = raw(diff)
    a = np.abs(d)
    sel = (a <= c).astype(np.float64)
    rest = 1.0 - sel
    s = 1.0 / (2.0 * c)
    value = a * sel + ((d * d) * s + (c / 2.0)) * rest

    def vjp(g):
        # two terms from e * e, then the one from |e|, as the op-by-op tape
        g_sq = g * rest * s * d
        return (g_sq, g_sq, g * sel * np.sign(d))

    return record("berhu_map", (diff, diff, diff), value, vjp)


def berhu_threshold(diff: np.ndarray) -> float:
    """The per-image reverse Huber threshold max |diff| / 5."""
    return float(np.max(np.abs(diff))) / 5.0


def berhu_loss(pred, gt) -> object:
    """Mean reverse Huber loss with c = berhu_threshold(pred - gt).

    The threshold is computed from current values and held fixed for
    differentiation. Identical maps give 0 without dividing by c = 0.
    """
    if pred.shape != gt.shape:
        raise ContractError(f"depth shape mismatch: {pred.shape} vs {gt.shape}")
    e = pred - gt
    c = berhu_threshold(raw(e))
    if c == 0.0:
        return 0.0
    per = berhu_map(e, c)
    return sum_all(per) * (1.0 / raw(e).size)


def four_term_total(src_plain, src_fused, tgt_plain, tgt_fused):
    """Per-task total across both domains and both decoder branches."""
    return src_plain + src_fused + tgt_plain + tgt_fused


def supervised_loss(seg_total, dep_total, alpha: float):
    return seg_total + alpha * dep_total


def overall_loss(l_s, l_rfa, beta: float):
    return l_s + beta * l_rfa


def pseudo_label(cols: numeric.ColumnPass, threshold: float) -> LabelMap:
    """Argmax labels where the top softmax probability of a head, read off
    its column pass, clears the threshold.

    Positions below it get IGNORE. A fixed confidence cutoff is a plain
    stand-in for schedule-based self-training.
    """
    p = cols.prob
    conf = p.max(axis=0)
    winners = p.argmax(axis=0)
    labels = np.where(conf >= threshold, winners, IGNORE).astype(np.int64)
    return LabelMap(labels=labels)
