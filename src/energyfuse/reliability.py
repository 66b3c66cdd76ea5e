"""Reliability scoring of fused versus plain predictions.

Each branch gets a per-position energy (free energy for segmentation,
reverse Huber residual for depth). Positions where fusion strictly
lowers the energy form a mask, and the two branches then teach each
other through masked distillation: the lower-energy branch is the
detached teacher on its side of the mask.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .autodiff import ops, raw
from .numeric import ContractError
from .objectives import berhu_map


@dataclass
class ReliabilityMask:
    """Binary row m (1 where the fused branch won) and its count."""

    m: np.ndarray
    count: int = field(default=None)

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64).reshape(1, -1)
        if not np.all((self.m == 0.0) | (self.m == 1.0)):
            raise ContractError("mask entries must be 0 or 1")
        total = int(self.m.sum())
        if self.count is None:
            self.count = total
        elif self.count != total:
            raise ContractError(f"count {self.count} != sum of entries {total}")

    @property
    def size(self) -> int:
        return self.m.size


def free_energy_map(logits):
    """Per-position -lse over class logits, shape 1 x N."""
    if logits.shape[0] < 2:
        raise ContractError(f"need at least 2 classes, got {logits.shape[0]}")
    return numeric.lse_cols(raw(logits)) * -1.0


def depth_energy_map(pred, ref, c: float):
    """Per-position reverse Huber residual energy against a reference."""
    if pred.shape != ref.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {ref.shape}")
    return berhu_map(pred - ref, c)


def reliability_mask(e_plain, e_fused) -> ReliabilityMask:
    """1 where the fused energy is strictly lower; ties go to 0."""
    ep = raw(e_plain)
    ef = raw(e_fused)
    if ep.shape != ef.shape:
        raise ContractError(f"shape mismatch: {ep.shape} vs {ef.shape}")
    return ReliabilityMask(m=(ef < ep).astype(np.float64).reshape(1, -1))


def _kl_row(o, teacher, student):
    """Per-position KL(teacher || student) from logits; the teacher side
    is plain arrays, so it is detached and records nothing."""
    tv = raw(teacher)
    t_log = tv - numeric.lse_cols(tv)
    s_log = o.sub_row(student, o.lse_cols(student))
    k = teacher.shape[0]
    return o.matmul(np.ones((1, k)), numeric.softmax_cols(tv) * (t_log - s_log))


def rfa_seg_loss(p_plain, p_fused, mask: ReliabilityMask):
    """Masked bidirectional distillation between the two logit maps.

    Where the mask is 0 the plain branch teaches the fused one, where it
    is 1 the fused branch teaches the plain one; each side is averaged
    over its own positions and a side with no positions is dropped.
    """
    if p_plain.shape != p_fused.shape:
        raise ContractError(f"shape mismatch: {p_plain.shape} vs {p_fused.shape}")
    n = p_plain.shape[1]
    if mask.size != n:
        raise ContractError(f"mask covers {mask.size} positions, logits have {n}")
    o = ops(p_plain, p_fused)
    m_on = mask.count
    m_off = n - m_on
    loss = None
    if m_off > 0:
        off = o.sum(_kl_row(o, p_plain, p_fused) * (1.0 - mask.m)) * (1.0 / m_off)
        loss = off
    if m_on > 0:
        on = o.sum(_kl_row(o, p_fused, p_plain) * mask.m) * (1.0 / m_on)
        loss = on if loss is None else loss + on
    return loss


def rfa_dep_loss(d_plain, d_fused, mask: ReliabilityMask, c: float):
    """Masked bidirectional reverse-Huber consistency between depth maps.

    The residual is even, so each side keeps the stated value while the
    teacher (the branch that won that side's energy comparison) is
    detached and only the student receives gradients.
    """
    if d_plain.shape != d_fused.shape:
        raise ContractError(f"shape mismatch: {d_plain.shape} vs {d_fused.shape}")
    n = raw(d_plain).size
    if mask.size != n:
        raise ContractError(f"mask covers {mask.size} positions, depth has {n}")
    o = ops(d_plain, d_fused)
    m_on = mask.count
    m_off = n - m_on
    loss = None
    if m_off > 0:
        res = berhu_map(d_fused - raw(d_plain), c)
        loss = o.sum(res * (1.0 - mask.m)) * (1.0 / m_off)
    if m_on > 0:
        res = berhu_map(d_plain - raw(d_fused), c)
        on = o.sum(res * mask.m) * (1.0 / m_on)
        loss = on if loss is None else loss + on
    return loss


def rfa_total(seg_loss, dep_loss, alpha: float):
    return seg_loss + alpha * dep_loss


def energy_softmax_identity(logits) -> tuple:
    """Two routes to the log of the winning softmax probability.

    Direct route: log max softmax(logits). Energy route: -lse(logits)
    plus the max logit. Returns (lhs, rhs, absolute difference).
    """
    v = np.asarray(logits, dtype=np.float64).ravel()
    lhs = float(np.log(np.max(numeric.softmax(v))))
    rhs = -numeric.lse(v) + float(np.max(v))
    return lhs, rhs, abs(lhs - rhs)
