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
from .autodiff import raw, record, sum_all
from .numeric import ContractError
from .objectives import berhu_map


@dataclass
class ReliabilityMask:
    """Binary row m (1 where the fused branch won) and its count."""

    m: np.ndarray
    count: int = field(init=False)

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64).reshape(1, -1)
        if not np.all((self.m == 0.0) | (self.m == 1.0)):
            raise ContractError("mask entries must be 0 or 1")
        self.count = int(self.m.sum())

    @property
    def size(self) -> int:
        return self.m.size


def free_energy_map(cols: numeric.ColumnPass) -> np.ndarray:
    """Per-position -lse over class logits, read off their column pass,
    shape 1 x N."""
    if cols.x.shape[0] < 2:
        raise ContractError(f"need at least 2 classes, got {cols.x.shape[0]}")
    return cols.lse * -1.0


def depth_energy_map(pred, ref, c: float):
    """Per-position reverse Huber residual energy against a reference."""
    if pred.shape != ref.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {ref.shape}")
    return berhu_map(pred - ref, c)


def reliability_mask(e_plain: np.ndarray, e_fused: np.ndarray) -> ReliabilityMask:
    """1 where the fused energy is strictly lower; ties go to 0."""
    if e_plain.shape != e_fused.shape:
        raise ContractError(f"shape mismatch: {e_plain.shape} vs {e_fused.shape}")
    return ReliabilityMask(m=(e_fused < e_plain).astype(np.float64).reshape(1, -1))


def _kl_row(teacher: numeric.ColumnPass, student, cols: numeric.ColumnPass):
    """Per-position KL(teacher || student) from logits, as one "kl_row"
    node with the value and adjoint terms of the tests' op-by-op chain, in
    its order, bit for bit. The teacher is read as its column pass, so
    detached; `cols` is the column pass over the student's values. Both
    log-softmaxes are read off their passes, so a head that teaches one side
    and learns on the other computes its own once."""
    sv = raw(student)
    cols.check_over(sv)
    t_prob = teacher.prob
    ones = np.ones((1, sv.shape[0]))
    value = ones @ (t_prob * (teacher.log_prob - cols.log_prob))

    def vjp(g):
        g_log = (ones.T @ g) * t_prob * -1.0
        return (g_log, cols.prob * -g_log.sum(axis=0, keepdims=True))

    return record("kl_row", (student, student), value, vjp)


def _check_maps(plain, fused, mask: ReliabilityMask):
    if plain.shape != fused.shape:
        raise ContractError(f"shape mismatch: {plain.shape} vs {fused.shape}")
    n = plain.shape[1]
    if mask.size != n:
        raise ContractError(f"mask covers {mask.size} positions, the maps have {n}")


def _distil(rows, plain, fused, mask: ReliabilityMask):
    """Masked bidirectional distillation between two branches.

    rows(teacher, student) is the per-position loss of the student branch
    against the detached teacher branch. Where the mask is 0 the plain
    branch teaches the fused one, where it is 1 the fused branch teaches
    the plain one; each side is averaged over its own positions and a side
    with no positions is dropped.
    """
    loss = None
    for teacher, student, weight, count in (
        (plain, fused, 1.0 - mask.m, mask.size - mask.count),
        (fused, plain, mask.m, mask.count),
    ):
        if count > 0:
            side = sum_all(rows(teacher, student) * weight) * (1.0 / count)
            loss = side if loss is None else loss + side
    return loss


def rfa_seg_loss(p_plain, p_fused, mask: ReliabilityMask, cols: tuple):
    """Masked bidirectional KL distillation between the two logit maps;
    `cols` holds the column passes over their values, plain first."""
    _check_maps(p_plain, p_fused, mask)
    c_plain, c_fused = cols
    return _distil(
        lambda teacher, student: _kl_row(teacher[1], *student),
        (p_plain, c_plain),
        (p_fused, c_fused),
        mask,
    )


def rfa_dep_loss(d_plain, d_fused, mask: ReliabilityMask, c: float):
    """Masked bidirectional reverse-Huber consistency between depth maps.

    The residual is even, so each side keeps the stated value while the
    teacher (the branch that won that side's energy comparison) is
    detached and only the student receives gradients.
    """
    _check_maps(d_plain, d_fused, mask)
    return _distil(
        lambda teacher, student: berhu_map(student - raw(teacher), c),
        d_plain,
        d_fused,
        mask,
    )


def rfa_total(seg_loss, dep_loss, alpha: float):
    return seg_loss + alpha * dep_loss


def energy_softmax_identity(logits) -> tuple:
    """Two routes to the log of the winning softmax probability.

    Direct route: log max softmax(logits). Energy route: free_energy_map's
    -lse(logits), the score training uses, plus the max logit. Returns
    (lhs, rhs, absolute difference).
    """
    v = np.asarray(logits, dtype=np.float64).ravel()
    cols = numeric.ColumnPass(v)
    lhs = float(np.log(np.max(cols.prob)))
    rhs = float(free_energy_map(cols)[0, 0]) + float(np.max(v))
    return lhs, rhs, abs(lhs - rhs)
