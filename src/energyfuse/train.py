"""Two-phase training loop.

Phase 1 minimizes the supervised loss (segmentation plus weighted depth,
four branch/domain terms each); phase 2 keeps it and adds the weighted
reliability loss on both domains, at a reduced learning rate. Plain SGD,
one source and one target scene per step, cycled in order. Everything is
a pure function of (seed, config, data): rerunning reproduces the final
weights bit for bit.
"""

import ctypes
import platform
from dataclasses import dataclass

import numpy as np

from .autodiff import DiffGraph, Tensor, raw
from .config import RunConfig
from .model import ModelParams, Predictions, bind, check_finite, forward_pass
from .numeric import ContractError
from .objectives import (
    LossBundle,
    berhu_loss,
    berhu_threshold,
    four_term_total,
    overall_loss,
    pseudo_label,
    seg_nll,
    supervised_loss,
)
from .reliability import (
    depth_energy_map,
    free_energy_map,
    reliability_mask,
    rfa_dep_loss,
    rfa_seg_loss,
    rfa_total,
)


class TrainingDiverged(RuntimeError):
    """A loss term stopped being finite; the message names it."""


@dataclass
class TraceEntry:
    step: int
    phase: int
    bundle: LossBundle


def _value(x) -> float:
    return x.item() if isinstance(x, Tensor) else float(x)


def _raw_predictions(pred: Predictions) -> Predictions:
    """The same values as plain arrays, so losses built on them record nothing."""
    return Predictions(
        seg_plain=raw(pred.seg_plain),
        seg_fused=raw(pred.seg_fused),
        dep_plain=raw(pred.dep_plain),
        dep_fused=raw(pred.dep_fused),
    )


def _rfa_domain(pred, ref_depth: np.ndarray, alpha: float):
    """Reliability loss of one domain: seg distillation + weighted depth.

    Masks come from current values only; each branch's depth energy uses
    its own berHu threshold against the reference depth.
    """
    e_plain = free_energy_map(raw(pred.seg_plain))
    e_fused = free_energy_map(raw(pred.seg_fused))
    seg_mask = reliability_mask(e_plain, e_fused)
    l_seg = rfa_seg_loss(pred.seg_plain, pred.seg_fused, seg_mask)

    d_plain = raw(pred.dep_plain)
    d_fused = raw(pred.dep_fused)
    c_plain = berhu_threshold(d_plain - ref_depth)
    c_fused = berhu_threshold(d_fused - ref_depth)
    c_cross = berhu_threshold(d_plain - d_fused)
    e_dp = depth_energy_map(d_plain, ref_depth, c_plain)
    e_df = depth_energy_map(d_fused, ref_depth, c_fused)
    dep_mask = reliability_mask(e_dp, e_df)
    l_dep = rfa_dep_loss(pred.dep_plain, pred.dep_fused, dep_mask, c_cross)
    return rfa_total(l_seg, l_dep, alpha)


def compute_losses(
    model: ModelParams, scene_s, scene_t, cfg: RunConfig, phase: int, weights: dict
) -> dict:
    """All loss terms of one step, as a dict of scalars (graph tensors
    when `weights` are bound leaves).

    Target supervision is always self-generated; the taint-flagged
    target labels are never read here.
    """
    if scene_s.labels_eval_only:
        raise ContractError("evaluation-only labels cannot drive a training loss")
    pred_s = forward_pass(model, scene_s, weights)
    pred_t = forward_pass(model, scene_t, weights)

    pseudo = pseudo_label(raw(pred_t.seg_fused), cfg.pseudo_threshold)

    seg_total = four_term_total(
        seg_nll(pred_s.seg_plain, scene_s.labels),
        seg_nll(pred_s.seg_fused, scene_s.labels),
        seg_nll(pred_t.seg_plain, pseudo),
        seg_nll(pred_t.seg_fused, pseudo),
    )
    dep_total = four_term_total(
        berhu_loss(pred_s.dep_plain, scene_s.depth),
        berhu_loss(pred_s.dep_fused, scene_s.depth),
        berhu_loss(pred_t.dep_plain, scene_t.depth),
        berhu_loss(pred_t.dep_fused, scene_t.depth),
    )
    overall = supervised = supervised_loss(seg_total, dep_total, cfg.alpha)

    # a reliability loss that is zero or weighted by zero contributes its
    # value, not a subgraph, and adding it to overall would tape a no-op shift
    l_rfa = 0.0
    if phase == 2:
        rfa_s, rfa_t = pred_s, pred_t
        if cfg.beta == 0.0:
            rfa_s, rfa_t = _raw_predictions(pred_s), _raw_predictions(pred_t)
        l_rfa = _rfa_domain(rfa_s, scene_s.depth, cfg.alpha) + _rfa_domain(
            rfa_t, scene_t.depth, cfg.alpha
        )
        if cfg.beta != 0.0:
            overall = overall_loss(supervised, l_rfa, cfg.beta)
    return {
        "seg_total": seg_total,
        "dep_total": dep_total,
        "supervised": supervised,
        "rfa": l_rfa,
        "overall": overall,
    }


def _pin_malloc_thresholds():
    """Keep freed step memory mapped, process-wide: pin glibc's mmap (-3) and
    trim (-1) thresholds at its 64-bit caps; one alone freezes the other at 128 KiB."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        if not (mallopt(-3, 32 << 20) and mallopt(-1, 64 << 20)):
            raise OSError("mallopt rejected glibc's own threshold caps")


def _train_step(
    model: ModelParams, scene_s, scene_t, cfg: RunConfig, phase: int, lr: float
) -> LossBundle:
    graph = DiffGraph()
    w = bind(model, graph)
    parts = compute_losses(model, scene_s, scene_t, cfg, phase, w)

    bundle = LossBundle(
        seg_total=_value(parts["seg_total"]),
        dep_total=_value(parts["dep_total"]),
        supervised=_value(parts["supervised"]),
        rfa=_value(parts["rfa"]),
        overall=_value(parts["overall"]),
        alpha=cfg.alpha,
        beta=cfg.beta,
    )
    for name in ("seg_total", "dep_total", "rfa", "supervised", "overall"):
        v = getattr(bundle, name)
        if not np.isfinite(v):
            raise TrainingDiverged(f"{name} became {v} in phase {phase}")

    grads = graph.backward(parts["overall"])
    for name, leaf in w.items():
        g = grads[leaf.nid]
        if g is not None:
            model.weights[name] = model.weights[name] - lr * g
    check_finite(model)
    return bundle


def train(model: ModelParams, source: list, target: list, cfg: RunConfig):
    """Run both phases in place; returns the model and the loss trace."""
    if not source or not target:
        raise ContractError("training needs nonempty source and target sets")
    _pin_malloc_thresholds()
    trace = []
    step = 0
    schedule = ((1, cfg.t1, cfg.lr), (2, cfg.t2, cfg.lr * cfg.lr_phase2_mult))
    for phase, n_steps, lr in schedule:
        for _ in range(n_steps):
            scene_s = source[step % len(source)]
            scene_t = target[step % len(target)]
            bundle = _train_step(model, scene_s, scene_t, cfg, phase, lr)
            trace.append(TraceEntry(step=step, phase=phase, bundle=bundle))
            step += 1
    return model, trace
