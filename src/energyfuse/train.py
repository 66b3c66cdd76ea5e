"""Two-phase training loop.

Phase 1 minimizes the supervised loss (segmentation plus weighted depth,
four branch/domain terms each); phase 2 keeps it and adds the weighted
reliability loss on both domains, at a reduced learning rate. Plain SGD,
one source and one target scene per step, cycled in order. A step
differentiates each scene on its own tape, source first, and lets that
tape go before the target's forward pass, so one tape is live at a time;
the update adds the two scenes' gradients. Everything is a pure function
of (seed, config, data): rerunning reproduces the final weights bit for
bit.
"""

import ctypes
import platform

import numpy as np

from .autodiff import DiffGraph, raw
from .config import RunConfig
from .model import Predictions, bind, forward_pass
from .numeric import ColumnPass, ContractError
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
    """A loss term or a weight stopped being finite; the message names it
    and the phase."""


def compute_losses(weights: dict, scene, cfg: RunConfig, phase: int) -> dict:
    """One scene's loss terms and its share of the supervised and overall
    losses, as scalars (graph tensors when `weights` are bound leaves).

    A source scene is supervised by its labels; a target scene, whose
    labels are evaluation-only, by pseudo-labels from its own fused head,
    so its labels are never read here. Each term gets the adjoint the
    whole step's overall loss gives it: 1, alpha, beta or beta * alpha.
    Every value-derived decision reads `values`, the predictions' one
    array view, and every reader of a seg head's lse or softmax shares
    that head's one column pass.
    """
    pred = forward_pass(weights, scene.features, cfg)
    values = Predictions._make(map(raw, pred))
    seg_cols = (ColumnPass(values.seg_plain), ColumnPass(values.seg_fused))
    labels = scene.labels
    if scene.labels_eval_only:
        labels = pseudo_label(seg_cols[1], cfg.pseudo_threshold)

    terms = {
        "seg_plain": seg_nll(pred.seg_plain, labels, seg_cols[0]),
        "seg_fused": seg_nll(pred.seg_fused, labels, seg_cols[1]),
        "dep_plain": berhu_loss(pred.dep_plain, scene.depth),
        "dep_fused": berhu_loss(pred.dep_fused, scene.depth),
    }
    overall = supervised = supervised_loss(
        terms["seg_plain"] + terms["seg_fused"],
        terms["dep_plain"] + terms["dep_fused"],
        cfg.alpha,
    )

    # a reliability loss that is zero or weighted by zero contributes its
    # value, not a subgraph, and adding it to overall would tape a no-op shift
    l_rfa = 0.0
    if phase == 2:
        # seg distillation + weighted depth, built on `on`; the masks and
        # thresholds read the array view, each branch's depth energy with
        # its own berHu threshold against the scene's depth
        on = pred if cfg.beta != 0.0 else values
        seg_mask = reliability_mask(*map(free_energy_map, seg_cols))
        l_seg = rfa_seg_loss(on.seg_plain, on.seg_fused, seg_mask, seg_cols)
        d_plain, d_fused, depth = values.dep_plain, values.dep_fused, scene.depth
        c_plain = berhu_threshold(d_plain - depth)
        c_fused = berhu_threshold(d_fused - depth)
        c_cross = berhu_threshold(d_plain - d_fused)
        dep_mask = reliability_mask(
            depth_energy_map(d_plain, depth, c_plain),
            depth_energy_map(d_fused, depth, c_fused),
        )
        l_dep = rfa_dep_loss(on.dep_plain, on.dep_fused, dep_mask, c_cross)
        l_rfa = rfa_total(l_seg, l_dep, cfg.alpha)
        if cfg.beta != 0.0:
            overall = overall_loss(supervised, l_rfa, cfg.beta)
    return {**terms, "rfa": l_rfa, "supervised": supervised, "overall": overall}


def scene_gradients(weights: dict, scene, cfg: RunConfig, phase: int) -> tuple:
    """One scene's loss terms as floats, and the gradient of its share of
    the overall loss for each weight that reaches it.

    The scene's tape lives only inside this call: nothing returned holds a
    Tensor. No reverse pass runs on a non-finite term; the gradients are
    then empty.
    """
    graph = DiffGraph()
    leaves = bind(weights, graph)
    parts = compute_losses(leaves, scene, cfg, phase)
    values = {name: raw(part).item() for name, part in parts.items()}
    if not all(np.isfinite(v) for v in values.values()):
        return values, {}
    adjoints = graph.backward(parts["overall"])
    grads = {name: adjoints[leaf.nid] for name, leaf in leaves.items()}
    return values, {name: g for name, g in grads.items() if g is not None}


def step_gradients(
    weights: dict, scene_s, scene_t, cfg: RunConfig, phase: int
) -> tuple:
    """(source values, target values, gradients) of one step. The source
    scene is differentiated, and its tape freed, before the target's
    forward pass; each weight's gradient is the sum of the two scenes'."""
    if scene_s.labels_eval_only or not scene_t.labels_eval_only:
        raise ContractError(
            "a step pairs a labelled source scene with a target scene "
            "whose labels are evaluation-only"
        )
    values_s, grads = scene_gradients(weights, scene_s, cfg, phase)
    values_t, grads_t = scene_gradients(weights, scene_t, cfg, phase)
    for name, g in grads_t.items():
        grads[name] = g + grads[name] if name in grads else g
    return values_s, values_t, grads


def _pin_malloc_thresholds():
    """Keep freed step memory mapped, process-wide: pin glibc's mmap (-3) and
    trim (-1) thresholds at its 64-bit caps; either call alone freezes the other
    where glibc's dynamic rule has left it. A step frees two tapes, and the
    target's reuses the source's pages. A refused call (a 32-bit glibc caps
    mmap lower) leaves malloc's own policy, which changes no number."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        mallopt(-3, 32 << 20)
        mallopt(-1, 64 << 20)


def check_finite(weights: dict, phase: int):
    """Every weight finite after an update; else the run has diverged, and
    the first weight that is not, and the phase, are named."""
    for name, arr in weights.items():
        if not np.isfinite(arr).all():
            raise TrainingDiverged(f"non-finite weights in {name} in phase {phase}")


def _train_step(
    weights: dict, scene_s, scene_t, cfg: RunConfig, phase: int, lr: float
) -> LossBundle:
    s, t, grads = step_gradients(weights, scene_s, scene_t, cfg, phase)
    seg_total = four_term_total(
        s["seg_plain"], s["seg_fused"], t["seg_plain"], t["seg_fused"]
    )
    dep_total = four_term_total(
        s["dep_plain"], s["dep_fused"], t["dep_plain"], t["dep_fused"]
    )
    supervised = supervised_loss(seg_total, dep_total, cfg.alpha)
    l_rfa = s["rfa"] + t["rfa"]
    overall = overall_loss(supervised, l_rfa, cfg.beta)
    bundle = LossBundle(phase, seg_total, dep_total, supervised, l_rfa, overall)
    # each term before the sums built from it, so a diverged run names its source
    for name in ("seg_total", "dep_total", "rfa", "supervised", "overall"):
        v = getattr(bundle, name)
        if not np.isfinite(v):
            raise TrainingDiverged(f"{name} became {v} in phase {phase}")

    for name, g in grads.items():
        weights[name] = weights[name] - lr * g
    check_finite(weights, phase)
    return bundle


def train(weights: dict, source: list, target: list, cfg: RunConfig):
    """Run both phases in place; returns the weights and the loss trace,
    one LossBundle per step."""
    if not source or not target:
        raise ContractError("training needs nonempty source and target sets")
    _pin_malloc_thresholds()
    trace = []
    schedule = ((1, cfg.t1, cfg.lr), (2, cfg.t2, cfg.lr * cfg.lr_phase2_mult))
    for phase, n_steps, lr in schedule:
        for _ in range(n_steps):
            step = len(trace)
            scene_s = source[step % len(source)]
            scene_t = target[step % len(target)]
            trace.append(_train_step(weights, scene_s, scene_t, cfg, phase, lr))
    return weights, trace
