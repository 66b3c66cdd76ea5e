"""Evaluation: confusion-matrix IoU, depth error, branch energies.

Per-scene partial sums are sorted before the final reduction, so scene
order never changes a reported float. Predictions always come from the
fused heads; the plain head is consulted only for its mean energy.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .config import RunConfig
from .model import forward_pass, init_model
from .numeric import ColumnPass, ContractError
from .reliability import free_energy_map
from .rng import RngState
from .scenes import build_data
from .train import train

MODEL_STREAM = 2


@dataclass
class MetricsRow:
    iou: list
    miou: float
    depth_mae: float
    mean_energy_plain: float
    mean_energy_fused: float
    run_id: str = ""
    config: dict = field(default_factory=dict)


def confusion_matrix(true_labels: np.ndarray, pred_labels: np.ndarray, k: int):
    """k x k counts, rows = true class, cols = predicted class."""
    t = np.asarray(true_labels, dtype=np.int64).ravel()
    p = np.asarray(pred_labels, dtype=np.int64).ravel()
    if t.size and (t.min() < 0 or t.max() >= k or p.min() < 0 or p.max() >= k):
        raise ContractError(f"labels outside [0, {k})")
    return np.bincount(t * k + p, minlength=k * k).reshape(k, k)


def iou_from_confusion(conf: np.ndarray):
    """Per-class IoU (0 where the union is empty) and the mean over
    classes that actually appear in the ground truth."""
    inter = np.diag(conf).astype(np.float64)
    union = conf.sum(axis=1) + conf.sum(axis=0) - np.diag(conf)
    iou = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    present = conf.sum(axis=1) > 0
    return iou, float(iou[present].mean())


def _ordered_mean(partial_sums: list, count: int) -> float:
    return float(np.sort(np.asarray(partial_sums, dtype=np.float64)).sum() / count)


def evaluate(weights: dict, scenes: list, cfg: RunConfig) -> MetricsRow:
    """Metrics over a scene set from the fused heads, plus both
    branches' mean free energy."""
    if not scenes:
        raise ContractError("evaluate needs at least one scene")
    k = cfg.k
    conf = np.zeros((k, k), dtype=np.int64)
    err_sums, e_plain_sums, e_fused_sums = [], [], []
    n_total = 0
    for scene in scenes:
        pred = forward_pass(weights, scene.features, cfg)
        seg_hat = np.argmax(pred.seg_fused, axis=0)
        conf += confusion_matrix(scene.labels.labels, seg_hat, k)
        err_sums.append(float(np.abs(pred.dep_fused - scene.depth).sum()))
        e_fused_sums.append(float(free_energy_map(ColumnPass(pred.seg_fused)).sum()))
        e_plain_sums.append(float(free_energy_map(ColumnPass(pred.seg_plain)).sum()))
        n_total += scene.depth.size
    iou, miou = iou_from_confusion(conf)
    return MetricsRow(
        iou=[float(v) for v in iou],
        miou=miou,
        depth_mae=_ordered_mean(err_sums, n_total),
        mean_energy_plain=_ordered_mean(e_plain_sums, n_total),
        mean_energy_fused=_ordered_mean(e_fused_sums, n_total),
    )


def build_model(cfg: RunConfig) -> dict:
    """The initial weights of the model a config describes."""
    return init_model(RngState(cfg.seed, (MODEL_STREAM,)), cfg)


def run_experiment(cfg: RunConfig, run_id: str):
    """Fresh data + fresh model + train + evaluate, all from one config.

    Returns the filled MetricsRow and the loss trace. Target metrics use
    the evaluation-only labels, which never influenced training.
    """
    source, target = build_data(cfg)
    weights, trace = train(build_model(cfg), source, target, cfg)
    row = evaluate(weights, target, cfg)
    row.run_id = run_id
    row.config = asdict(cfg)
    return row, trace
