"""Shared encoder, task nets, and dual decoder heads.

Every network is a per-position map: weight matrices act on the channel
axis of C x N feature columns, so one matmul applies the layer at all
grid positions. Each task (segmentation, depth) owns two decoders: a
plain one fed by its own task features and a fused one fed by the
cross-task fusion output. Each block dispatches on its own inputs: it
computes on plain arrays, or records on the DiffGraph that bound leaves
belong to.
"""

from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, raw, record
from .config import RunConfig
from .fusion import eb2f_apply
from .numeric import ContractError
from .rng import RngState

GATE_INIT = 0.01


class Predictions(NamedTuple):
    seg_plain: object  # K x N logits
    seg_fused: object  # K x N logits
    dep_plain: object  # 1 x N depth
    dep_fused: object  # 1 x N depth


def init_model(rng: RngState, cfg: RunConfig, width: int = 32) -> dict:
    """Random weights of the model `cfg` describes, as one flat name ->
    array dict; gate mixes start at zero so fusion opens gradually."""
    w = {}

    def dense(name, rows, cols):
        w[name + "_w"] = rng.normal(rows, cols, 1.0 / np.sqrt(cols))
        w[name + "_b"] = np.zeros((rows, 1))

    dense("enc0", width, cfg.channels)
    dense("enc1", width, width)
    for task in ("seg", "dep"):
        dense(f"{task}_net_a", width, width)
        dense(f"{task}_net_b", width, width)
    dense("seg_dec_plain", cfg.k, width)
    dense("seg_dec_fused", cfg.k, width)
    dense("dep_dec_plain", 1, width)
    dense("dep_dec_fused", 1, width)
    if cfg.scheme == "gated":
        for direction in ("seg", "dep"):
            w[f"fuse_{direction}_w1"] = np.zeros((width, width))
            w[f"fuse_{direction}_w2"] = rng.uniform(
                -GATE_INIT, GATE_INIT, width, width
            )
    return w


def bind(weights: dict, graph) -> dict:
    """Graph leaves for every weight, in a stable insertion order."""
    return {name: graph.leaf(arr) for name, arr in weights.items()}


def _dense(w, name, x, tanh=False, skip=None):
    """[skip +] [tanh](W x + b) of layer `name`, recorded as one node.

    The value and the adjoint terms are the op-by-op chain's (matmul,
    add_col, tanh, add; the tests' reference) in its order, bit for bit. A
    plain-array x is a constant of the block and gets no adjoint.
    """
    wt, bt = w[name + "_w"], w[name + "_b"]
    wv, xv = raw(wt), raw(x)
    x_in, skip_in = isinstance(x, Tensor), skip is not None
    y = wv @ xv
    y += raw(bt)
    if tanh:
        np.tanh(y, out=y)
    out = raw(skip) + y if skip_in else y

    def vjp(g):
        gz = g
        if tanh:  # g * (1 - y * y), in one fresh array
            gz = y * y
            np.subtract(1.0, gz, out=gz)
            gz *= g
        terms = [gz.sum(axis=1, keepdims=True), gz @ xv.T]
        if x_in:
            terms.append(wv.T @ gz)
        return [g] + terms if skip_in else terms

    inputs = [bt, wt] + ([x] if x_in else [])
    return record("dense", [skip] + inputs if skip_in else inputs, out, vjp)


def _task_features(w, task, h):
    inner = _dense(w, f"{task}_net_a", h, tanh=True)
    return _dense(w, f"{task}_net_b", inner, tanh=True, skip=h)


def forward_pass(weights: dict, features, cfg: RunConfig) -> Predictions:
    """All four heads on a C x N feature map.

    Bound graph leaves as `weights` make every head differentiable.
    """
    if features.shape[0] != cfg.channels:
        raise ContractError(
            f"model expects {cfg.channels} channels, got {features.shape[0]}"
        )
    h = _dense(weights, "enc0", features, tanh=True)
    h = _dense(weights, "enc1", h, tanh=True)
    f_seg = _task_features(weights, "seg", h)
    f_dep = _task_features(weights, "dep", h)

    gates = {"seg": None, "dep": None}  # Add fuses without weights
    if cfg.scheme == "gated":
        gates = {t: (weights[f"fuse_{t}_w1"], weights[f"fuse_{t}_w2"]) for t in gates}
    fused_seg_in = eb2f_apply(f_seg, f_dep, cfg.gamma, cfg.steps, gates["seg"])
    fused_dep_in = eb2f_apply(f_dep, f_seg, cfg.gamma, cfg.steps, gates["dep"])
    seg_fused = _dense(weights, "seg_dec_fused", fused_seg_in)
    dep_fused = _dense(weights, "dep_dec_fused", fused_dep_in)
    seg_plain = _dense(weights, "seg_dec_plain", f_seg)
    dep_plain = _dense(weights, "dep_dec_plain", f_dep)
    return Predictions(seg_plain, seg_fused, dep_plain, dep_fused)

