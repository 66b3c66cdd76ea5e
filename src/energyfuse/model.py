"""Shared encoder, task nets, and dual decoder heads.

Every network is a per-position map: weight matrices act on the channel
axis of C x N feature columns, so one matmul applies the layer at all
grid positions. Each task (segmentation, depth) owns two decoders: a
plain one fed by its own task features and a fused one fed by the
cross-task fusion output. A forward pass picks its op namespace once
from the weights and features: it computes on plain arrays, or records
on the DiffGraph that bound leaves belong to.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import ARRAY_OPS, Tensor, ops, raw
from .fusion import Scheme, check_schedule, eb2f_apply
from .numeric import ContractError
from .rng import RngState

GATE_INIT = 0.01


@dataclass
class Predictions:
    seg_plain: object  # K x N logits
    seg_fused: object  # K x N logits
    dep_plain: object  # 1 x N depth
    dep_fused: object  # 1 x N depth


@dataclass
class ModelParams:
    """All weights in one flat name -> array dict, plus fusion settings
    (gamma and steps checked once, here)."""

    weights: dict
    scheme: Scheme
    gamma: float
    steps: int
    k: int
    channels: int

    def __post_init__(self):
        check_schedule(self.gamma, self.steps)


def init_model(
    rng: RngState,
    k: int,
    channels: int,
    scheme: Scheme = Scheme.ADD,
    gamma: float = 1.0,
    steps: int = 1,
    width: int = 32,
) -> ModelParams:
    """Random weights; gate mixes start at zero so fusion opens gradually.
    scheme is a Scheme or its value; Scheme(scheme) rejects any other."""
    scheme = Scheme(scheme)
    w = {}

    def dense(name, rows, cols):
        w[name + "_w"] = rng.normal(rows, cols, 1.0 / np.sqrt(cols))
        w[name + "_b"] = np.zeros((rows, 1))

    dense("enc0", width, channels)
    dense("enc1", width, width)
    for task in ("seg", "dep"):
        dense(f"{task}_net_a", width, width)
        dense(f"{task}_net_b", width, width)
    dense("seg_dec_plain", k, width)
    dense("seg_dec_fused", k, width)
    dense("dep_dec_plain", 1, width)
    dense("dep_dec_fused", 1, width)
    if scheme == Scheme.GATED:
        for direction in ("seg", "dep"):
            w[f"fuse_{direction}_w1"] = np.zeros((width, width))
            w[f"fuse_{direction}_w2"] = rng.uniform(
                -GATE_INIT, GATE_INIT, width, width
            )
    return ModelParams(w, scheme, gamma, steps, k, channels)


def bind(model: ModelParams, graph) -> dict:
    """Graph leaves for every weight, in a stable insertion order."""
    return {name: graph.leaf(arr) for name, arr in model.weights.items()}


def _dense(o, w, name, x, tanh=False, skip=None):
    """[skip +] [tanh](W x + b) of layer `name`, recorded as one node.

    The value and the adjoint terms are the op-by-op chain's (matmul,
    add_col, tanh, add; the tests' reference) in its order, bit for bit. A
    plain-array x is a constant of the block and gets no adjoint.
    """
    wt, bt = w[name + "_w"], w[name + "_b"]
    wv, xv = raw(wt), raw(x)
    x_in, skip_in = isinstance(x, Tensor), skip is not None
    y = wv @ xv + raw(bt)
    if tanh:
        y = np.tanh(y)
    out = raw(skip) + y if skip_in else y
    if o is ARRAY_OPS:
        return out

    def vjp(g):
        gz = g * (1.0 - y * y) if tanh else g
        terms = [gz.sum(axis=1, keepdims=True), gz @ xv.T]
        if x_in:
            terms.append(wv.T @ gz)
        return [g] + terms if skip_in else terms

    inputs = [bt, wt] + ([x] if x_in else [])
    return o.fused("dense", [skip] + inputs if skip_in else inputs, out, vjp)


def _task_features(o, w, task, h):
    inner = _dense(o, w, f"{task}_net_a", h, tanh=True)
    return _dense(o, w, f"{task}_net_b", inner, tanh=True, skip=h)


def forward_pass(model: ModelParams, scene, weights: dict = None) -> Predictions:
    """All four heads on a Scene (or directly on a C x N feature map).

    Passing bound graph leaves as `weights` makes every head
    differentiable.
    """
    w = model.weights if weights is None else weights
    features = getattr(scene, "features", scene)
    if features.shape[0] != model.channels:
        raise ContractError(
            f"model expects {model.channels} channels, got {features.shape[0]}"
        )
    o = ops(features, *w.values())
    h = _dense(o, w, "enc0", features, tanh=True)
    h = _dense(o, w, "enc1", h, tanh=True)
    f_seg = _task_features(o, w, "seg", h)
    f_dep = _task_features(o, w, "dep", h)

    gates = {"seg": None, "dep": None}  # Add fuses without weights
    if model.scheme == Scheme.GATED:
        gates = {t: (w[f"fuse_{t}_w1"], w[f"fuse_{t}_w2"]) for t in gates}
    fused_seg_in = eb2f_apply(f_seg, f_dep, model.gamma, model.steps, gates["seg"])
    fused_dep_in = eb2f_apply(f_dep, f_seg, model.gamma, model.steps, gates["dep"])
    seg_fused = _dense(o, w, "seg_dec_fused", fused_seg_in)
    dep_fused = _dense(o, w, "dep_dec_fused", fused_dep_in)
    seg_plain = _dense(o, w, "seg_dec_plain", f_seg)
    dep_plain = _dense(o, w, "dep_dec_plain", f_dep)
    return Predictions(seg_plain, seg_fused, dep_plain, dep_fused)


def check_finite(model: ModelParams):
    """Every weight finite; raised the moment an optimizer step breaks it."""
    for name, arr in model.weights.items():
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"non-finite weights in {name}")
