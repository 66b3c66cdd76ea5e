"""Tests for the shared encoder and dual decoder heads."""

import numpy as np
import pytest

from energyfuse import model as model_mod
from energyfuse.autodiff import DiffGraph, raw
from energyfuse.config import RunConfig
from energyfuse.model import bind, forward_pass, init_model
from energyfuse.numeric import ColumnPass, ContractError
from energyfuse.objectives import LabelMap, berhu_map, seg_nll
from energyfuse.reliability import _kl_row
from energyfuse.rng import RngState


def _features(seed, channels=6, n=40):
    return RngState(seed, (2,)).normal(channels, n, 1.0)


def _cfg(**settings):
    return RunConfig(**{"k": 4, "channels": 6, **settings})


def test_train_mode_prediction_shapes():
    k, channels, n = 5, 6, 40
    cfg = _cfg(k=k, channels=channels)
    weights = init_model(RngState(0, (1,)), cfg)
    pred = forward_pass(weights, _features(1, channels, n), cfg)
    assert pred.seg_plain.shape == (k, n)
    assert pred.seg_fused.shape == (k, n)
    assert pred.dep_plain.shape == (1, n)
    assert pred.dep_fused.shape == (1, n)


def test_fused_heads_ignore_plain_decoder_weights():
    cfg = _cfg()
    weights = init_model(RngState(4, (1,)), cfg)
    x = _features(4)
    ref = forward_pass(weights, x, cfg)
    for name in ("seg_dec_plain_w", "seg_dec_plain_b", "dep_dec_plain_w", "dep_dec_plain_b"):
        weights[name] = weights[name] + 1e6
    out = forward_pass(weights, x, cfg)
    assert np.array_equal(ref.seg_fused, out.seg_fused)
    assert np.array_equal(ref.dep_fused, out.dep_fused)
    # the shifted weights do reach the plain heads
    assert not np.array_equal(ref.seg_plain, out.seg_plain)
    assert not np.array_equal(ref.dep_plain, out.dep_plain)


def test_zero_gate_with_tied_decoders_collapses_fusion():
    # Gated fusion starts with a zero mixing matrix, so the fusion output
    # equals the query features untouched. Tie each fused decoder to its
    # plain twin and the two heads must then agree bitwise.
    cfg = _cfg(scheme="gated")
    weights = init_model(RngState(5, (1,)), cfg)
    assert np.all(weights["fuse_seg_w1"] == 0.0)
    assert np.all(weights["fuse_dep_w1"] == 0.0)
    for task, rows in (("seg", 4), ("dep", 1)):
        weights[f"{task}_dec_fused_w"] = weights[f"{task}_dec_plain_w"].copy()
        weights[f"{task}_dec_fused_b"] = weights[f"{task}_dec_plain_b"].copy()
    pred = forward_pass(weights, _features(5), cfg)
    assert np.array_equal(pred.seg_fused, pred.seg_plain)
    assert np.array_equal(pred.dep_fused, pred.dep_plain)


def test_add_fusion_mixes_the_other_task_in():
    # With the additive scheme the fused head sees cross-task features,
    # so it should not coincide with the plain head even when decoders
    # are tied.
    cfg = _cfg(scheme="add")
    weights = init_model(RngState(6, (1,)), cfg)
    for task in ("seg", "dep"):
        weights[f"{task}_dec_fused_w"] = weights[f"{task}_dec_plain_w"].copy()
        weights[f"{task}_dec_fused_b"] = weights[f"{task}_dec_plain_b"].copy()
    pred = forward_pass(weights, _features(6), cfg)
    assert not np.array_equal(pred.seg_fused, pred.seg_plain)
    assert not np.array_equal(pred.dep_fused, pred.dep_plain)


def test_channel_mismatch_rejected():
    cfg = _cfg()
    weights = init_model(RngState(7, (1,)), cfg)
    with pytest.raises(ContractError, match="channels"):
        forward_pass(weights, _features(7, channels=5), cfg)


def test_init_model_deterministic():
    a = init_model(RngState(11, (1,)), _cfg(scheme="gated"))
    b = init_model(RngState(11, (1,)), _cfg(scheme="gated"))
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_gated_init_weight_ranges():
    weights = init_model(RngState(12, (1,)), _cfg(scheme="gated"), width=16)
    for direction in ("seg", "dep"):
        w1 = weights[f"fuse_{direction}_w1"]
        w2 = weights[f"fuse_{direction}_w2"]
        assert w1.shape == (16, 16) and np.all(w1 == 0.0)
        assert w2.shape == (16, 16)
        assert np.all(np.abs(w2) <= model_mod.GATE_INIT)
        assert np.any(w2 != 0.0)


def test_forward_pass_bitwise_deterministic():
    cfg = _cfg()
    weights = init_model(RngState(13, (1,)), cfg)
    x = _features(13)
    a = forward_pass(weights, x, cfg)
    b = forward_pass(weights, x, cfg)
    for name in ("seg_plain", "seg_fused", "dep_plain", "dep_fused"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("scheme", ["add", "gated"])
def test_graph_forward_matches_numpy_forward(scheme):
    cfg = _cfg(scheme=scheme)
    weights = init_model(RngState(14, (1,)), cfg)
    x = _features(14)
    plain = forward_pass(weights, x, cfg)
    graph = DiffGraph()
    leaves = bind(weights, graph)
    bound = forward_pass(leaves, graph.leaf(x), cfg)
    for name in ("seg_plain", "seg_fused", "dep_plain", "dep_fused"):
        assert np.allclose(raw(getattr(bound, name)), getattr(plain, name), atol=1e-12), name


@pytest.mark.parametrize("steps", [0, 1, 8])
@pytest.mark.parametrize("scheme", ["add", "gated"])
def test_array_and_graph_forward_agree_bit_for_bit(scheme, steps):
    """The array pass and the recorded pass share every expression."""
    cfg = _cfg(scheme=scheme, gamma=0.7, steps=steps)
    weights = init_model(RngState(17, (1,)), cfg)
    if scheme == "gated":  # open the gate so the gated branch counts
        for direction in ("seg", "dep"):
            weights[f"fuse_{direction}_w1"] = RngState(18, (1,)).normal(32, 32, 0.2)
    x = _features(17)
    plain = forward_pass(weights, x, cfg)
    bound = forward_pass(bind(weights, DiffGraph()), x, cfg)
    for name in ("seg_plain", "seg_fused", "dep_plain", "dep_fused"):
        assert np.array_equal(raw(getattr(bound, name)), getattr(plain, name)), name


def test_each_fusion_direction_pulls_its_own_gate():
    """fuse_seg_* gates only the seg queries' fusion, fuse_dep_* only dep's."""
    cfg = _cfg(scheme="gated")
    weights = init_model(RngState(15, (1,)), cfg)
    for direction in ("seg", "dep"):  # open both gates so w2 counts
        weights[f"fuse_{direction}_w1"] = RngState(15, (2,)).normal(32, 32, 0.2)
    x = _features(15)
    base = forward_pass(weights, x, cfg)
    for direction, other in (("seg", "dep"), ("dep", "seg")):
        w = {**weights}
        w[f"fuse_{direction}_w2"] = w[f"fuse_{direction}_w2"] + 1.0
        pred = forward_pass(w, x, cfg)
        assert not np.array_equal(
            getattr(pred, f"{direction}_fused"), getattr(base, f"{direction}_fused")
        )
        for name in (f"{other}_fused", "seg_plain", "dep_plain"):
            assert np.array_equal(getattr(pred, name), getattr(base, name)), name


def test_bind_covers_every_weight():
    weights = init_model(RngState(16, (1,)), _cfg(scheme="gated"))
    graph = DiffGraph()
    leaves = bind(weights, graph)
    assert set(leaves) == set(weights)
    for name, leaf in leaves.items():
        assert np.array_equal(raw(leaf), weights[name]), name


def test_one_tape_node_per_dense_block_and_per_loss_map():
    """steps=0 TRAIN pass: ten dense blocks (two encoder layers, two task
    nets of two layers each, four decoders) plus the two fusions, an add
    or a gate node each; the scene features enter as block constants, not
    as nodes."""
    for scheme, fusion_op in (("add", "add"), ("gated", "gate")):
        cfg = _cfg(steps=0, scheme=scheme)
        graph = DiffGraph()
        leaves = bind(init_model(RngState(5, (1,)), cfg), graph)
        forward_pass(leaves, _features(5), cfg)
        ops = [node.op for node in graph.nodes[len(leaves) :]]
        assert len(ops) == 12
        assert ops.count("dense") == 10 and ops.count(fusion_op) == 2

    logits = graph.leaf(np.random.default_rng(0).normal(size=(4, 9)))
    cols = ColumnPass(logits.data)
    for loss in (
        lambda: seg_nll(logits, LabelMap(np.arange(9) % 4), cols),
        lambda: berhu_map(logits, 0.5),
        lambda: _kl_row(ColumnPass(logits.data * 0.5), logits, cols),
    ):
        before = len(graph.nodes)
        loss()
        assert len(graph.nodes) == before + 1
