"""Synthetic paired-domain scenes: determinism, structure, domain gap."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import REFERENCE
from energyfuse.config import RunConfig
from energyfuse.metrics import confusion_matrix, iou_from_confusion
from energyfuse.numeric import ContractError
from energyfuse.objectives import LabelMap
from energyfuse.rng import RngState
from energyfuse.scenes import DEPTH_FLOOR, Scene, build_data, gen_scene, shift_scene


SHIFT = {
    key: REFERENCE[key]
    for key in ("feature_shift", "feature_scale", "noise_sd", "depth_noise_sd")
}

# sha256 of every scene's features, depth and labels bytes from
# build_data, source scenes then target scenes. The initial commit's
# generator gives the same bytes. The small shapes reach each
# `_class_map` branch: strips along w (w >= k), transposed strips
# (w < k <= h) and the cyclic pattern (h, w < k). In "overlay", boxes
# leave one class in 7 of the 16 class maps, which then fall back to
# the cyclic pattern; in "collided", 6 maps fall back to even strips
# because their cut draws collided.
PINNED_DATA = [
    pytest.param(
        {**REFERENCE, "seed": 0},
        "683d46a19e31d1f338e58dde29a9ffde23b12a9c0d4f0d0f4bb1def273bc2c64",
        id="reference-seed0",
    ),
    pytest.param(
        {**REFERENCE, "seed": 1},
        "0a3dc60b314ff03429bed21453db12b30c34ea8b2648147990158fe4954a09a5",
        id="reference-seed1",
    ),
    pytest.param(
        dict(SHIFT, h=4, w=6, k=4, n_scenes=8),
        "7a8ebdaf26de8d4d45a7da38f98e1d61f0aee440df7656d31fdc85279d058188",
        id="strips",
    ),
    pytest.param(
        dict(SHIFT, h=6, w=3, k=4, n_scenes=8),
        "48532829e9d49c77a2226859ee389b8eda5648b7e8078cd3e5656cf55fbabf93",
        id="transposed-strips",
    ),
    pytest.param(
        dict(SHIFT, h=3, w=3, k=4, n_scenes=8),
        "c5e5146ef3fda39a6f45fdb87aac70fe8abae62a5f3ab5bc975e3137e2fe0c04",
        id="cyclic",
    ),
    pytest.param(
        dict(SHIFT, h=1, w=2, k=2, n_scenes=8),
        "d738103d2093099e71846a5ebd745efcd4c004723b7b876beb90429a67749f1c",
        id="overlay-fallback",
    ),
    pytest.param(
        dict(SHIFT, h=2, w=5, k=5, n_scenes=8),
        "6a5bc50d300170c9f6e9f1be29a71cd817b9d9876e7e194e2dd739772669cfd0",
        id="collided-draws",
    ),
]


@pytest.mark.parametrize("config, digest", PINNED_DATA)
def test_build_data_is_pinned_bit_for_bit(config, digest):
    source, target = build_data(RunConfig(**config))
    h = hashlib.sha256()
    for scene in source + target:
        for array in (scene.features, scene.depth, scene.labels.labels):
            h.update(array.tobytes())
    assert h.hexdigest() == digest


def test_integer_is_a_one_value_integers_draw():
    """Same value, and the same stream state after it, as a size-1 draw."""
    a, b = RngState(4, (2,)), RngState(4, (2,))
    for hi in range(1, 2001):
        lo = hi // 3
        x = a.integer(lo, hi + 1)
        assert type(x) is int and x == b.integers(lo, hi + 1, 1)[0]
    assert np.array_equal(a.normal(1, 4), b.normal(1, 4))


def _scene_bytes(scene):
    return tuple(a.tobytes() for a in (scene.features, scene.depth, scene.labels.labels))


def test_same_seed_bitwise_identical():
    cfg = RunConfig(h=12, w=10, k=4)
    a = gen_scene(RngState(42, (5,)), cfg)
    b = gen_scene(RngState(42, (5,)), cfg)
    assert _scene_bytes(a) == _scene_bytes(b)


def test_labels_in_range_and_two_classes():
    rng = np.random.default_rng(0)
    cfg = RunConfig()
    for i in range(100):
        h = int(rng.integers(2, 20))
        w = int(rng.integers(2, 20))
        k = int(rng.integers(2, min(6, h * w) + 1))
        scene = gen_scene(RngState(i, (7,)), replace(cfg, h=h, w=w, k=k))
        labs = scene.labels.labels
        assert labs.min() >= 0 and labs.max() < k
        assert np.unique(labs).size >= 2
        assert scene.features.shape[1] == h * w
        assert np.all(scene.depth > 0)


def test_tiny_grids_still_satisfy_contracts():
    for h, w in ((1, 2), (2, 1), (1, 5), (3, 2)):
        scene = gen_scene(RngState(3, (h, w)), RunConfig(h=h, w=w, k=2))
        assert np.unique(scene.labels.labels).size >= 2


def test_depth_tracks_class_index():
    """Per-class mean depth is ordered by class: base levels rise with
    the class index and the noise is far smaller than the level gap."""
    cfg = RunConfig(h=12, w=12, k=4)
    sums = np.zeros(4)
    counts = np.zeros(4)
    for i in range(100):
        scene = gen_scene(RngState(i, (11,)), cfg)
        labs = scene.labels.labels
        d = scene.depth.ravel()
        for cls in range(4):
            sel = labs == cls
            sums[cls] += d[sel].sum()
            counts[cls] += sel.sum()
    means = sums / counts
    assert np.all(np.diff(means) > 0.5)


def test_null_shift_is_byte_equal():
    cfg = RunConfig(h=8, w=8, k=3)
    scene = gen_scene(RngState(9, (2,)), cfg)
    shifted = shift_scene(scene, cfg, RngState(9, (3,)))
    assert np.array_equal(shifted.features, scene.features)
    assert np.array_equal(shifted.depth, scene.depth)
    assert shifted.labels_eval_only


def test_zero_depth_noise_keeps_true_depth():
    cfg = RunConfig(h=8, w=8, k=3)
    scene = gen_scene(RngState(10, (2,)), cfg)
    shift = replace(cfg, feature_shift=1.0, feature_scale=2.0, noise_sd=0.5)
    shifted = shift_scene(scene, shift, RngState(10, (3,)))
    assert np.array_equal(shifted.depth, scene.depth)
    assert not np.array_equal(shifted.features, scene.features)


def test_shift_keeps_depth_above_floor():
    cfg = RunConfig(h=10, w=10, k=4)
    scene = gen_scene(RngState(11, (2,)), cfg)
    violent = replace(cfg, depth_noise_sd=50.0)  # violent corruption
    shifted = shift_scene(scene, violent, RngState(11, (3,)))
    assert np.all(shifted.depth >= DEPTH_FLOOR)


def test_shift_spec_validation():
    # a shift is a config's shift fields, so deriving a bad shift from a
    # valid config, as shift_scene's callers do, is refused at once
    cfg = RunConfig(h=4, w=4, k=3)
    with pytest.raises(ContractError, match="feature_scale must be positive"):
        replace(cfg, feature_scale=0.0)
    with pytest.raises(ContractError, match="noise levels must be >= 0"):
        replace(cfg, noise_sd=-0.1)
    with pytest.raises(ContractError, match="noise levels must be >= 0"):
        replace(cfg, depth_noise_sd=-1.0)


def test_build_data_counts_and_tags():
    source, target = build_data(RunConfig(seed=5, h=4, w=5, k=3, n_scenes=6))
    assert len(source) == len(target) == 6
    assert all(not s.labels_eval_only for s in source)
    assert all(t.labels_eval_only for t in target)


def test_build_data_is_deterministic():
    cfg = RunConfig(seed=5, h=6, w=6, k=3, n_scenes=4, noise_sd=0.2)
    a_src, a_tgt = build_data(cfg)
    b_src, b_tgt = build_data(cfg)
    for a, b in zip(a_src + a_tgt, b_src + b_tgt):
        assert _scene_bytes(a) == _scene_bytes(b)


def test_more_scenes_keep_source_scenes_but_move_target_scenes():
    """Source scene i is keyed i, target scene i is keyed n_scenes + i:
    raising n_scenes from 4 to 6 keeps the first 4 source scenes and
    redraws every target scene."""
    cfg = RunConfig(h=6, w=6, k=3, n_scenes=4, noise_sd=0.3)
    src4, tgt4 = build_data(cfg)
    src6, tgt6 = build_data(replace(cfg, n_scenes=6))
    assert [_scene_bytes(s) for s in src4] == [_scene_bytes(s) for s in src6[:4]]
    assert all(_scene_bytes(a) != _scene_bytes(b) for a, b in zip(tgt4, tgt6))


def test_scene_validation():
    """A scene's size is its feature columns: depth and labels must cover
    each of them."""
    good = gen_scene(RngState(1, (1,)), RunConfig(h=4, w=4, k=2))
    parts = dict(features=good.features, labels=good.labels, depth=good.depth)
    empty = dict(features=np.zeros((8, 0)), labels=LabelMap(np.zeros(0)), depth=np.ones((1, 0)))
    for bad, message in (
        (dict(depth=-good.depth), "strictly positive"),
        (dict(features=good.features.ravel()), r"features must be C x N, got \(128,\)"),
        (dict(features=good.features[:, :3]), "do not cover the 3 feature columns"),
        (dict(depth=good.depth[:, :15]), "do not cover the 16 feature columns"),
        (dict(labels=LabelMap(good.labels.labels[:15])), "do not cover the 16"),
        (dict(labels=LabelMap(np.full(16, 1))), "at least 2 classes"),
        (empty, "at least 2 classes"),
    ):
        with pytest.raises(ContractError, match=message):
            Scene(**{**parts, **bad})


def _ridge_probe(cfg):
    """A linear softmax-free probe: ridge regression onto one-hot labels,
    trained on source pixels, scored by mIoU on each domain."""
    source, target = build_data(cfg)

    def stack(scenes):
        x = np.hstack([s.features for s in scenes])
        y = np.concatenate([s.labels.labels for s in scenes])
        return x, y

    xs, ys = stack(source)
    xt, yt = stack(target)
    xs1 = np.vstack([xs, np.ones((1, xs.shape[1]))])
    xt1 = np.vstack([xt, np.ones((1, xt.shape[1]))])
    onehot = np.zeros((cfg.k, ys.size))
    onehot[ys, np.arange(ys.size)] = 1.0
    w = onehot @ xs1.T @ np.linalg.inv(xs1 @ xs1.T + 1e-3 * np.eye(xs1.shape[0]))

    def miou(x, y):
        pred = np.argmax(w @ x, axis=0)
        return iou_from_confusion(confusion_matrix(y, pred, cfg.k))[1]

    return miou(xs1, ys), miou(xt1, yt)


def test_reference_shift_opens_a_real_domain_gap():
    """On the documented benchmark settings a source-fit linear probe
    loses at least 5 mIoU points when moved to the target domain."""
    cfg = RunConfig(**{**REFERENCE, "seed": 0})
    miou_source, miou_target = _ridge_probe(cfg)
    assert miou_source - miou_target >= 0.05, (miou_source, miou_target)
