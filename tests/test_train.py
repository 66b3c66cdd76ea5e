"""Tests for the two-phase training loop."""

import dataclasses
import gc
import importlib
import os
import platform
import subprocess
import sys
import types
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import REFERENCE
from energyfuse.autodiff import DiffGraph, Tensor
from energyfuse.config import RunConfig
from energyfuse.metrics import build_data, build_model, confusion_matrix, evaluate
from energyfuse.model import bind
from energyfuse.numeric import ContractError
from energyfuse.objectives import LabelMap
from energyfuse.train import TrainingDiverged, compute_losses, step_gradients, train

SMALL = dict(
    t1=6, t2=4, lr=0.05, alpha=1.0, seed=0, h=6, w=6, k=3, channels=4,
    n_scenes=4, feature_shift=0.4, feature_scale=1.2, noise_sd=0.2,
    depth_noise_sd=0.1,
)


def _setup(**overrides):
    cfg = RunConfig(**{**SMALL, **overrides})
    source, target = build_data(cfg)
    weights = build_model(cfg)
    return cfg, weights, source, target


def test_zero_steps_leaves_weights_untouched():
    cfg, weights, source, target = _setup(t1=0, t2=0)
    before = {name: arr.copy() for name, arr in weights.items()}
    trained, trace = train(weights, source, target, cfg)
    assert trace == []
    assert trained is weights
    for name in before:
        assert np.array_equal(weights[name], before[name]), name


def test_empty_scene_sets_rejected():
    cfg, weights, source, target = _setup()
    with pytest.raises(ContractError, match="nonempty"):
        train(weights, [], target, cfg)
    with pytest.raises(ContractError, match="nonempty"):
        train(weights, source, [], cfg)
    with pytest.raises(ContractError, match="^evaluate needs at least one scene$"):
        evaluate(weights, [], cfg)


def test_confusion_counts_only_labels_of_its_classes():
    """A label outside [0, k) would be counted as another cell, or fail
    in bincount with a message that names no label."""
    assert confusion_matrix([0, 2], [1, 2], 3).tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
    for true, pred in (([0, 3], [0, 1]), ([0, -1], [0, 1]), ([0, 1], [0, 3])):
        with pytest.raises(ContractError, match=r"^labels outside \[0, 3\)$"):
            confusion_matrix(true, pred, 3)


def test_training_is_bitwise_reproducible():
    runs = []
    for _ in range(2):
        cfg, weights, source, target = _setup()
        runs.append(train(weights, source, target, cfg))
    (weights_a, trace_a), (weights_b, trace_b) = runs
    for name in weights_a:
        assert np.array_equal(weights_a[name], weights_b[name]), name
    assert len(trace_a) == len(trace_b)
    for ea, eb in zip(trace_a, trace_b):
        assert ea == eb


def test_trace_covers_both_phases_in_order():
    cfg, weights, source, target = _setup()
    _, trace = train(weights, source, target, cfg)
    assert len(trace) == cfg.t1 + cfg.t2
    assert [e.phase for e in trace] == [1] * cfg.t1 + [2] * cfg.t2
    for entry in trace[: cfg.t1]:
        assert entry.rfa == 0.0
        assert entry.overall == entry.supervised
    for entry in trace[cfg.t1 :]:
        assert entry.rfa >= 0.0


def _count_reliability_losses(monkeypatch) -> Counter:
    """Calls of the two reliability losses, counted where training calls them."""
    # the package re-exports the function `train`, which shadows the module
    train_module = importlib.import_module("energyfuse.train")
    calls = Counter()

    def counted(name):
        loss = getattr(train_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return loss(*args, **kwargs)

        return wrapper

    for name in ("rfa_seg_loss", "rfa_dep_loss"):
        monkeypatch.setattr(train_module, name, counted(name))
    return calls


def test_phase_one_never_touches_reliability_losses(monkeypatch):
    cfg, weights, source, target = _setup(t1=4, t2=0)
    calls = _count_reliability_losses(monkeypatch)
    before = dict(calls)
    train(weights, source, target, cfg)
    after = calls
    assert after["rfa_seg_loss"] == before.get("rfa_seg_loss", 0)
    assert after["rfa_dep_loss"] == before.get("rfa_dep_loss", 0)


def test_phase_two_reliability_call_pattern(monkeypatch):
    # one call per domain per step, for each of the two reliability losses
    cfg, weights, source, target = _setup(t1=0, t2=5)
    calls = _count_reliability_losses(monkeypatch)
    before = dict(calls)
    train(weights, source, target, cfg)
    after = calls
    assert after["rfa_seg_loss"] == before.get("rfa_seg_loss", 0) + 10
    assert after["rfa_dep_loss"] == before.get("rfa_dep_loss", 0) + 10


def test_zero_weighted_reliability_loss_is_valued_but_not_taped():
    """beta = 0: the reliability loss keeps the value beta = 1 records, as a
    plain number in the step's bundle, and neither scene's tape records
    more nodes than in phase 1."""
    cfg, weights, source, target = _setup(t1=0, t2=1)
    traces = {}
    for beta in (0.0, 1.0):
        run_cfg = dataclasses.replace(cfg, beta=beta)
        _, traces[beta] = train(build_model(run_cfg), source, target, run_cfg)
    assert traces[0.0][0].rfa == traces[1.0][0].rfa > 0.0
    for scene in (source[0], target[0]):
        parts, nodes = {}, {}
        for phase, beta in ((2, 0.0), (2, 1.0), (1, 1.0)):
            run_cfg = dataclasses.replace(cfg, beta=beta)
            graph = DiffGraph()
            w = bind(weights, graph)
            parts[phase, beta] = compute_losses(w, scene, run_cfg, phase)
            nodes[phase, beta] = len(graph.nodes)
        assert not isinstance(parts[2, 0.0]["rfa"], Tensor)
        assert parts[2, 0.0]["rfa"] == parts[2, 1.0]["rfa"].item()
        assert nodes[2, 0.0] == nodes[1, 1.0] < nodes[2, 1.0]


def test_divergence_names_the_sick_term():
    cfg, weights, source, target = _setup()
    weights["enc0_w"][0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match=r"seg_total became nan in phase 1"):
        train(weights, source, target, cfg)


def test_huge_learning_rate_aborts_instead_of_looping():
    """Step 1's losses are finite and its update overflows the first weight,
    so the weight check, not a loss, sees the divergence."""
    cfg, weights, source, target = _setup(lr=1e300, alpha=1e100, t1=6, t2=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(
            TrainingDiverged, match=r"^non-finite weights in enc0_w in phase 1$"
        ):
            train(weights, source, target, cfg)


def _byte_equal(a, b) -> bool:
    a, b = (np.asarray(v, dtype=np.float64) for v in (a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("phase", [1, 2])
def test_a_target_scenes_labels_never_reach_a_loss(phase):
    """A target scene trains on pseudo-labels from its own fused head: a
    copy of it with another valid labelling, (labels + 1) % k, gives the
    same loss terms and gradients, byte for byte. The same relabelling of
    a source scene does change its segmentation terms."""
    train_module = importlib.import_module("energyfuse.train")
    cfg, weights, source, target = _setup(beta=1.0, pseudo_threshold=0.0)

    def relabelled(scene):
        return dataclasses.replace(scene, labels=LabelMap((scene.labels.labels + 1) % cfg.k))

    scene = target[0]
    parts = compute_losses(weights, scene, cfg, phase)
    other = compute_losses(weights, relabelled(scene), cfg, phase)
    assert parts.keys() == other.keys()
    for name in parts:
        assert _byte_equal(parts[name], other[name]), name
    values, grads = train_module.scene_gradients(weights, scene, cfg, phase)
    values_r, grads_r = train_module.scene_gradients(weights, relabelled(scene), cfg, phase)
    assert values.keys() == values_r.keys() and grads.keys() == grads_r.keys() == set(weights)
    for name in values:
        assert _byte_equal(values[name], values_r[name]), name
    for name in grads:
        assert _byte_equal(grads[name], grads_r[name]), name

    src = source[0]
    src_other = compute_losses(weights, relabelled(src), cfg, phase)
    assert compute_losses(weights, src, cfg, phase)["seg_plain"] != src_other["seg_plain"]


def test_a_step_pairs_a_source_scene_with_an_evaluation_only_target():
    """A step refuses an evaluation-only source scene and a target scene
    whose labels are not evaluation-only, and so does train, before any
    weight moves."""
    cfg, weights, source, target = _setup()
    before = {name: arr.copy() for name, arr in weights.items()}
    rule = (
        "^a step pairs a labelled source scene with a target scene "
        "whose labels are evaluation-only$"
    )
    for scenes_s, scenes_t in ((target, target), (source, source), (target, source)):
        with pytest.raises(ContractError, match=rule):
            step_gradients(weights, scenes_s[0], scenes_t[1], cfg, 1)
        with pytest.raises(ContractError, match=rule):
            train(weights, scenes_s, scenes_t, cfg)
    for name in before:
        assert np.array_equal(weights[name], before[name]), name


def test_phase_two_learning_rate_is_reduced():
    # with lr_phase2_mult driven to zero, phase 2 must not move weights
    tiny = dataclasses.replace(RunConfig(**SMALL), t1=0, t2=3,
                               lr_phase2_mult=1e-300)
    source, target = build_data(tiny)
    weights = build_model(tiny)
    before = {name: arr.copy() for name, arr in weights.items()}
    train(weights, source, target, tiny)
    for name in before:
        assert np.allclose(weights[name], before[name], atol=1e-290), name


def test_a_step_tape_is_freed_without_the_garbage_collector():
    """Nothing on the tape refers back to its graph, so a phase-2 scene's
    tape (every fused block, reliability included) is freed by reference
    counting alone as soon as the step lets go of it."""
    cfg, weights, source, target = _setup(beta=1.0)
    gc.disable()
    try:
        for scene in (source[0], target[0]):
            graph = DiffGraph()
            parts = compute_losses(bind(weights, graph), scene, cfg, 2)
            graph.backward(parts["overall"])
            alive = weakref.ref(graph)
            del graph, parts
            assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("scheme", ["add", "gated"])
@pytest.mark.parametrize("phase", [1, 2])
def test_a_step_keeps_one_tape_alive_at_a_time(monkeypatch, scheme, phase):
    """A step records each scene on its own tape, source first, and the
    source tape is freed, by reference counting alone, before the target
    tape exists: at most one tape's attention maps are held at once."""
    train_module = importlib.import_module("energyfuse.train")
    cfg, weights, source, target = _setup(scheme=scheme, beta=1.0, steps=2)
    tapes, alive_at_birth = [], []

    class WatchedGraph(DiffGraph):
        def __init__(self):
            alive_at_birth.append(sum(tape() is not None for tape in tapes))
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(train_module, "DiffGraph", WatchedGraph)
    gc.disable()
    try:
        train_module._train_step(weights, source[0], target[0], cfg, phase, cfg.lr)
    finally:
        gc.enable()
    assert alive_at_birth == [0, 0]
    assert all(tape() is None for tape in tapes)


def test_a_step_adds_the_two_scene_gradients():
    """The update is lr * (target gradient + source gradient), each scene's
    gradient taken on its own tape."""
    train_module = importlib.import_module("energyfuse.train")
    cfg, weights, source, target = _setup(scheme="gated", beta=1.0)
    before = {name: arr.copy() for name, arr in weights.items()}
    _, grads_s = train_module.scene_gradients(weights, source[0], cfg, 2)
    _, grads_t = train_module.scene_gradients(weights, target[0], cfg, 2)
    train_module._train_step(weights, source[0], target[0], cfg, 2, cfg.lr)
    assert set(grads_s) == set(grads_t) == set(weights)
    for name, arr in weights.items():
        want = before[name] - cfg.lr * (grads_t[name] + grads_s[name])
        assert np.array_equal(arr, want), name


IMPORT_PACKAGE = """
import sys
import energyfuse

tooling = ("verify", "sweep", "cli")
print([m for m in tooling if "energyfuse." + m in sys.modules])
print(callable(energyfuse.build_data), callable(energyfuse.build_model))
"""


def _fresh_stdout(script: str, timeout: int) -> str:
    """What script prints in a new interpreter that imports this energyfuse."""
    package = importlib.import_module("energyfuse").__file__
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(package))}
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=timeout, check=True,
    ).stdout


def test_package_root_loads_only_what_set_up_needs():
    """A fresh `import energyfuse` binds the two names bench/setup_probe.py
    calls and loads none of the modules behind the CLI."""
    out = _fresh_stdout(IMPORT_PACKAGE, 60)
    assert out.splitlines() == ["[]", "True True"], out


SECOND_RUN_FAULTS = """
import resource
from energyfuse.config import RunConfig
from energyfuse.metrics import build_data, build_model
from energyfuse.train import train

cfg = RunConfig(**CFG)
source, target = build_data(cfg)
weights = build_model(cfg)
train(weights, source, target, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(weights, source, target, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_later_steps_reuse_the_heap_instead_of_refaulting_it():
    """A 16x16 step builds and drops 512 KiB (128-page) attention maps.
    Once a first run has grown the heap, a second run on the same model
    and data must not take that memory back from the OS step after step
    (about 1,000 minor faults per step under glibc's adaptive trimming).
    A fresh interpreter, because malloc's thresholds depend on everything
    the process allocated before."""
    cfg = {**REFERENCE, "n_scenes": 4, "t1": 4, "t2": 2, "seed": 0}
    faults = int(_fresh_stdout(SECOND_RUN_FAULTS.replace("CFG", repr(cfg)), 300))
    assert faults < 32 * (cfg["t1"] + cfg["t2"]), faults


PINNED_HEAP_FAULTS = """
import resource
import numpy as np
from energyfuse.train import _pin_malloc_thresholds

_pin_malloc_thresholds()
np.ones((256, 256))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    np.ones((256, 256))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_pinned_malloc_reuses_a_freed_512_kib_array():
    """The pin itself, at a ref-steps8 attention map's size: once one
    filled (256, 256) float64 array has been freed, ten more take fewer
    than ten minor faults (0 measured). Unpinned, glibc's dynamic thresholds take about 116 faults here;
    a trim threshold set alone freezes the mmap threshold where it stands,
    below 512 KiB in a new process, so each array is mapped afresh, about
    1,290."""
    faults = int(_fresh_stdout(PINNED_HEAP_FAULTS, 60))
    assert faults < 10, faults


def _loss_trace() -> list:
    cfg, weights, source, target = _setup()
    return train(weights, source, target, cfg)[1]


def test_malloc_policy_changes_no_number(monkeypatch):
    """Off glibc the policy is skipped (no C library is loaded), and on
    glibc a refusal by mallopt (return value 0) leaves malloc's own policy;
    either way the loss trace is the one the pinned policy gives."""
    train_module = importlib.import_module("energyfuse.train")
    reference = _loss_trace()
    if platform.libc_ver()[0] == "glibc":
        train_module._pin_malloc_thresholds()

    def no_library(*args, **kwargs):
        raise AssertionError("a C library was loaded off glibc")

    with monkeypatch.context() as patch:
        patch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("musl", "1.2"))
        patch.setattr(train_module.ctypes, "CDLL", no_library)
        assert _loss_trace() == reference

    calls = []
    refusing = types.SimpleNamespace(mallopt=lambda *args: calls.append(args) or 0)
    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("glibc", "2"))
    monkeypatch.setattr(train_module.ctypes, "CDLL", lambda name: refusing)
    assert _loss_trace() == reference
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
