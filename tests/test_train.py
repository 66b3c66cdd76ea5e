"""Tests for the two-phase training loop."""

import dataclasses
import gc
import importlib
import types
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import REFERENCE
from energyfuse.autodiff import DiffGraph, Tensor
from energyfuse.config import RunConfig
from energyfuse.metrics import build_data, build_model
from energyfuse.model import bind
from energyfuse.numeric import ContractError
from energyfuse.train import TrainingDiverged, compute_losses, train

SMALL = dict(
    t1=6, t2=4, lr=0.05, alpha=1.0, seed=0, h=6, w=6, k=3, channels=4,
    n_scenes=4, feature_shift=0.4, feature_scale=1.2, noise_sd=0.2,
    depth_noise_sd=0.1,
)


def _setup(**overrides):
    cfg = RunConfig(**{**SMALL, **overrides})
    source, target = build_data(cfg)
    model = build_model(cfg)
    return cfg, model, source, target


def test_zero_steps_leaves_weights_untouched():
    cfg, model, source, target = _setup(t1=0, t2=0)
    before = {name: arr.copy() for name, arr in model.weights.items()}
    trained, trace = train(model, source, target, cfg)
    assert trace == []
    assert trained is model
    for name in before:
        assert np.array_equal(model.weights[name], before[name]), name


def test_empty_scene_sets_rejected():
    cfg, model, source, target = _setup()
    with pytest.raises(ContractError, match="nonempty"):
        train(model, [], target, cfg)
    with pytest.raises(ContractError, match="nonempty"):
        train(model, source, [], cfg)


def test_training_is_bitwise_reproducible():
    runs = []
    for _ in range(2):
        cfg, model, source, target = _setup()
        runs.append(train(model, source, target, cfg))
    (model_a, trace_a), (model_b, trace_b) = runs
    for name in model_a.weights:
        assert np.array_equal(model_a.weights[name], model_b.weights[name]), name
    assert len(trace_a) == len(trace_b)
    for ea, eb in zip(trace_a, trace_b):
        assert (ea.step, ea.phase) == (eb.step, eb.phase)
        assert ea.bundle == eb.bundle


def test_trace_covers_both_phases_in_order():
    cfg, model, source, target = _setup()
    _, trace = train(model, source, target, cfg)
    assert len(trace) == cfg.t1 + cfg.t2
    assert [e.step for e in trace] == list(range(cfg.t1 + cfg.t2))
    assert [e.phase for e in trace] == [1] * cfg.t1 + [2] * cfg.t2
    for entry in trace[: cfg.t1]:
        assert entry.bundle.rfa == 0.0
        assert entry.bundle.overall == entry.bundle.supervised
    for entry in trace[cfg.t1 :]:
        assert entry.bundle.rfa >= 0.0


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
    cfg, model, source, target = _setup(t1=4, t2=0)
    calls = _count_reliability_losses(monkeypatch)
    before = dict(calls)
    train(model, source, target, cfg)
    after = calls
    assert after["rfa_seg_loss"] == before.get("rfa_seg_loss", 0)
    assert after["rfa_dep_loss"] == before.get("rfa_dep_loss", 0)


def test_phase_two_reliability_call_pattern(monkeypatch):
    # one call per domain per step, for each of the two reliability losses
    cfg, model, source, target = _setup(t1=0, t2=5)
    calls = _count_reliability_losses(monkeypatch)
    before = dict(calls)
    train(model, source, target, cfg)
    after = calls
    assert after["rfa_seg_loss"] == before.get("rfa_seg_loss", 0) + 10
    assert after["rfa_dep_loss"] == before.get("rfa_dep_loss", 0) + 10


def test_zero_weighted_reliability_loss_is_valued_but_not_taped():
    """beta = 0: the reliability loss keeps the value beta = 1 records, as a
    plain number in the step's bundle, and records no more tape nodes than
    phase 1 does."""
    cfg, model, source, target = _setup(t1=0, t2=1)
    parts, nodes, traces = {}, {}, {}
    for beta in (0.0, 1.0):
        run_cfg = dataclasses.replace(cfg, beta=beta)
        graph = DiffGraph()
        w = bind(model, graph)
        parts[beta] = compute_losses(model, source[0], target[0], run_cfg, 2, w)
        nodes[beta] = len(graph.nodes)
        _, traces[beta] = train(build_model(run_cfg), source, target, run_cfg)
    assert not isinstance(parts[0.0]["rfa"], Tensor)
    assert parts[0.0]["rfa"] == parts[1.0]["rfa"].item()
    assert traces[0.0][0].bundle.rfa == traces[1.0][0].bundle.rfa > 0.0
    graph = DiffGraph()
    w = bind(model, graph)
    compute_losses(model, source[0], target[0], cfg, 1, w)
    assert nodes[0.0] == len(graph.nodes) < nodes[1.0]


def test_supervised_phase_reduces_the_loss():
    # the optimizer must actually optimize: on the reference problem the
    # mean loss over the last tenth of phase 1 beats the first tenth,
    # for every seed
    for seed in range(5):
        cfg = RunConfig(**{**REFERENCE, "seed": seed, "t2": 0})
        source, target = build_data(cfg)
        model = build_model(cfg)
        _, trace = train(model, source, target, cfg)
        losses = [e.bundle.overall for e in trace]
        head = int(np.ceil(len(losses) / 10))
        early = float(np.mean(losses[:head]))
        late = float(np.mean(losses[-head:]))
        assert late < early, f"seed {seed}: {late} !< {early}"


def test_divergence_names_the_sick_term():
    cfg, model, source, target = _setup()
    model.weights["enc0_w"][0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match=r"seg_total became nan in phase 1"):
        train(model, source, target, cfg)


def test_huge_learning_rate_aborts_instead_of_looping():
    cfg, model, source, target = _setup(lr=1e300, t1=6, t2=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((TrainingDiverged, ContractError)):
            train(model, source, target, cfg)


def test_tainted_labels_cannot_supervise():
    cfg, model, source, target = _setup()
    with pytest.raises(ContractError, match="evaluation-only"):
        train(model, target, source, cfg)


def test_phase_two_learning_rate_is_reduced():
    # with lr_phase2_mult driven to zero, phase 2 must not move weights
    tiny = dataclasses.replace(RunConfig(**SMALL), t1=0, t2=3,
                               lr_phase2_mult=1e-300)
    source, target = build_data(tiny)
    model = build_model(tiny)
    before = {name: arr.copy() for name, arr in model.weights.items()}
    train(model, source, target, tiny)
    for name in before:
        assert np.allclose(model.weights[name], before[name], atol=1e-290), name


def test_a_step_tape_is_freed_without_the_garbage_collector():
    """Nothing on the tape refers back to its graph, so a phase-2 step's
    tape (every fused block, reliability included) is freed by reference
    counting alone as soon as the step lets go of it."""
    cfg, model, source, target = _setup(beta=1.0)
    gc.disable()
    try:
        graph = DiffGraph()
        parts = compute_losses(model, source[0], target[0], cfg, 2, bind(model, graph))
        graph.backward(parts["overall"])
        alive = weakref.ref(graph)
        del graph, parts
        assert alive() is None
    finally:
        gc.enable()


def test_package_keeps_train_and_sweep_as_modules():
    """`import energyfuse` binds its train and sweep submodules, not the
    functions of the same names, which stay one attribute further in."""
    import energyfuse

    for name in ("train", "sweep"):
        module = getattr(energyfuse, name)
        assert isinstance(module, types.ModuleType), (name, module)
        assert callable(getattr(module, name))
