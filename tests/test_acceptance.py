"""Acceptance gate: the eight shipping criteria, one test each.

Every test prints one PASS/FAIL line (shown with -s, or in the failure
report) and asserts the criterion at its stated tolerance and runtime
budget. Criteria 5 and 6 share a session-scoped batch of twenty
training runs on the reference configuration.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ABLATION_SEEDS, REFERENCE, blas_kernel, readme_table
from energyfuse import verify
from energyfuse.config import RunConfig
from energyfuse.metrics import run_experiment
from energyfuse.sweep import sweep, write_loss_trace_csv, write_metrics_csv

ROOT = Path(__file__).resolve().parent.parent
ARMS = {
    "direct_add": dict(steps=0, beta=0.0),
    "eb2f": dict(steps=1, beta=0.0),
    "full": dict(steps=1, beta=1.0),
    "steps8": dict(steps=8, beta=1.0),
}
# arm -> bench/golden.json workload, also the run id its metrics.csv hash includes
GOLDEN_WORKLOADS = {"direct_add": "ref-direct", "full": "ref-full", "steps8": "ref-steps8"}
README_TABLE = "| arm | steps | beta | mean mIoU |"
# a seed has collapsed when self-training loses a target class: its IoU is at most this
COLLAPSE_IOU = 0.05


def _run_suite(checks, budget_s):
    t0 = time.perf_counter()
    results = [check() for check in checks]
    return results, time.perf_counter() - t0, budget_s


def _emit(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _suite_detail(results, elapsed, budget_s):
    worst = ", ".join(f"{r.name}={r.worst:.2e}" for r in results)
    return f"{worst}; runtime {elapsed:.2f}s (budget {budget_s:.0f}s)"


def test_criterion_1_identity_suite():
    results, elapsed, budget = _run_suite(
        (
            verify.check_two_form_identity,
            verify.check_energy_softmax_identity,
            verify.check_seg_nll_is_cross_entropy,
        ),
        5.0,
    )
    ok = all(r.passed for r in results) and elapsed < budget
    ok = ok and all(r.tol == 1e-12 for r in results)
    _emit("criterion-1 identity-suite", ok, _suite_detail(results, elapsed, budget))


def test_criterion_2_gradient_suite():
    results, elapsed, budget = _run_suite(
        (verify.check_hopfield_gradient_fd, verify.check_end_to_end_gradients),
        30.0,
    )
    ok = all(r.passed for r in results) and elapsed < budget
    ok = ok and results[0].tol == 1e-6 and results[1].tol == 1e-4
    _emit("criterion-2 gradient-suite", ok, _suite_detail(results, elapsed, budget))


def test_criterion_3_energy_descent_suite():
    results, elapsed, budget = _run_suite(
        (
            verify.check_full_step_descent,
            verify.check_damped_descent_unit_norm,
            verify.check_retrieval_convergence,
        ),
        30.0,
    )
    ok = all(r.passed for r in results) and elapsed < budget
    ok = ok and results[0].tol == 1e-10 and results[2].tol == 1e-6
    _emit("criterion-3 energy-descent", ok, _suite_detail(results, elapsed, budget))


def test_criterion_4_reliability_contracts():
    results, elapsed, budget = _run_suite(
        (
            verify.check_mask_partition,
            verify.check_kl_nonnegative,
            verify.check_kl_zero_iff_equal,
            verify.check_teacher_gradient_zero,
            verify.check_degenerate_masks,
        ),
        5.0,
    )
    ok = all(r.passed for r in results) and elapsed < budget
    by_name = {r.name: r for r in results}
    ok = ok and by_name["mask-partition-exact"].tol == 0.0
    ok = ok and by_name["rfa-kl-nonnegative"].tol == 1e-12
    ok = ok and by_name["rfa-teacher-gradient-zero"].worst == 0.0
    _emit("criterion-4 reliability-contracts", ok, _suite_detail(results, elapsed, budget))


@pytest.fixture(scope="session")
def reference_runs(tmp_path_factory):
    """(arm, seed) -> the run's target mIoU and per-class IoU, its phase-1
    overall losses, and the sha256 of the metrics.csv and loss_trace.csv
    it writes, named as in golden.json."""
    out = tmp_path_factory.mktemp("reference")
    runs = {}
    for arm, overrides in ARMS.items():
        for seed in ABLATION_SEEDS:
            cfg = RunConfig(**{**REFERENCE, **overrides, "seed": seed})
            t0 = time.perf_counter()
            row, trace = run_experiment(cfg, GOLDEN_WORKLOADS.get(arm, f"{arm}_seed{seed}"))
            elapsed = time.perf_counter() - t0
            assert elapsed <= 300.0, f"{arm} seed {seed} took {elapsed:.0f}s"
            write_metrics_csv([row], cfg.k, str(out / "metrics.csv"))
            write_loss_trace_csv(trace, str(out / "loss_trace.csv"))
            phase1 = [b.overall for b in trace if b.phase == 1]
            runs[arm, seed] = {"miou": row.miou, "iou": row.iou, "phase1_overall": phase1} | {
                f"{name}_csv": hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
                for name in ("metrics", "loss_trace")
            }
    return runs


@pytest.fixture(scope="session")
def ablation_miou(reference_runs):
    """Mean target mIoU of each ablation arm over the shared seeds."""
    return {
        arm: float(np.mean([reference_runs[arm, seed]["miou"] for seed in ABLATION_SEEDS]))
        for arm in ARMS
    }


def _print_seeds(reference_runs, arms):
    """Each arm's per-seed mIoU and how many of its seeds collapsed."""
    for arm in arms:
        runs = [reference_runs[arm, seed] for seed in ABLATION_SEEDS]
        miou = ", ".join(f"{run['miou']:.4f}" for run in runs)
        collapsed = sum(min(run["iou"]) <= COLLAPSE_IOU for run in runs)
        print(f"      {arm}: seeds {ABLATION_SEEDS} mIoU [{miou}], collapsed {collapsed}")


def test_criterion_5_ablation_ordering(reference_runs, ablation_miou):
    _print_seeds(reference_runs, ("direct_add", "eb2f", "full"))
    gain = ablation_miou["full"] - ablation_miou["direct_add"]
    fusion_gain = ablation_miou["eb2f"] - ablation_miou["direct_add"]
    ok = gain >= 0.02 and fusion_gain > 0.0
    detail = (
        f"direct_add={ablation_miou['direct_add']:.4f}, "
        f"eb2f={ablation_miou['eb2f']:.4f}, full={ablation_miou['full']:.4f}; "
        f"full-direct_add={gain:+.4f} (need >= +0.02), "
        f"eb2f-direct_add={fusion_gain:+.4f} (need > 0)"
    )
    _emit("criterion-5 ablation-ordering", ok, detail)


def test_criterion_6_many_steps_degrade(reference_runs, ablation_miou):
    _print_seeds(reference_runs, ("full", "steps8"))
    drop = ablation_miou["steps8"] - ablation_miou["full"]
    ok = ablation_miou["steps8"] <= ablation_miou["full"]
    detail = (
        f"steps8={ablation_miou['steps8']:.4f}, steps1={ablation_miou['full']:.4f}; "
        f"difference={drop:+.4f} (need <= 0)"
    )
    _emit("criterion-6 steps-degradation", ok, detail)


def test_criterion_7_gamma_zero_bypass():
    result = verify.check_gamma_zero_bypass()
    ok = result.passed and result.worst == 0.0
    _emit(
        "criterion-7 gamma-zero-bypass",
        ok,
        f"eb2f at gamma 0 vs plain fuse: worst = {result.worst} (need 0.0, bit-exact)",
    )


def test_criterion_8_sweep_reproducibility(tmp_path):
    base = RunConfig(
        **{**REFERENCE, "t1": 10, "t2": 5, "h": 8, "w": 8, "n_scenes": 8}
    )
    paths = []
    for name in ("first.csv", "second.csv"):
        rows = sweep(base, "gamma", [0.0, 0.5, 1.0], [0, 1])
        path = tmp_path / name
        write_metrics_csv(rows, base.k, str(path))
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    ok = first == second and len(first.splitlines()) == 7
    _emit(
        "criterion-8 sweep-reproducibility",
        ok,
        f"two sweep runs, {len(first)} bytes each, byte-identical={first == second}",
    )


def test_supervised_phase_reduces_the_loss(reference_runs):
    # the optimizer must actually optimize: on the reference problem the
    # mean loss over the last tenth of phase 1 beats the first tenth,
    # for every seed
    for seed in ABLATION_SEEDS:
        losses = reference_runs["full", seed]["phase1_overall"]
        head = int(np.ceil(len(losses) / 10))
        early = float(np.mean(losses[:head]))
        late = float(np.mean(losses[-head:]))
        assert late < early, f"seed {seed}: {late} !< {early}"


def test_reference_runs_write_the_golden_bytes(reference_runs):
    golden = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
    wrong = [
        f"{workload} seed {seed}: {name} differs from bench/golden.json"
        for arm, workload in GOLDEN_WORKLOADS.items()
        for seed in ABLATION_SEEDS
        for name in ("metrics_csv", "loss_trace_csv")
        if reference_runs[arm, seed][name] != golden["workloads"][workload][str(seed)][name]
    ]
    assert not wrong, "\n".join([f"BLAS kernel {blas_kernel()}", *wrong])


def test_readme_seeds_0_4_table_matches_the_runs(ablation_miou):
    """Each row of the README's seeds 0-4 table gives the mean mIoU, at 4
    decimals, of the arm with that row's steps and beta."""
    arm_of = {(o["steps"], o["beta"]): arm for arm, o in ARMS.items()}
    rows = readme_table(README_TABLE)
    assert len(rows) == len(ARMS), rows
    for name, (steps, beta, mean) in rows.items():
        arm = arm_of[int(steps), float(beta)]
        assert mean == f"{ablation_miou[arm]:.4f}", (
            name, arm, mean, ablation_miou[arm], f"BLAS kernel {blas_kernel()}"
        )
