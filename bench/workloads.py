"""The workloads and the unit of work each one times.

A unit is one training run through the package's public API:
`run_experiment` plus the metrics and loss-trace CSV writers. Functions
are looked up on their modules at call time, so the tracer's wrappers
see every call.
"""

import hashlib
import importlib
import math
import os

# README reference configuration: library defaults plus these keys.
REFERENCE = dict(
    alpha=1.0,
    feature_shift=0.85,
    feature_scale=1.5,
    noise_sd=0.3,
    depth_noise_sd=0.2,
)

# Overrides on top of REFERENCE. The workload seed becomes RunConfig.seed.
WORKLOADS = {
    # fusion + reliability, the shipping configuration
    "ref-full": dict(steps=1, beta=1.0),
    # eight Hopfield steps: fusion and the reverse pass dominate
    "ref-steps8": dict(steps=8, beta=1.0),
    # direct add: fusion bypassed, per-op tape overhead dominates
    "ref-direct": dict(steps=0, beta=0.0),
}


def run_config(workload: str, seed: int):
    from energyfuse.config import RunConfig

    return RunConfig(**{**REFERENCE, **WORKLOADS[workload], "seed": seed})


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_unit(workload: str, seed: int, out_dir: str) -> dict:
    """One unit of work; returns the digests of what it wrote.

    The result holds the sha256 of metrics.csv and of loss_trace.csv
    and the run's target mIoU (a list of one, the row of metrics.csv).
    """
    metrics = importlib.import_module("energyfuse.metrics")
    sweep = importlib.import_module("energyfuse.sweep")
    cfg = run_config(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    trace_path = os.path.join(out_dir, "loss_trace.csv")
    row, trace = metrics.run_experiment(cfg, run_id=workload)
    sweep.write_metrics_csv([row], cfg.k, metrics_path)
    sweep.write_loss_trace_csv(trace, trace_path)
    return {
        "loss_trace_csv": _sha256(trace_path),
        "metrics_csv": _sha256(metrics_path),
        "miou": [row.miou],
    }


def output_errors(digests: dict) -> list:
    """Problems visible in one unit's output alone."""
    errors = []
    for i, miou in enumerate(digests["miou"]):
        if not (math.isfinite(miou) and 0.0 <= miou <= 1.0):
            errors.append(f"run {i} has mIoU {miou}")
    return errors
