"""Hyperparameter sweeps, and the one writer of every file the CLI writes.

Every run is independent (fresh data, fresh model), rows are ordered by
(axis value, seed) no matter how runs are scheduled, and floats are
printed at 17 significant digits, so rerunning a sweep reproduces
metrics.csv byte for byte and each value reads back as the same double.
A run that diverges, wherever training detects it, is kept as a row of
nan metrics with a `sweep: run ... failed:` line on stderr, and the
sweep moves on; any other error propagates and stops the sweep before
metrics.csv is written.
"""

import sys
from dataclasses import asdict, fields, replace

from .config import CONFIG_KEYS, RunConfig
from .metrics import MetricsRow, run_experiment
from .numeric import ConfigError, ContractError
from .objectives import LossBundle
from .train import TrainingDiverged

SWEEP_AXES = {
    "gamma": "gamma",
    "beta": "beta",
    "steps": "steps",
    "threshold": "pseudo_threshold",
}
# the metric columns after the IoUs: MetricsRow's float fields, in order
SCALAR_METRICS = tuple(f.name for f in fields(MetricsRow) if f.type is float)


def format_value(x: float) -> str:
    return format(float(x), ".17g")


def csv_line(values) -> str:
    """One CSV line: a float at 17 significant digits, anything else by str."""
    return ",".join(format_value(v) if isinstance(v, float) else str(v) for v in values)


def write_lines(path: str, lines):
    """Write utf-8 text with "\n" after each line, on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def metric_columns(k: int) -> list:
    """The names of a row's metrics, in metrics.csv and printout order."""
    return [f"iou_class_{i}" for i in range(k)] + list(SCALAR_METRICS)


def metric_values(row: MetricsRow) -> list:
    return [*row.iou, *(getattr(row, name) for name in SCALAR_METRICS)]


def metrics_header(k: int) -> list:
    return ["run_id", *CONFIG_KEYS, *metric_columns(k)]


def write_metrics_csv(rows: list, k: int, path: str):
    """The header, then one line per MetricsRow: its run id, config and metrics."""
    lines = [csv_line(metrics_header(k))]
    for row in rows:
        config = [row.config[key] for key in CONFIG_KEYS]
        lines.append(csv_line([row.run_id, *config, *metric_values(row)]))
    write_lines(path, lines)


def write_loss_trace_csv(trace: list, path: str):
    """The header, then one line per LossBundle: its step and its fields."""
    names = [f.name for f in fields(LossBundle)]
    lines = [csv_line(["step", *names])]
    for step, bundle in enumerate(trace):
        lines.append(csv_line([step, *(getattr(bundle, name) for name in names)]))
    write_lines(path, lines)


def _failure_row(cfg: RunConfig, run_id: str, err: Exception) -> MetricsRow:
    print(f"sweep: run {run_id} failed: {err}", file=sys.stderr)
    nan = float("nan")
    scalars = dict.fromkeys(SCALAR_METRICS, nan)
    return MetricsRow(iou=[nan] * cfg.k, run_id=run_id, config=asdict(cfg), **scalars)


def sweep(base: RunConfig, axis: str, values: list, seeds: list) -> list:
    """One full run per (value, seed), rows ordered by (value, seed)."""
    if axis not in SWEEP_AXES:
        raise ContractError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    key = SWEEP_AXES[axis]
    # every config is built, and so checked, before the first run; two
    # entries are one run if their configs are equal (-0.0 == 0.0) or their
    # run ids are (run ids print values at 6 significant digits)
    plan = []
    for value in sorted(values):
        for seed in sorted(seeds):
            run_id = f"{axis}={format(value, 'g')}_seed={seed}"
            cfg = replace(base, **{key: value, "seed": seed})
            for other_id, other in plan:
                if other_id == run_id or other == cfg:
                    raise ConfigError(
                        f"sweep {axis} {getattr(other, key)!r} and {value!r} "
                        f"with seed {seed} both make run {other_id}"
                    )
            plan.append((run_id, cfg))
    rows = []
    for run_id, cfg in plan:
        try:
            row, _ = run_experiment(cfg, run_id)
        except TrainingDiverged as err:
            row = _failure_row(cfg, run_id, err)
        rows.append(row)
    return rows
