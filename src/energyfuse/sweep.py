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
from dataclasses import asdict, replace

from .config import CONFIG_KEYS, RunConfig
from .metrics import MetricsRow, run_experiment
from .numeric import ConfigError, ContractError
from .train import TrainingDiverged

SWEEP_AXES = {
    "gamma": "gamma",
    "beta": "beta",
    "steps": "steps",
    "threshold": "pseudo_threshold",
}


def format_value(x: float) -> str:
    return format(float(x), ".17g")


def write_lines(path: str, lines):
    """Write utf-8 text with "\n" after each line, on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def metrics_header(k: int) -> list:
    cols = ["run_id"]
    cols.extend(CONFIG_KEYS)
    cols.extend(f"iou_class_{i}" for i in range(k))
    cols.extend(["miou", "depth_mae", "mean_energy_plain", "mean_energy_fused"])
    return cols


def _cell(value) -> str:
    return format_value(value) if isinstance(value, float) else str(value)


def metrics_csv_rows(rows: list, k: int) -> list:
    """Header plus one comma-joined line per MetricsRow."""
    out = [",".join(metrics_header(k))]
    for row in rows:
        cells = [row.run_id]
        cells.extend(_cell(row.config[key]) for key in CONFIG_KEYS)
        cells.extend(format_value(v) for v in row.iou)
        cells.extend(
            format_value(v)
            for v in (
                row.miou,
                row.depth_mae,
                row.mean_energy_plain,
                row.mean_energy_fused,
            )
        )
        out.append(",".join(cells))
    return out


def write_metrics_csv(rows: list, k: int, path: str):
    write_lines(path, metrics_csv_rows(rows, k))


def write_loss_trace_csv(trace: list, path: str):
    header = "step,phase,seg_total,dep_total,supervised,rfa,overall"
    lines = [header]
    for step, entry in enumerate(trace):
        b = entry.bundle
        lines.append(
            ",".join(
                [str(step), str(entry.phase)]
                + [
                    format_value(v)
                    for v in (b.seg_total, b.dep_total, b.supervised, b.rfa, b.overall)
                ]
            )
        )
    write_lines(path, lines)


def _failure_row(cfg: RunConfig, run_id: str, err: Exception) -> MetricsRow:
    print(f"sweep: run {run_id} failed: {err}", file=sys.stderr)
    nan = float("nan")
    row = MetricsRow(
        iou=[nan] * cfg.k,
        miou=nan,
        depth_mae=nan,
        mean_energy_plain=nan,
        mean_energy_fused=nan,
        run_id=run_id,
    )
    row.config = asdict(cfg)
    return row


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
