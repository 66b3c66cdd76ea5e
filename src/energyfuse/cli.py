"""Command-line harness.

Subcommands: train, eval, sweep, verify, demo-hopfield, gen-data. Exit
codes: 0 success, 1 failed invariant or diverged training, 2 usage or
config input refused before any run (or an OS error). Any other error
propagates with its traceback. Flags named after config keys override
values from --config files.
"""

import argparse
import os
import re
import sys

import numpy as np

from .config import CONFIG_KEYS, RunConfig, _coerce, load_config
from .fusion import hopfield_energy, hopfield_update
from .metrics import build_data, run_experiment
from .numeric import ConfigError
from .rng import RngState
from .sweep import (
    SWEEP_AXES,
    format_value,
    metric_columns,
    metric_values,
    sweep,
    write_lines,
    write_loss_trace_csv,
    write_metrics_csv,
)
from .train import TrainingDiverged
from .verify import run_verification


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file")
    for key in CONFIG_KEYS:
        parser.add_argument(f"--{key}", default=None)


def _config_from(args) -> RunConfig:
    # the file's keys and the flags build one config, so only their union
    # must pass its checks (k <= h*w spans three keys)
    keys = load_config(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            keys[key] = _coerce(key, getattr(args, key))
    return RunConfig(**keys)


def _writer_config(args) -> RunConfig:
    """The config of a command that writes to out_dir; refused before any run
    when out_dir's nearest existing ancestor, or out_dir itself, is no directory."""
    cfg = _config_from(args)
    ancestor = cfg.out_dir
    while ancestor and not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        raise ConfigError(f"out_dir {cfg.out_dir}: {ancestor} is not a directory")
    return cfg


def _print_row(row):
    print(f"run_id: {row.run_id}")
    for name, v in zip(metric_columns(len(row.iou)), metric_values(row)):
        print(f"{name}: {v:.6f}")


def cmd_train(args) -> int:
    cfg = _writer_config(args)
    row, trace = run_experiment(cfg, run_id="train")
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    trace_path = os.path.join(cfg.out_dir, "loss_trace.csv")
    write_metrics_csv([row], cfg.k, metrics_path)
    write_loss_trace_csv(trace, trace_path)
    _print_row(row)
    print(f"wrote {metrics_path} and {trace_path}")
    return 0


def cmd_eval(args) -> int:
    # no checkpoints exist by design: rebuild the run deterministically
    cfg = _config_from(args)
    row, _ = run_experiment(cfg, run_id="eval")
    _print_row(row)
    return 0


def cmd_sweep(args) -> int:
    cfg = _writer_config(args)
    key = SWEEP_AXES[args.axis]
    values = [_coerce(key, item) for item in args.values.split(",") if item.strip()]
    seeds = [_coerce("seed", item) for item in args.seeds.split(",") if item.strip()]
    rows = sweep(cfg, args.axis, values, seeds)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "metrics.csv")
    write_metrics_csv(rows, cfg.k, path)
    print(f"wrote {path} ({len(rows)} runs)")
    return 0


def cmd_verify(_args) -> int:
    report = run_verification()
    print(report.text())
    return 0 if report.ok else 1


def cmd_demo_hopfield(args) -> int:
    cfg = _config_from(args)
    rng = RngState(cfg.seed, (99,))
    d, m = 8, 5
    nu = rng.normal(d, m, 1.0)
    nu = nu / np.linalg.norm(nu, axis=0, keepdims=True)
    target_col = 0
    xi = nu[:, [target_col]] + rng.normal(d, 1, 0.2)
    print(f"descending the Hopfield energy from a noisy probe of stored pattern {target_col}")
    for it in range(10):
        energy = hopfield_energy(xi, nu)
        nxt = hopfield_update(xi, nu, cfg.gamma, 1)
        delta = float(np.linalg.norm(nxt - xi))
        print(f"iter {it:2d}  energy {energy: .6f}  step size {delta:.2e}")
        xi = nxt
    sims = (nu.T @ xi).ravel() / np.linalg.norm(xi)
    print(f"closest stored pattern: {int(np.argmax(sims))}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _writer_config(args)
    source, target = build_data(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = []
    for name, scenes in (("source", source), ("target", target)):
        for i, scene in enumerate(scenes):
            stem = f"{name}_{i:03d}"
            parts = {
                "features": scene.features,
                "depth": scene.depth,
                "labels": scene.labels.labels.reshape(1, -1),
            }
            for part, a in parts.items():
                rows, cols = a.shape
                write_lines(
                    os.path.join(cfg.out_dir, f"{stem}_{part}.txt"),
                    [f"{rows} {cols}", *map(format_value, a.ravel())],
                )
            manifest.append(stem)
    write_lines(os.path.join(cfg.out_dir, "manifest.txt"), manifest)
    print(f"wrote {2 * cfg.n_scenes} scenes to {cfg.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energyfuse",
        description="Energy-based feature fusion on synthetic paired-domain scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, extra in (
        ("train", cmd_train, "train on the configured scenes and write CSVs"),
        ("eval", cmd_eval, "retrain deterministically and print target metrics"),
        ("sweep", cmd_sweep, "run a hyperparameter sweep and write metrics.csv"),
        ("demo-hopfield", cmd_demo_hopfield, "print energies of a retrieval run"),
        ("gen-data", cmd_gen_data, "write the configured scenes as tensor dumps"),
    ):
        p = sub.add_parser(name, help=extra)
        _add_config_flags(p)
        p.set_defaults(handler=fn)
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
            p.add_argument("--values", required=True)
            p.add_argument("--seeds", default="0")

    p = sub.add_parser("verify", help="run every invariant suite and report")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value that starts with a minus as an unknown flag; every
    # flag but --help takes one, so it is joined to a next token that is no flag
    for i in range(len(argv) - 1, 0, -1):
        flag = argv[i - 1]
        next_is_flag = re.fullmatch(r"--\w+(=.*)?|-h", argv[i], re.S)
        if re.fullmatch(r"--\w+", flag) and flag != "--help" and not next_is_flag:
            argv[i - 1 : i + 1] = [f"{flag}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 1
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
