"""Tests for value formatting, config parsing, CSV output, and the CLI."""

import hashlib
import importlib
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from conftest import blas_kernel
from energyfuse import cli, verify
from energyfuse.cli import main
from energyfuse.config import CONFIG_KEYS, RunConfig, load_config, parse_config_text
from energyfuse.metrics import MetricsRow, build_data
from energyfuse.numeric import ContractError
from energyfuse.rng import RngState
from energyfuse.sweep import (
    format_value,
    metrics_header,
    sweep,
    write_metrics_csv,
)
from energyfuse.train import TrainingDiverged

TINY = [
    "--t1", "2", "--t2", "1", "--h", "5", "--w", "5", "--k", "3",
    "--channels", "4", "--n_scenes", "2",
]


# ----------------------------------------------------------------- values


def test_tensor_round_trip_is_exact():
    rng = RngState(0, (1,))
    a = rng.normal(7, 11, 3.0)
    a[0, 0] = 1e-300
    a[1, 1] = -1e300
    a[2, 2] = 2.0 / 3.0
    b = np.array([float(format_value(v)) for v in a.ravel()]).reshape(a.shape)
    assert a.tobytes() == b.tobytes()


def test_format_value_uses_17_significant_digits():
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    assert format_value(1.0) == "1"
    assert format_value(float("nan")) == "nan"


# ----------------------------------------------------------------- config


def test_config_text_overrides_defaults():
    cfg = RunConfig(**parse_config_text("t1 = 3\n\n# comment\nlr = 0.25\nscheme = gated\n"))
    assert (cfg.t1, cfg.lr, cfg.scheme) == (3, 0.25, "gated")
    assert cfg.t2 == RunConfig().t2


def test_config_unknown_key_names_the_line():
    with pytest.raises(ContractError, match="line 2.*learning_rate"):
        parse_config_text("t1 = 3\nlearning_rate = 0.1\n")


def test_config_repeated_key_names_both_lines():
    with pytest.raises(ContractError, match="line 3.*'gamma'.*line 1"):
        parse_config_text("gamma = 0.5\n# again\ngamma = 0.7\n")


def test_config_missing_equals_names_the_line():
    with pytest.raises(ContractError, match="line 3"):
        parse_config_text("t1 = 3\n# fine\njust words\n")


def test_config_bad_value_rejected():
    with pytest.raises(ContractError, match="bad value for t1"):
        parse_config_text("t1 = soon\n")


FLOAT_KEYS = [f.name for f in fields(RunConfig) if f.type is float]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_rejects_non_finite_floats(key, bad):
    with pytest.raises(ContractError, match=rf"^{key} must be finite"):
        RunConfig(**{key: bad})


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_rejects_non_numbers_in_floats(key):
    """A list would print its commas into metrics.csv's config echo, and a
    string used to reach the range checks as a bare TypeError."""
    assert getattr(RunConfig(**{key: 1}), key) == 1
    default = getattr(RunConfig(), key)
    for bad in ([default] * 8, str(default), True, None):
        with pytest.raises(ContractError, match=rf"^{key} must be a number, got "):
            RunConfig(**{key: bad})


INT_KEYS = [f.name for f in fields(RunConfig) if f.type is int]


@pytest.mark.parametrize("key", INT_KEYS)
def test_config_rejects_non_integer_ints(key):
    default = getattr(RunConfig(), key)
    assert getattr(RunConfig(**{key: np.int64(default)}), key) == default
    for bad in (default + 0.5, float(default), True):
        with pytest.raises(ContractError, match=rf"^{key} must be an integer"):
            RunConfig(**{key: bad})


def test_config_rejects_negative_seed():
    with pytest.raises(ContractError, match="^seed must be >= 0, got -1$"):
        RunConfig(seed=-1)
    assert RunConfig(seed=0).seed == 0


def test_config_rejects_non_positive_alpha():
    with pytest.raises(ContractError, match="alpha must be positive"):
        RunConfig(alpha=0.0)


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("t1", -1, "t1 and t2 must be >= 0"),
        ("t2", -1, "t1 and t2 must be >= 0"),
        ("lr_phase2_mult", 0.0, "lr_phase2_mult must be positive"),
        ("beta", -0.5, "beta must be >= 0, got -0.5"),
        ("scheme", "mean", "scheme must be add or gated, got 'mean'"),
        ("h", 0, "need h, w >= 1, k >= 2, channels >= 1"),
        ("w", 0, "need h, w >= 1, k >= 2, channels >= 1"),
        ("k", 1, "need h, w >= 1, k >= 2, channels >= 1"),
        ("channels", 0, "need h, w >= 1, k >= 2, channels >= 1"),
        # a dict sets several keys: k = 5 overfills a 2 x 2 grid
        pytest.param(
            "k", {"h": 2, "w": 2, "k": 5}, "5 classes cannot fit 4 cells",
            id="k-h2-w2-k5-5 classes cannot fit 4 cells",
        ),
        ("n_scenes", 0, "n_scenes must be >= 1"),
        ("pseudo_threshold", 1.5, "pseudo_threshold must be in [0, 1]"),
        ("feature_scale", 0.0, "feature_scale must be positive"),
        ("noise_sd", -0.1, "noise levels must be >= 0"),
        ("depth_noise_sd", -1, "noise levels must be >= 0"),
    ],
)
def test_config_rejects_out_of_range_values(key, bad, message):
    keys = bad if isinstance(bad, dict) else {key: bad}
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        RunConfig(**keys)


def test_config_file_layering(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lr = 0.125\nk = 5\n", encoding="utf-8")
    base = RunConfig(t1=9)
    cfg = replace(base, **load_config(str(path)))
    assert (cfg.lr, cfg.k, cfg.t1) == (0.125, 5, 9)


# -------------------------------------------------------------------- CSV


def test_metrics_header_layout():
    assert metrics_header(3) == (
        ["run_id"]
        + list(CONFIG_KEYS)
        + ["iou_class_0", "iou_class_1", "iou_class_2"]
        + ["miou", "depth_mae", "mean_energy_plain", "mean_energy_fused"]
    )
    assert CONFIG_KEYS == (
        "t1", "t2", "lr", "lr_phase2_mult", "alpha", "beta", "gamma",
        "steps", "scheme", "pseudo_threshold", "seed", "h", "w", "k",
        "channels", "n_scenes", "feature_shift", "feature_scale",
        "noise_sd", "depth_noise_sd", "out_dir",
    )


def test_metrics_rows_print_floats_at_full_precision(tmp_path):
    row = MetricsRow(
        iou=[1.0 / 3.0, 0.5],
        miou=5.0 / 12.0,
        depth_mae=0.1,
        mean_energy_plain=-1.25,
        mean_energy_fused=-1.5,
        run_id="r0",
    )
    row.config = asdict(RunConfig(k=2, lr=0.1))
    path = tmp_path / "metrics.csv"
    write_metrics_csv([row], 2, str(path))
    header, line = path.read_text(encoding="utf-8").splitlines()
    cells = line.split(",")
    named = dict(zip(header.split(","), cells))
    assert named["run_id"] == "r0"
    assert named["lr"] == "0.10000000000000001"
    assert named["t1"] == "150"
    assert named["scheme"] == "add"
    assert named["iou_class_0"] == "0.33333333333333331"
    assert named["miou"] == "0.41666666666666669"
    assert named["mean_energy_plain"] == "-1.25"


def test_metrics_csv_cells_by_type_are_pinned(tmp_path):
    """A bool and an int print with str, a float at 17 digits, a str as is."""
    row = MetricsRow(
        iou=[0.25, 1.0 / 3.0],
        miou=7.0 / 24.0,
        depth_mae=0.1,
        mean_energy_plain=-1.25,
        mean_energy_fused=-1.5,
        run_id="r1",
    )
    row.config = {**asdict(RunConfig(k=2, lr=0.1)), "t1": True}
    path = tmp_path / "metrics.csv"
    write_metrics_csv([row], 2, str(path))
    line = (
        "r1,True,50,0.10000000000000001,0.10000000000000001,0.001,1,1,1,add,"
        "0.90000000000000002,0,16,16,2,8,64,0,1,0,0,runs,"
        "0.25,0.33333333333333331,0.29166666666666669,0.10000000000000001,"
        "-1.25,-1.5"
    )
    want = ",".join(metrics_header(2)) + "\n" + line + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def test_sweep_rows_ordered_and_complete():
    base = RunConfig(t1=2, t2=1, h=5, w=5, k=3, channels=4, n_scenes=2)
    rows = sweep(base, "gamma", [1.0, 0.5], [1, 0])
    assert [r.run_id for r in rows] == [
        "gamma=0.5_seed=0",
        "gamma=0.5_seed=1",
        "gamma=1_seed=0",
        "gamma=1_seed=1",
    ]
    for row in rows:
        assert np.isfinite(row.miou)
        assert row.config["out_dir"] == base.out_dir


def test_sweep_rerun_writes_identical_bytes(tmp_path):
    base = RunConfig(t1=2, t2=1, h=5, w=5, k=3, channels=4, n_scenes=2)
    blobs = []
    for name in ("a.csv", "b.csv"):
        rows = sweep(base, "steps", [0, 1], [0])
        path = tmp_path / name
        write_metrics_csv(rows, base.k, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0].decode().startswith("run_id,t1,")


def test_sweep_keeps_going_after_a_failed_run(tmp_path, capsys):
    # an absurd learning rate makes every run abort; each failure must
    # land as a nan row instead of killing the sweep
    base = RunConfig(t1=4, t2=0, lr=1e300, h=5, w=5, k=3, channels=4, n_scenes=2)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = sweep(base, "gamma", [0.0, 1.0], [0])
    assert len(rows) == 2
    for row in rows:
        assert np.isnan(row.miou)
        assert all(np.isnan(v) for v in row.iou)
    err = capsys.readouterr().err
    assert "failed" in err
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, base.k, str(path))
    body = path.read_text(encoding="utf-8").splitlines()
    assert len(body) == 3
    assert ",nan," in body[1]


def test_sweep_raises_on_a_programming_error(monkeypatch, tmp_path, capsys):
    """Only a diverged run becomes a NaN row: a bug, or a contract broken
    inside a run, stops the sweep. Through the CLI, `train` and `sweep`
    let such a ContractError propagate, where a process exits 1 with its
    traceback rather than 2 as for refused input, and write no metrics.csv."""
    # the package re-exports the function `sweep`, which shadows the module
    sweep_module = importlib.import_module("energyfuse.sweep")
    for error in (TypeError, ContractError):

        def broken(*args):
            raise error("injected bug")

        monkeypatch.setattr(sweep_module, "run_experiment", broken)
        with pytest.raises(error, match="injected bug"):
            sweep(RunConfig(), "gamma", [1.0], [0])
    monkeypatch.undo()
    # inside the run both commands start, after their configs were accepted
    monkeypatch.setattr(importlib.import_module("energyfuse.metrics"), "train", broken)
    for command, *extra in (["train"], ["sweep", "--axis", "gamma", "--values", "0.5,1"]):
        out = tmp_path / command
        with pytest.raises(ContractError, match="injected bug"):
            main([command, *TINY, *extra, "--out_dir", str(out)])
        assert capsys.readouterr().err == ""
        assert not (out / "metrics.csv").exists()


@pytest.fixture
def no_sweep_runs(monkeypatch):
    """Fail the test if a sweep starts any run."""

    def must_not_run(cfg, run_id):
        raise AssertionError(f"run {run_id} started")

    # the package re-exports the function `sweep`, which shadows the module
    sweep_module = importlib.import_module("energyfuse.sweep")
    monkeypatch.setattr(sweep_module, "run_experiment", must_not_run)


@pytest.mark.parametrize(
    "axis, values, seeds, message",
    [
        pytest.param("steps", [1.5, 1], [0], "1.5", id="fractional-steps"),
        pytest.param(
            "steps", [1.0], [0], "steps must be an integer, got 1.0", id="float-steps"
        ),
        pytest.param("gamma", [0.5, 0.5], [0, 0], "gamma 0.5", id="repeated-value"),
        pytest.param("gamma", [0.5, 1.0], [3, 1, 3], "seed 3", id="repeated-seed"),
        pytest.param("steps", [2, 1, 2], [0], "steps 2", id="repeated-steps"),
        # the good seed 1 would run first, and int(1.5) would repeat it
        pytest.param("gamma", [0.5], [1, 1.5], "1.5", id="fractional-seed"),
        # run ids print 6 significant digits: both values would read 0.123457
        pytest.param(
            "gamma", [0.1234567, 0.1234568], [0], "0.1234567 and 0.1234568",
            id="shared-run-id",
        ),
        # -0.0 == 0.0 builds one config, though the run ids read -0 and 0
        pytest.param(
            "gamma", [-0.0, 0.0], [0], "gamma -0.0 and 0.0 with seed 0",
            id="signed-zero",
        ),
        pytest.param(
            "threshold", [0.0, -0.0], [1], "0.0 and -0.0 with seed 1",
            id="signed-zero-threshold",
        ),
        # each bad value or seed sorts after a good one, whose runs come first
        pytest.param(
            "gamma", [0.5, 1.5], [0, 1], "gamma must be in", id="gamma-out-of-range"
        ),
        pytest.param(
            "threshold", [0.5, 2.0], [0], "pseudo_threshold must be in",
            id="threshold-out-of-range",
        ),
        pytest.param(
            "gamma", [0.5], [0, -1], "seed must be >= 0, got -1", id="negative-seed"
        ),
        pytest.param("gamma", [], [0], "sweep needs at least one value", id="no-values"),
        pytest.param("gamma", [0.5], [], "sweep needs at least one seed", id="no-seeds"),
    ],
)
def test_sweep_rejects_before_any_run(no_sweep_runs, axis, values, seeds, message):
    with pytest.raises(ContractError, match=message):
        sweep(RunConfig(), axis, values, seeds)


def test_cli_sweep_list_items_are_checked_as_config_values(no_sweep_runs, capsys):
    assert main(["sweep", "--axis", "steps", "--values", "1.5"]) == 2
    assert "error: bad value for steps: '1.5'" in capsys.readouterr().err


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ContractError, match="axis"):
        sweep(RunConfig(), "lr", [0.1], [0])


# -------------------------------------------------------------------- CLI


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# The metric lines `train` and `eval` print on the TINY config: names in
# metrics.csv's column order, each value at 6 decimals.
TINY_PRINTOUT = """\
run_id: {run_id}
iou_class_0: 1.000000
iou_class_1: 1.000000
iou_class_2: 1.000000
miou: 1.000000
depth_mae: 3.023517
mean_energy_plain: -0.951861
mean_energy_fused: -1.786593
"""


def test_cli_train_writes_both_csv_files(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["train", *TINY, "--out_dir", out])
    assert code == 0
    metrics = (tmp_path / "run" / "metrics.csv").read_text(encoding="utf-8")
    trace = (tmp_path / "run" / "loss_trace.csv").read_text(encoding="utf-8")
    lines = metrics.splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[:2] == ["run_id", "t1"]
    trace_lines = trace.splitlines()
    assert trace_lines[0] == "step,phase,seg_total,dep_total,supervised,rfa,overall"
    assert len(trace_lines) == 1 + 2 + 1
    wrote = f"wrote {os.path.join(out, 'metrics.csv')} and {os.path.join(out, 'loss_trace.csv')}\n"
    assert capsys.readouterr().out == TINY_PRINTOUT.format(run_id="train") + wrote


def test_cli_eval_prints_metrics(capsys):
    code = main(["eval", *TINY])
    assert code == 0
    assert capsys.readouterr().out == TINY_PRINTOUT.format(run_id="eval")


def test_cli_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text("lr = 0.01220703125\nt1 = 9\n", encoding="utf-8")
    out = str(tmp_path / "run")
    code = main([
        "train", "--config", str(cfg_path), *TINY, "--out_dir", out,
    ])
    assert code == 0
    header, row = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    named = dict(zip(header.split(","), row.split(",")))
    assert named["lr"] == "0.01220703125"  # from the file
    assert named["t1"] == "2"  # flag wins over the file's 9


@pytest.mark.parametrize(
    "file_text, flags",
    [("h = 1\nw = 2\n", ["--k", "2"]), ("k = 2\n", ["--h", "1", "--w", "2"])],
)
def test_cli_checks_config_file_and_flags_together(tmp_path, capsys, file_text, flags):
    """The file's keys and the flags are checked as one config: the layer
    that sets the grid, alone on the defaults, puts 4 classes in 2 cells."""
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(file_text, encoding="utf-8")
    out = tmp_path / "data"
    args = ["gen-data", "--config", str(cfg_path), *flags, "--n_scenes", "1"]
    assert main([*args, "--out_dir", str(out)]) == 0
    assert f"wrote 2 scenes to {out}" in capsys.readouterr().out


def test_cli_sweep_end_to_end(tmp_path):
    out = str(tmp_path / "sw")
    args = [
        "sweep", *TINY, "--out_dir", out,
        "--axis", "beta", "--values", "0,1", "--seeds", "0,1",
    ]
    assert main(args) == 0
    body = (tmp_path / "sw" / "metrics.csv").read_bytes()
    assert len(body.decode().splitlines()) == 5
    assert main(args) == 0
    assert (tmp_path / "sw" / "metrics.csv").read_bytes() == body


SWEEP_GAMMA = ["sweep", "--axis", "gamma"]


@pytest.mark.parametrize(
    "args, file_text, message",
    [
        pytest.param(["train", "--lr", "inf"], None, "lr must be finite, got inf", id="finite"),
        pytest.param(["train", "--t2", "-1"], None, "t1 and t2 must be >= 0", id="t2"),
        pytest.param(["train", "--lr", "0"], None, "lr must be positive, got 0.0", id="lr"),
        pytest.param(
            ["train", "--lr_phase2_mult", "0"], None, "lr_phase2_mult must be positive",
            id="lr_phase2_mult",
        ),
        pytest.param(["train", "--alpha", "0"], None, "alpha must be positive, got 0.0", id="alpha"),
        pytest.param(["train", "--beta", "-0.5"], None, "beta must be >= 0, got -0.5", id="beta"),
        pytest.param(
            ["train", "--gamma", "1.5"], None, "gamma must be in [0, 1], got 1.5", id="gamma"
        ),
        pytest.param(["train", "--steps", "-1"], None, "steps must be >= 0, got -1", id="steps"),
        pytest.param(
            ["train", "--scheme", "mean"], None, "scheme must be add or gated, got 'mean'",
            id="scheme",
        ),
        pytest.param(
            ["train", "--pseudo_threshold", "1.5"], None, "pseudo_threshold must be in [0, 1]",
            id="pseudo_threshold",
        ),
        pytest.param(
            ["train", "--channels", "0"], None, "need h, w >= 1, k >= 2, channels >= 1",
            id="channels",
        ),
        pytest.param(["train", "--k", "26"], None, "26 classes cannot fit 25 cells", id="k-cells"),
        pytest.param(["train", "--n_scenes", "0"], None, "n_scenes must be >= 1", id="n_scenes"),
        pytest.param(["train", "--seed", "-1"], None, "seed must be >= 0, got -1", id="seed"),
        pytest.param(
            ["train", "--feature_scale", "0"], None, "feature_scale must be positive",
            id="feature_scale",
        ),
        pytest.param(
            ["train", "--depth_noise_sd", "-1"], None, "noise levels must be >= 0", id="noise"
        ),
        pytest.param(["train", "--t1", "soon"], None, "bad value for t1: 'soon'", id="flag-value"),
        pytest.param(
            ["train"], "just words\n", "line 1: expected key = value, got 'just words'",
            id="file-line",
        ),
        pytest.param(
            ["train"], "speed = 11\n", "line 1: unknown config key 'speed'", id="file-key"
        ),
        pytest.param(
            ["train"], "gamma = 0.5\ngamma = 0.7\n", "line 2: 'gamma' repeats line 1",
            id="file-repeat",
        ),
        pytest.param(
            [*SWEEP_GAMMA, "--values", ","], None, "sweep needs at least one value",
            id="sweep-values",
        ),
        pytest.param(
            [*SWEEP_GAMMA, "--values", "1", "--seeds", ","], None,
            "sweep needs at least one seed", id="sweep-seeds",
        ),
        pytest.param(
            [*SWEEP_GAMMA, "--values", "0.5,0.5"], None,
            "sweep gamma 0.5 and 0.5 with seed 0 both make run gamma=0.5_seed=0",
            id="sweep-repeat",
        ),
    ],
)
def test_cli_config_errors_exit_2_with_their_message(tmp_path, capsys, args, file_text, message):
    """Each check of a flag, a config file or a sweep list, reached through
    the CLI: exit 2, one stderr line, and nothing written."""
    command, *flags = args
    if file_text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(file_text, encoding="utf-8")
        flags += ["--config", str(path)]
    out = tmp_path / "run"
    assert main([command, *TINY, *flags, "--out_dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["train"], ["sweep", "--axis", "gamma", "--values", "0.5,1"], ["gen-data"]],
    ids=["train", "sweep", "gen-data"],
)
@pytest.mark.parametrize("below", [(), ("sub", "run")], ids=["file", "under-a-file"])
def test_cli_out_dir_that_cannot_be_a_directory_exits_2_before_any_run(
    tmp_path, monkeypatch, capsys, command, below
):
    """An out_dir that is, or lies under, an existing file is refused
    before any run or data build, and nothing is created."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a run or a data build started")

    # the package re-exports the function `sweep`, which shadows the module
    for module in (cli, importlib.import_module("energyfuse.sweep")):
        monkeypatch.setattr(module, "run_experiment", must_not_run)
    monkeypatch.setattr(cli, "build_data", must_not_run)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    out = taken.joinpath(*below)
    assert main([*command, *TINY, "--out_dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: out_dir {out}: {taken} is not a directory\n"
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_text(encoding="utf-8") == "not a directory"


def test_cli_bad_config_value_exits_2(capsys):
    code = main(["train", *TINY, "--lr", "-1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_non_finite_value_exits_2(capsys):
    code = main(["train", *TINY, "--beta", "nan"])
    assert code == 2
    assert "beta must be finite" in capsys.readouterr().err


def test_cli_bad_shift_value_exits_2(capsys):
    code = main(["train", *TINY, "--feature_scale", "0"])
    assert code == 2
    assert "feature_scale must be positive" in capsys.readouterr().err


def test_cli_sweep_on_a_grid_too_small_for_k_exits_2(tmp_path, capsys):
    """The config is refused before any run, instead of a NaN row."""
    out = tmp_path / "run"
    args = [
        "sweep", "--h", "2", "--w", "2", "--k", "5", "--axis", "gamma",
        "--values", "0.5", "--t1", "1", "--t2", "0", "--n_scenes", "1",
    ]
    assert main([*args, "--out_dir", str(out)]) == 2
    assert "error: 5 classes cannot fit 4 cells" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["train", "--seed", "-1"],
        ["sweep", "--axis", "gamma", "--values", "1", "--seeds=0,-1"],
    ],
)
def test_cli_negative_seed_exits_2(tmp_path, capsys, args):
    out = tmp_path / "run"
    assert main([*args, *TINY, "--out_dir", str(out)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "lists, message",
    [
        (["--values", "1", "--seeds", "-1,0"], "seed must be >= 0, got -1"),
        (["--values", "-0.5,1"], "gamma must be in [0, 1], got -0.5"),
        (["--values=-0,0"], "sweep gamma -0.0 and 0.0 with seed 0 both make run gamma=-0_seed=0"),
    ],
)
def test_cli_negative_list_reaches_its_check(tmp_path, capsys, lists, message):
    """A list value that starts with a minus is a value, not an unknown flag."""
    out = tmp_path / "run"
    assert main(["sweep", "--axis", "gamma", *lists, *TINY, "--out_dir", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unparsable_flag_value_exits_2(capsys):
    code = main(["train", *TINY, "--t1", "soon"])
    assert code == 2
    assert "bad value for t1" in capsys.readouterr().err


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["train", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert str(missing) in err


def test_cli_training_divergence_exits_1(monkeypatch, capsys):
    def diverging(cfg, run_id):
        raise TrainingDiverged("rfa became nan in phase 2")

    monkeypatch.setattr(cli, "run_experiment", diverging)
    assert main(["train", *TINY]) == 1
    assert capsys.readouterr().err == "training diverged: rfa became nan in phase 2\n"


DIVERGING = [
    "--t1", "3", "--t2", "0", "--lr", "1e300",
    "--h", "5", "--w", "5", "--k", "3", "--channels", "4", "--n_scenes", "2",
]


@pytest.mark.parametrize(
    "alpha, cause",
    [
        # step 1's losses are finite and its update makes enc0_w infinite
        (["--alpha", "1e100"], "non-finite weights in enc0_w in phase 1"),
        # step 1's update is finite and step 2's depth loss is not
        ([], "dep_total became inf in phase 1"),
    ],
    ids=["weights", "loss"],
)
def test_cli_divergence_exits_1_wherever_it_is_found(tmp_path, capsys, alpha, cause):
    """`train` exits 1 and names the cause, and `sweep` keeps each run as
    a row of NaN metrics and exits 0."""
    out = tmp_path / "run"
    # pyproject's error::RuntimeWarning filter would raise the SGD overflow
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", *DIVERGING, *alpha, "--out_dir", str(out)]) == 1
        assert capsys.readouterr().err == f"training diverged: {cause}\n"
        assert not out.exists()
        args = ["sweep", *DIVERGING, *alpha, "--axis", "gamma", "--values", "0.5,1"]
        assert main([*args, "--out_dir", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"sweep: run gamma={g}_seed=0 failed: {cause}" for g in ("0.5", "1")
    ]
    header, *rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    n_metrics = len(header.split(",")) - 1 - len(CONFIG_KEYS)
    assert [row.split(",")[0] for row in rows] == ["gamma=0.5_seed=0", "gamma=1_seed=0"]
    for row in rows:
        assert row.split(",")[-n_metrics:] == ["nan"] * n_metrics


def test_cli_module_runs_as_a_process_with_its_exit_codes():
    """A fresh `python -m energyfuse.cli`, with a numpy RuntimeWarning as an
    error: `verify` passes every check and exits 0, a usage error exits 2."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "energyfuse.cli"]
    env = {**os.environ, "PYTHONPATH": package_root}
    run = dict(env=env, capture_output=True, text=True, timeout=300)
    checked = subprocess.run([*command, "verify"], **run)
    assert checked.returncode == 0, checked.stdout + checked.stderr
    lines = checked.stdout.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == len(verify.ALL_CHECKS)
    assert lines[-1] == f"{len(verify.ALL_CHECKS)} checks, all passing"
    usage = subprocess.run([*command, "train", "--t1", "soon"], **run)
    assert usage.returncode == 2
    assert usage.stderr.splitlines()[-1] == "error: bad value for t1: 'soon'"


def test_cli_train_writes_the_same_bytes_with_1_2_and_4_blas_threads(tmp_path):
    """A short eight-step run, each in a fresh process and its own working
    directory under the same --out_dir (metrics.csv echoes it), writes the
    same metrics.csv and loss_trace.csv with 1, 2 and 4 BLAS threads."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    command = [
        sys.executable, "-W", "error::RuntimeWarning", "-m", "energyfuse.cli", "train",
        "--alpha", "1.0", "--feature_shift", "0.85", "--feature_scale", "1.5",
        "--noise_sd", "0.3", "--depth_noise_sd", "0.2",
        "--t1", "10", "--t2", "5", "--n_scenes", "8", "--steps", "8", "--out_dir", "run",
    ]
    written = ("metrics.csv", "loss_trace.csv")
    outputs = []
    for threads in ("1", "2", "4"):
        cwd = tmp_path / f"blas{threads}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": threads}
        run = dict(cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
        done = subprocess.run(command, **run)
        assert done.returncode == 0, done.stderr
        outputs.append({name: (cwd / "run" / name).read_bytes() for name in written})
    for other in outputs[1:]:
        for name in written:
            assert other[name] == outputs[0][name], name


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("speed = 11\n", encoding="utf-8")
    code = main(["train", "--config", str(cfg_path)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_repeated_config_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "twice.cfg"
    cfg_path.write_text("gamma = 0.5\ngamma = 0.7\n", encoding="utf-8")
    out = str(tmp_path / "run")
    code = main(["train", "--config", str(cfg_path), *TINY, "--out_dir", out])
    assert code == 2
    assert "'gamma' repeats line 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_demo_hopfield_energies_decrease(capsys):
    assert main(["demo-hopfield", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    energies = [
        float(line.split("energy")[1].split()[0])
        for line in out.splitlines()
        if line.strip().startswith("iter")
    ]
    assert len(energies) == 10
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert "closest stored pattern:" in out.splitlines()[-1]


def test_cli_gen_data_dumps_loadable_scenes(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", *TINY, "--out_dir", str(out)]) == 0
    stems = (out / "manifest.txt").read_text(encoding="utf-8").split()
    assert len(stems) == 4  # two source + two target scenes
    cfg = cli._config_from(cli.build_parser().parse_args(["gen-data", *TINY]))
    source, target = build_data(cfg)
    for stem, scene in zip(stems, source + target):
        dumps = {}
        for part in ("features", "depth", "labels"):
            path = out / f"{stem}_{part}.txt"
            rows, cols = map(int, path.read_text(encoding="utf-8").splitlines()[0].split())
            dumps[part] = np.loadtxt(path, skiprows=1).reshape(rows, cols)
        assert dumps["features"].shape == (4, 25)
        assert dumps["features"].tobytes() == scene.features.tobytes()
        assert dumps["depth"].tobytes() == scene.depth.tobytes()
        assert np.array_equal(dumps["labels"], scene.labels.labels.reshape(1, -1))
    assert "wrote 4 scenes" in capsys.readouterr().out


# The outputs of the two RNG-driven commands at their defaults. The
# initial commit's CLI prints and writes the same bytes, except the demo's
# first line, which used to claim a retrieval the run does not show.
DEMO_HOPFIELD_SEED_0 = """\
descending the Hopfield energy from a noisy probe of stored pattern 0
iter  0  energy -1.384173  step size 7.69e-01
iter  1  energy -1.726481  step size 1.51e-01
iter  2  energy -1.740604  step size 3.67e-02
iter  3  energy -1.741441  step size 9.10e-03
iter  4  energy -1.741493  step size 2.30e-03
iter  5  energy -1.741496  step size 5.86e-04
iter  6  energy -1.741497  step size 1.50e-04
iter  7  energy -1.741497  step size 3.86e-05
iter  8  energy -1.741497  step size 9.90e-06
iter  9  energy -1.741497  step size 2.55e-06
closest stored pattern: 2
"""

GEN_DATA_2_SCENES = {
    "manifest.txt": "18bddd7e3455c288f777f6ab04f99a7d4c5457c0d332a6df8dca1cfe3fc01d2d",
    "source_000_depth.txt": "914b7792c84884bf3d8ed0f4e71e4317e7b45c60c2ad8e2f6505b835cc56de21",
    "source_000_features.txt": "02353441a583a2a5780b39d2c9cc21808ff01c33ef6ea3f743c31715d8fd0ba1",
    "source_000_labels.txt": "7867ef42409d10c9f3c6905dece43513fe15d0198acb5cc584abff2e9c9f9b57",
    "source_001_depth.txt": "b4e6887073f51a356b6bb94c64af23dfdeacb4be9b1043d048ad553fff7b04c4",
    "source_001_features.txt": "20908165703c464941c9a12fe6d1a82130ca9daa9ad8e733ce22529ef983f6e0",
    "source_001_labels.txt": "eb659e0551c42ecf3fce476ee001289375a64caed11e1e46e14043f9a50237e0",
    "target_000_depth.txt": "07cb2a77707c608aa7a6d6f6ee137f82c7e5b6d063fcb504163ba80fba809933",
    "target_000_features.txt": "137261b55daa195c666cbba2907ae472f41a3f33df57f25301dea1a6ae5e2e58",
    "target_000_labels.txt": "9c4a954a9d37b2a200c4ed75ee338a2e871407be44af30c9fb47bd6b33fd39a6",
    "target_001_depth.txt": "85671453dddadd11aa37ee4863927f8c746b95a44add8a28ff352cdedf92dd42",
    "target_001_features.txt": "7c2b16dee98f01f507ede99a7a8f6af328b9ba6a716cb6c01220725a7b625aab",
    "target_001_labels.txt": "b19777cfaf4d462e9f7e0fd8af72f6f8f5ecfd689b2024ae6e98cbc8d3054986",
}


def test_cli_demo_hopfield_output_is_pinned(capsys):
    assert main(["demo-hopfield", "--seed", "0"]) == 0
    assert capsys.readouterr().out == DEMO_HOPFIELD_SEED_0


def test_cli_gen_data_files_are_pinned(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--n_scenes", "2", "--out_dir", str(out)]) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
    }
    assert written == GEN_DATA_2_SCENES


# Paths that bench/golden.json does not reach (it pins scheme = add at
# gamma = 1, beta in {0, 1} and threshold 0.9): (metrics.csv, loss_trace.csv)
# sha256 of one short `train` per path, with the reference shifts and seed 0.
# metrics.csv echoes out_dir, so every run writes to the same relative one.
# The initial commit's CLI writes the same bytes.
REFERENCE_SHIFTS = [
    "--alpha", "1.0", "--feature_shift", "0.85", "--feature_scale", "1.5",
    "--noise_sd", "0.3", "--depth_noise_sd", "0.2", "--seed", "0",
]
PINNED_TRAIN_RUNS = {
    "gated, 1 step": (
        ["--scheme", "gated", "--steps", "1", "--t1", "60", "--t2", "30"],
        "eae5a888927bcce2253d468f1e8cf33ce3bd1b15efde802e8b68bc4b564fc6b0",
        "5d0dc64861064071d65b83288b1fb62740b8ee461d6242c10549b6e7eb40e6d2",
    ),
    "gated, 8 steps": (
        ["--scheme", "gated", "--steps", "8", "--t1", "20", "--t2", "10"],
        "4d8dc71f7d0688d8925f09d8540ba8d1e8ed32392ab0772d8437cca7ee026082",
        "421c23c3e5d27b801899c786c22949e360c7e8a2faf5e4cabe3745ea71973029",
    ),
    "gamma 0.5, 2 steps": (
        ["--gamma", "0.5", "--steps", "2", "--t1", "60", "--t2", "30"],
        "2a90a247080ea7d97d4776ff4c943128e05182170a365819deca1ff4baba8437",
        "44aa0ad31a77406f0714624e02b38ba0a0ea8ca7eec9f3df9b5e0f1694b72e9b",
    ),
    "beta 0.5": (
        ["--beta", "0.5", "--t1", "60", "--t2", "30"],
        "46f1d6190e585c3c1c20f4c34cb364635817b4615952b59e6993624933ff3583",
        "4f83f055f7aad46f4db7288ac5839b2046fe5d925663a493667c41b75e4098c4",
    ),
    "threshold 0.6": (
        ["--pseudo_threshold", "0.6", "--t1", "60", "--t2", "30"],
        "dd874bb9f480223d6010bcadcbd4c8859c7ceed44eea2fa18aa37b3c90e80696",
        "92b37a02c0a92b8cd11be5679b49dcce6e8ed45b90e24b21b5190e59ce891ae0",
    ),
}
PINNED_SWEEP = (
    ["--axis", "gamma", "--values", "0.5,1", "--seeds", "0,1"],
    "6adadaf38c2a4ed2dd189419e25d7e8036d968baf0fe426df8bdc69ba2127d45",
)


def test_cli_train_and_sweep_outputs_off_the_golden_paths_are_pinned(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)

    def digest(name):
        return hashlib.sha256((tmp_path / "pinned" / name).read_bytes()).hexdigest()

    got, want = {}, {}
    for run, (flags, metrics, trace) in PINNED_TRAIN_RUNS.items():
        assert main(["train", *flags, *REFERENCE_SHIFTS, "--out_dir", "pinned"]) == 0
        got[run] = (digest("metrics.csv"), digest("loss_trace.csv"))
        want[run] = (metrics, trace)
    flags, metrics = PINNED_SWEEP
    assert main(["sweep", *TINY, *flags, "--out_dir", "pinned"]) == 0
    got["sweep"], want["sweep"] = digest("metrics.csv"), metrics
    assert got == want, f"BLAS kernel {blas_kernel()}"
