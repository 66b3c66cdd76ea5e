"""energyfuse benchmark: one workload, one process.

    python3 bench/run.py --workload ref-full --seed 0 --seconds 20 --trace 0

Repeats the workload's unit of work for about --seconds seconds, checks
every unit's output against bench/golden.json, and prints a report, the
environment record and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, measured with tracing off; --trace 1 alternates
untraced and traced units and reports the per-layer metrics. Spans and
the full result are written to .bench_out/. Metric units come from
BENCHMARK.json. See bench/README.md.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checkout
import golden
import pinning
import tracing
from workloads import WORKLOADS, output_errors, run_config, run_unit

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# bindings timed in every unit: step and evaluate boundaries only
CLOCK = (tracing.STEP, tracing.EVALUATE)


@dataclass
class Unit:
    """Outcome of one unit of work, a training run. Any problem (it
    raised, or its output or tracing failed a check) fails it."""

    tracer: tracing.Tracer
    traced: bool
    start: float = None
    wall: float = None
    digests: dict = None
    layers: dict = None
    problems: list = field(default_factory=list)


def run_one(workload, seed, index, traced, bindings_before, reference, cpus) -> Unit:
    """One unit. With `cpus`, the process moves to the fastest CPU before
    the unit and between the timed calls of an untraced unit."""
    kind = "traced" if traced else "plain"
    tracer = tracing.Tracer(
        f"{workload}-seed{seed}-{index}-{kind}",
        tuple(tracing.LAYER_OF) if traced else CLOCK,
        after=cpus.maybe_pick if cpus and not traced else None,
    )
    unit = Unit(tracer, traced)
    out_dir = checkout.OUT / f"{workload}-seed{seed}"
    if cpus:
        cpus.pick()
    unit.start = time.perf_counter()
    try:
        with tracer:
            unit.digests = run_unit(workload, seed, str(out_dir))
    except Exception as err:  # a failed unit is counted, the run goes on
        traceback.print_exc()
        unit.problems.append(f"{type(err).__name__}: {err}")
    unit.wall = time.perf_counter() - unit.start

    now = tracing.bindings_snapshot()
    if any(now[k] is not v for k, v in bindings_before.items()):
        unit.problems.append("a wrapper was left in place")
    if unit.digests is None:
        return unit
    unit.problems.extend(output_errors(unit.digests))
    want = reference["golden"]
    first = reference.setdefault("first", unit.digests)
    for key in ("metrics_csv", "loss_trace_csv"):
        if want is not None and unit.digests.get(key) != want.get(key):
            unit.problems.append(f"{key} differs from bench/golden.json")
        if unit.digests.get(key) != first.get(key):
            unit.problems.append(f"{key} differs from this run's first unit")
    if traced:
        unit.layers, problems = tracing.unit_layers(tracer, workload)
        unit.problems.extend(problems)
    return unit


def run_units(workload, seed, seconds, traced, cpus) -> list:
    """Units until another round would overrun `seconds`; at least one
    round. A round is one untraced unit, followed by a traced one when
    `traced`."""
    golden_file = golden.load()
    reference = {"golden": golden.expected(golden_file, workload, seed)}
    if reference["golden"] is None:
        seeds = golden.GOLDEN_SEEDS
        print(f"note: seed {seed} outside golden range {seeds[0]}-{seeds[-1]}; "
              "units are checked against each other only")
    before = tracing.bindings_snapshot()
    units = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for kind in (False, True) if traced else (False,):
            units.append(
                run_one(workload, seed, len(units), kind, before, reference, cpus)
            )
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return units


def setup_times(workload, seed, cpus) -> list:
    probe = str(Path(__file__).resolve().parent / "setup_probe.py")
    cmd = [sys.executable, probe, "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        cpus.pick()  # the probe inherits the choice
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def _steps_by_phase(units, workload) -> tuple:
    cfg = run_config(workload, 0)
    per_run = cfg.t1 + cfg.t2
    phase1, phase2 = [], []
    for unit in units:
        for i, d in enumerate(unit.tracer.durations(tracing.STEP)):
            (phase1 if i % per_run < cfg.t1 else phase2).append(d)
    return phase1, phase2


def end_to_end(units, workload, setup, cpus) -> dict:
    """Timings are means: even on the fastest CPU, step times switch
    between a fast and a slow state of the host, and a pooled median
    jumps between the two modes where a mean moves with the mix. The
    p90 gives the tail."""
    phase1, phase2 = _steps_by_phase(units, workload)
    evals = [d for u in units for d in u.tracer.durations(tracing.EVALUATE)]
    walls = [u.wall - cpus.time_in(u.start, u.start + u.wall) for u in units]
    return {
        "run_s": statistics.fmean(walls),
        "setup_s": statistics.median(setup),
        "phase1_step_ms.mean": 1e3 * statistics.fmean(phase1),
        "phase2_step_ms.mean": 1e3 * statistics.fmean(phase2),
        "train_step_ms.p90": 1e3
        * statistics.quantiles(phase1 + phase2, n=10, method="inclusive")[-1],
        "eval_ms": 1e3 * statistics.fmean(evals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(units) -> tuple:
    """Medians over traced units, plus the tracing overhead."""
    plain = [u for u in units if not u.traced]
    traced = [u for u in units if u.traced]
    out = {
        key: statistics.median(u.layers[key] for u in traced)
        for key in traced[0].layers
    }
    out["trace.overhead_frac"] = (
        statistics.median(u.wall for u in traced)
        / statistics.median(u.wall for u in plain)
        - 1.0
    )
    gap = out["trace.step_gap_frac"]
    problems = []
    if gap > tracing.STEP_GAP:
        problems.append(
            f"{gap:.3f} of a step's wall time lies outside every named layer "
            f"(allowed {tracing.STEP_GAP})"
        )
    return out, problems


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(checkout.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_spans(units, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for unit in units:
            for span in unit.tracer.export():
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout.prepare()
    checkout.import_package()
    env = checkout.environment()
    cpus = None if args.trace else pinning.CpuPicker()
    setup = [] if args.trace else setup_times(args.workload, args.seed, cpus)
    units = []
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        units = run_units(args.workload, args.seed, args.seconds, args.trace == 1, cpus)
    finally:
        write_spans(units, checkout.OUT / f"spans-{stem}.jsonl")

    units_of = declared_units(args.trace == 1)
    good = [u for u in units if not u.problems]
    problems = [p for u in units for p in u.problems]
    attempted = len(units)
    failed = attempted - len(good)
    metrics = {}
    if args.trace and any(u.traced for u in good) and any(not u.traced for u in good):
        metrics, run_problems = per_layer(good)
        problems.extend(run_problems)
    elif not args.trace and good:
        metrics = end_to_end(good, args.workload, setup, cpus)
    else:
        problems.append("no unit of the needed kinds succeeded")
    if metrics and metrics.keys() != units_of.keys():
        odd = sorted(metrics.keys() ^ units_of.keys())
        problems.append(f"reported metrics differ from BENCHMARK.json: {odd}")
        metrics = {k: v for k, v in metrics.items() if k in units_of}

    print(f"workload {args.workload}, seed {args.seed}: {len(units)} units, "
          f"{attempted} runs, {failed} failed (failed_frac {failed / attempted:.4f})")
    for problem in dict.fromkeys(problems):
        print(f"  FAIL {problem}")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6f} {units_of[name]}")
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    with open(checkout.OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "problems": problems}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
