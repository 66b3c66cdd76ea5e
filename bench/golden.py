"""Golden outputs per (workload, seed), and the tool that records them.

    python3 bench/golden.py record
    python3 bench/golden.py check

`record` runs one unit per (workload, seed in GOLDEN_SEEDS), each in a
fresh process, one per usable CPU at a time (this process only waits),
and writes bench/golden.json: the sha256 of metrics.csv and
loss_trace.csv and the mIoU of every run. It refuses to
write a file whose seeds 0-4 do not reproduce the README ablation means.
`check` tests that claim on the committed file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import checkout

GOLDEN = Path(__file__).resolve().parent / "golden.json"
# README "Reference configuration": mean target mIoU over seeds 0..4
README_MEANS = {"ref-direct": 0.8527, "ref-full": 0.9161, "ref-steps8": 0.7751}
README_SEEDS = range(5)
# seeds recorded for every workload; others are checked unit-to-unit only
GOLDEN_SEEDS = range(64)
UNIT_TIMEOUT_S = 600


def load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def expected(golden: dict, workload: str, seed: int):
    """The recorded digests, or None when the seed was not recorded."""
    return golden["workloads"].get(workload, {}).get(str(seed))


def readme_errors(golden: dict) -> list:
    errors = []
    for workload, want in README_MEANS.items():
        runs = [expected(golden, workload, s) for s in README_SEEDS]
        if None in runs:
            errors.append(f"{workload}: seeds 0-4 not all recorded")
            continue
        mean = statistics.fmean(r["miou"][0] for r in runs)
        if round(mean, 4) != want:
            errors.append(f"{workload}: mean mIoU {mean:.6f}, README says {want}")
    return errors


def _one(workload: str, seed: int) -> dict:
    cmd = [sys.executable, __file__, "one", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=UNIT_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def record():
    from workloads import WORKLOADS

    tasks = [(w, s) for w in WORKLOADS for s in GOLDEN_SEEDS]
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        results = list(pool.map(lambda t: _one(*t), tasks))
    table = {w: {} for w in WORKLOADS}
    for (workload, seed), digests in zip(tasks, results):
        table[workload][str(seed)] = digests
    golden = {"workloads": table}
    errors = readme_errors(golden)
    if errors:
        raise SystemExit("golden: not written: " + "; ".join(errors))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN} ({len(tasks)} units)")


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record")
    p = sub.add_parser("one")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    sub.add_parser("check")
    args = parser.parse_args()

    checkout.prepare()
    if args.command == "record":
        record()
    elif args.command == "one":
        from workloads import run_unit

        checkout.import_package()
        out_dir = checkout.OUT / "golden" / f"{args.workload}-{args.seed}"
        print(json.dumps(run_unit(args.workload, args.seed, str(out_dir))))
    else:
        errors = readme_errors(load())
        print("\n".join(errors) if errors else "golden.json reproduces the README means")
        sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
