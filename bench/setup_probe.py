"""Set-up time in a fresh interpreter: `import energyfuse` plus the first
`build_data` and `build_model` of a workload's config.

    python3 bench/setup_probe.py --workload ref-full --seed 0

Prints {"setup_s": ...}. numpy is imported before the clock starts: it
is a fixed dependency whose import the package cannot change.
"""

import argparse
import json
import time

import checkout
from workloads import WORKLOADS, run_config


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    checkout.prepare()
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    energyfuse = checkout.import_package()
    cfg = run_config(args.workload, args.seed)
    energyfuse.build_data(cfg)
    energyfuse.build_model(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
