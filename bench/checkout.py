"""Where the benchmark runs: the checkout around this directory.

Everything the benchmark reads or writes lies inside that checkout:
the package comes from its `src/`, outputs go to `.bench_out/`.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin BLAS to one thread and put the checkout's `src/` first on the
    import path. Runs before numpy is imported; child processes inherit
    the environment. Exits nonzero when the checkout has no package."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "energyfuse" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {SRC / 'energyfuse'}")
    sys.path.insert(0, str(SRC))


def import_package():
    """`energyfuse`, checked to come from this checkout."""
    import energyfuse

    where = Path(energyfuse.__file__).resolve().parent
    if where != (SRC / "energyfuse").resolve():
        raise SystemExit(f"bench: energyfuse imported from {where}, not {SRC}")
    return energyfuse


def environment() -> dict:
    """Versions, threads, CPU and the size of `src/` for the result record."""
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": src_lines,
    }
