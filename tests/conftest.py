"""Shared test constants, the reader of the README's tables, and the name
of the BLAS kernel that byte-comparing tests report when they fail.

REFERENCE is the calibrated benchmark configuration used by the
directional experiments (ablation arms, probe gap): the library
defaults plus the README's five keys, alpha and the four shift keys,
which were fixed empirically.
"""

import ctypes
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"

REFERENCE = dict(
    alpha=1.0,
    feature_shift=0.85,
    feature_scale=1.5,
    noise_sd=0.3,
    depth_noise_sd=0.2,
)

ABLATION_SEEDS = [0, 1, 2, 3, 4]


def readme_table(header: str) -> dict:
    """Rows of the README table under `header`: first cell -> other cells."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2 :]:
        if not line.startswith("|"):
            break
        first, *cells = (c.strip() for c in line.strip("|").split("|"))
        rows[first] = cells
    return rows


def blas_kernel() -> str:
    """The kernel family numpy's bundled OpenBLAS picked at load time
    (`OPENBLAS_CORETYPE` forces one), or "unknown". Golden bytes were
    recorded under one family; another computes other last bits."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*"))))
        corename = lib.scipy_openblas_get_corename64_
    except (OSError, StopIteration, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()
