"""Shared test constants, the reader of the README's tables, the numeric
platform (BLAS kernel and numpy SIMD target) that byte-comparing tests
report when they fail, and the generic tape ops the op-by-op reference
chains are built from.

REFERENCE is the calibrated benchmark configuration used by the
directional experiments (ablation arms, probe gap): the library
defaults plus the README's five keys, alpha and the four shift keys,
which were fixed empirically.
"""

import ctypes
from pathlib import Path

import numpy as np

from energyfuse.autodiff import Tensor, raw, record
from energyfuse.numeric import ColumnPass, sigmoid

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


def simd_target() -> str:
    """numpy's highest enabled dispatch target: the last entry of
    `__cpu_dispatch__` that `__cpu_features__` enables
    (`NPY_DISABLE_CPU_FEATURES` turns targets off), "baseline" if none is,
    or "unknown". numpy's float64 exp and log loops for AVX-512 and for
    AVX2 (X86_V3) compute other last bits."""
    try:
        from numpy._core import _multiarray_umath as umath

        dispatch, features = umath.__cpu_dispatch__, umath.__cpu_features__
    except (ImportError, AttributeError):
        return "unknown"
    enabled = [target for target in dispatch if features.get(target)]
    return enabled[-1] if enabled else "baseline"


def numeric_platform() -> str:
    """The pair that sets a run's last bits, as byte-comparing tests and
    CI print it."""
    return f"BLAS kernel {blas_kernel()}, numpy SIMD target {simd_target()}"


def ref_op(op, a, b=None):
    """One generic op, recorded through autodiff.record with the value and
    the adjoint terms the tape's own op had before each model block became
    one node: transpose, tanh, abs, softmax_cols, sigmoid, lse_cols, sub,
    mul, matmul, add_col (b a column added to every column of a) or sub_row
    (b a row taken from every row of a). A plain-array operand is fixed and
    takes no slot, as a const node's adjoint went nowhere."""
    av = raw(a)
    bv = None if b is None else raw(b)
    operands = (a,) if b is None else (a, b)
    taped = [isinstance(t, Tensor) for t in operands]

    def node(value, vjp):
        return record(
            op,
            [t for t, keep in zip(operands, taped) if keep],
            value,
            lambda gy: [term for term, keep in zip(vjp(gy), taped) if keep],
        )

    if op == "transpose":
        return node(av.T.copy(), lambda gy: (gy.T,))
    if op == "tanh":
        y = np.tanh(av)
        return node(y, lambda gy: (gy * (1.0 - y * y),))
    if op == "abs":
        return node(np.abs(av), lambda gy: (gy * np.sign(av),))
    if op == "softmax_cols":
        s = ColumnPass(av).prob
        return node(s, lambda gy: (s * (gy - np.sum(gy * s, axis=0, keepdims=True)),))
    if op == "sigmoid":
        s = sigmoid(av)
        return node(s, lambda gy: (gy * s * (1.0 - s),))
    if op == "lse_cols":
        cols = ColumnPass(av)
        return node(cols.lse, lambda gy: (cols.prob * gy,))
    if op == "sub":
        return node(av - bv, lambda gy: (gy, -gy))
    if op == "mul":
        return node(av * bv, lambda gy: (gy * bv, gy * av))
    if op == "matmul":
        return node(av @ bv, lambda gy: (gy @ bv.T, av.T @ gy))
    if op == "add_col":
        assert bv.shape == (av.shape[0], 1), (op, bv.shape)
        return node(av + bv, lambda gy: (gy, gy.sum(axis=1, keepdims=True)))
    assert op == "sub_row" and bv.shape == (1, av.shape[1]), (op, bv.shape)
    return node(av - bv, lambda gy: (gy, -gy.sum(axis=0, keepdims=True)))
