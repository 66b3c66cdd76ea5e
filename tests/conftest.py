"""Shared test constants, and the reader of the README's tables.

REFERENCE is the calibrated benchmark configuration used by the
directional experiments (ablation arms, probe gap): the library
defaults plus the README's five keys, alpha and the four shift keys,
which were fixed empirically.
"""

from pathlib import Path

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
