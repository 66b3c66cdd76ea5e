"""Deterministic paired-domain toy scenes.

Each scene is a piecewise-constant class map on an H x W grid, a depth
map whose per-class base level rises with the class index (so depth
carries class information), and features obtained by pushing the class
one-hot plus depth through a fixed random linear embedding. The four
shift keys of `RunConfig` turn source-style scenes into a target
domain: features are scaled, offset, and noised, and true depth is
replaced by a noisy pseudo-depth stand-in.
"""

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .numeric import ContractError
from .objectives import LabelMap
from .rng import RngState

DEPTH_FLOOR = 1e-3
DEPTH_NOISE_SD = 0.05
FEATURE_NOISE_SD = 0.05
VERTICAL_RANGE = 0.5
EMBED_SEED = 916191  # fixed; the embedding never varies with the run seed
DEPTH_EMBED_GAIN = 0.2  # depth spans ~5 units; keeps its feature share comparable to the one-hot part
DATA_STREAM = 1


@dataclass
class Scene:
    features: np.ndarray  # C x N, N positions of an H x W grid flattened row-major
    labels: LabelMap
    depth: np.ndarray  # 1 x N, strictly positive
    labels_eval_only: bool = False  # a target scene: training never reads its labels

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.depth = np.asarray(self.depth, dtype=np.float64).reshape(1, -1)
        if self.features.ndim != 2:
            raise ContractError(f"features must be C x N, got {self.features.shape}")
        n = self.features.shape[1]
        if self.depth.shape[1] != n or self.labels.labels.size != n:
            raise ContractError(f"depth / labels do not cover the {n} feature columns")
        if not np.all(self.depth > 0):
            raise ContractError("depth must be strictly positive")
        if n == 0 or self.labels.labels.min() == self.labels.labels.max():
            raise ContractError("a scene must show at least 2 classes")


_EMBED_CACHE = {}


def embedding_matrix(k: int, channels: int) -> np.ndarray:
    """The fixed channels x (k + 1) map from (one-hot, depth) to features.

    The depth column carries a reduced gain: depth values are several
    units wide while the one-hot block is 0/1, and features in a
    roughly unit range keep the downstream tanh layers off their flat
    tails.
    """
    key = (k, channels)
    if key not in _EMBED_CACHE:
        m = RngState(EMBED_SEED, (k, channels)).normal(channels, k + 1, 1.0)
        m[:, -1] *= DEPTH_EMBED_GAIN
        _EMBED_CACHE[key] = m
    return _EMBED_CACHE[key]


def _strips(rng: RngState, h: int, w: int, k: int) -> np.ndarray:
    """k vertical strips in a random class order; requires w >= k."""
    cuts = np.sort(rng.integers(1, w, 8))
    edges = [0]
    for c in cuts:
        if len(edges) == k:
            break
        if c > edges[-1]:
            edges.append(int(c))
    if len(edges) < k:  # draws collided: fall back to even spacing
        edges = [i * w // k for i in range(k)]
    edges.append(w)
    order = np.argsort(rng.uniform(0.0, 1.0, 1, k).ravel())
    grid = np.empty((h, w), dtype=np.int64)
    for i in range(k):
        grid[:, edges[i] : edges[i + 1]] = order[i]
    return grid


def _class_map(rng: RngState, h: int, w: int, k: int) -> np.ndarray:
    """Axis-aligned piecewise-constant classes: strips plus overlay boxes.

    Strips run along whichever axis fits k of them; grids too small for
    strips get a cell-level cyclic pattern. Should the overlays ever
    bury all but one class, the cyclic pattern replaces the map so the
    two-class scene invariant always holds.
    """
    if w >= k:
        grid = _strips(rng, h, w, k)
    elif h >= k:
        grid = _strips(rng, w, h, k).T.copy()
    else:
        grid = (np.arange(h * w, dtype=np.int64) % k).reshape(h, w)
    for _ in range(rng.integer(1, 4)):
        bh = rng.integer(1, max(2, h // 2 + 1))
        bw = rng.integer(1, max(2, w // 2 + 1))
        r0 = rng.integer(0, h - bh + 1)
        c0 = rng.integer(0, w - bw + 1)
        grid[r0 : r0 + bh, c0 : c0 + bw] = rng.integer(0, k)
    if grid.min() == grid.max():
        grid = (np.arange(h * w, dtype=np.int64) % k).reshape(h, w)
    return grid


def gen_scene(rng: RngState, cfg: RunConfig) -> Scene:
    """One source-style scene of the config's size, a pure function of
    the rng key."""
    h, w, k, channels = cfg.h, cfg.w, cfg.k, cfg.channels
    grid = _class_map(rng, h, w, k)
    labels = grid.ravel()

    rows = np.repeat(np.arange(h), w)
    base = 1.0 + labels.astype(np.float64)
    vertical = VERTICAL_RANGE * rows / max(1, h - 1)
    depth = base + vertical + rng.normal(1, h * w, DEPTH_NOISE_SD).ravel()
    depth = np.maximum(depth, DEPTH_FLOOR).reshape(1, -1)

    one_hot = np.zeros((k, h * w))
    one_hot[labels, np.arange(h * w)] = 1.0
    signal = np.vstack([one_hot, depth])
    features = embedding_matrix(k, channels) @ signal
    features = features + rng.normal(channels, h * w, FEATURE_NOISE_SD)

    return Scene(features=features, labels=LabelMap(labels=labels), depth=depth)


def shift_scene(scene: Scene, cfg: RunConfig, rng: RngState) -> Scene:
    """Apply the config's domain gap, each value alike to every channel;
    a null shift returns byte-equal data."""
    features = scene.features * cfg.feature_scale + cfg.feature_shift
    features = features + rng.normal(*scene.features.shape, cfg.noise_sd)
    pseudo = scene.depth + rng.normal(1, scene.depth.size, cfg.depth_noise_sd)
    pseudo = np.maximum(pseudo, DEPTH_FLOOR)
    return Scene(
        features=features,
        labels=LabelMap(scene.labels.labels.copy()),
        depth=pseudo,
        labels_eval_only=True,
    )


def build_data(cfg: RunConfig) -> tuple:
    """The (source, target) scene sets a config describes: n_scenes of each.

    Scene i draws from the child stream keyed i (source) or
    n_scenes + i (target), so the two sets never share raw draws. More
    scenes keep the earlier source scenes byte-equal but redraw every
    target scene, whose key depends on n_scenes.
    """
    rng = RngState(cfg.seed, (DATA_STREAM,))
    source = [gen_scene(rng.derive(i), cfg) for i in range(cfg.n_scenes)]
    target = []
    for i in range(cfg.n_scenes):
        child = rng.derive(cfg.n_scenes + i)
        target.append(shift_scene(gen_scene(child, cfg), cfg, child.derive(1)))
    return source, target
