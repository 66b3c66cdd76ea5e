"""Run configuration: the flat key = value config format and defaults.

Every run of the harness is a pure function of one RunConfig. The same
keys appear in config files, as CLI flags, and as the config echo
columns of metrics.csv.
"""

import math
import numbers
from dataclasses import dataclass, fields

from .numeric import ConfigError, ContractError


@dataclass
class RunConfig:
    t1: int = 150
    t2: int = 50
    lr: float = 0.05
    lr_phase2_mult: float = 0.1
    alpha: float = 0.001
    beta: float = 1.0
    gamma: float = 1.0
    steps: int = 1
    scheme: str = "add"
    pseudo_threshold: float = 0.9
    seed: int = 0
    h: int = 16
    w: int = 16
    k: int = 4
    channels: int = 8
    n_scenes: int = 64
    feature_shift: float = 0.0
    feature_scale: float = 1.0
    noise_sd: float = 0.0
    depth_noise_sd: float = 0.0
    out_dir: str = "runs"

    def __post_init__(self):
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            kind, noun = _NUMBER_KINDS.get(_FIELD_TYPES[key], (None, None))
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                raise ContractError(f"{key} must be {noun}, got {value!r}")
        if self.t1 < 0 or self.t2 < 0:
            raise ConfigError("t1 and t2 must be >= 0")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not self.lr_phase2_mult > 0:
            raise ConfigError("lr_phase2_mult must be positive")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.scheme not in ("add", "gated"):
            raise ConfigError(f"scheme must be add or gated, got {self.scheme!r}")
        if not 0.0 <= self.pseudo_threshold <= 1.0:
            raise ConfigError("pseudo_threshold must be in [0, 1]")
        if self.h < 1 or self.w < 1 or self.k < 2 or self.channels < 1:
            raise ConfigError("need h, w >= 1, k >= 2, channels >= 1")
        if self.k > self.h * self.w:
            raise ConfigError(f"{self.k} classes cannot fit {self.h * self.w} cells")
        if self.n_scenes < 1:
            raise ConfigError("n_scenes must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.feature_scale > 0:
            raise ConfigError("feature_scale must be positive")
        if self.noise_sd < 0 or self.depth_noise_sd < 0:
            raise ConfigError("noise levels must be >= 0")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# a number field takes no bool, though Python counts bools as ints
_NUMBER_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def _coerce(key: str, text: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"bad value for {key}: {text!r}") from None


def parse_config_text(text: str) -> dict:
    """The typed values of flat `key = value` lines, by key.

    Blank lines and lines starting with # are skipped; unknown and
    repeated keys are rejected so typos fail loudly.
    """
    updates, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        updates[key] = _coerce(key, value.strip())
    return updates


def load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 at byte {err.start}") from None
    return parse_config_text(text)

