"""Counter-based random streams owned by callers; no global state."""

import numpy as np


class RngState:
    """A Philox (counter-based) stream keyed by (seed, *derivation tags).

    The same seed always yields the same stream; `derive` creates an
    independent child stream without consuming from this one.
    """

    def __init__(self, seed: int, tags: tuple = ()):
        self.seed = int(seed)
        self.tags = tuple(int(t) for t in tags)
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((self.seed,) + self.tags))
        )

    def derive(self, *tags) -> "RngState":
        """Independent child stream keyed by extra integer tags."""
        return RngState(self.seed, self.tags + tags)

    def normal(self, rows: int, cols: int, sd: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, 1.0, size=(rows, cols)) * sd

    def uniform(self, lo: float, hi: float, rows: int, cols: int) -> np.ndarray:
        return self._gen.uniform(lo, hi, size=(rows, cols))

    def integers(self, lo: int, hi: int, n: int) -> np.ndarray:
        """n integers in [lo, hi)."""
        return self._gen.integers(lo, hi, size=n)

    def integer(self, lo: int, hi: int) -> int:
        """One integer in [lo, hi): the same draw as `integers(lo, hi, 1)[0]`."""
        return int(self._gen.integers(lo, hi))
