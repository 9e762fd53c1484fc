"""Injective index embedding: argument positions to random unit vectors.

Each index gets an independent draw (derived substream per index, so the
lazy cache never depends on query order): standard normal in R^T, then
normalized to the unit sphere. Injective with probability 1, deterministic
given the seed.
"""

from __future__ import annotations

import numpy as np

from ..seeding import derive_seed


class IndexEncoder:
    def __init__(self, dim: int = 4, seed: int = 0):
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        self.dim = dim
        self.seed = seed
        self._cache: dict[int, np.ndarray] = {}

    def pe(self, index: int) -> np.ndarray:
        """Unit vector for a 1-based argument index."""
        if index < 1:
            raise ValueError(f"argument indexes are 1-based, got {index}")
        vec = self._cache.get(index)
        if vec is None:
            rng = np.random.default_rng(derive_seed(self.seed, f"pe:{index}"))
            raw = rng.standard_normal(self.dim)
            norm = np.linalg.norm(raw)
            while norm < 1e-12:  # essentially impossible, but stay total
                raw = rng.standard_normal(self.dim)
                norm = np.linalg.norm(raw)
            vec = raw / norm
            vec.flags.writeable = False
            self._cache[index] = vec
        return vec
