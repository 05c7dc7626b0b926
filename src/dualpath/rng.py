"""Counter-based random streams with named, order-independent substreams.

Built on numpy's Philox bit generator. A root key is expanded per
(label, index) pair with a splitmix64 hash, so the stream a consumer
sees depends only on its own name, never on how many draws other
consumers made before it. That makes data generation, parameter init
and shuffling reproducible independently of call order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; a cheap 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _label_hash(label: str) -> int:
    h = 0xCBF29CE484222325  # FNV-1a offset basis
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Rng:
    """Deterministic generator keyed by (seed, label, index).

    Parameters
    ----------
    seed : int
        Root seed.
    label : str
        Substream name, e.g. "init" or "sample".
    index : int
        Substream counter, e.g. a sample id or epoch number.
    """

    def __init__(self, seed: int, label: str = "root", index: int = 0):
        self.seed = int(seed)
        self.label = label
        self.index = int(index)
        k0 = _splitmix64(self.seed & _MASK64)
        k1 = _splitmix64(k0 ^ _label_hash(label))
        k2 = _splitmix64(k1 ^ (self.index & _MASK64))
        self._gen = np.random.Generator(np.random.Philox(key=np.array([k1, k2], dtype=np.uint64)))

    def child(self, label: str, index: int = 0) -> "Rng":
        """Derive a named substream; the parent's own index is folded into
        the child label so siblings of distinct parents never collide."""
        return Rng(self.seed, f"{self.label}#{self.index}/{label}", index)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        """Gaussian draws via the Box-Muller transform on uniform bits.

        Avoids the ziggurat so the stream is a pure function of the
        counter sequence, identical across numpy versions.
        """
        n = int(np.prod(size)) if size is not None else 1
        pairs = (n + 1) // 2
        u1 = self._gen.uniform(low=np.finfo(np.float64).tiny, high=1.0, size=pairs)
        u2 = self._gen.uniform(low=0.0, high=1.0, size=pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        z = loc + scale * z
        if size is None:
            return z[0]
        return z.reshape(size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
