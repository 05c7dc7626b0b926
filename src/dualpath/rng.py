"""Counter-based random streams with named, order-independent substreams.

Built on numpy's Philox bit generator. A root key is expanded per
(label, index) pair with a splitmix64 hash, so the stream a consumer
sees depends only on its own name, never on how many draws other
consumers made before it. That makes data generation, parameter init
and shuffling reproducible independently of call order.

``Rng`` draws one stream at a time. ``StackedRng`` gives each model of a
stack its own ``Rng`` and stacks their draws along a leading model axis;
models that share a seed share the draws, which are made once.
``Substreams`` draws many at once:
row r is the stream of ``Rng(seed, label, r)`` (or of a named child of
it), and its words come from one vectorized Philox4x64-10 pass over all
rows (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011) instead of one ``np.random.Generator`` per row. The rows are
bit-identical to the scalar streams, not merely equal in distribution:
the key of a row is the same splitmix64/FNV-1a hash ``Rng`` computes,
evaluated over arrays; the Philox rounds are integer arithmetic with
numpy's counter (starting at 1) and output order; uniform doubles are
numpy's ``(raw >> 11) * 2**-53``; and normals go through the one
Box-Muller helper that ``Rng.normal`` also calls, on uniforms formed as
numpy's ``low + (high - low) * u`` forms them.

Deriving a stream is cheap; drawing from it is what costs. An ``Rng``
builds its numpy ``Generator`` on its first draw only, so a parent that
only names children (the training step's ``dropout`` stream) never
builds one. ``Rng.child`` continues the parent's cached FNV-1a hash over
``#{index}/{label}`` rather than hashing the whole child label again:
FNV-1a is streaming, so the key is the one the full label gives.
``child_uniforms`` (on ``Rng`` and ``StackedRng`` alike) draws a few fresh
child streams, such as a training step's six dropout masks, in one call: it
hashes the labels' shared ``#{index}/`` once, and one ``np.random.Philox``,
built on first use, serves every (label, distinct seed) stream, its state
set to the stream's key at counter 0, so its raw words are the fresh
stream's and ``unit_double`` of them is ``Generator.uniform(0, 1)`` bit for
bit. ``Substreams`` costs more below many rows: for 12 rows of 256 words on
a shared 2-core machine a pass took ~350-630 us, twelve fresh generators
~250-370 us and ``child_uniforms`` ~100-150 us.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_FNV_PRIME = 0x100000001B3
_TINY = np.finfo(np.float64).tiny

# Philox4x64 round multipliers and Weyl key increments (Random123, as numpy uses).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> _S32

# Rows per Philox pass in Substreams: bounds the size of the temporaries.
_BLOCK_ROWS = 512

# _fresh_uniforms' bit generator and fresh state; each stream resets it whole.
_PHILOX = _FRESH_STATE = None


def _splitmix64(x):
    """One round of the splitmix64 mixer; a cheap 64-bit hash of an int or
    of a uint64 array (elementwise)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fnv1a(h, data: bytes):
    """Continue an FNV-1a hash (an int or a uint64 array) over ``data``."""
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _label_hash(label: str) -> int:
    return _fnv1a(0xCBF29CE484222325, label.encode("utf-8"))  # FNV-1a offset basis


def _key_of(seed_key: int, label_hash: int, index: int) -> tuple[int, int]:
    """The Philox key of the stream (seed, label, index), given the
    splitmix64 hash of its seed and the FNV-1a hash of its label."""
    k1 = _splitmix64(seed_key ^ label_hash)
    return k1, _splitmix64(k1 ^ (index & _MASK64))


def _fnv1a_decimal(h: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Continue each row's FNV-1a hash over the decimal digits of its value,
    as ``_fnv1a(h, str(value).encode())`` would. Rows with fewer digits
    than the widest skip the leading positions."""
    width = len(str(int(values.max()))) if len(values) else 0
    for pos in range(width - 1, -1, -1):
        digit = (values // np.uint64(10 ** pos)) % np.uint64(10)
        step = ((h ^ (digit + np.uint64(ord("0")))) * _FNV_PRIME) & _MASK64
        h = np.where(values >= np.uint64(10 ** pos), step, h) if pos else step
    return h


def _box_muller(u1: np.ndarray, u2: np.ndarray, n: int, loc: float, scale: float) -> np.ndarray:
    """``n`` Gaussian draws per row from paired uniforms along the last
    axis: the cosine half, then the sine half, cut to ``n``."""
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :n]
    return loc + scale * z


def unit_double(raw: np.ndarray) -> np.ndarray:
    """numpy's double from a 64-bit word: the top 53 bits over 2**53."""
    return (raw >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _fresh_uniforms(seeds: list[int], prefix: int, labels: list[str], size: tuple) -> np.ndarray:
    """(len(labels), len(seeds), *size): entry (i, s) is
    ``uniform(size=size)`` of a fresh ``Rng(seeds[s], label, 0)`` whose
    label hash continues ``prefix`` over ``labels[i]``. One bit generator
    serves every stream: setting its state to a stream's key, at the
    counter and empty buffer of a fresh generator, gives that stream's raw
    words, and ``uniform(0, 1)`` is numpy's double of each word."""
    global _PHILOX, _FRESH_STATE
    if _PHILOX is None:  # on first use: importing numpy.random early raised peak RSS
        _PHILOX = np.random.Philox(0)
        _FRESH_STATE = _PHILOX.state
    raw = np.empty((len(labels), len(seeds), *size), dtype=np.uint64)
    key = _FRESH_STATE["state"]["key"]
    seed_keys = [_splitmix64(seed & _MASK64) for seed in seeds]
    for label, rows in zip(labels, raw):
        label_hash = _fnv1a(prefix, label.encode("utf-8"))
        for k0, row in zip(seed_keys, rows):
            key[0], key[1] = _key_of(k0, label_hash, 0)
            _PHILOX.state = _FRESH_STATE
            row[...] = _PHILOX.random_raw(size)
    return unit_double(raw)


def philox4x64(ctr: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 over lanes: ``ctr`` (4, M) and ``key`` (2, M) uint64
    give the (4, M) output block of every lane.

    Words 0 and 2 of the counter meet the two round multipliers, so both
    multiplies of a round run as one (2, M) operation; the high halves of
    the 64x64 -> 128-bit products are built from 32-bit halves.
    """
    x = np.array(ctr[0::2], dtype=np.uint64)  # words 0 and 2
    y = np.array(ctr[1::2], dtype=np.uint64)  # words 1 and 3
    key = np.array(key, dtype=np.uint64)  # copied: the rounds bump it in place
    for rnd in range(10):
        if rnd:
            key += _PHILOX_W
        x_lo, x_hi = x & _MASK32, x >> _S32
        t = _PHILOX_M_HI * x_lo + ((_PHILOX_M_LO * x_lo) >> _S32)
        u = _PHILOX_M_LO * x_hi + (t & _MASK32)
        hi = _PHILOX_M_HI * x_hi + (t >> _S32) + (u >> _S32)
        lo = _PHILOX_M * x
        x = hi[::-1] ^ y ^ key
        y = lo[::-1]
    return np.stack([x[0], y[0], x[1], y[1]])


def _lemire_rejected(leftover: np.ndarray, n: int) -> np.ndarray:
    """numpy's rejection test for a bounded 32-bit draw below ``n``."""
    return leftover < np.uint64((2 ** 32 - n) % n)


def bounded32(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded integer in [0, n) from 32-bit words (Lemire's
    multiply-shift), as ``Generator.integers(0, n)`` draws it for n < 2**32.

    Returns (value, rejected). Where ``rejected`` is set, numpy would
    discard the word and draw another, so the value is not the one numpy
    gives and the caller must redraw that row with the scalar ``Rng``.
    """
    m = words * np.uint64(n)
    return (m >> _S32).astype(np.int64), _lemire_rejected(m & _MASK32, n)


class Substreams:
    """Many substreams drawn together; row r is one ``Rng``'s stream.

    ``Substreams(seed, label, n)`` holds ``Rng(seed, label, r)`` for r in
    range(n); ``Rng.children`` and ``child`` derive named substreams the
    way ``Rng.child`` does. Each draw starts at the beginning of every
    row's stream, like a fresh ``Rng``; draws that must follow one another
    in a stream are taken from one ``raw`` call.
    """

    def __init__(self, seed: int, label: str, n: int):
        self.seed = int(seed)
        self._hashes = np.full(n, _label_hash(label), dtype=np.uint64)  # FNV-1a of each row's label
        self._index = np.arange(n, dtype=np.uint64)

    @staticmethod
    def _of(seed: int, hashes: np.ndarray, index: np.ndarray) -> "Substreams":
        out = Substreams.__new__(Substreams)
        out.seed, out._hashes, out._index = seed, hashes, index
        return out

    def __len__(self) -> int:
        return len(self._index)

    def child(self, label: str) -> "Substreams":
        """Row r becomes the stream of this row's ``Rng(...).child(label)``."""
        h = _fnv1a(self._hashes, b"#")
        h = _fnv1a_decimal(h, self._index)
        h = _fnv1a(h, f"/{label}".encode("utf-8"))
        return Substreams._of(self.seed, h, np.zeros(len(self), dtype=np.uint64))

    @staticmethod
    def concat(parts: list["Substreams"]) -> "Substreams":
        """The rows of ``parts`` in order, drawn in one pass; one seed."""
        if len({p.seed for p in parts}) != 1:
            raise ValueError("concatenated substreams must share one seed")
        return Substreams._of(parts[0].seed, np.concatenate([p._hashes for p in parts]),
                              np.concatenate([p._index for p in parts]))

    def _raw_blocks(self, words: int):
        """Yield (rows, raw) for blocks of at most _BLOCK_ROWS rows, where raw
        is (rows, words) uint64: the first ``words`` outputs of each row's
        Philox stream. Callers transform each block before the next one, so
        no temporary is wider than a block."""
        blocks = -(-words // 4)
        k1 = _splitmix64(_splitmix64(self.seed & _MASK64) ^ self._hashes)
        k2 = _splitmix64(k1 ^ self._index)
        width = min(len(self), _BLOCK_ROWS)
        ctr = np.zeros((4, width * blocks), dtype=np.uint64)
        ctr[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), width)  # numpy counts from 1
        for lo in range(0, len(self), _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            key = np.stack([np.repeat(k1[rows], blocks), np.repeat(k2[rows], blocks)])
            out = philox4x64(ctr[:, :key.shape[1]], key)
            yield rows, out.T.reshape(-1, 4 * blocks)[:, :words]

    def raw(self, words: int) -> np.ndarray:
        """(n, words) uint64: the first ``words`` outputs of every row's
        Philox stream, as ``np.random.Philox.random_raw`` gives them."""
        out = np.empty((len(self), words), dtype=np.uint64)
        for rows, raw in self._raw_blocks(words):
            out[rows] = raw
        return out

    def normal(self, size: int, scale: float = 1.0) -> np.ndarray:
        """(n, size): each row's ``Rng.normal(scale=scale, size=size)``."""
        pairs = (size + 1) // 2
        out = np.empty((len(self), size))
        for rows, raw in self._raw_blocks(2 * pairs):
            u = unit_double(raw)
            out[rows] = _box_muller(_TINY + (1.0 - _TINY) * u[:, :pairs], u[:, pairs:],
                                    size, 0.0, scale)
        return out


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
        from dualpath.synthdata import is_integer  # synthdata imports this module
        for name, value in (("seed", seed), ("index", index)):
            if not is_integer(value):
                raise ValueError(f"Rng {name} must be an integer, got {value!r}")
        self._keyed(int(seed), label, _label_hash(label), int(index))

    def _keyed(self, seed: int, label: str, label_hash: int, index: int) -> "Rng":
        self.seed, self.label, self.index = seed, label, index
        self._hash = label_hash  # FNV-1a of ``label``, continued by child()
        self._key = _key_of(_splitmix64(seed & _MASK64), label_hash, index)
        self._generator = None
        return self

    @property
    def _gen(self) -> np.random.Generator:
        """The stream's numpy generator, built on the first draw."""
        if self._generator is None:
            self._generator = np.random.Generator(
                np.random.Philox(key=np.array(self._key, dtype=np.uint64)))
        return self._generator

    def _child_label(self, label: str) -> str:
        return f"{self.label}#{self.index}/{label}"

    def _child_hash(self, label: str) -> int:
        return _fnv1a(self._hash, f"#{self.index}/{label}".encode("utf-8"))

    def child(self, label: str, index: int = 0) -> "Rng":
        """Derive a named substream; the parent's own index is folded into
        the child label so siblings of distinct parents never collide."""
        return Rng.__new__(Rng)._keyed(self.seed, self._child_label(label),
                                       self._child_hash(label), int(index))

    def children(self, label: str, n: int) -> Substreams:
        """``child(label, i)`` for every i in range(n), drawn together."""
        return Substreams(self.seed, self._child_label(label), n)

    def child_uniforms(self, labels: list[str], size: tuple) -> np.ndarray:
        """(len(labels), *size): row i is ``child(labels[i]).uniform(size=size)``,
        drawn without building a child or a generator."""
        return _fresh_uniforms([self.seed], self._child_hash(""), labels, size)[:, 0]

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        """Gaussian draws via the Box-Muller transform on uniform bits.

        Avoids the ziggurat so the stream is a pure function of the
        counter sequence, identical across numpy versions.
        """
        n = int(np.prod(size)) if size is not None else 1
        pairs = (n + 1) // 2
        u1 = self._gen.uniform(low=_TINY, high=1.0, size=pairs)
        u2 = self._gen.uniform(low=0.0, high=1.0, size=pairs)
        z = _box_muller(u1, u2, n, loc, scale)
        if size is None:
            return z[0]
        return z.reshape(size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


class StackedRng:
    """One ``Rng(seed, label, index)`` per model of a stack, with the
    methods the training loop draws from. A draw of ``size`` (M, ...)
    stacks each model's draw of ``size[1:]``; models given the same seed
    get the same rows, drawn once, so a stack of variants at a few seeds
    builds one generator per distinct seed, not per model.
    """

    def __init__(self, seeds, label: str = "root", index: int = 0):
        from dualpath.synthdata import is_integer  # synthdata imports this module
        if not all(is_integer(s) for s in seeds):
            raise ValueError(f"StackedRng seeds must be integers, got {seeds!r}")
        distinct = list(dict.fromkeys(int(s) for s in seeds))
        self._rngs = [Rng(s, label, index) for s in distinct]
        self._rows = np.array([distinct.index(int(s)) for s in seeds])

    @staticmethod
    def _of(rngs: list[Rng], rows: np.ndarray) -> "StackedRng":
        out = StackedRng.__new__(StackedRng)
        out._rngs, out._rows = rngs, rows
        return out

    def child(self, label: str, index: int = 0) -> "StackedRng":
        """Every model's ``Rng.child(label, index)``."""
        return StackedRng._of([r.child(label, index) for r in self._rngs], self._rows)

    def child_uniforms(self, labels: list[str], size: tuple) -> np.ndarray:
        """(len(labels), M, ...) where entry (i, m) is model m's
        ``child(labels[i]).uniform(size=size[1:])``: one fresh stream per
        label and distinct seed."""
        if size[0] != len(self._rows):
            raise ValueError(f"draw of {size[0]} rows from a stack of {len(self._rows)}")
        # every model's Rng has the same label and index, so one hash per label
        return _fresh_uniforms([r.seed for r in self._rngs], self._rngs[0]._child_hash(""),
                               labels, size[1:]).take(self._rows, axis=1)

    def permutation(self, n: int) -> np.ndarray:
        """(M, n) where row m is model m's ``permutation(n)``."""
        return np.stack([r.permutation(n) for r in self._rngs])[self._rows]
