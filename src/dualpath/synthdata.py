"""Synthetic multimodal classification data with controllable conflict.

Each class owns a fixed unit-norm latent anchor. A sample's three
modality features (text, video, audio) are rotated copies of its class
anchor plus Gaussian noise; with a configurable probability a single
modality is regenerated from a different class's anchor, producing a
labeled cross-modal conflict. Generation is a pure function of the
config: every sample draws from its own counter-derived substream, so
datasets are bitwise reproducible and splits never depend on each other.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from dualpath.rng import Rng, Substreams, bounded32, unit_double

MODALITIES = ("text", "video", "audio")

MAGIC = b"DPDS"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class DatasetConfig:
    num_classes: int = 4
    feature_dim: int = 16
    n_train: int = 2000
    n_val: int = 400
    n_test: int = 400
    conflict_rate: float = 0.3
    noise_std: float = 0.1
    seed: int = 7

    def validate(self) -> None:
        require_integers(self, "seed")
        require_integers(self, "n_train", "n_val", "n_test", low=0)
        require_integers(self, "num_classes", low=2)
        require_integers(self, "feature_dim", low=4)
        require_numbers(self, "[0, 1]", "conflict_rate")
        require_numbers(self, "[0, inf)", "noise_std")
        if self.num_classes > 2 ** self.feature_dim:
            raise ValueError(
                "cannot separate %d anchors in %d dimensions"
                % (self.num_classes, self.feature_dim)
            )


def is_integer(value, low: int | None = None) -> bool:
    """Whether ``value`` is an integer >= ``low`` (if given). Floats fail
    even when whole, and so do bools; numpy integers pass."""
    return (not isinstance(value, bool) and isinstance(value, Integral)
            and (low is None or value >= low))


def require_integers(config, *names: str, low: int | None = None) -> None:
    """Raise ValueError naming the first field of ``names`` that is not an
    integer >= ``low`` (if given), by ``is_integer``."""
    for name in names:
        value = getattr(config, name)
        if not is_integer(value, low):
            bound = "" if low is None else f" >= {low}"
            raise ValueError(f"{type(config).__name__}.{name} must be an integer{bound}, "
                             f"got {value!r}")


def is_number(value, interval: str) -> bool:
    """Whether ``value`` is an int or float, numpy scalars included, in
    ``interval``, written like "[0, 1)" or "(0, inf)": an infinite end is
    open, so NaN and infinities fail. A bool, a string or None never passes."""
    low, high = map(float, interval[1:-1].split(","))
    return (not isinstance(value, bool) and isinstance(value, Real)
            and (low < value or interval[0] == "[" and low == value)
            and (value < high or interval[-1] == "]" and value == high))


def require_numbers(config, interval: str, *names: str) -> None:
    """Raise ValueError naming the first field of ``names`` that is neither a
    number in ``interval`` nor a numpy array of them (a stack's weights)."""
    for name in names:
        value = getattr(config, name)
        entries = value.ravel().tolist() if isinstance(value, np.ndarray) else (value,)
        if not all(is_number(v, interval) for v in entries):
            raise ValueError(f"{type(config).__name__}.{name} must be a finite number "
                             f"in {interval}, got {value!r}")


def require_bools(config, *names: str) -> None:
    """Raise ValueError naming the first field of ``names`` that is not a bool."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{type(config).__name__}.{name} must be a bool, got {value!r}")


def json_object(block, keys, section: str) -> dict:
    """``block`` if it is a JSON object whose keys all lie in ``keys``; else a
    ValueError naming ``section`` ("" for a whole experiment config)."""
    if not isinstance(block, dict):
        what = f"the {section!r} config" if section else "the experiment config"
        raise ValueError(f"{what} must be a JSON object, got {block!r}")
    unknown = sorted(set(block).difference(keys))
    if unknown:
        raise ValueError(f"unknown {section + ' ' if section else ''}config keys: {unknown}")
    return block


@dataclass
class Dataset:
    """Column-major storage for a split: one (N, d) array per modality,
    with labels and conflict flags alongside."""

    text: np.ndarray  # (N, d)
    video: np.ndarray
    audio: np.ndarray
    labels: np.ndarray  # (N,) int
    conflict_flag: np.ndarray  # (N,) int8: -1 none, else index into MODALITIES

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def conflicted_mask(self) -> np.ndarray:
        return self.conflict_flag >= 0

    def modality(self, name: str) -> np.ndarray:
        return {"text": self.text, "video": self.video, "audio": self.audio}[name]


def class_anchors(config: DatasetConfig) -> np.ndarray:
    """Unit-norm anchors, one per class, pairwise cosine < 0.5.

    Rejection-sampled from the sphere; fixed entirely by the config seed.
    """
    config.validate()
    rng = Rng(config.seed, "anchors")
    anchors = np.zeros((config.num_classes, config.feature_dim))
    placed = 0
    attempts = 0
    while placed < config.num_classes:
        attempts += 1
        if attempts > 10000 * config.num_classes:
            raise ValueError("anchor separation infeasible for this config")
        v = rng.normal(size=config.feature_dim)
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        v = v / norm
        if placed and np.max(anchors[:placed] @ v) >= 0.5:
            continue
        anchors[placed] = v
        placed += 1
    return anchors


def modality_maps(config: DatasetConfig) -> dict[str, np.ndarray]:
    """One orthogonal (d, d) map per modality, fixed by the seed.

    QR of a Gaussian matrix with the R-diagonal sign absorbed, which
    makes the factorization unique.
    """
    maps = {}
    for m in MODALITIES:
        rng = Rng(config.seed, f"map/{m}")
        g = rng.normal(size=(config.feature_dim, config.feature_dim))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        maps[m] = q
    return maps


def _draw_header(config: DatasetConfig, split: str, i: int) -> tuple[int, bool, int, int]:
    """Sample i's label, conflict bit, swapped modality and other-class
    draw, from its own ``Rng`` stream: the reference that the batched
    draw in ``_draw_split`` reproduces."""
    srng = Rng(config.seed, f"sample/{split}", i)
    y = int(srng.integers(0, config.num_classes))
    conflict = bool(srng.uniform() < config.conflict_rate)
    if not conflict:
        return y, False, -1, 0
    return y, True, int(srng.integers(0, 3)), int(srng.integers(0, config.num_classes - 1))


def _draw_split(config: DatasetConfig, split: str, n: int,
                anchors: np.ndarray, maps: dict[str, np.ndarray]) -> Dataset:
    """Every sample from its own substreams, drawn for all rows at once.

    Sample i's stream gives, in order: ``integers(0, C)``, ``uniform()``
    and, for a conflicted sample, ``integers(0, 3)`` and
    ``integers(0, C - 1)``. numpy draws those integers from 32-bit halves
    of the 64-bit words r0, r1, r2: the low half of r0, then the buffered
    high half of r0 after ``uniform()`` took r1, then the low half of r2.
    A row where numpy would reject a word is redrawn by ``_draw_header``.
    """
    d, C = config.feature_dim, config.num_classes
    if n == 0:  # a vectorized draw has a fixed cost; an empty split skips it
        return Dataset(*(np.zeros((0, d)) for _ in MODALITIES),
                       np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8))
    rows = Substreams(config.seed, f"sample/{split}", n)
    r0, r1, r2 = rows.raw(3).T
    y, redo = bounded32(r0 & 0xFFFFFFFF, C)
    conflict = unit_double(r1) < config.conflict_rate
    swap_m, rej_swap = bounded32(r0 >> 32, 3)
    other, rej_other = bounded32(r2 & 0xFFFFFFFF, C - 1)
    redo |= conflict & (rej_swap | rej_other)
    for i in np.flatnonzero(redo):
        y[i], conflict[i], swap_m[i], other[i] = _draw_header(config, split, int(i))
    y_swap = np.where(other < y, other, other + 1)
    flags = np.where(conflict, swap_m, -1).astype(np.int8)
    # All three modalities in one buffer: row block mi holds modality mi.
    feats = Substreams.concat([rows.child(f"noise/{m}") for m in MODALITIES]).normal(d)
    feats *= config.noise_std
    for mi, m in enumerate(MODALITIES):
        # One matvec per class, as a per-sample maps[m] @ anchors[c] computes it.
        centers = np.stack([maps[m] @ anchors[c] for c in range(C)])
        feats[mi * n:(mi + 1) * n] += centers[np.where(flags == mi, y_swap, y)]
    return Dataset(feats[:n], feats[n:2 * n], feats[2 * n:], y, flags)


def generate(config: DatasetConfig) -> tuple[Dataset, Dataset, Dataset]:
    """Generate (train, val, test) splits from disjoint substreams."""
    config.validate()
    anchors = class_anchors(config)
    maps = modality_maps(config)
    train = _draw_split(config, "train", config.n_train, anchors, maps)
    val = _draw_split(config, "val", config.n_val, anchors, maps)
    test = _draw_split(config, "test", config.n_test, anchors, maps)
    return train, val, test


def inject_noise_dataset(data: Dataset, sigma: float, modality: str, rng: Rng) -> Dataset:
    """Copy of the split with N(0, sigma^2 I) added to one modality; sample
    i draws from ``rng.child("inject", i)``, all samples in one pass."""
    if not is_number(sigma, "[0, inf)"):
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma!r}")
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}")
    out = Dataset(data.text.copy(), data.video.copy(), data.audio.copy(),
                  data.labels.copy(), data.conflict_flag.copy())
    if sigma > 0:
        arr = out.modality(modality)
        arr += rng.children("inject", len(out)).normal(arr.shape[1], scale=sigma)
    return out


def nearest_anchor_accuracy(data: Dataset, config: DatasetConfig, modality: str = "text",
                            consistent_only: bool = True) -> float:
    """Accuracy of classifying one modality by its nearest class anchor.

    This is the generator's own oracle: it certifies the task is solvable
    before any model is trained.
    """
    anchors = class_anchors(config)
    maps = modality_maps(config)
    centers = anchors @ maps[modality].T  # (C, d) images of the anchors
    feats = data.modality(modality)
    labels = data.labels
    if consistent_only:
        keep = ~data.conflicted_mask
        feats, labels = feats[keep], labels[keep]
    d2 = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    return float((pred == labels).mean())


# -- binary serialization ------------------------------------------------
#
# Little-endian: a header (magic b"DPDS", version u16, num_classes u32,
# feature_dim u32, record count u64), then packed records as laid out by
# _record_dtype. The conflict flag is -1 for none, else the index of the
# conflicted modality in MODALITIES order.

_HEADER = struct.Struct("<4sHIIQ")


def _record_dtype(d: int) -> np.dtype:
    """One packed record: label, conflict flag, then the three modalities."""
    return np.dtype([("label", "<i4"), ("flag", "i1")]
                    + [(m, "<f8", (d,)) for m in MODALITIES])


def _serialize(data: Dataset, config: DatasetConfig) -> tuple[bytes, np.ndarray]:
    """Header and packed records of a split: its file bytes, which the digest hashes."""
    rec = np.empty(len(data), dtype=_record_dtype(config.feature_dim))
    rec["label"] = data.labels
    rec["flag"] = data.conflict_flag
    for m in MODALITIES:
        rec[m] = data.modality(m)
    return _HEADER.pack(MAGIC, FORMAT_VERSION, config.num_classes,
                        config.feature_dim, len(data)), rec


def save_dataset(path, data: Dataset, config: DatasetConfig) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_serialize(data, config))


def load_dataset(path) -> tuple[Dataset, int, int]:
    """Read a dataset file; returns (dataset, num_classes, feature_dim).

    The file must be exactly as long as its header says, every label must
    lie in [0, num_classes) and every conflict flag in {-1, 0, 1, 2}.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"dataset file truncated: {len(blob)} bytes, "
                         f"header alone needs {_HEADER.size}")
    magic, version, C, d, n = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError("not a dataset file (bad magic)")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {version}")
    dtype = _record_dtype(d)
    want = _HEADER.size + n * dtype.itemsize
    if len(blob) != want:
        raise ValueError(f"dataset file is {len(blob)} bytes, "
                         f"header says {want} ({n} records)")
    rec = np.frombuffer(blob, dtype=dtype, offset=_HEADER.size)
    for field, low, high in (("label", 0, C), ("flag", -1, len(MODALITIES))):
        bad = (rec[field] < low) | (rec[field] >= high)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"record {i}: {field} {rec[field][i]} "
                             f"is outside [{low}, {high})")
    data = Dataset(*(rec[m].astype(np.float64) for m in MODALITIES),
                   rec["label"].astype(np.int64), rec["flag"].astype(np.int8))
    return data, int(C), int(d)


def dataset_digest(data: Dataset, config: DatasetConfig) -> str:
    """SHA-256 over the serialized byte layout; stable across runs."""
    h = hashlib.sha256()
    for part in _serialize(data, config):
        h.update(part)
    return h.hexdigest()
