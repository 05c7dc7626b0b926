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

import numpy as np

from dualpath.rng import Rng

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
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.feature_dim < 4:
            raise ValueError("feature_dim must be >= 4")
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ValueError("conflict_rate must lie in [0, 1]")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.num_classes > 2 ** self.feature_dim:
            raise ValueError(
                "cannot separate %d anchors in %d dimensions"
                % (self.num_classes, self.feature_dim)
            )


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


def _draw_split(config: DatasetConfig, split: str, n: int,
                anchors: np.ndarray, maps: dict[str, np.ndarray]) -> Dataset:
    d = config.feature_dim
    feats = {m: np.zeros((n, d)) for m in MODALITIES}
    labels = np.zeros(n, dtype=np.int64)
    flags = np.full(n, -1, dtype=np.int8)
    for i in range(n):
        srng = Rng(config.seed, f"sample/{split}", i)
        y = int(srng.integers(0, config.num_classes))
        labels[i] = y
        conflict = bool(srng.uniform() < config.conflict_rate)
        swap_m = int(srng.integers(0, 3)) if conflict else -1
        if conflict:
            other = int(srng.integers(0, config.num_classes - 1))
            y_swap = other if other < y else other + 1
            flags[i] = swap_m
        for mi, m in enumerate(MODALITIES):
            source = y_swap if mi == swap_m else y
            eps = srng.child(f"noise/{m}").normal(scale=1.0, size=d)
            feats[m][i] = maps[m] @ anchors[source] + config.noise_std * eps
    return Dataset(feats["text"], feats["video"], feats["audio"], labels, flags)


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
    """Copy of the split with N(0, sigma^2 I) added to one modality; each
    sample draws from its own substream of ``rng``."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}")
    out = Dataset(data.text.copy(), data.video.copy(), data.audio.copy(),
                  data.labels.copy(), data.conflict_flag.copy())
    if sigma > 0:
        arr = out.modality(modality)
        for i in range(len(out)):
            arr[i] += rng.child("inject", i).normal(scale=sigma, size=arr.shape[1])
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

    The file must be exactly as long as its header says.
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
    data = Dataset(*(rec[m].astype(np.float64) for m in MODALITIES),
                   rec["label"].astype(np.int64), rec["flag"].astype(np.int8))
    return data, int(C), int(d)


def dataset_digest(data: Dataset, config: DatasetConfig) -> str:
    """SHA-256 over the serialized byte layout; stable across runs."""
    h = hashlib.sha256()
    for part in _serialize(data, config):
        h.update(part)
    return h.hexdigest()
