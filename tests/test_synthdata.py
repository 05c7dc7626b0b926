"""Synthetic data generator: geometry, conflict injection, serialization."""

import hashlib
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import dualpath.rng as rng_module
import dualpath.synthdata as synthdata
from dualpath.rng import Rng
from dualpath.synthdata import (MODALITIES, Dataset, DatasetConfig, class_anchors,
                                dataset_digest, generate, inject_noise_dataset,
                                load_dataset, modality_maps, nearest_anchor_accuracy,
                                save_dataset)

SMALL = DatasetConfig(num_classes=3, feature_dim=8, n_train=400, n_val=80,
                      n_test=80, seed=5)


@pytest.fixture(scope="module")
def small_splits():
    return generate(SMALL)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        DatasetConfig(num_classes=1).validate()
    with pytest.raises(ValueError):
        DatasetConfig(feature_dim=2).validate()
    with pytest.raises(ValueError):
        DatasetConfig(conflict_rate=1.5).validate()
    with pytest.raises(ValueError):
        DatasetConfig(noise_std=-0.1).validate()
    for value in ("x", None, True):
        with pytest.raises(ValueError, match="DatasetConfig.conflict_rate "):
            DatasetConfig(conflict_rate=value).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "x", None, True])
def test_config_rejects_non_finite_noise_std(value):
    with pytest.raises(ValueError, match="noise_std"):
        DatasetConfig(noise_std=value).validate()


@pytest.mark.parametrize("field", ["n_train", "n_val", "n_test"])
def test_config_rejects_negative_split_sizes(field):
    with pytest.raises(ValueError, match=field):
        generate(DatasetConfig(**{field: -3}))
    DatasetConfig(**{field: 0}).validate()


def test_too_many_classes_for_dim_is_config_error():
    with pytest.raises(ValueError):
        DatasetConfig(num_classes=17, feature_dim=4).validate()


def test_anchors_unit_norm_and_separated():
    cfg = DatasetConfig(num_classes=6, feature_dim=16, seed=9)
    anchors = class_anchors(cfg)
    assert np.allclose(np.linalg.norm(anchors, axis=1), 1.0, atol=1e-12)
    cos = anchors @ anchors.T
    np.fill_diagonal(cos, 0.0)
    assert cos.max() < 0.5


def test_modality_maps_orthogonal_and_distinct():
    maps = modality_maps(SMALL)
    eye = np.eye(SMALL.feature_dim)
    for m in MODALITIES:
        assert np.abs(maps[m] @ maps[m].T - eye).max() < 1e-12
    assert not np.allclose(maps["text"], maps["video"])


def test_generate_is_bitwise_deterministic(small_splits):
    again = generate(SMALL)
    for a, b in zip(small_splits, again):
        assert np.array_equal(a.text, b.text)
        assert np.array_equal(a.video, b.video)
        assert np.array_equal(a.audio, b.audio)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.conflict_flag, b.conflict_flag)


def test_splits_are_distinct(small_splits):
    train, val, test = small_splits
    assert not np.array_equal(train.text[:len(val)], val.text)
    assert not np.array_equal(val.text, test.text)


def test_zero_conflict_rate_flags_nothing():
    cfg = DatasetConfig(num_classes=3, feature_dim=8, n_train=150, n_val=30,
                        n_test=30, conflict_rate=0.0, seed=2)
    for split in generate(cfg):
        assert not split.conflicted_mask.any()
        assert np.all(split.conflict_flag == -1)


def test_conflict_fraction_within_binomial_bound():
    cfg = DatasetConfig(n_train=2000, n_val=10, n_test=10, conflict_rate=0.3, seed=7)
    train, _, _ = generate(cfg)
    n = len(train)
    sigma = np.sqrt(0.3 * 0.7 / n)
    assert abs(train.conflicted_mask.mean() - 0.3) < 3 * sigma


def test_labels_roughly_uniform():
    cfg = DatasetConfig(n_train=2000, n_val=10, n_test=10, seed=7)
    train, _, _ = generate(cfg)
    counts = np.bincount(train.labels, minlength=cfg.num_classes)
    expected = len(train) / cfg.num_classes
    sigma = np.sqrt(len(train) * (1 / cfg.num_classes) * (1 - 1 / cfg.num_classes))
    assert np.all(np.abs(counts - expected) < 3 * sigma)


def test_bundle_flags_are_consistent(small_splits):
    """A flag is -1 for a clean sample, else a modality index."""
    for split in small_splits:
        assert set(np.unique(split.conflict_flag)) <= {-1, 0, 1, 2}
        assert np.array_equal(split.conflicted_mask, split.conflict_flag >= 0)


def test_nearest_anchor_oracle_on_clean_modality(small_splits):
    acc = nearest_anchor_accuracy(small_splits[2], SMALL, "text",
                                  consistent_only=True)
    assert acc >= 0.95


def test_default_config_oracle_meets_learnability_bar():
    cfg = DatasetConfig(n_train=10, n_val=10, n_test=400)
    test = generate(cfg)[2]
    assert nearest_anchor_accuracy(test, cfg, "text") >= 0.95


def test_inject_noise_zero_sigma_is_identity(small_splits):
    test = small_splits[2]
    out = inject_noise_dataset(test, 0.0, "text", Rng(0, "n"))
    for m in MODALITIES:
        assert np.array_equal(out.modality(m), test.modality(m))


def test_inject_noise_touches_only_named_modality(small_splits):
    test = small_splits[2]
    out = inject_noise_dataset(test, 0.5, "video", Rng(1, "n"))
    assert np.all(np.any(out.video != test.video, axis=1))
    assert np.array_equal(out.text, test.text)
    assert np.array_equal(out.audio, test.audio)
    assert np.array_equal(out.labels, test.labels)
    assert np.array_equal(out.conflict_flag, test.conflict_flag)


def test_inject_noise_leaves_original_untouched(small_splits):
    test = small_splits[2]
    before = [test.modality(m).copy() for m in MODALITIES]
    inject_noise_dataset(test, 1.0, "text", Rng(2, "n"))
    for m, arr in zip(MODALITIES, before):
        assert np.array_equal(test.modality(m), arr)


def test_inject_noise_magnitude_matches_sigma(small_splits):
    """Mean squared deviation per row is sigma^2 * d over many rows."""
    test = small_splits[0]
    sigma, target = 0.3, 0.3 ** 2 * SMALL.feature_dim
    total = 0.0
    for k in range(25):  # 25 x 400 = 10 000 rows
        out = inject_noise_dataset(test, sigma, "text", Rng(3, "mc", k))
        total += float(((out.text - test.text) ** 2).sum())
    rows = 25 * len(test)
    assert abs(total / rows - target) / target < 0.05


def test_inject_noise_rejects_bad_args(small_splits):
    test = small_splits[2]
    with pytest.raises(ValueError):
        inject_noise_dataset(test, -1.0, "text", Rng(0, "n"))
    with pytest.raises(ValueError):
        inject_noise_dataset(test, 0.1, "smell", Rng(0, "n"))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, True, "0.1"])
def test_inject_noise_rejects_nonfinite_sigma(small_splits, sigma):
    """NaN used to pass as no noise (``sigma > 0`` is False), inf gave
    infinite features, True injected noise at 1.0 and a string raised
    TypeError."""
    with pytest.raises(ValueError, match="sigma"):
        inject_noise_dataset(small_splits[2], sigma, "text", Rng(0, "n"))


def test_inject_noise_dataset_matches_contract(small_splits):
    test = small_splits[2]
    noisy = inject_noise_dataset(test, 0.4, "text", Rng(4, "n"))
    assert not np.array_equal(noisy.text, test.text)
    assert np.array_equal(noisy.video, test.video)
    assert np.array_equal(noisy.audio, test.audio)
    assert np.array_equal(noisy.labels, test.labels)
    zero = inject_noise_dataset(test, 0.0, "text", Rng(4, "n"))
    assert np.array_equal(zero.text, test.text)


def test_save_load_round_trip_bit_exact(tmp_path, small_splits):
    test = small_splits[2]
    path = tmp_path / "split.bin"
    save_dataset(path, test, SMALL)
    loaded, num_classes, feature_dim = load_dataset(path)
    assert num_classes == SMALL.num_classes
    assert feature_dim == SMALL.feature_dim
    assert np.array_equal(loaded.text, test.text)
    assert np.array_equal(loaded.video, test.video)
    assert np.array_equal(loaded.audio, test.audio)
    assert np.array_equal(loaded.labels, test.labels)
    assert np.array_equal(loaded.conflict_flag, test.conflict_flag)


def test_loaded_arrays_keep_their_dtypes(tmp_path, small_splits):
    path = tmp_path / "split.bin"
    save_dataset(path, small_splits[2], SMALL)
    loaded, _, _ = load_dataset(path)
    assert loaded.labels.dtype == np.int64
    assert loaded.conflict_flag.dtype == np.int8
    for m in MODALITIES:
        arr = loaded.modality(m)
        assert arr.dtype == np.float64 and arr.flags.writeable


def test_load_rejects_trailing_bytes(tmp_path, small_splits):
    path = tmp_path / "split.bin"
    save_dataset(path, small_splits[2], SMALL)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match=f"{size + 1} bytes.*{size}"):
        load_dataset(path)


def test_load_rejects_truncated_file(tmp_path, small_splits):
    path = tmp_path / "split.bin"
    save_dataset(path, small_splits[2], SMALL)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match=f"{len(blob) - 5} bytes.*{len(blob)}"):
        load_dataset(path)
    path.write_bytes(blob[:10])
    with pytest.raises(ValueError, match="truncated"):
        load_dataset(path)


@pytest.mark.parametrize("field,record,value,match", [
    ("labels", 3, -1, r"record 3: label -1 is outside \[0, 3\)"),
    ("labels", 0, SMALL.num_classes, r"record 0: label 3 is outside \[0, 3\)"),
    ("conflict_flag", 7, 5, r"record 7: flag 5 is outside \[-1, 3\)"),
])
def test_load_rejects_out_of_range_labels_and_flags(tmp_path, small_splits,
                                                    field, record, value, match):
    test = small_splits[2]
    arrays = {"labels": test.labels.copy(), "conflict_flag": test.conflict_flag.copy()}
    arrays[field][record] = value
    arrays[field][record + 1] = value  # only the first bad record is named
    bad = Dataset(test.text, test.video, test.audio, arrays["labels"],
                  arrays["conflict_flag"])
    path = tmp_path / "split.bin"
    save_dataset(path, bad, SMALL)
    with pytest.raises(ValueError, match=match):
        load_dataset(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_dataset(path)


def test_digest_stable_and_sensitive(small_splits):
    test = small_splits[2]
    d1 = dataset_digest(test, SMALL)
    assert d1 == dataset_digest(test, SMALL)
    perturbed = Dataset(test.text.copy(), test.video, test.audio,
                        test.labels, test.conflict_flag)
    perturbed.text[0, 0] += 1e-9
    assert dataset_digest(perturbed, SMALL) != d1


def test_file_bytes_match_the_documented_record_loop(tmp_path, small_splits):
    """Reference: the header, then label i32, flag i8 and three f64[d]
    vectors packed one record at a time."""
    test = small_splits[2]
    want = struct.pack("<4sHIIQ", b"DPDS", 1, SMALL.num_classes,
                       SMALL.feature_dim, len(test))
    for i in range(len(test)):
        want += struct.pack("<ib", int(test.labels[i]), int(test.conflict_flag[i]))
        want += b"".join(test.modality(m)[i].astype("<f8").tobytes() for m in MODALITIES)
    path = tmp_path / "split.bin"
    save_dataset(path, test, SMALL)
    assert path.read_bytes() == want
    assert dataset_digest(test, SMALL) == hashlib.sha256(want).hexdigest()


def test_digest_pinned_for_a_small_config():
    """The serialized layout is a file format: its bytes must not drift."""
    cfg = DatasetConfig(num_classes=3, feature_dim=5, n_train=7, n_val=3,
                        n_test=4, seed=11)
    assert dataset_digest(generate(cfg)[0], cfg) == (
        "69948661367cf0212ed7d71c3311895768d832f4bd0791834fd0642962c16ab3")


# Digests of the default config's splits and of one noise injection, pinned
# while every sample still drew from its own np.random.Generator.
DEFAULT_DIGESTS = (
    "4ea020d68455ca2c4c1cc9dcd1869dcac007881caf1a2dcbbe42f67842a0e9d4",
    "cc6592b78e2ab8b55288fd2e92266c1e51f4684a3b477795a5a8b454f73a0d29",
    "04e84065c74e4d0b4fa87884c960673e1ed0dbf0ac2f58a7b6721a8ab6b657dd",
)
INJECTED_DIGEST = "174ad964b214096da5f974fe4de7d2ef8bc29f59c480f59020dab1a54fe47252"


@pytest.fixture(scope="module")
def default_splits():
    return generate(DatasetConfig())


def test_default_config_digests_pinned(default_splits):
    cfg = DatasetConfig()
    assert tuple(dataset_digest(s, cfg) for s in default_splits) == DEFAULT_DIGESTS


def test_inject_noise_digest_pinned(default_splits):
    noisy = inject_noise_dataset(default_splits[2], 0.3, "text", Rng(3, "robust/noise", 2))
    assert dataset_digest(noisy, DatasetConfig()) == INJECTED_DIGEST


def test_lemire_rejected_rows_are_redrawn_by_the_scalar_stream(monkeypatch):
    """Rows flagged as rejected take the scalar path; the splits must not
    change, so the scalar redraw agrees with the batched draw."""
    redrawn = []
    scalar = synthdata._draw_header
    flag = rng_module._lemire_rejected

    def spy(config, split, i):
        redrawn.append((split, i))
        return scalar(config, split, i)

    monkeypatch.setattr(synthdata, "_draw_header", spy)
    monkeypatch.setattr(rng_module, "_lemire_rejected",
                        lambda leftover, n: flag(leftover, n) | (np.arange(len(leftover)) % 7 == 3))
    cfg = DatasetConfig()
    assert tuple(dataset_digest(s, cfg) for s in generate(cfg)) == DEFAULT_DIGESTS
    assert ("train", 3) in redrawn and ("test", 395) in redrawn
    assert len(redrawn) >= (cfg.n_train + cfg.n_val + cfg.n_test) // 7


def test_draw_header_is_the_per_sample_reference(default_splits):
    cfg = DatasetConfig()
    train = default_splits[0]
    for i in range(0, cfg.n_train, 97):
        y, conflict, swap_m, _ = synthdata._draw_header(cfg, "train", i)
        assert train.labels[i] == y
        assert train.conflict_flag[i] == (swap_m if conflict else -1)


def test_data_paths_do_not_import_numpy_ma():
    """numpy.ma (with inspect and ast) costs ~7 MB of resident memory; the
    data paths must not pull it in (np.unique does, on first use)."""
    code = ("import sys\n"
            "from dualpath.rng import Rng\n"
            "from dualpath.synthdata import DatasetConfig, generate, inject_noise_dataset\n"
            "test = generate(DatasetConfig(n_train=50, n_val=10, n_test=600))[2]\n"
            "inject_noise_dataset(test, 0.3, 'text', Rng(1, 'n'))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
