"""Random stream derivation: reproducibility and substream independence."""

import numpy as np
import pytest

from dualpath import rng as rng_module
from dualpath.rng import (Rng, StackedRng, Substreams, bounded32, philox4x64,
                          unit_double)


def test_same_key_same_stream():
    a = Rng(42, "x", 3).normal(size=10)
    b = Rng(42, "x", 3).normal(size=10)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_streams():
    base = Rng(42, "x", 3).normal(size=10)
    assert not np.array_equal(base, Rng(43, "x", 3).normal(size=10))
    assert not np.array_equal(base, Rng(42, "y", 3).normal(size=10))
    assert not np.array_equal(base, Rng(42, "x", 4).normal(size=10))


def test_substream_independent_of_draw_order():
    r1 = Rng(7, "root")
    r1.normal(size=100)  # consume some of the parent stream
    child_after = r1.child("leaf", 2).uniform(size=5)
    child_fresh = Rng(7, "root").child("leaf", 2).uniform(size=5)
    assert np.array_equal(child_after, child_fresh)


def test_children_of_distinct_indices_differ():
    a = Rng(7, "sample", 0).child("noise").normal(size=8)
    b = Rng(7, "sample", 1).child("noise").normal(size=8)
    assert not np.array_equal(a, b)


def test_normal_moments():
    z = Rng(0, "moments").normal(size=200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normal_scalar_and_shapes():
    r = Rng(1, "shapes")
    assert np.isscalar(float(r.normal()))
    assert r.normal(size=(3, 4)).shape == (3, 4)
    assert r.normal(size=7).shape == (7,)


def test_uniform_range_and_integers():
    r = Rng(2, "ranges")
    u = r.uniform(-2.0, 3.0, size=1000)
    assert u.min() >= -2.0 and u.max() < 3.0
    ints = r.integers(0, 5, size=1000)
    assert set(np.unique(ints)) <= {0, 1, 2, 3, 4}


def test_permutation_is_deterministic_permutation():
    p1 = Rng(3, "perm").permutation(50)
    p2 = Rng(3, "perm").permutation(50)
    assert np.array_equal(p1, p2)
    assert np.array_equal(np.sort(p1), np.arange(50))


# -- batched substreams ----------------------------------------------------


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
def test_philox_lanes_equal_numpy_philox(blocks):
    keys = np.random.default_rng(blocks).integers(0, 2 ** 64, size=(2, 1000),
                                                  dtype=np.uint64, endpoint=False)
    keys[:, :50] |= np.uint64(1 << 63)  # keys with the top bit set
    keys[:, 50:60] = np.uint64(2 ** 64 - 1)
    ctr = np.zeros((4, 1000 * blocks), dtype=np.uint64)
    ctr[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), 1000)
    out = philox4x64(ctr, np.repeat(keys, blocks, axis=1)).T.reshape(1000, 4 * blocks)
    for i in range(1000):
        want = np.random.Philox(key=keys[:, i]).random_raw(4 * blocks)
        assert np.array_equal(out[i], want), i


@pytest.mark.parametrize("words", [1, 3, 4, 13])
def test_raw_words_equal_each_rows_bit_generator(words):
    rows = Substreams(12, "raw", 600)
    raw = rows.raw(words)
    assert raw.shape == (600, words) and raw.dtype == np.uint64
    for i in range(600):
        assert np.array_equal(raw[i], Rng(12, "raw", i)._gen.bit_generator.random_raw(words))


@pytest.mark.parametrize("n", [0, 1, 7, 1000, 11000])
def test_batched_rows_equal_scalar_streams(n):
    """Every row, across the 1/2/3/4/5-digit index boundaries and the
    Philox row blocks, equals its scalar stream bit for bit."""
    rows = Substreams(3, "sample/train", n)
    noise = rows.child("noise/text").normal(16)
    odd = rows.child("noise/audio").normal(5, scale=0.3)
    uni = unit_double(rows.raw(6))
    injected = Rng(9, "robust/noise", 2).children("inject", n).normal(7, scale=0.7)
    assert noise.shape == (n, 16) and odd.shape == (n, 5) and uni.shape == (n, 6)
    for i in range(n):
        srng = Rng(3, "sample/train", i)
        assert np.array_equal(noise[i], srng.child("noise/text").normal(scale=1.0, size=16)), i
        assert np.array_equal(odd[i], srng.child("noise/audio").normal(scale=0.3, size=5)), i
        assert np.array_equal(uni[i], Rng(3, "sample/train", i).uniform(size=6)), i
        assert np.array_equal(injected[i], Rng(9, "robust/noise", 2).child("inject", i)
                              .normal(scale=0.7, size=7)), i


def test_child_of_child_and_concat_follow_the_scalar_labels():
    rows = Substreams(4, "a", 25)
    grand = rows.child("b").child("c").normal(4)
    both = unit_double(Substreams.concat([rows.child("x"), rows]).raw(2))
    for i in range(25):
        assert np.array_equal(grand[i], Rng(4, "a", i).child("b").child("c").normal(size=4))
        assert np.array_equal(both[i], Rng(4, "a", i).child("x").uniform(size=2))
        assert np.array_equal(both[25 + i], Rng(4, "a", i).uniform(size=2))
    with pytest.raises(ValueError):
        Substreams.concat([rows, Substreams(5, "a", 3)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 1000])
def test_bounded32_equals_numpy_integers_from_the_low_half(n):
    rows = Substreams(8, "ints", 500)
    value, rejected = bounded32(rows.raw(1)[:, 0] & np.uint64(0xFFFFFFFF), n)
    assert not rejected.any()  # each row would be rejected with p <= n / 2**32
    for i in range(500):
        assert value[i] == Rng(8, "ints", i).integers(0, n)


def test_lemire_rejection_threshold_is_numpys():
    """numpy rejects a draw below n when (word * n) mod 2**32 falls under
    (2**32 - n) mod n."""
    words = np.array([0, 1, 2 ** 32 - 1, 1431655765, 1431655766], dtype=np.uint64)
    value, rejected = bounded32(words, 3)  # threshold (2**32 - 3) % 3 == 1
    assert value.tolist() == [0, 0, 2, 0, 1]
    assert rejected.tolist() == [True, False, False, False, False]
    assert not rng_module._lemire_rejected(np.arange(5, dtype=np.uint64), 4).any()


def test_stacked_rows_are_each_models_own_stream():
    """Row m of a stacked draw is model m's scalar draw; models that share
    a seed share it."""
    seeds = [3, 5, 3]
    stacked = StackedRng(seeds, "train")
    drop = stacked.child("dropout", 4).child_uniforms(["drop/shared/text"], (3, 2, 5))[0]
    order = stacked.child("shuffle", 1).permutation(7)
    for m, seed in enumerate(seeds):
        rng = Rng(seed, "train")
        assert np.array_equal(drop[m], rng.child("dropout", 4).child(
            "drop/shared/text").uniform(size=(2, 5)))
        assert np.array_equal(order[m], rng.child("shuffle", 1).permutation(7))
    with pytest.raises(ValueError, match="stack of 3"):
        stacked.child_uniforms(["drop/shared/text"], (2, 5))


# -- fresh streams drawn together --------------------------------------------

LABELS = [f"drop/{kind}/{m}" for m in ("text", "video", "audio")
          for kind in ("shared", "private")]


@pytest.mark.parametrize("step", [0, 7, 42, 123, 9999, 99999])
def test_child_uniforms_equal_each_childs_draw(step):
    """Steps of one to five digits, so the continued label hash runs over
    every width of the parent index."""
    parent = Rng(21, "train").child("dropout", step)
    draws = parent.child_uniforms(LABELS, (4, 3))
    assert draws.shape == (6, 4, 3)
    for row, label in zip(draws, LABELS):
        assert np.array_equal(row, parent.child(label).uniform(size=(4, 3)))
    assert parent._generator is None  # the parent itself never drew


@pytest.mark.parametrize("step", [1, 56, 999, 10000])
def test_stacked_child_uniforms_equal_each_models_draw(step):
    seeds = [8, 3, 8, 5]  # a repeated seed shares its rows
    parent = StackedRng(seeds, "train").child("dropout", step)
    draws = parent.child_uniforms(LABELS, (4, 2, 5))
    assert draws.shape == (6, 4, 2, 5)
    for row, label in zip(draws, LABELS):
        for m, seed in enumerate(seeds):
            want = Rng(seed, "train").child("dropout", step).child(label).uniform(size=(2, 5))
            assert np.array_equal(row[m], want), (label, m)
    with pytest.raises(ValueError, match="stack of 4"):
        parent.child_uniforms(LABELS, (3, 2, 5))


def test_nested_child_key_equals_the_full_labels_key():
    """child() continues the parent's label hash instead of hashing the
    whole label again; the key is that of the full label."""
    nested = Rng(17, "train", 2).child("dropout", 31).child("drop/shared/audio", 4)
    flat = Rng(17, "train#2/dropout#31/drop/shared/audio", 4)
    assert nested.label == flat.label
    assert nested._key == flat._key
    assert np.array_equal(nested.uniform(size=6), flat.uniform(size=6))


def test_generator_is_built_on_the_first_draw_only():
    r = Rng(5, "lazy")
    assert r._generator is None
    first = r.uniform(size=3)
    gen = r._generator
    assert gen is not None
    r.uniform(size=3)
    assert r._generator is gen
    assert np.array_equal(first, Rng(5, "lazy").uniform(size=3))


@pytest.mark.parametrize("make, name", [
    (lambda: Rng(1.5), "seed"),
    (lambda: Rng(True), "seed"),
    (lambda: Rng(0, "a", 2.7), "index"),
    (lambda: StackedRng([1.5, 1]), "seeds"),
])
def test_a_seed_or_index_that_is_no_integer_is_rejected(make, name):
    """A float or bool used to truncate to an integer's stream; StackedRng
    merged 1.5 into seed 1."""
    with pytest.raises(ValueError, match=name):
        make()
