"""Random stream derivation: reproducibility and substream independence."""

import numpy as np

from dualpath.rng import Rng


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
