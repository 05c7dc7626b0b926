"""Shared differentiable building blocks."""

import numpy as np
import pytest

from dualpath.functional import (cosine_rows, l2_norm, layer_norm, one_hot,
                                 row_max, row_sum, softmax)
from dualpath.rng import Rng
from dualpath.tensor import Tensor, watch_kinks

from oracles import layer_norm_vec, softmax_vec


def test_softmax_rows_on_simplex():
    rng = Rng(0, "f_sm")
    for trial in range(50):
        x = Tensor(rng.child("x", trial).normal(scale=5.0, size=(8, 6)))
        p = softmax(x).data
        assert np.all(p > 0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_softmax_matches_reference():
    x = np.array([[1.0, 2.0, -1.0], [100.0, 100.0, 100.0]])
    p = softmax(Tensor(x)).data
    for i in range(2):
        assert np.allclose(p[i], softmax_vec(x[i]), atol=1e-15)


def test_softmax_stable_for_large_logits():
    p = softmax(Tensor(np.array([[1000.0, 0.0]]))).data
    assert np.all(np.isfinite(p))
    assert p[0, 0] == pytest.approx(1.0)


def _row_values(label: str, shape: tuple) -> np.ndarray:
    """Signed magnitudes from 1e-8 to 1e8 with +0.0, -0.0 and NaN mixed in."""
    rng = Rng(11, label)
    x = 10.0 ** rng.uniform(-8.0, 8.0, size=shape) * np.where(
        rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    pick = rng.uniform(size=shape)
    x[pick < 0.1] = 0.0
    x[(pick >= 0.1) & (pick < 0.2)] = -0.0
    x[(pick >= 0.2) & (pick < 0.23)] = np.nan
    return x


def _row_layouts(width: int, rows: int) -> dict[str, np.ndarray]:
    label = f"rows/{width}/{rows}"
    zeros = np.array(np.meshgrid(*[[0.0, -0.0]] * min(width, 4), indexing="ij"))
    return {
        "contiguous": _row_values(label + "/c", (rows, width)),
        "fortran": np.asfortranarray(_row_values(label + "/f", (rows, width))),
        "strided": _row_values(label + "/s", (2 * rows, 2 * width + 1))[::2, 1::2],
        "3d": _row_values(label + "/3", (4, rows // 4, width)),
        # every sign pattern of zeros over the first four columns
        "zeros": np.resize(zeros.reshape(min(width, 4), -1).T, (rows, min(width, 4))),
    }


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(np.signbit(got), np.signbit(want))
            and np.array_equal(got, want, equal_nan=True))


# a few rows stay with numpy; many narrow rows take the column chains
@pytest.mark.parametrize("rows", [16, 300])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_row_helpers_match_numpy_bit_for_bit(width, rows):
    for layout, x in _row_layouts(width, rows).items():
        assert _same_bits(row_max(x), np.max(x, axis=-1, keepdims=True)), layout
        assert _same_bits(row_sum(x), np.sum(x, axis=-1, keepdims=True)), layout


@pytest.mark.parametrize("rows", [16, 300])
@pytest.mark.parametrize("width", [1, 3, 8])
def test_row_helpers_never_return_a_view(width, rows):
    for x in _row_layouts(width, rows).values():
        for out in (row_max(x), row_sum(x)):
            assert not np.shares_memory(out, x)


def test_layer_norm_moments_and_reference():
    rng = Rng(2, "f_ln")
    x = rng.normal(scale=3.0, size=(6, 10))
    gain = Tensor(np.ones(10))
    bias = Tensor(np.zeros(10))
    y = layer_norm(Tensor(x), gain, bias).data
    assert np.max(np.abs(y.mean(axis=1))) < 1e-12
    assert np.max(np.abs(y.std(axis=1) - 1.0)) < 1e-4
    g = rng.normal(size=10)
    b = rng.normal(size=10)
    y2 = layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
    for i in range(6):
        assert np.allclose(y2[i], layer_norm_vec(x[i], g, b), atol=1e-14)


def test_l2_norm_rows_values_and_zero_row():
    x = np.array([[3.0, 4.0], [0.0, 0.0]])
    t = Tensor(x)
    n = l2_norm(t)
    assert n.data.shape == (2, 1)
    assert np.array_equal(n.data, [[5.0], [0.0]])
    n.sum().backward()
    assert np.allclose(t.grad[0], [0.6, 0.8])
    assert np.array_equal(t.grad[1], [0.0, 0.0])


def test_l2_norm_records_smallest_norm_as_kink_payload():
    with watch_kinks() as rows_log:
        l2_norm(Tensor(np.array([[3.0, 4.0], [0.6, 0.8]])))
    assert rows_log == [("norm_floor", pytest.approx(1.0))]


def test_cosine_rows_conventions():
    a = Tensor(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    b = Tensor(np.array([[2.0, 0.0], [1.0, 1.0], [-1.0, -1.0]]))
    c = cosine_rows(a, b).data
    assert c[0, 0] == pytest.approx(1.0)
    assert c[1, 0] == 0.0  # zero-norm row maps to similarity 0
    assert c[2, 0] == pytest.approx(-1.0)


def test_cosine_rows_broadcasts_single_vector():
    rows = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
    v = Tensor(np.array([1.0, 0.0]))
    c = cosine_rows(rows, v).data
    assert c[0, 0] == pytest.approx(1.0)
    assert c[1, 0] == pytest.approx(0.0)


def test_cosine_rows_bounded():
    rng = Rng(3, "f_cos")
    a = Tensor(rng.normal(size=(100, 7)))
    b = Tensor(rng.normal(size=7))
    c = cosine_rows(a, b).data
    assert np.all(np.abs(c) <= 1.0 + 1e-12)


def test_one_hot():
    oh = one_hot(np.array([0, 2, 1]), 3)
    assert np.array_equal(oh, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float))


@pytest.mark.parametrize("labels", [[-1], [4], [0, 3, 7]])
def test_one_hot_rejects_out_of_range_labels(labels):
    with pytest.raises(ValueError, match="outside"):
        one_hot(np.array(labels), 4)
