"""Differentiable building blocks shared across the model modules, one
tape node each with a hand-written backward. Kernels count axes from the
end, so they hold for any number of leading batch axes. The ops that run
the three modalities at once stack them on one axis (``stack_slices``)."""

from __future__ import annotations

import numpy as np

from dualpath.tensor import Tensor, _note_kink, node

# numpy runs a last-axis reduction one row per inner-loop call, ~30-50 ns
# a row whatever the width; a chain of column ufuncs costs ~1-2 us a column
# whatever the row count. The chain wins from about a hundred narrow rows
# (a (2500, 4) max: ~110 us in numpy, ~9 us chained) and loses on a
# training batch's few dozen.
_NARROW = 8
_MANY_ROWS = 128

LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


def _chained(x: np.ndarray) -> bool:
    width = x.shape[-1]
    return 0 < width < _NARROW and x.size >= _MANY_ROWS * width


def row_max(x: np.ndarray) -> np.ndarray:
    """``np.max(x, axis=-1, keepdims=True)`` bit for bit, NaN and signed
    zeros included, as a new array. Many narrow rows chain ``np.maximum``
    over the columns, in the order numpy's reduction takes them."""
    if not _chained(x):
        return np.max(x, axis=-1, keepdims=True)
    out = x[..., 0:1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j:j + 1], out=out)
    return out


def row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)`` bit for bit, signed zeros
    included, as a new array. Below width 8 numpy adds a row left to right
    onto 0.0, as the column chain here does for many rows; wider rows it
    sums pairwise, so those stay with numpy."""
    if not _chained(x):
        return x.sum(axis=-1, keepdims=True)
    out = 0.0 + x[..., 0:1]
    for j in range(1, x.shape[-1]):
        out += x[..., j:j + 1]
    return out


def stack_slices(arrays: list[np.ndarray], axis: int = -3) -> np.ndarray:
    """K arrays stacked on a new axis, by default -3, after a stack's model
    axis: (K, N, d) from (N, d) ones, (M, K, N, d) from (M, N, d) ones; a
    (1, ...) array beside (M, ...) ones is broadcast first."""
    if len({a.shape for a in arrays}) > 1:
        arrays = np.broadcast_arrays(*arrays)
    return np.stack(arrays, axis=axis)


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis, one tape node.

    Rows land on the probability simplex to within accumulated float
    rounding; the max-shift is treated as a constant, which leaves the
    gradient unchanged.
    """
    e = np.exp(x.data - row_max(x.data))
    y = e / row_sum(e)

    def back(g):
        x._accum(y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return node(y, (x,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean and unit variance, then scale and
    shift. One tape node."""
    xd = x.data
    d = xd.shape[-1]
    # sum / d is ndarray.mean's own arithmetic without its Python-level wrapper
    centered = xd - xd.sum(axis=-1, keepdims=True) / d
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / d + LAYER_NORM_EPS)
    normed = centered / std

    def back(g):
        gn = g * gain.data
        # through 1/std: std depends on centered via mean(centered ** 2)
        gc = gn / std - centered * ((gn * centered).sum(axis=-1, keepdims=True)
                                    / (std * std * std * d))
        x._accum(gc - gc.sum(axis=-1, keepdims=True) / d)
        gain._accum(g * normed)
        bias._accum(g)

    return node(normed * gain.data + bias.data, (x, gain, bias), back)


def guarded_sqrt(sq: np.ndarray) -> np.ndarray:
    """Square roots of the squared norms ``sq``, exactly 0 where ``sq`` is
    0 and NaN where it is NaN, with the smallest norm recorded as a
    ``norm_floor`` kink."""
    _note_kink("norm_floor", sq)
    nonzero = sq != 0
    return np.where(nonzero, np.sqrt(np.where(nonzero, sq, 1.0)), 0.0)


def l2_norm(x: Tensor) -> Tensor:
    """Euclidean norm of each row: a kept (..., N, 1) column. A zero row
    maps to exactly 0 with zero gradient rather than NaN. One tape node."""
    norm = guarded_sqrt((x.data * x.data).sum(axis=-1, keepdims=True))

    def back(g):
        x._accum(x.data * np.divide(g, norm, out=np.zeros(norm.shape), where=norm > 0))

    return node(norm, (x,), back)


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity between (..., N, d) rows and rows that
    broadcast against them: (..., N, d), a stack's (M, 1, d) vectors, or
    one (d,) vector. A kept (..., N, 1) column. One tape node; both norms
    are recorded as ``norm_floor`` kinks, ``a``'s first.

    Rows whose norm is zero yield similarity 0 with zero gradient; a NaN
    norm yields NaN.
    """
    ad, bd = a.data, b.data
    dots = (ad * bd).sum(axis=-1, keepdims=True)
    na = guarded_sqrt((ad * ad).sum(axis=-1, keepdims=True))
    nb = guarded_sqrt((bd * bd).sum(axis=-1, keepdims=True))
    denom = na * nb
    ok = denom != 0
    guarded = np.where(ok, denom, 1.0)

    def back(g):
        g_dots = np.where(ok, g, 0.0) / guarded
        g_denom = -g_dots * dots / guarded
        # d|a|/da = a / |a|, zero for a zero row (where g_denom is zero too)
        ga = np.divide(g_denom * nb, na, out=np.zeros(g_denom.shape), where=na > 0)
        gb = np.divide(g_denom * na, nb, out=np.zeros(g_denom.shape), where=nb > 0)
        a._accum(g_dots * bd + ad * ga)
        b._accum(g_dots * ad + bd * gb)

    return node(np.where(ok, dots / guarded, 0.0), (a, b), back)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """(..., num_classes) indicator rows for labels of any shape, such as a
    stack's (M, N); a label outside [0, num_classes) raises ValueError
    rather than wrapping around."""
    labels = require_classes(labels, num_classes)
    return (labels[..., None] == np.arange(num_classes)).astype(np.float64)


def require_classes(values, num_classes: int, what: str = "label") -> np.ndarray:
    """``values`` as an array; a ValueError naming ``what`` and the first
    flat position of a value outside [0, num_classes)."""
    values = np.asarray(values)
    bad = (values < 0) | (values >= num_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{what} {values.flat[i]} at position {i} is outside "
                         f"[0, {num_classes})")
    return values
