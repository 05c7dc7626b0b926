"""Differentiable building blocks shared across the model modules."""

from __future__ import annotations

import numpy as np

from dualpath.tensor import Tensor, _note_kink, where_const

NORM_FLOOR = 1e-3  # below this, guarded norms sit in a kink neighborhood


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Rows land on the probability simplex to within accumulated float
    rounding; the max-shift is treated as a constant, which leaves the
    gradient unchanged.
    """
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean and unit variance, then scale and shift."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gain + bias


def l2_norm(x: Tensor, axis: int | None) -> Tensor:
    """Euclidean norm along ``axis``: a kept (N, 1) column of row norms for
    ``axis=-1``, a scalar for ``axis=None``. A zero row or vector maps to
    exactly 0 with zero gradient rather than NaN."""
    sq = (x * x).sum(axis=axis, keepdims=axis is not None)
    positive = sq.data > 0
    _note_kink("norm_floor", float(np.sqrt(sq.data.min())) if sq.data.size else 0.0)
    guarded = where_const(positive, sq, Tensor(np.ones_like(sq.data)))
    return where_const(positive, guarded.sqrt(), Tensor(np.zeros_like(sq.data)))


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity between (N, d) and (N, d) or (d,) broadcast.

    Rows whose norm is zero yield similarity 0.
    """
    if b.data.ndim == 1:
        b = b.reshape(1, -1)
    dots = (a * b).sum(axis=-1, keepdims=True)
    na = l2_norm(a, axis=-1)
    nb = l2_norm(b, axis=-1)
    denom = na * nb
    ok = denom.data > 0
    guarded = where_const(ok, denom, Tensor(np.ones_like(denom.data)))
    return where_const(ok, dots / guarded, Tensor(np.zeros_like(dots.data)))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out
