"""Differentiable building blocks shared across the model modules."""

from __future__ import annotations

import numpy as np

from dualpath.tensor import Tensor, _note_kink, node, where_const


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``, one tape node.

    Rows land on the probability simplex to within accumulated float
    rounding; the max-shift is treated as a constant, which leaves the
    gradient unchanged.
    """
    e = np.exp(x.data - np.max(x.data, axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        x._accum(y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return node(y, (x,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean and unit variance, then scale and shift."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gain + bias


def guarded_sqrt(sq: np.ndarray) -> np.ndarray:
    """Square roots of the squared norms ``sq``, exactly 0 where ``sq`` is
    0, with the smallest norm recorded as a ``norm_floor`` kink."""
    _note_kink("norm_floor", float(np.sqrt(sq.min())) if sq.size else 0.0)
    positive = sq > 0
    return np.where(positive, np.sqrt(np.where(positive, sq, 1.0)), 0.0)


def l2_norm(x: Tensor, axis: int | None) -> Tensor:
    """Euclidean norm along ``axis``: a kept (N, 1) column of row norms for
    ``axis=-1``, a scalar for ``axis=None``. A zero row or vector maps to
    exactly 0 with zero gradient rather than NaN. One tape node."""
    norm = guarded_sqrt((x.data * x.data).sum(axis=axis, keepdims=axis is not None))

    def back(g):
        x._accum(x.data * np.divide(g, norm, out=np.zeros_like(norm), where=norm > 0))

    return node(norm, (x,), back)


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
    """(N, num_classes) indicator rows; a label outside [0, num_classes)
    raises ValueError rather than wrapping around."""
    labels = np.asarray(labels)
    bad = (labels < 0) | (labels >= num_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"label {labels[i]} at position {i} is outside "
                         f"[0, {num_classes})")
    out = np.zeros((len(labels), num_classes), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out
