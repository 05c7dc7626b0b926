"""Small trainable modules: the ``Module`` base, affine maps and two-layer
tanh MLPs.

Parameters are plain Tensors held as module attributes. ``Module.params``
collects them into one ordered dict, so the trainer, the checkpoint
writer and the gradient checker all see one flat namespace of named
arrays. An affine map, squashed or not, records one tape node.
In a stack of models (``fusion.Model.stack``) a weight is (M, d_in,
d_out) and a bias (M, 1, d_out); inputs are (M, N, d_in), or one
(N, d_in) batch that every model takes. Any of them may instead hold one
(1, ...) slice that all M models share, as the groups a gradient-check
round leaves alone do; the result then takes the largest model axis.
"""

from __future__ import annotations

import numpy as np

from dualpath.functional import stack_slices
from dualpath.rng import Rng
from dualpath.tensor import Tensor, constant, node


def glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init for a (fan_in, fan_out) weight."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Module:
    """Base of every trainable module. ``params`` walks the instance's
    attributes in assignment order: it names each Tensor attribute
    ``{name}.{attribute}`` and takes in the parameters of each Module held
    directly or as a dict value. A module that holds a Tensor sets
    ``name``, the prefix of its parameters' names. A module reached twice
    keeps its first place; two different tensors under one name raise
    ValueError."""

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        self._register(out)
        return out

    def _register(self, out: dict[str, Tensor]) -> None:
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                key = f"{self.name}.{attr}"
                if out.setdefault(key, value) is not value:
                    raise ValueError(f"two parameters are named {key!r}")
            elif isinstance(value, Module):
                value._register(out)
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        item._register(out)


class Affine(Module):
    """y = x @ W + b with W of shape (d_in, d_out)."""

    def __init__(self, rng: Rng, d_in: int, d_out: int, name: str):
        self.name = name
        self.weight = Tensor(glorot(rng, d_in, d_out))
        self.bias = Tensor(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return _affine(x, self.weight, self.bias, squash=False)

    def tanh(self, x: Tensor) -> Tensor:
        """tanh(x @ W + b)."""
        return _affine(x, self.weight, self.bias, squash=True)


def _affine(x: Tensor, weight: Tensor, bias: Tensor, squash: bool) -> Tensor:
    """x @ W + b, then tanh when ``squash``, as one node. The weight's
    gradient contracts the second-to-last axis and the bias takes the
    gradient summed down to its shape."""
    xd, wd = x.data, weight.data
    if xd.ndim < 2:
        raise ValueError(f"affine input must be at least 2-D (rows of features), "
                         f"got shape {xd.shape}")
    y = xd @ wd
    b = bias.data
    if b.ndim == y.ndim > 2 and len(b) > len(y):
        y = y + b  # an (M, 1, d) bias grows a product without the model axis
    else:
        y += b
    if squash:
        np.tanh(y, out=y)

    def back(g):
        if squash:
            g = g * (1.0 - y * y)
        if not x.const:
            x._accum(g @ wd.swapaxes(-1, -2))
        weight._accum(xd.swapaxes(-1, -2) @ g)
        bias._accum(g)

    return node(y, (x, weight, bias), back)


def affine_block(xs: list[Tensor], layers: list[Affine]) -> Tensor:
    """``layers[k](xs[k])`` for every k as one node: a (..., K, N, d_out)
    block whose slice k is that map's output bit for bit. The inputs and
    parameters stay its parents; their arrays are stacked at call time
    (``stack_slices``) and the backward runs the maps last first."""
    weights, biases = [lin.weight for lin in layers], [lin.bias for lin in layers]
    x = stack_slices([t.data for t in xs])
    w = stack_slices([t.data for t in weights])
    y = x @ w + stack_slices([np.atleast_2d(t.data) for t in biases])

    def back(g):
        gx, gw = g @ w.swapaxes(-1, -2), x.swapaxes(-1, -2) @ g
        for k in reversed(range(len(xs))):
            xs[k]._accum(gx[..., k, :, :])
            weights[k]._accum(gw[..., k, :, :])
            biases[k]._accum(g[..., k, :, :])

    return node(y, (*xs, *weights, *biases), back)


class TanhMlp(Module):
    """affine -> tanh -> (times a dropout mask, when given) -> affine."""

    def __init__(self, rng: Rng, d_in: int, d_hidden: int, d_out: int, name: str):
        self.name = name
        self.lin1 = Affine(rng.child("lin1"), d_in, d_hidden, f"{name}.lin1")
        self.lin2 = Affine(rng.child("lin2"), d_hidden, d_out, f"{name}.lin2")

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        h = self.lin1.tanh(x)
        if mask is not None:
            h = h * constant(mask)
        return self.lin2(h)


class LayerNormParams(Module):
    """Gain and bias for a layer_norm over the last axis."""

    def __init__(self, dim: int, name: str):
        self.name = name
        self.gain = Tensor(np.ones(dim))
        self.bias = Tensor(np.zeros(dim))
