"""Training objective: task supervision plus two structural penalties.

The task term supervises the fused prediction, an auxiliary head on the
reasoning representation, and each unimodal classifier. The structural
terms shape the decoupled subspaces: an orthogonality penalty pushes
private features away from shared ones (and from each other), and a
moment-matching penalty pulls the shared features of different
modalities toward a common distribution.

Every term counts axes from the end. On a stack's (M, N, ...) outputs
each term is an (M,) vector, one value per model, and the loss weights
may be (M,) vectors too, so ablation variants that zero a term train in
one stack. A feature that every model shares may stay a (1, N, ...)
slice beside (M, N, ...) ones; a term over such slices alone is (1,).
Means are written as sums over the count: that is ``ndarray.mean``'s own
arithmetic, without its Python-level wrapper.

Repeated terms are one tape node each: the three unimodal CEs over the
unimodal block, diff_loss's nine products over a pair axis, sim_loss's
moments over the (3, ..., N, d) shared block, and the weighted terms of
task_loss and of total_loss. Each adds its parts in the order separate nodes would,
so values and gradients are theirs bit for bit.

Under no_grad(), as in grad_check's probe rounds, diff_loss forms each
product at its pair's leading shape and sim_loss each input's moments at
the input's own, so a round's (1, ...) features beside (M, ...) ones are
not broadcast to the M members; the values are the block's bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from dualpath import tensor
from dualpath.functional import guarded_sqrt, one_hot, softmax, stack_slices
from dualpath.fusion import ModelOutput
from dualpath.synthdata import MODALITIES, is_integer, require_integers, require_numbers
from dualpath.tensor import Tensor, _note_kink, is_recording, node

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12

COMPONENT_ORDER = ("cls", "rea", "uni", "diff", "sim", "total")

WEIGHTS = ("reasoning_weight", "unimodal_weight", "orthogonality_weight",
           "alignment_weight")


@dataclass(frozen=True)
class LossConfig:
    """Term weights (numbers) and the CMD order. ``stack_loss_configs``
    builds a stack's (M,) weight arrays from validated members."""

    reasoning_weight: float = 0.1     # on the auxiliary reasoning-head CE
    unimodal_weight: float = 0.1      # on the summed unimodal CEs
    orthogonality_weight: float = 0.1
    alignment_weight: float = 0.1
    moment_order: int = 5

    def validate(self) -> None:
        require_numbers(self, "[0, inf)", *WEIGHTS)
        require_integers(self, "moment_order", low=1)


def stack_loss_configs(cfgs: list[LossConfig]) -> LossConfig:
    """One config for a stack: each weight an (M,) vector of the members'
    weights. A weight of 0.0 multiplies its term exactly as a member's own
    config does. The moment order shapes the graph, so it must agree."""
    if len({c.moment_order for c in cfgs}) != 1:
        raise ValueError("stacked loss configs must share moment_order")
    return LossConfig(**{name: np.array([getattr(c, name) for c in cfgs])
                         for name in WEIGHTS}, moment_order=cfgs[0].moment_order)


def _nll(probs: Tensor, mask: np.ndarray, block: bool = False) -> Tensor:
    """Mean negative log-probability of the true class over the rows of
    (..., N, C) probabilities, given (..., N, C) one-hot rows: a scalar for
    a plain batch, (M,) for a stack's. One tape node. With ``block``,
    ``probs`` holds K predictions of the same rows, (..., K, N, C), and
    the result is their K cross-entropies added in order.

    Probabilities are floored at 1e-12 before the log, each floor recorded
    as its own ``clamp_margin`` kink, so a confidently wrong prediction
    yields a large finite loss, never an infinity; a floored probability
    gets no gradient. A NaN probability is not floored: it makes the loss
    NaN.
    """
    if tensor._reuse is not None:
        return tensor._reuse(_nll, probs, mask, block)
    n = probs.data.shape[-2]
    if block:
        mask = mask[..., None, :, :]
    picked = (probs.data * mask).sum(axis=-1, keepdims=True)
    for slot in (picked[..., k, :, :] for k in range(picked.shape[-3])) if block else (picked,):
        _note_kink("clamp_margin", slot, PROB_FLOOR)
    above = ~(picked <= PROB_FLOOR)
    clamped = np.where(above, picked, PROB_FLOOR)
    value = -(np.log(clamped).sum(axis=(-2, -1)) / n)
    if block:
        value = _add_in_order(value)

    def back(g):
        if block:
            g = g[..., None]
        probs._accum(mask * (-g[..., None, None] / n / clamped * above))

    return node(value, (probs,), back)


def _weighted_sum(base: Tensor, terms: tuple, weights: tuple) -> Tensor:
    """``base + weights[0] * terms[0] + ...``, added left to right, as one
    node: each term takes the gradient times its weight and ``base`` the
    gradient itself."""
    if tensor._reuse is not None:
        return tensor._reuse(_weighted_sum, base, terms, weights)
    value = sum((w * t.data for t, w in zip(terms, weights)), base.data)

    def back(g):
        for t, w in zip(reversed(terms), reversed(weights)):
            t._accum(g * w)
        base._accum(g)

    return node(value, (base, *terms), back)


def task_loss(outputs: ModelOutput, labels: np.ndarray,
              cfg: LossConfig) -> tuple[Tensor, dict[str, float]]:
    """Fused CE + weighted reasoning-head CE + weighted sum of the three
    unimodal CEs, one node over the three terms. The labels are one-hot
    encoded once for all of them."""
    mask = one_hot(np.asarray(labels), outputs.probs.data.shape[-1])
    cls = _nll(outputs.probs, mask)
    rea = _nll(softmax(outputs.rea_logits), mask)
    uni = _nll(outputs.report.unimodal, mask, block=True)
    total = _weighted_sum(cls, (rea, uni), (cfg.reasoning_weight, cfg.unimodal_weight))
    parts = {"cls": _value(cls), "rea": _value(rea), "uni": _value(uni)}
    return total, parts


def _value(t: Tensor):
    """A loss term as Python floats: one for a plain model, a list for a stack."""
    return t.data.tolist()


def _add_in_order(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The slices of ``x`` along ``axis``, 0 or -1, added first to last, as
    a chain of sums over them adds them (those along -1 are x.T's along 0)."""
    return sum(x[1:], x[0]) if axis == 0 else _add_in_order(x.T, 0).T


# diff_loss's nine products as (left, right) positions among its six inputs,
# private then shared: private-shared per modality, then private-private
# over ordered pairs of different modalities
_DIFF_PAIRS = ((0, 3), (1, 4), (2, 5), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
_DIFF_LEFT, _DIFF_RIGHT = (np.array(side) for side in zip(*_DIFF_PAIRS))


def diff_loss(shared: dict[str, Tensor], private: dict[str, Tensor]) -> Tensor:
    """Squared Frobenius norms of cross-covariance-like products between
    batch-centered private and shared matrices, plus between private
    matrices of different modalities (ordered pairs). Each term is
    normalized by (N * d_h)^2 so the scale is batch-size independent.
    One tape node over the six (..., N, d_h) feature tensors, the
    ``private`` ones then the ``shared`` ones, each in ``MODALITIES`` order;
    in a recorded graph the nine products are one batched matmul over a
    pair axis, under no_grad() one matmul per pair."""
    if tensor._reuse is not None:
        return tensor._reuse(diff_loss, shared, private)
    inputs = tuple(private[m] for m in MODALITIES) + tuple(shared[m] for m in MODALITIES)
    *lead, n, d_h = inputs[0].data.shape
    if n < 2:
        log.warning("diff_loss skipped: batch of %d is too small", n)
        return Tensor(np.zeros(lead))
    scale = 1.0 / float(n * d_h) ** 2
    arrays = [t.data for t in inputs]
    if not is_recording():
        # each input centered at its own shape and each product formed at
        # its pair's, one pair at a time: a probe round's product of two
        # (1, ...) inputs is formed once, not for each of its (M, ...) members
        centered = [a - a.sum(axis=-2, keepdims=True) / n for a in arrays]
        terms = []
        for i, j in _DIFF_PAIRS:
            prod = centered[i].swapaxes(-1, -2) @ centered[j]
            terms.append(np.multiply(prod, prod, out=prod).sum(axis=(-2, -1)) * scale)
        return Tensor(sum(terms[1:], terms[0]))
    # (6, ..., N, d), the input axis in front, a new array: centered in place
    centered = stack_slices(arrays, axis=0)
    centered -= centered.sum(axis=-2, keepdims=True) / n
    prods = centered.take(_DIFF_LEFT, 0).swapaxes(-1, -2) @ centered.take(_DIFF_RIGHT, 0)
    value = _add_in_order((prods * prods).sum(axis=(-2, -1)) * scale, axis=0)

    def back(g):
        left, right = centered.take(_DIFF_LEFT, 0), centered.take(_DIFF_RIGHT, 0)
        gp = (2.0 * scale) * g[..., None, None] * prods
        to_left, to_right = right @ gp.swapaxes(-1, -2), left @ gp
        # each input's share, added in pair order, left before right
        grads = np.zeros(centered.shape)
        for p, (i, j) in enumerate(_DIFF_PAIRS):
            grads[i] += to_left[p]
            grads[j] += to_right[p]
        grads -= grads.sum(axis=-2, keepdims=True) / n
        for t, grad in zip(inputs, grads):
            t._accum(grad)

    return node(value, inputs, back)


# sim_loss's modality pairs (text, video), (text, audio) and (video, audio),
# and its backward's slots, last pair first and each pair's left input
# before its right: the slot's input, its pair and the sign of its share
_SIM_LEFT, _SIM_RIGHT = np.array([[0, 0, 1], [1, 2, 2]])
_SIM_INPUT, _SIM_PAIR = np.array([[1, 2, 0, 2, 0, 1], [2, 2, 1, 1, 0, 0]])
_SIM_SIGN = [1.0, -1.0] * 3


def _moments(x: np.ndarray, order: int, keep: bool) -> tuple:
    """(c, powers, moments) of the (..., N, d) rows ``x``: the centered rows
    c, the mean and central moments 2 .. ``order``, each (..., 1, d), and,
    with ``keep``, the powers c**1 .. c**(order-1) the backward reads."""
    n = x.shape[-2]
    mu = x.sum(axis=-2, keepdims=True) / n
    c = power = x - mu
    powers, moments = [c] if keep else [], [mu]
    for k in range(2, order + 1):
        power = power * c
        moments.append(power.sum(axis=-2, keepdims=True) / n)
        if keep and k < order:
            powers.append(power)
    return c, powers, moments


def sim_loss(shared: dict[str, Tensor], order: int) -> Tensor:
    """Mean central moment discrepancy (CMD; Zellinger et al., ICLR 2017)
    over the modality pairs (text, video), (text, audio) and (video, audio)
    of the shared features: one tape node over the three (..., N, d)
    inputs. A pair's CMD is the norm of its mean difference plus the norms
    of the differences of its per-dimension central moments 2 .. ``order``;
    a zero difference passes no gradient. A batch of fewer than two rows
    makes it 0 with a warning.

    In a recorded graph the centered powers and moments are formed once
    per order over the inputs' (3, ..., N, d) block, under no_grad() per
    input and only the moments stacked; each order's norms are one
    ``guarded_sqrt`` over the pairs: one ``norm_floor`` record per order.
    The backward runs the pairs as separate nodes would, last pair first.
    """
    if tensor._reuse is not None:
        return tensor._reuse(sim_loss, shared, order)
    if not is_integer(order, low=1):
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    inputs = tuple(shared[m] for m in MODALITIES)
    n = inputs[0].data.shape[-2]
    if n < 2:
        log.warning("sim_loss skipped: batch of %d is too small", n)
        return Tensor(np.zeros(inputs[0].data.shape[:-2]))
    arrays = [t.data for t in inputs]
    if is_recording():
        c, powers, moments = _moments(stack_slices(arrays, axis=0), order, keep=True)
    else:
        # each input's moments at its own shape, and only the (..., 1, d)
        # moments broadcast to a probe round's (M, ...) members
        per_input = [_moments(a, order, keep=False)[2] for a in arrays]
        moments = [stack_slices(list(m), axis=0) for m in zip(*per_input)]
    # per order: the pairs' moment differences, (3, ..., 1, d), and norms,
    # (..., 3), the pair axis last as the kink records take it
    diffs = [m.take(_SIM_LEFT, 0) - m.take(_SIM_RIGHT, 0) for m in moments]
    norms = [guarded_sqrt((d * d).sum(axis=(-2, -1)).T) for d in diffs]
    value = _add_in_order(sum(norms[1:], norms[0]))
    scale = 1.0 / 3.0

    def back(g):
        # unit moment differences scaled by each pair's g, order k at index
        # k - 1, gathered per slot
        g = (g * scale)[..., None, None]
        units = []
        for d, norm in zip(diffs, norms):
            norm = norm.T[..., None, None]
            unit = np.divide(g * d, norm, out=np.zeros(d.shape), where=norm > 0)
            units.append(unit.take(_SIM_PAIR, 0))
        # d mean(c**k) / dc = k c**(k-1) / n, then through the centering
        grad_c = np.zeros(units[0].shape[:-2] + c.shape[-2:])
        for k in range(2, order + 1):
            grad_c += ((k / n) * powers[k - 2]).take(_SIM_INPUT, 0) * units[k - 1]
        grads = units[0] / n + grad_c - grad_c.sum(axis=-2, keepdims=True) / n
        for i, sign, grad in zip(_SIM_INPUT, _SIM_SIGN, grads):
            inputs[i]._accum(sign * grad)

    return node(value * scale, inputs, back)


def total_loss(outputs: ModelOutput, labels: np.ndarray,
               cfg: LossConfig) -> tuple[Tensor, dict[str, float]]:
    """Full objective; returns it and a per-component breakdown. For a
    stack's outputs, with (M, N) labels, the objective is (M,), one value
    per model, and each component a list of M floats: the task loss plus
    the weighted structural terms, one node. ``cfg`` is taken as validated:
    the trainer and the gradient checker validate it once, where it
    enters."""
    task, parts = task_loss(outputs, labels, cfg)
    diff = diff_loss(outputs.shared, outputs.private)
    sim = sim_loss(outputs.shared, cfg.moment_order)
    total = _weighted_sum(task, (diff, sim), (cfg.orthogonality_weight, cfg.alignment_weight))
    parts["diff"] = _value(diff)
    parts["sim"] = _value(sim)
    parts["total"] = _value(total)
    return total, parts
