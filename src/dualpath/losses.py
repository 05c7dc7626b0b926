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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from dualpath.functional import guarded_sqrt, one_hot, softmax
from dualpath.fusion import ModelOutput
from dualpath.synthdata import MODALITIES, require_integers
from dualpath.tensor import Tensor, _note_kink, is_recording, node

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12

COMPONENT_ORDER = ("cls", "rea", "uni", "diff", "sim", "total")

WEIGHTS = ("reasoning_weight", "unimodal_weight", "orthogonality_weight",
           "alignment_weight")


@dataclass(frozen=True)
class LossConfig:
    """Term weights (floats, or (M,) arrays for a stack) and the CMD order."""

    reasoning_weight: float = 0.1     # on the auxiliary reasoning-head CE
    unimodal_weight: float = 0.1      # on the summed unimodal CEs
    orthogonality_weight: float = 0.1
    alignment_weight: float = 0.1
    moment_order: int = 5

    def validate(self) -> None:
        for name in WEIGHTS:
            weight = np.asarray(getattr(self, name))
            if not np.all(np.isfinite(weight) & (weight >= 0)):
                raise ValueError(f"{name} must be finite and >= 0")
        require_integers(self, "moment_order")
        if self.moment_order < 1:
            raise ValueError("moment_order must be >= 1")


def stack_loss_configs(cfgs: list[LossConfig]) -> LossConfig:
    """One config for a stack: each weight an (M,) vector of the members'
    weights. A weight of 0.0 multiplies its term exactly as a member's own
    config does. The moment order shapes the graph, so it must agree."""
    if len({c.moment_order for c in cfgs}) != 1:
        raise ValueError("stacked loss configs must share moment_order")
    return LossConfig(**{name: np.array([getattr(c, name) for c in cfgs])
                         for name in WEIGHTS}, moment_order=cfgs[0].moment_order)


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the true class over the rows of
    (..., N, C) probabilities with (..., N) labels: a scalar for a plain
    batch, (M,) for a stack's. One tape node.

    Probabilities are floored at 1e-12 before the log so a confidently
    wrong prediction yields a large finite loss, never an infinity; a
    floored probability gets no gradient. A NaN probability is not
    floored: it makes the loss NaN.
    """
    n, c = probs.data.shape[-2:]
    mask = one_hot(np.asarray(labels), c)
    picked = (probs.data * mask).sum(axis=-1, keepdims=True)
    _note_kink("clamp_margin", picked, PROB_FLOOR)
    above = ~(picked <= PROB_FLOOR)
    clamped = np.where(above, picked, PROB_FLOOR)

    def back(g):
        probs._accum(mask * (-g[..., None, None] / n / clamped * above))

    return node(-(np.log(clamped).sum(axis=(-2, -1)) / n), (probs,), back)


def task_loss(outputs: ModelOutput, labels: np.ndarray,
              cfg: LossConfig) -> tuple[Tensor, dict[str, float]]:
    """Fused CE + weighted reasoning-head CE + weighted unimodal CEs."""
    cls = cross_entropy(outputs.probs, labels)
    rea = cross_entropy(softmax(outputs.rea_logits), labels)
    uni = None
    for m in MODALITIES:
        term = cross_entropy(outputs.report.probs[m], labels)
        uni = term if uni is None else uni + term
    total = cls + cfg.reasoning_weight * rea + cfg.unimodal_weight * uni
    parts = {"cls": _value(cls), "rea": _value(rea), "uni": _value(uni)}
    return total, parts


def _value(t: Tensor):
    """A loss term as Python floats: one for a plain model, a list for a stack."""
    return t.data.tolist()


def diff_loss(shared: dict[str, Tensor], private: dict[str, Tensor]) -> Tensor:
    """Squared Frobenius norms of cross-covariance-like products between
    batch-centered private and shared matrices, plus between private
    matrices of different modalities (ordered pairs). Each term is
    normalized by (N * d_h)^2 so the scale is batch-size independent.
    One tape node over the six (..., N, d_h) feature tensors, the
    ``private`` ones then the ``shared`` ones, each in ``MODALITIES`` order."""
    inputs = tuple(private[m] for m in MODALITIES) + tuple(shared[m] for m in MODALITIES)
    *lead, n, d_h = inputs[0].data.shape
    if n < 2:
        log.warning("diff_loss skipped: batch of %d is too small", n)
        return Tensor(np.zeros(lead))
    scale = 1.0 / float(n * d_h) ** 2
    centered = [t.data - t.data.sum(axis=-2, keepdims=True) / n for t in inputs]
    k = len(MODALITIES)
    # (left, right) input positions: private-shared per modality, then
    # private-private over ordered pairs of different modalities
    pairs = [(i, k + i) for i in range(k)] + [
        (i, j) for i in range(k) for j in range(k) if i != j]
    # Each product is reduced to its term as it is made; it is kept only
    # for the backward, so under no_grad() at most one is alive.
    keep = is_recording()
    prods, value = [], None
    for i, j in pairs:
        prod = centered[i].swapaxes(-1, -2) @ centered[j]
        term = (prod * prod).sum(axis=(-2, -1)) * scale
        value = term if value is None else value + term
        if keep:
            prods.append(prod)

    def back(g):
        # every input's gradient takes the output's leading axes, which a
        # (1, ...) input beside (M, ...) ones lacks; _accum sums them away
        grads = [np.zeros(g.shape + c.shape[-2:]) for c in centered]
        g = g[..., None, None]
        for (i, j), prod in zip(pairs, prods):
            gp = (2.0 * scale) * g * prod
            grads[i] += centered[j] @ gp.swapaxes(-1, -2)
            grads[j] += centered[i] @ gp
        for t, gt in zip(inputs, grads):
            t._accum(gt - gt.sum(axis=-2, keepdims=True) / n)

    return node(value, inputs, back)


def cmd(a: Tensor, b: Tensor, order: int) -> Tensor:
    """Central moment discrepancy between two (..., N, d) batches (Zellinger
    et al., ICLR 2017); the batches may differ in N.

    Norm of the mean difference plus norms of the differences of
    per-dimension central moments from 2 up to ``order``. Zero when the
    batches share all those moments; symmetric in its arguments. One tape
    node; a zero moment difference passes no gradient. A batch of fewer
    than two rows makes it 0 with a warning.
    """
    return _moment_match((a, b), ((0, 1),), order, 1.0)


# The unordered modality pairs of sim_loss, by position in MODALITIES.
_SIM_PAIRS = ((0, 1), (0, 2), (1, 2))


def sim_loss(shared: dict[str, Tensor], order: int) -> Tensor:
    """Mean CMD over the three unordered modality pairs of the shared
    features ``shared`` maps each modality to, (text, video), (text, audio)
    and (video, audio): one tape node over the three, in ``MODALITIES``
    order, whose value and gradients are those of three ``cmd`` calls
    summed in that order and scaled by 1/3, bit for bit."""
    return _moment_match(tuple(shared[m] for m in MODALITIES), _SIM_PAIRS,
                         order, 1.0 / 3.0)


def _moment_match(inputs: tuple[Tensor, ...], pairs: tuple[tuple[int, int], ...],
                  order: int, scale: float) -> Tensor:
    """``scale`` times the sum of ``cmd(inputs[i], inputs[j], order)`` over
    ``pairs`` (i, j), added in pair order, as one tape node.

    Each input's centered powers and moments are formed once, however many
    pairs it joins, and each order's norms are one ``guarded_sqrt`` over
    the pairs, so a kink watch gets one ``norm_floor`` record per order:
    the smallest norm of that order over the pairs. The backward runs the
    pairs as separate nodes would, last pair first and each pair's left
    input before its right, and reuses the forward's powers.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    rows = [x.data.shape[-2] for x in inputs]
    if min(rows) < 2:
        log.warning("cmd skipped: batches of %s are too small", "/".join(map(str, rows)))
        return Tensor(np.zeros(inputs[0].data.shape[:-2]))
    # per input: the mean and central moments 2 .. order, each (..., 1, d)
    # (a kept axis where the rows were), and the powers c**1 .. c**(order-1)
    # of the centered rows c, kept for the backward only
    keep = is_recording()
    powers, moments = [], []
    for x, n in zip(inputs, rows):
        mu = x.data.sum(axis=-2, keepdims=True) / n
        c = power = x.data - mu
        pw, ms = [c] if keep else [], [mu]
        for k in range(2, order + 1):
            power = power * c
            ms.append(power.sum(axis=-2, keepdims=True) / n)
            if keep and k < order:
                pw.append(power)
        powers.append(pw)
        moments.append(ms)
    # per order: the pairs' moment differences, (..., P, 1, d), and norms, (..., P)
    diffs = []
    for k in range(order):
        diff = [moments[i][k] - moments[j][k] for i, j in pairs]
        if len({d.shape for d in diff}) > 1:  # (1, ...) pairs beside (M, ...) ones
            diff = np.broadcast_arrays(*diff)
        diffs.append(np.stack(diff, axis=-3))
    norms = [guarded_sqrt((d * d).sum(axis=(-2, -1))) for d in diffs]
    per_pair = sum(norms[1:], norms[0])
    value = per_pair[..., 0]
    for p in range(1, len(pairs)):
        value = value + per_pair[..., p]

    def back(g):
        # unit moment differences scaled by each pair's g; order k sits at index k - 1
        g = (g * scale)[..., None, None, None]
        units = []
        for d, norm in zip(diffs, norms):
            norm = norm[..., None, None]
            units.append(np.divide(g * d, norm, out=np.zeros_like(d), where=norm > 0))
        lead = units[0].shape[:-3]  # the output's, which a (1, ...) input may lack
        for p in reversed(range(len(pairs))):
            for i, sign in zip(pairs[p], (1.0, -1.0)):
                pw, n = powers[i], rows[i]
                # d mean(c**k) / dc = k c**(k-1) / n, then through the centering
                grad_c = np.zeros(lead + pw[0].shape[-2:])
                for k in range(2, order + 1):
                    grad_c += (k / n) * pw[k - 2] * units[k - 1][..., p, :, :]
                inputs[i]._accum(sign * (units[0][..., p, :, :] / n + grad_c
                                         - grad_c.sum(axis=-2, keepdims=True) / n))

    return node(value * scale, inputs, back)


def total_loss(outputs: ModelOutput, labels: np.ndarray,
               cfg: LossConfig) -> tuple[Tensor, dict[str, float]]:
    """Full objective; returns it and a per-component breakdown. For a
    stack's outputs, with (M, N) labels, the objective is (M,), one value
    per model, and each component a list of M floats."""
    cfg.validate()
    task, parts = task_loss(outputs, labels, cfg)
    diff = diff_loss(outputs.shared, outputs.private)
    sim = sim_loss(outputs.shared, cfg.moment_order)
    total = task + cfg.orthogonality_weight * diff + cfg.alignment_weight * sim
    parts["diff"] = _value(diff)
    parts["sim"] = _value(sim)
    parts["total"] = _value(total)
    return total, parts
