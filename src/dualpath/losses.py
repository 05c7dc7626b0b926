"""Training objective: task supervision plus two structural penalties.

The task term supervises the fused prediction, an auxiliary head on the
reasoning representation, and each unimodal classifier. The structural
terms shape the decoupled subspaces: an orthogonality penalty pushes
private features away from shared ones (and from each other), and a
moment-matching penalty pulls the shared features of different
modalities toward a common distribution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from dualpath.decoupler import DecoupledFeatures
from dualpath.functional import guarded_sqrt, one_hot
from dualpath.fusion import ModelOutput
from dualpath.synthdata import MODALITIES
from dualpath.tensor import Tensor, _note_kink, node

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12

COMPONENT_ORDER = ("cls", "rea", "uni", "diff", "sim", "total")


@dataclass(frozen=True)
class LossConfig:
    reasoning_weight: float = 0.1     # on the auxiliary reasoning-head CE
    unimodal_weight: float = 0.1      # on the summed unimodal CEs
    orthogonality_weight: float = 0.1
    alignment_weight: float = 0.1
    moment_order: int = 5

    def validate(self) -> None:
        for name in ("reasoning_weight", "unimodal_weight",
                     "orthogonality_weight", "alignment_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.moment_order < 1:
            raise ValueError("moment_order must be >= 1")


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of the true class, one tape node.

    Probabilities are floored at 1e-12 before the log so a confidently
    wrong prediction yields a large finite loss, never an infinity; a
    floored probability gets no gradient.
    """
    n, c = probs.data.shape
    mask = one_hot(np.asarray(labels), c)
    picked = (probs.data * mask).sum(axis=-1, keepdims=True)
    _note_kink("clamp_margin", float(np.min(np.abs(picked - PROB_FLOOR))))
    above = picked > PROB_FLOOR
    clamped = np.where(above, picked, PROB_FLOOR)

    def back(g):
        probs._accum(mask * (-g / n / clamped * above))

    return node(-(np.log(clamped).mean()), (probs,), back)


def task_loss(outputs: ModelOutput, labels: np.ndarray,
              cfg: LossConfig) -> tuple[Tensor, dict[str, float]]:
    """Fused CE + weighted reasoning-head CE + weighted unimodal CEs."""
    from dualpath.functional import softmax

    cls = cross_entropy(outputs.probs, labels)
    rea = cross_entropy(softmax(outputs.rea_logits, axis=-1), labels)
    uni = None
    for m in MODALITIES:
        term = cross_entropy(outputs.report.probs[m], labels)
        uni = term if uni is None else uni + term
    total = cls + cfg.reasoning_weight * rea + cfg.unimodal_weight * uni
    parts = {"cls": float(cls.data), "rea": float(rea.data), "uni": float(uni.data)}
    return total, parts


def diff_loss(feats: DecoupledFeatures) -> Tensor:
    """Squared Frobenius norms of cross-covariance-like products between
    batch-centered private and shared matrices, plus between private
    matrices of different modalities (ordered pairs). Each term is
    normalized by (N * d_h)^2 so the scale is batch-size independent.
    One tape node over the six feature tensors."""
    n, d_h = feats.private_text.data.shape
    if n < 2:
        log.warning("diff_loss skipped: batch of %d is too small", n)
        return Tensor(0.0)
    scale = 1.0 / float(n * d_h) ** 2
    inputs = tuple(feats.private(m) for m in MODALITIES) + tuple(
        feats.shared(m) for m in MODALITIES)
    centered = [t.data - t.data.mean(axis=0, keepdims=True) for t in inputs]
    k = len(MODALITIES)
    # (left, right) input positions: private-shared per modality, then
    # private-private over ordered pairs of different modalities
    pairs = [(i, k + i) for i in range(k)] + [
        (i, j) for i in range(k) for j in range(k) if i != j]
    prods = [centered[i].T @ centered[j] for i, j in pairs]
    terms = [(prod * prod).sum() * scale for prod in prods]

    def back(g):
        grads = [np.zeros_like(c) for c in centered]
        for (i, j), prod in zip(pairs, prods):
            gp = (2.0 * scale) * g * prod
            grads[i] += centered[j] @ gp.T
            grads[j] += centered[i] @ gp
        for t, gt in zip(inputs, grads):
            t._accum(gt - gt.mean(axis=0))

    return node(sum(terms[1:], terms[0]), inputs, back)


def cmd(a: Tensor, b: Tensor, order: int) -> Tensor:
    """Central moment discrepancy between two (N, d) batches.

    Norm of the mean difference plus norms of the differences of
    per-dimension central moments from 2 up to ``order``. Zero when the
    batches share all those moments; symmetric in its arguments. One tape
    node; a zero moment difference passes no gradient.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = a.data.shape[0]
    if n < 2 or b.data.shape[0] < 2:
        log.warning("cmd skipped: batches of %d/%d are too small",
                    n, b.data.shape[0])
        return Tensor(0.0)
    mu_a = a.data.mean(axis=0)
    mu_b = b.data.mean(axis=0)
    diffs = [mu_a - mu_b]
    ca = a.data - mu_a.reshape(1, -1)
    cb = b.data - mu_b.reshape(1, -1)
    pow_a, pow_b = ca, cb
    for _ in range(2, order + 1):
        pow_a = pow_a * ca
        pow_b = pow_b * cb
        diffs.append(pow_a.mean(axis=0) - pow_b.mean(axis=0))
    norms = [guarded_sqrt((d * d).sum()) for d in diffs]

    def back(g):
        # unit moment differences scaled by g; order k sits at index k - 1
        units = [g * d / norm if norm > 0 else np.zeros_like(d)
                 for d, norm in zip(diffs, norms)]
        for x, c, sign in ((a, ca, 1.0), (b, cb, -1.0)):
            rows = c.shape[0]
            # d mean(c**k) / dc = k c**(k-1) / rows, then through the centering
            grad_c = np.zeros_like(c)
            power = np.ones_like(c)
            for k in range(2, order + 1):
                power = power * c
                grad_c += (k / rows) * power * units[k - 1]
            x._accum(sign * (units[0] / rows + grad_c - grad_c.mean(axis=0)))

    return node(sum(norms[1:], norms[0]), (a, b), back)


def sim_loss(feats: DecoupledFeatures, order: int) -> Tensor:
    """Mean CMD over the three unordered modality pairs of shared features."""
    pairs = [("text", "video"), ("text", "audio"), ("video", "audio")]
    total = None
    for i, j in pairs:
        term = cmd(feats.shared(i), feats.shared(j), order)
        total = term if total is None else total + term
    return total * (1.0 / 3.0)


def total_loss(outputs: ModelOutput, labels: np.ndarray,
               cfg: LossConfig) -> tuple[Tensor, dict[str, float]]:
    """Full objective; returns the scalar and a per-component breakdown."""
    cfg.validate()
    task, parts = task_loss(outputs, labels, cfg)
    diff = diff_loss(outputs.features)
    sim = sim_loss(outputs.features, cfg.moment_order)
    total = task + cfg.orthogonality_weight * diff + cfg.alignment_weight * sim
    parts["diff"] = float(diff.data)
    parts["sim"] = float(sim.data)
    parts["total"] = float(total.data)
    return total, parts
