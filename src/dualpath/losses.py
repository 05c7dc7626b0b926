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
from dualpath.functional import l2_norm, one_hot
from dualpath.fusion import ModelOutput
from dualpath.synthdata import MODALITIES
from dualpath.tensor import Tensor

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
    """Mean negative log-probability of the true class.

    Probabilities are floored at 1e-12 before the log so a confidently
    wrong prediction yields a large finite loss, never an infinity.
    """
    n, c = probs.data.shape
    mask = Tensor(one_hot(np.asarray(labels), c))
    picked = (probs * mask).sum(axis=-1, keepdims=True)
    return -(picked.clamp_min(PROB_FLOOR).log()).mean()


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


def _center(x: Tensor) -> Tensor:
    return x - x.mean(axis=0, keepdims=True)


def diff_loss(feats: DecoupledFeatures) -> Tensor:
    """Squared Frobenius norms of cross-covariance-like products between
    batch-centered private and shared matrices, plus between private
    matrices of different modalities (ordered pairs). Each term is
    normalized by (N * d_h)^2 so the scale is batch-size independent."""
    n, d_h = feats.private_text.data.shape
    if n < 2:
        log.warning("diff_loss skipped: batch of %d is too small", n)
        return Tensor(0.0)
    scale = 1.0 / float(n * d_h) ** 2
    private = {m: _center(feats.private(m)) for m in MODALITIES}
    shared = {m: _center(feats.shared(m)) for m in MODALITIES}
    total = None
    for m in MODALITIES:
        prod = private[m].T @ shared[m]
        term = (prod * prod).sum() * scale
        total = term if total is None else total + term
    for i in MODALITIES:
        for j in MODALITIES:
            if i == j:
                continue
            prod = private[i].T @ private[j]
            total = total + (prod * prod).sum() * scale
    return total


def cmd(a: Tensor, b: Tensor, order: int) -> Tensor:
    """Central moment discrepancy between two (N, d) batches.

    Norm of the mean difference plus norms of the differences of
    per-dimension central moments from 2 up to ``order``. Zero when the
    batches share all those moments; symmetric in its arguments.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = a.data.shape[0]
    if n < 2 or b.data.shape[0] < 2:
        log.warning("cmd skipped: batches of %d/%d are too small",
                    n, b.data.shape[0])
        return Tensor(0.0)
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    total = l2_norm(mu_a - mu_b, axis=None)
    ca = a - mu_a.reshape(1, -1)
    cb = b - mu_b.reshape(1, -1)
    pow_a, pow_b = ca, cb
    for _ in range(2, order + 1):
        pow_a = pow_a * ca
        pow_b = pow_b * cb
        total = total + l2_norm(pow_a.mean(axis=0) - pow_b.mean(axis=0), axis=None)
    return total


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
