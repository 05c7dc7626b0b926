"""Conflict perception: deviation geometry, prototype energy, statistical
calibration, per-modality trust weights, and the global gate.

The chain runs entirely on the private features. Per-sample geometry
(absolute deviation from the modality centroid, squashed into a single
difference vector) is scored against a learnable conflict prototype;
per-modality classifiers supply distributional evidence (pairwise
divergence and entropies) that calibrates the score. The gated
difference vector then drives both the trust weights over modalities
and the scalar gate that decides how much the reasoning pathway
contributes downstream.

All ops are batched: vectors per sample are rows, scalars per sample
are (N, 1) columns. A stack of models (see ``fusion.Model.stack``) puts
its model axis in front, (M, N, d) and (M, N, 1), and every op counts
axes from the end. An intermediate that no member-specific parameter has
reached yet holds one (1, ...) slice that every model shares; ops
broadcast it against (M, ...) operands, ``concat`` included.

A stage that repeats per modality is one tape node over the three: the
deviations come out concatenated, (N, 3 d_h), the classifiers' outputs as
one (3, N, C) block (the modality axis third from the end, after a stack's
model axis) and the entropies as (N, 3) columns. Every value and gradient
is the per-modality nodes' bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualpath import tensor
from dualpath.functional import cosine_rows, l2_norm, row_sum, softmax
from dualpath.layers import Affine, Module, affine_block
from dualpath.rng import Rng
from dualpath.synthdata import MODALITIES, is_integer, is_number
from dualpath.tensor import Tensor, _note_kink, concat, constant, node

REPORT_COLUMNS = (
    "semantic_energy", "js_div", *(f"entropy_{m}" for m in MODALITIES),
    "stat_bias", "conflict_energy", *(f"trust_{m}" for m in MODALITIES), "gate",
)


@dataclass
class ConflictReport:
    """Every intermediate of the perception chain for a batch, each stage
    once. Shapes are a plain model's; a stack's carry a leading model
    axis, (M, N, ...). The per-modality blocks hold the modalities in
    MODALITIES order."""

    centroid: Tensor          # (N, d_h)
    deviations: Tensor        # (N, 3 d_h), elementwise |private - centroid|
    diff_vector: Tensor       # (N, d_h)
    semantic_energy: Tensor   # (N, 1)
    unimodal: Tensor          # (3, N, C) unimodal predictions
    js_div: Tensor            # (N, 1)
    entropies: Tensor         # (N, 3), normalized to [0, 1]
    stat_bias: Tensor         # (N, 1)
    conflict_energy: Tensor   # (N, 1)
    gated_diff: Tensor        # (N, d_h)
    trust: Tensor             # (N, 3), rows on the simplex
    gate: Tensor              # (N, 1), in (0, 1)

    def rows(self) -> np.ndarray:
        """Diagnostic record per sample, (..., N, 11), columns as in
        REPORT_COLUMNS."""
        cols = [
            self.semantic_energy.data, self.js_div.data, self.entropies.data,
            self.stat_bias.data, self.conflict_energy.data,
            self.trust.data, self.gate.data,
        ]
        return np.concatenate(cols, axis=-1)


def deviations(private: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """The centroid (text + video + audio) / 3 of the private features, as
    a constant, and their elementwise absolute deviations from it
    concatenated in MODALITIES order, (..., N, 3 d_h): one tape node over
    the three, each abs recording its ``abs_signs`` kink."""
    if tensor._reuse is not None:
        return tensor._reuse(deviations, private)
    ps = tuple(private[m] for m in MODALITIES)
    c = (ps[0].data + ps[1].data + ps[2].data) * (1.0 / 3.0)
    diffs = [p.data - c for p in ps]
    for diff in diffs:
        _note_kink("abs_signs", diff)
    diff = np.concatenate(diffs, axis=-1)

    def back(g):
        # as the abs-differences' nodes, audio's first, then the centroid's
        # sums, (text + video) + audio, would run
        gs = np.split(g * np.sign(diff), 3, axis=-1)
        for i in (2, 1, 0):
            ps[i]._accum(gs[i])
        gc = (-gs[2] - gs[1] - gs[0]) * (1.0 / 3.0)
        for i in (2, 0, 1):
            ps[i]._accum(gc)

    return constant(c), node(np.abs(diff), ps, back)


def _safe_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(p) where p > 0 and exactly 0 where p == 0, with the mask p > 0.
    Terms with p == 0 follow the 0*log(0) = 0 convention and pass no
    gradient through the log."""
    positive = p > 0
    return np.log(np.where(positive, p, 1.0)), positive


def js_divergence(probs: Tensor) -> Tensor:
    """Mean KL of each of the three distributions in a (..., 3, N, C)
    block to their average, (..., N, 1) per sample, one tape node.

    Zero probabilities follow the 0*log(0) = 0 convention; the average
    is zero only where all three inputs are, and those terms vanish.
    Bounded above by ln 3.
    """
    if tensor._reuse is not None:
        return tensor._reuse(js_divergence, probs)
    p = probs.data
    avg = (p[..., 0, :, :] + p[..., 1, :, :] + p[..., 2, :, :]) * (1.0 / 3.0)
    log_avg, avg_positive = _safe_log(avg)
    log_p, positive = _safe_log(p)
    gap = log_p - log_avg[..., None, :, :]
    kl = row_sum(p * gap)

    def back(g):
        # d/dp_m: log p_m - log avg, plus 1 from p_m's own log and minus 1
        # from the average's log, each only where that log is taken
        g = (g * (1.0 / 3.0))[..., None, :, :]
        probs._accum(g * (gap - (avg_positive[..., None, :, :] > positive)))

    total = kl[..., 0, :, :] + kl[..., 1, :, :] + kl[..., 2, :, :]
    return node(total * (1.0 / 3.0), (probs,), back)


def normalized_entropy(p: Tensor, num_classes: int) -> Tensor:
    """Shannon entropy of each row of each distribution in a (..., K, N, C)
    block, scaled to [0, 1] by ln C: one (..., N, K) column per
    distribution, one tape node. Zero probabilities contribute 0 and take
    no gradient from their log."""
    if tensor._reuse is not None:
        return tensor._reuse(normalized_entropy, p, num_classes)
    if not is_integer(num_classes, low=2):
        raise ValueError(f"normalized_entropy needs num_classes an integer >= 2, "
                         f"got {num_classes!r}")
    scale = 1.0 / np.log(num_classes)
    log_p, positive = _safe_log(p.data)

    def back(g):
        g = g.swapaxes(-1, -2)[..., None]
        p._accum(-(g * scale) * (log_p + positive))

    h = -row_sum(p.data * log_p) * scale
    return node(np.ascontiguousarray(h[..., 0].swapaxes(-1, -2)), (p,), back)


class Perception(Module):
    def __init__(self, rng: Rng, hidden_dim: int, num_classes: int,
                 temperature: float = 1.0):
        if not is_number(temperature, "(0, inf)"):
            raise ValueError(f"temperature must be a finite number > 0, got {temperature!r}")
        self.name = "perception"
        self.num_classes = num_classes
        self.temperature = float(temperature)
        self.diff_proj = Affine(rng.child("diff_proj"), 3 * hidden_dim, hidden_dim,
                                "perception.diff_proj")
        # small but nonzero initial energy
        self.prototype = Tensor(rng.child("prototype").normal(
            scale=np.sqrt(1.0 / hidden_dim), size=hidden_dim))
        self.classifiers = {
            m: Affine(rng.child(f"classifier/{m}"), hidden_dim, num_classes,
                      f"perception.classifier_{m}")
            for m in MODALITIES
        }
        self.stat_weight = Tensor(rng.child("stat").normal(scale=0.1, size=4))
        self.stat_bias = Tensor(np.zeros(()))
        self.unc_lift = Affine(rng.child("unc_lift"), 3, hidden_dim,
                               "perception.unc_lift")
        self.trust_in = Affine(rng.child("trust_in"), hidden_dim, hidden_dim,
                               "perception.trust_in")
        self.trust_out = Affine(rng.child("trust_out"), hidden_dim, 3,
                                "perception.trust_out")
        self.div_gate = Affine(rng.child("div_gate"), 1, 1, "perception.div_gate")
        # positive prior: more disagreement between the unimodal predictions
        # should open the gate, not close it; training can still reverse this
        self.div_gate.weight.data = np.ones((1, 1))
        self.div_gate.bias.data = np.zeros(1)

    # -- individual stages, exposed for tests ---------------------------

    def difference_vector(self, devs: Tensor) -> Tensor:
        return self.diff_proj.tanh(devs)

    def semantic_energy(self, diff_vector: Tensor) -> Tensor:
        return cosine_rows(diff_vector, self.prototype) * self.temperature

    def unimodal_predict(self, private: dict[str, Tensor]) -> Tensor:
        """The three classifiers' predictions as one (..., 3, N, C) block."""
        return softmax(affine_block([private[m] for m in MODALITIES],
                                    [self.classifiers[m] for m in MODALITIES]))

    def statistical_bias(self, js_div: Tensor, entropies: Tensor) -> Tensor:
        stats = concat([js_div, entropies], axis=-1)
        # the (4,) weight, or a stack's (M, 1, 4) rows, as (..., 4, 1) columns
        weight = self.stat_weight.reshape(*self.stat_weight.data.shape[:-2], 4, 1)
        return stats @ weight + self.stat_bias

    def conflict_vector(self, semantic_energy: Tensor, stat_bias: Tensor,
                        diff_vector: Tensor) -> tuple[Tensor, Tensor]:
        energy = semantic_energy + stat_bias
        return energy, energy.sigmoid() * diff_vector

    def reliability_weights(self, gated_diff: Tensor, entropies: Tensor) -> Tensor:
        logits = self.trust_out(self.trust_in.tanh(gated_diff + self.unc_lift(entropies)))
        return softmax(logits)

    def gating_factor(self, gated_diff: Tensor, js_div: Tensor) -> Tensor:
        strength = l2_norm(gated_diff).tanh()
        return (strength + self.div_gate(js_div)).sigmoid()

    # -- full chain -------------------------------------------------------

    def __call__(self, private: dict[str, Tensor]) -> ConflictReport:
        centroid, devs = deviations(private)
        diff_vector = self.difference_vector(devs)
        sem = self.semantic_energy(diff_vector)
        probs = self.unimodal_predict(private)
        js = js_divergence(probs)
        ents = normalized_entropy(probs, self.num_classes)  # (..., N, 3)
        bias = self.statistical_bias(js, ents)
        energy, gated = self.conflict_vector(sem, bias, diff_vector)
        trust = self.reliability_weights(gated, ents)
        gate = self.gating_factor(gated, js)
        return ConflictReport(
            centroid=centroid, deviations=devs, diff_vector=diff_vector,
            semantic_energy=sem, unimodal=probs, js_div=js, entropies=ents,
            stat_bias=bias, conflict_energy=energy, gated_diff=gated,
            trust=trust, gate=gate,
        )
