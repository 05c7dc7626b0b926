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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualpath.functional import cosine_rows, l2_norm, row_sum, softmax
from dualpath.layers import Affine
from dualpath.rng import Rng
from dualpath.synthdata import MODALITIES
from dualpath.tensor import Tensor, concat, node

REPORT_COLUMNS = (
    "semantic_energy", "js_div", *(f"entropy_{m}" for m in MODALITIES),
    "stat_bias", "conflict_energy", *(f"trust_{m}" for m in MODALITIES), "gate",
)


@dataclass
class ConflictReport:
    """Every intermediate of the perception chain for a batch. Shapes are
    a plain model's; a stack's carry a leading model axis, (M, N, ...)."""

    centroid: Tensor          # (N, d_h)
    deviations: dict          # modality -> (N, d_h), elementwise |private - centroid|
    diff_vector: Tensor       # (N, d_h)
    semantic_energy: Tensor   # (N, 1)
    probs: dict               # modality -> (N, C) unimodal predictions
    js_div: Tensor            # (N, 1)
    entropies: dict           # modality -> (N, 1), normalized to [0, 1]
    stat_bias: Tensor         # (N, 1)
    conflict_energy: Tensor   # (N, 1)
    gated_diff: Tensor        # (N, d_h)
    trust: Tensor             # (N, 3), rows on the simplex
    gate: Tensor              # (N, 1), in (0, 1)

    def rows(self) -> np.ndarray:
        """Diagnostic record per sample, (..., N, 11), columns as in
        REPORT_COLUMNS."""
        cols = [
            self.semantic_energy.data, self.js_div.data,
            *(self.entropies[m].data for m in MODALITIES),
            self.stat_bias.data, self.conflict_energy.data,
            self.trust.data, self.gate.data,
        ]
        return np.concatenate(cols, axis=-1)


def deviations(private: dict[str, Tensor]) -> tuple[Tensor, dict[str, Tensor]]:
    """Centroid of the three private features and each one's elementwise
    absolute deviation from it."""
    c = (private["text"] + private["video"] + private["audio"]) * (1.0 / 3.0)
    devs = {m: (private[m] - c).abs() for m in MODALITIES}
    return c, devs


def _safe_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(p) where p > 0 and exactly 0 where p == 0, with the mask p > 0.
    Terms with p == 0 follow the 0*log(0) = 0 convention and pass no
    gradient through the log."""
    positive = p > 0
    return np.log(np.where(positive, p, 1.0)), positive


def js_divergence(probs: dict[str, Tensor]) -> Tensor:
    """Mean KL of each distribution to their average, (N, 1) per sample,
    one tape node.

    Zero probabilities follow the 0*log(0) = 0 convention; the average
    is zero only where all three inputs are, and those terms vanish.
    Bounded above by ln 3.
    """
    ps = tuple(probs[m] for m in MODALITIES)
    avg = (ps[0].data + ps[1].data + ps[2].data) * (1.0 / 3.0)
    log_avg, avg_positive = _safe_log(avg)
    gaps, masks = [], []
    total = None
    for p in ps:
        log_p, positive = _safe_log(p.data)
        gap = log_p - log_avg
        kl = row_sum(p.data * gap)
        total = kl if total is None else total + kl
        gaps.append(gap)
        masks.append(positive)

    def back(g):
        # d/dp_m: log p_m - log avg, plus 1 from p_m's own log and minus 1
        # from the average's log, each only where that log is taken
        g = g * (1.0 / 3.0)
        for p, gap, positive in zip(ps, gaps, masks):
            p._accum(g * (gap - (avg_positive > positive)))

    return node(total * (1.0 / 3.0), ps, back)


def normalized_entropy(p: Tensor, num_classes: int) -> Tensor:
    """Shannon entropy scaled to [0, 1] by ln C, (N, 1) per sample, one
    tape node. Zero probabilities contribute 0 and take no gradient from
    their log."""
    if num_classes < 2:
        raise ValueError("normalized_entropy needs at least 2 classes")
    scale = 1.0 / np.log(num_classes)
    log_p, positive = _safe_log(p.data)

    def back(g):
        p._accum(-(g * scale) * (log_p + positive))

    return node(-row_sum(p.data * log_p) * scale, (p,), back)


class Perception:
    def __init__(self, rng: Rng, hidden_dim: int, num_classes: int,
                 temperature: float = 1.0):
        if temperature <= 0:
            raise ValueError("temperature must be > 0")
        self.hidden_dim = hidden_dim
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

    def difference_vector(self, devs: dict[str, Tensor]) -> Tensor:
        cat = concat([devs[m] for m in MODALITIES], axis=-1)
        return self.diff_proj.tanh(cat)

    def semantic_energy(self, diff_vector: Tensor) -> Tensor:
        return cosine_rows(diff_vector, self.prototype) * self.temperature

    def unimodal_predict(self, private: Tensor, modality: str) -> Tensor:
        return softmax(self.classifiers[modality](private))

    def statistical_bias(self, js_div: Tensor, entropies: dict[str, Tensor]) -> Tensor:
        stats = concat([js_div] + [entropies[m] for m in MODALITIES], axis=-1)
        weight = self.stat_weight  # a stack holds it as (M, 4, 1) columns already
        if weight.data.ndim == 1:
            weight = weight.reshape(4, 1)
        return stats @ weight + self.stat_bias

    def conflict_vector(self, semantic_energy: Tensor, stat_bias: Tensor,
                        diff_vector: Tensor) -> tuple[Tensor, Tensor]:
        energy = semantic_energy + stat_bias
        return energy, energy.sigmoid() * diff_vector

    def reliability_weights(self, gated_diff: Tensor,
                            entropies: dict[str, Tensor]) -> Tensor:
        unc = concat([entropies[m] for m in MODALITIES], axis=-1)
        logits = self.trust_out(self.trust_in.tanh(gated_diff + self.unc_lift(unc)))
        return softmax(logits)

    def gating_factor(self, gated_diff: Tensor, js_div: Tensor) -> Tensor:
        strength = l2_norm(gated_diff).tanh()
        return (strength + self.div_gate(js_div)).sigmoid()

    # -- full chain -------------------------------------------------------

    def __call__(self, private: dict[str, Tensor]) -> ConflictReport:
        centroid, devs = deviations(private)
        diff_vector = self.difference_vector(devs)
        sem = self.semantic_energy(diff_vector)
        probs = {m: self.unimodal_predict(private[m], m) for m in MODALITIES}
        js = js_divergence(probs)
        ents = {m: normalized_entropy(probs[m], self.num_classes) for m in MODALITIES}
        bias = self.statistical_bias(js, ents)
        energy, gated = self.conflict_vector(sem, bias, diff_vector)
        trust = self.reliability_weights(gated, ents)
        gate = self.gating_factor(gated, js)
        return ConflictReport(
            centroid=centroid, deviations=devs, diff_vector=diff_vector,
            semantic_energy=sem, probs=probs, js_div=js, entropies=ents,
            stat_bias=bias, conflict_energy=energy, gated_diff=gated,
            trust=trust, gate=gate,
        )

    def params(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.diff_proj.params())
        out["perception.prototype"] = self.prototype
        for m in MODALITIES:
            out.update(self.classifiers[m].params())
        out["perception.stat_weight"] = self.stat_weight
        out["perception.stat_bias"] = self.stat_bias
        out.update(self.unc_lift.params())
        out.update(self.trust_in.params())
        out.update(self.trust_out.params())
        out.update(self.div_gate.params())
        return out
