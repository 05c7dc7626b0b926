"""Shared/private subspace projection.

Each modality's feature vector is passed through two small MLPs: one
producing its shared component (the part meant to align in distribution
across modalities) and one producing its private component (the part
carrying modality-unique cues). A call returns them as two dicts keyed by
modality in ``MODALITIES`` order, (shared, private): the intuition pathway
and the alignment loss read only the first, perception only the second,
and the orthogonality loss both. The encoders impose no constraint.
"""

from __future__ import annotations

import numpy as np

from dualpath.layers import Module, TanhMlp
from dualpath.rng import Rng, StackedRng
from dualpath.synthdata import MODALITIES
from dualpath.tensor import Tensor


class Decoupler(Module):
    """Six encoders (three modalities x shared/private), or four when
    ``share_weights`` reuses one shared encoder across modalities."""

    def __init__(self, rng: Rng, feature_dim: int, hidden_dim: int,
                 dropout: float = 0.0, share_weights: bool = False):
        self.dropout = float(dropout)
        self.shared_enc: dict[str, TanhMlp] = {}
        self.private_enc: dict[str, TanhMlp] = {}
        if share_weights:
            common = TanhMlp(rng.child("shared"), feature_dim, hidden_dim,
                             hidden_dim, "decoupler.shared")
            for m in MODALITIES:
                self.shared_enc[m] = common
        else:
            for m in MODALITIES:
                self.shared_enc[m] = TanhMlp(
                    rng.child(f"shared/{m}"), feature_dim, hidden_dim, hidden_dim,
                    f"decoupler.shared_{m}")
        for m in MODALITIES:
            self.private_enc[m] = TanhMlp(
                rng.child(f"private/{m}"), feature_dim, hidden_dim, hidden_dim,
                f"decoupler.private_{m}")

    def __call__(self, text: Tensor, video: Tensor, audio: Tensor,
                 train: bool = False, rng: Rng | StackedRng | None = None
                 ) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
        """(shared, private): modality -> (N, hidden_dim), or (M, N,
        hidden_dim) from a stack of M models."""
        feats = {"text": text, "video": video, "audio": audio}
        masks = self._dropout_masks(text, rng) if train and self.dropout > 0.0 else None
        shared, private = {}, {}
        for i, m in enumerate(MODALITIES):
            shared_mask, private_mask = (None, None) if masks is None else masks[2 * i:2 * i + 2]
            shared[m] = self.shared_enc[m](feats[m], shared_mask)
            private[m] = self.private_enc[m](feats[m], private_mask)
        return shared, private

    def _dropout_masks(self, x: Tensor, rng: Rng | StackedRng | None) -> np.ndarray:
        """Inverted-dropout masks of the six hidden layers, (6, ..., N,
        hidden_dim) in shared/private order per modality, drawn in one call:
        the mask of encoder ``{kind}_{m}`` comes from
        ``rng.child(f"drop/{kind}/{m}")``."""
        if rng is None:
            raise ValueError("dropout in train mode needs an rng")
        weight = self.private_enc["text"].lin1.weight.data  # (..., d_in, hidden_dim)
        shape = np.broadcast_shapes(x.data.shape[:-1], weight.shape[:-2] + (1,)) + weight.shape[-1:]
        labels = [f"drop/{kind}/{m}" for m in MODALITIES for kind in ("shared", "private")]
        keep = 1.0 - self.dropout
        return (rng.child_uniforms(labels, shape) < keep) / keep
