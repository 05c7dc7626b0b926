"""Consensus pathway: context projection plus gated cross-modal synergy.

Two single-layer projections feed a residual sum: one squashes the
concatenated raw modality features into a context vector, the other
squashes the concatenated pairwise products of the shared features into
a synergy vector. A learnable scalar, initialized to exactly zero,
scales the synergy term before layer normalization, so at initialization
the pathway reduces to the normalized context projection alone.
"""

from __future__ import annotations

import numpy as np

from dualpath.functional import layer_norm
from dualpath.layers import Affine, LayerNormParams
from dualpath.rng import Rng
from dualpath.synthdata import MODALITIES
from dualpath.tensor import Tensor, concat


class IntuitionPath:
    def __init__(self, rng: Rng, feature_dim: int, hidden_dim: int):
        self.context = Affine(rng.child("context"), 3 * feature_dim, hidden_dim,
                              "intuition.context")
        self.synergy = Affine(rng.child("synergy"), 3 * hidden_dim, hidden_dim,
                              "intuition.synergy")
        self.synergy_scale = Tensor(np.zeros(()))
        self.norm = LayerNormParams(hidden_dim, "intuition.norm")

    def fuse_raw(self, text: Tensor, video: Tensor, audio: Tensor) -> Tensor:
        """Squashed projection of the concatenated raw features."""
        return self.context.tanh(concat([text, video, audio], axis=-1))

    def synergy_vector(self, shared: dict[str, Tensor]) -> Tensor:
        """Squashed projection of the pairwise shared-feature products."""
        st, sv, sa = (shared[m] for m in MODALITIES)
        prods = concat([st * sv, st * sa, sv * sa], axis=-1)
        return self.synergy.tanh(prods)

    def __call__(self, text: Tensor, video: Tensor, audio: Tensor,
                 shared: dict[str, Tensor]) -> Tensor:
        z = self.fuse_raw(text, video, audio) + self.synergy_scale * self.synergy_vector(shared)
        return layer_norm(z, self.norm.gain, self.norm.bias)

    def params(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.context.params())
        out.update(self.synergy.params())
        out["intuition.synergy_scale"] = self.synergy_scale
        out.update(self.norm.params())
        return out
