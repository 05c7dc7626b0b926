"""Consensus pathway: residual synergy wiring and the zero-init scale."""

import numpy as np

from oracles import affine_vec, layer_norm_vec

from dualpath.fusion import Model, ModelConfig
from dualpath.intuition import IntuitionPath
from dualpath.rng import Rng
from dualpath.synthdata import MODALITIES
from dualpath.tensor import Tensor


def make_shared(rng, n, d_h):
    return {m: Tensor(rng.child(str(i)).normal(size=(n, d_h)))
            for i, m in enumerate(MODALITIES)}


def make_raw(rng, n, d):
    return tuple(Tensor(rng.child(m).normal(size=(n, d))) for m in ("t", "v", "a"))


def test_zero_context_weights_squash_to_bias_image():
    path = IntuitionPath(Rng(0, "int"), feature_dim=5, hidden_dim=4)
    path.context.weight.data[:] = 0.0
    path.context.bias.data[:] = 0.5
    text, video, audio = make_raw(Rng(1, "x"), 3, 5)
    out = path.fuse_raw(text, video, audio)
    assert np.allclose(out.data, np.tanh(0.5), atol=1e-15)


def test_fuse_raw_concat_ordering():
    """Swapping two raw inputs together with the matching weight blocks
    leaves the context projection unchanged."""
    d, d_h = 5, 4
    path = IntuitionPath(Rng(2, "int"), d, d_h)
    text, video, audio = make_raw(Rng(3, "x"), 3, d)
    base = path.fuse_raw(text, video, audio).data
    w = path.context.weight.data
    path.context.weight.data = np.concatenate(
        [w[d:2 * d], w[:d], w[2 * d:]], axis=0)
    swapped = path.fuse_raw(video, text, audio).data
    # summation order inside the matmul changes, so allow roundoff
    assert np.abs(swapped - base).max() < 1e-12


def test_zero_scale_reduces_to_normalized_context():
    d, d_h = 5, 4
    path = IntuitionPath(Rng(4, "int"), d, d_h)
    assert path.synergy_scale.data == 0.0
    text, video, audio = make_raw(Rng(5, "x"), 3, d)
    shared = make_shared(Rng(6, "f"), 3, d_h)
    out = path(text, video, audio, shared).data
    raw = path.fuse_raw(text, video, audio).data
    want = np.stack([layer_norm_vec(raw[i], path.norm.gain.data,
                                    path.norm.bias.data) for i in range(3)])
    assert np.array_equal(out, np.asarray(want))


def test_zero_scale_ignores_shared_features():
    d, d_h = 5, 4
    path = IntuitionPath(Rng(7, "int"), d, d_h)
    text, video, audio = make_raw(Rng(8, "x"), 3, d)
    a = path(text, video, audio, make_shared(Rng(9, "f"), 3, d_h)).data
    b = path(text, video, audio, make_shared(Rng(10, "f"), 3, d_h)).data
    assert np.array_equal(a, b)


def test_synergy_products_wiring():
    d_h = 4
    path = IntuitionPath(Rng(11, "int"), 5, d_h)
    ones = Tensor(np.ones((2, d_h)))
    zeros = Tensor(np.zeros((2, d_h)))
    shared = {"text": ones, "video": zeros, "audio": ones}
    # products: text*video = 0, text*audio = 1, video*audio = 0
    expected_prods = np.concatenate(
        [np.zeros((2, d_h)), np.ones((2, d_h)), np.zeros((2, d_h))], axis=1)
    got = path.synergy_vector(shared).data
    want = np.tanh(expected_prods @ path.synergy.weight.data
                   + path.synergy.bias.data)
    assert np.abs(got - want).max() < 1e-15


def test_unit_scale_with_cancelling_synergy_gives_zero_before_norm():
    d, d_h = 5, 4
    path = IntuitionPath(Rng(12, "int"), d, d_h)
    path.synergy_scale.data = np.asarray(1.0)
    text, video, audio = make_raw(Rng(13, "x"), 3, d)
    shared = make_shared(Rng(14, "f"), 3, d_h)
    raw = path.fuse_raw(text, video, audio)
    syn = path.synergy_vector(shared)
    resid = (raw + path.synergy_scale * syn).data
    cancelled = raw.data + syn.data
    assert np.array_equal(resid, cancelled)


def test_scale_gradient_is_live_at_zero():
    """A plain sum of layer_norm output is constant, so probe through a
    fixed random weighting instead."""
    d, d_h = 5, 4
    path = IntuitionPath(Rng(15, "int"), d, d_h)
    text, video, audio = make_raw(Rng(16, "x"), 3, d)
    shared = make_shared(Rng(17, "f"), 3, d_h)
    weights = Tensor(Rng(18, "w").normal(size=(3, d_h)))

    def scalar_out(scale):
        path.synergy_scale.data = np.asarray(scale)
        out = path(text, video, audio, shared)
        return float((out * weights).sum().data)

    eps = 1e-6
    fd = (scalar_out(eps) - scalar_out(-eps)) / (2 * eps)
    path.synergy_scale.data = np.asarray(0.0)
    out = path(Tensor(text.data), Tensor(video.data), Tensor(audio.data), shared)
    (out * weights).sum().backward()
    assert path.synergy_scale.grad is not None
    assert abs(float(path.synergy_scale.grad) - fd) < 1e-6
    assert abs(fd) > 1e-4


def test_private_features_do_not_enter():
    """Perturbing the private encoders leaves the pathway's output bit for
    bit; perturbing the shared ones moves it, so the probe is live."""
    model = Model(ModelConfig(feature_dim=5, hidden_dim=4, init_seed=18))
    model.intuition.synergy_scale.data = np.asarray(0.7)
    text, video, audio = (x.data for x in make_raw(Rng(19, "x"), 3, 5))
    base = model.forward_batch(text, video, audio).intuition_repr.data
    for kind, moves in (("private", False), ("shared", True)):
        saved = model.snapshot()
        for name, p in model.params().items():
            if name.startswith(f"decoupler.{kind}_"):
                p.data = p.data * 3.0 + 0.5
        got = model.forward_batch(text, video, audio).intuition_repr.data
        model.set_params(saved)
        assert np.array_equal(got, base) is not moves, kind


def test_full_pathway_matches_oracle():
    d, d_h = 6, 5
    path = IntuitionPath(Rng(21, "int"), d, d_h)
    path.synergy_scale.data = np.asarray(0.3)
    text, video, audio = make_raw(Rng(22, "x"), 4, d)
    shared = make_shared(Rng(23, "f"), 4, d_h)
    out = path(text, video, audio, shared).data
    for i in range(4):
        raw_cat = np.concatenate([text.data[i], video.data[i], audio.data[i]])
        z_raw = np.tanh(affine_vec(raw_cat, path.context))
        st = shared["text"].data[i]
        sv = shared["video"].data[i]
        sa = shared["audio"].data[i]
        prods = np.concatenate([st * sv, st * sa, sv * sa])
        z_syn = np.tanh(affine_vec(prods, path.synergy))
        want = layer_norm_vec(z_raw + 0.3 * z_syn, path.norm.gain.data,
                              path.norm.bias.data)
        assert np.abs(out[i] - want).max() < 1e-12
