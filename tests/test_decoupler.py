"""Shared/private projection: exactness cases, oracle match, weight sharing."""

import numpy as np
import pytest

from oracles import mlp_vec

from dualpath.decoupler import Decoupler
from dualpath.fusion import Model, ModelConfig
from dualpath.rng import Rng, StackedRng
from dualpath.synthdata import MODALITIES
from dualpath.tensor import Tensor


def make_inputs(rng, n, d):
    return tuple(Tensor(rng.child(m).normal(size=(n, d))) for m in MODALITIES)


def test_zero_weights_give_bias_image():
    dec = Decoupler(Rng(0, "dec"), feature_dim=6, hidden_dim=5)
    for enc in list(dec.shared_enc.values()) + list(dec.private_enc.values()):
        enc.lin1.weight.data[:] = 0.0
        enc.lin2.weight.data[:] = 0.0
        enc.lin2.bias.data[:] = 1.5
    text, video, audio = make_inputs(Rng(1, "x"), 4, 6)
    feats = dec(text, video, audio)
    for m in MODALITIES:
        assert np.array_equal(feats.shared(m).data, np.full((4, 5), 1.5))
        assert np.array_equal(feats.private(m).data, np.full((4, 5), 1.5))


def test_matches_straight_line_oracle():
    dec = Decoupler(Rng(3, "dec"), feature_dim=7, hidden_dim=5)
    x = Rng(4, "x").normal(size=(6, 7))
    feats = dec(Tensor(x), Tensor(x), Tensor(x))
    for m in MODALITIES:
        for i in range(6):
            want_s = mlp_vec(x[i], dec.shared_enc[m])
            want_p = mlp_vec(x[i], dec.private_enc[m])
            assert np.abs(feats.shared(m).data[i] - want_s).max() < 1e-12
            assert np.abs(feats.private(m).data[i] - want_p).max() < 1e-12


def test_output_respects_lipschitz_bound():
    dec = Decoupler(Rng(5, "dec"), feature_dim=8, hidden_dim=6)
    enc = dec.shared_enc["video"]
    lip = (np.linalg.norm(enc.lin1.weight.data, 2)
           * np.linalg.norm(enc.lin2.weight.data, 2))
    rng = Rng(6, "probe")
    for i in range(50):
        x = rng.child("x", i).normal(size=(1, 8))
        delta = rng.child("d", i).normal(size=(1, 8)) * 0.1
        a = enc(Tensor(x)).data
        b = enc(Tensor(x + delta)).data
        assert np.linalg.norm(b - a) <= lip * np.linalg.norm(delta) + 1e-12


def test_share_weights_reuses_one_shared_encoder():
    dec = Decoupler(Rng(7, "dec"), feature_dim=6, hidden_dim=5, share_weights=True)
    assert dec.shared_enc["text"] is dec.shared_enc["video"]
    assert dec.shared_enc["video"] is dec.shared_enc["audio"]
    x = Tensor(Rng(8, "x").normal(size=(2, 6)))
    feats = dec(x, x, x)
    assert np.array_equal(feats.shared_text.data, feats.shared_video.data)
    assert np.array_equal(feats.shared_text.data, feats.shared_audio.data)
    # one shared MLP (4 tensors) plus three private MLPs (12 tensors)
    assert len(dec.params()) == 16


def test_separate_encoders_have_full_param_set():
    dec = Decoupler(Rng(9, "dec"), feature_dim=6, hidden_dim=5)
    assert len(dec.params()) == 24
    x = Tensor(Rng(10, "x").normal(size=(2, 6)))
    feats = dec(x, x, x)
    assert not np.array_equal(feats.shared_text.data, feats.shared_video.data)


def test_dropout_train_mode_requires_rng():
    dec = Decoupler(Rng(11, "dec"), feature_dim=6, hidden_dim=5, dropout=0.5)
    text, video, audio = make_inputs(Rng(12, "x"), 2, 6)
    with pytest.raises(ValueError):
        dec(text, video, audio, train=True, rng=None)


def test_dropout_off_in_eval_mode_is_deterministic():
    dec = Decoupler(Rng(13, "dec"), feature_dim=6, hidden_dim=5, dropout=0.5)
    text, video, audio = make_inputs(Rng(14, "x"), 3, 6)
    a = dec(text, video, audio, train=False)
    b = dec(text, video, audio, train=False)
    for m in MODALITIES:
        assert np.array_equal(a.shared(m).data, b.shared(m).data)
        assert np.array_equal(a.private(m).data, b.private(m).data)


def test_dropout_train_mode_is_seeded():
    dec = Decoupler(Rng(15, "dec"), feature_dim=6, hidden_dim=5, dropout=0.5)
    text, video, audio = make_inputs(Rng(16, "x"), 3, 6)
    a = dec(text, video, audio, train=True, rng=Rng(17, "drop"))
    b = dec(text, video, audio, train=True, rng=Rng(17, "drop"))
    c = dec(text, video, audio, train=True, rng=Rng(18, "drop"))
    assert np.array_equal(a.shared_text.data, b.shared_text.data)
    assert not np.array_equal(a.shared_text.data, c.shared_text.data)


class NoDraws:
    """An rng that fails any draw."""

    def child_uniforms(self, labels, size):
        raise AssertionError("drew dropout masks")


def test_zero_dropout_draws_nothing_in_train_mode():
    dec = Decoupler(Rng(19, "dec"), feature_dim=6, hidden_dim=5, dropout=0.0)
    text, video, audio = make_inputs(Rng(20, "x"), 3, 6)
    a = dec(text, video, audio, train=True, rng=NoDraws())
    b = dec(text, video, audio, train=False)
    for m in MODALITIES:
        assert np.array_equal(a.shared(m).data, b.shared(m).data)
        assert np.array_equal(a.private(m).data, b.private(m).data)


def masked_features(dec, inputs, drop):
    """Each encoder's output under the mask drawn from its own labeled
    stream: ``drop(label, shape)`` is that stream's uniform draw."""
    keep = 1.0 - dec.dropout
    out = {}
    for m, x in zip(MODALITIES, inputs):
        for kind, enc in (("shared", dec.shared_enc[m]), ("private", dec.private_enc[m])):
            h = enc.lin1.tanh(x)
            mask = (drop(f"drop/{kind}/{m}", h.data.shape) < keep) / keep
            out[f"{kind}_{m}"] = enc.lin2(h * Tensor(mask)).data
    return out


@pytest.mark.parametrize("step", [3, 70, 512, 4096, 65536])
@pytest.mark.parametrize("share", [False, True])
def test_one_draw_of_six_masks_equals_per_label_streams(step, share):
    dec = Decoupler(Rng(21, "dec"), feature_dim=6, hidden_dim=5, dropout=0.3,
                    share_weights=share)
    inputs = make_inputs(Rng(22, "x"), 4, 6)
    rng = Rng(23, "train").child("dropout", step)
    feats = dec(*inputs, train=True, rng=rng)
    want = masked_features(dec, inputs,
                           lambda label, shape: rng.child(label).uniform(size=shape))
    for name, value in want.items():
        assert np.array_equal(getattr(feats, name).data, value), name


def test_stacked_masks_equal_each_models_streams():
    models = [Model(ModelConfig(feature_dim=6, hidden_dim=5, init_seed=s)) for s in (0, 1, 2)]
    stack = Model.stack(models)
    seeds = [4, 9, 4]
    inputs = [Tensor(Rng(24, m).normal(size=(3, 2, 6))) for m in MODALITIES]
    feats = stack.decoupler(*inputs, train=True,
                            rng=StackedRng(seeds, "train").child("dropout", 12))
    for i, (model, seed) in enumerate(zip(models, seeds)):
        rng = Rng(seed, "train").child("dropout", 12)
        want = masked_features(model.decoupler, [Tensor(x.data[i]) for x in inputs],
                               lambda label, shape: rng.child(label).uniform(size=shape))
        for name, value in want.items():
            assert np.array_equal(getattr(feats, name).data[i], value), (i, name)
