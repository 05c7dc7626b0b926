"""Model assembly: pathway mixing, gate overrides, checkpoint format."""

import numpy as np
import pytest

from dualpath.fusion import (Model, ModelConfig, final_fuse,
                             load_checkpoint, reasoning_aggregate,
                             save_checkpoint)
from dualpath.rng import Rng
from dualpath.synthdata import DatasetConfig, MODALITIES, generate
from dualpath.tensor import Tensor

CFG = ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6, init_seed=1)
DATA_CFG = DatasetConfig(num_classes=3, feature_dim=8, n_train=20, n_val=10,
                         n_test=10, seed=11)


@pytest.fixture(scope="module")
def batch():
    train = generate(DATA_CFG)[0]
    return train.text[:5], train.video[:5], train.audio[:5]


def make_private(rng, n, d_h):
    return {m: Tensor(rng.child(m).normal(size=(n, d_h))) for m in MODALITIES}


class TestReasoningAggregate:
    def test_degenerate_trust_selects_one_modality(self):
        private = make_private(Rng(0, "p"), 4, 6)
        trust = Tensor(np.tile([1.0, 0.0, 0.0], (4, 1)))
        out = reasoning_aggregate(trust, private)
        assert np.array_equal(out.data, private["text"].data)

    def test_uniform_trust_over_equal_features(self):
        x = Tensor(np.full((3, 5), 2.0))
        trust = Tensor(np.full((3, 3), 1.0 / 3.0))
        out = reasoning_aggregate(trust, {m: x for m in MODALITIES})
        assert np.abs(out.data - 2.0).max() < 1e-15

    def test_hand_weighted_sum(self):
        private = {
            "text": Tensor(np.array([[1.0, 0.0]])),
            "video": Tensor(np.array([[0.0, 1.0]])),
            "audio": Tensor(np.array([[1.0, 1.0]])),
        }
        trust = Tensor(np.array([[0.5, 0.3, 0.2]]))
        out = reasoning_aggregate(trust, private).data
        assert np.abs(out - np.array([[0.7, 0.5]])).max() < 1e-15

    def test_rows_weighted_independently(self):
        private = make_private(Rng(1, "p"), 2, 4)
        trust = Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        out = reasoning_aggregate(trust, private).data
        assert np.array_equal(out[0], private["text"].data[0])
        assert np.array_equal(out[1], private["audio"].data[1])


class TestFinalFuse:
    def test_near_zero_gate_keeps_consensus(self):
        a = Tensor(Rng(2, "a").normal(size=(3, 5)))
        b = Tensor(Rng(2, "b").normal(size=(3, 5)))
        out = final_fuse(a, b, Tensor(np.full((3, 1), 1e-12)))
        assert np.abs(out.data - a.data).max() < 1e-10

    def test_half_gate_is_midpoint(self):
        a = Tensor(np.zeros((2, 4)))
        b = Tensor(np.ones((2, 4)))
        out = final_fuse(a, b, Tensor(np.full((2, 1), 0.5)))
        assert np.abs(out.data - 0.5).max() < 1e-15

    def test_hand_mix(self):
        a = Tensor(np.array([[4.0]]))
        b = Tensor(np.array([[8.0]]))
        out = final_fuse(a, b, Tensor(np.array([[0.25]])))
        assert out.data[0, 0] == pytest.approx(5.0, abs=1e-15)


class TestModelForward:
    def test_eval_forward_is_bitwise_deterministic(self, batch):
        model = Model(CFG)
        a = model.forward_batch(*batch)
        b = model.forward_batch(*batch)
        assert np.array_equal(a.probs.data, b.probs.data)
        assert np.array_equal(a.fused.data, b.fused.data)
        assert np.array_equal(a.report.gate.data, b.report.gate.data)

    def test_same_seed_same_model(self, batch):
        a = Model(CFG).forward_batch(*batch)
        b = Model(CFG).forward_batch(*batch)
        assert np.array_equal(a.probs.data, b.probs.data)

    def test_different_seed_different_model(self, batch):
        a = Model(CFG).forward_batch(*batch)
        b = Model(ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                              init_seed=2)).forward_batch(*batch)
        assert not np.array_equal(a.probs.data, b.probs.data)

    def test_probs_on_simplex(self, batch):
        out = Model(CFG).forward_batch(*batch)
        assert np.abs(out.probs.data.sum(axis=1) - 1.0).max() < 1e-12

    def test_decoupled_features_are_dicts_that_member_slices(self, batch):
        """A forward's shared and private features are the decoupler's two
        dicts in MODALITIES order; a stacked forward's ``member`` slices
        both to that member's own forward."""
        models = [Model(CFG), Model(ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                                                init_seed=2))]
        stack = Model.stack(models)
        out = stack.forward_batch(*batch)
        for i, model in enumerate(models):
            own = model.forward_batch(*batch)
            part = out.member(i)
            for kind in ("shared", "private"):
                feats, mine = getattr(part, kind), getattr(own, kind)
                assert list(feats) == list(mine) == list(MODALITIES)
                for m in MODALITIES:
                    assert feats[m].data.shape == (5, 6)
                    assert np.array_equal(feats[m].data, mine[m].data), (i, kind, m)

    def test_rejects_flat_input(self):
        model = Model(CFG)
        v = np.zeros(8)
        with pytest.raises(ValueError):
            model.forward_batch(v, v, v)

    def test_one_row_batch_agrees_with_full_batch(self, batch):
        """Eval rows do not interact: a one-row batch gives that row's output."""
        model = Model(CFG)
        data = generate(DATA_CFG)[2]
        full = model.forward_batch(data.text, data.video, data.audio)
        row = model.forward_batch(data.text[3:4], data.video[3:4], data.audio[3:4])
        assert np.allclose(row.probs.data, full.probs.data[3:4], rtol=0, atol=1e-12)

    def test_rejects_nonfinite_input(self, batch):
        text, video, audio = (x.copy() for x in batch)
        text[2, 1] = np.nan
        with pytest.raises(ValueError, match="text.*non-finite"):
            Model(CFG).forward_batch(text, video, audio)
        audio[0, 0] = np.inf
        with pytest.raises(ValueError, match="audio.*non-finite"):
            Model(CFG).forward_batch(batch[0], video, audio)

    def test_rejects_wrong_feature_dim(self, batch):
        text, video, audio = batch
        with pytest.raises(ValueError, match="video"):
            Model(CFG).forward_batch(text, video[:, :7], audio)

    def test_rejects_mismatched_rows(self, batch):
        text, video, audio = batch
        with pytest.raises(ValueError, match="audio"):
            Model(CFG).forward_batch(text, video, audio[:4])


class TestGateOverride:
    def test_override_outside_unit_interval_is_rejected(self):
        for value in (-0.1, 1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gate_override"):
                Model(CFG, value)

    def test_gate_override_values(self, batch):
        """Any value in [0, 1] clamps the gate there, and a stack holds
        each member's value."""
        for value in (None, 0.0, 0.5, 1.0):
            assert Model(CFG, value).gate_override == value
        gate = Model(CFG, 0.5).forward_batch(*batch).report.gate.data
        assert np.array_equal(gate, np.full_like(gate, 0.5))
        members = [Model(CFG), Model(CFG, 1.0), Model(CFG, 0.0)]
        assert Model.stack(members).gate_override == [None, 1.0, 0.0]

    def test_no_rea_uses_consensus_only(self, batch):
        model = Model(CFG, 0.0)
        out = model.forward_batch(*batch)
        assert np.array_equal(out.report.gate.data,
                              np.zeros_like(out.report.gate.data))
        assert np.array_equal(out.fused.data, out.intuition_repr.data)

    def test_no_int_uses_reasoning_only(self, batch):
        model = Model(CFG, 1.0)
        out = model.forward_batch(*batch)
        assert np.array_equal(out.fused.data, out.reasoning_repr.data)

    def test_no_rea_severs_prototype_influence(self, batch):
        """With the gate clamped to 0 the conflict prototype cannot reach
        the prediction head, so perturbing it must not move the output."""
        model = Model(CFG, 0.0)
        base = model.forward_batch(*batch)
        model.perception.prototype.data = model.perception.prototype.data + 5.0
        moved = model.forward_batch(*batch)
        assert np.array_equal(base.probs.data, moved.probs.data)
        model.gate_override = None
        unablated = model.forward_batch(*batch)
        model.perception.prototype.data = model.perception.prototype.data - 10.0
        assert not np.array_equal(
            unablated.probs.data, model.forward_batch(*batch).probs.data)


class TestConfigValidation:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Model(ModelConfig(feature_dim=0))
        with pytest.raises(ValueError):
            Model(ModelConfig(hidden_dim=0))

    def test_rejects_bad_classes_temperature_dropout(self):
        with pytest.raises(ValueError):
            Model(ModelConfig(num_classes=1))
        with pytest.raises(ValueError):
            Model(ModelConfig(temperature=0.0))
        with pytest.raises(ValueError):
            Model(ModelConfig(dropout=1.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_temperature(self, value):
        with pytest.raises(ValueError, match="temperature"):
            ModelConfig(temperature=value).validate()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, batch):
        model = Model(CFG)
        # move away from init so the test does not pass by reconstruction
        for p in model.params().values():
            p.data = p.data + 0.01
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name, p in model.params().items():
            assert np.array_equal(loaded.params()[name].data, p.data), name
        a = model.forward_batch(*batch)
        b = loaded.forward_batch(*batch)
        assert np.array_equal(a.probs.data, b.probs.data)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = Model(CFG)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model)
        save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(b"DPCK" + b"\xff\x7f" + b"\x00" * 32)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Model(CFG))
        blob = path.read_bytes()
        for cut, section in ((3, "header"), (8, "config length"), (40, "config"),
                             (len(blob) - 1, "data")):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=f"truncated in .*{section}"):
                load_checkpoint(path)

    def test_rejects_padded_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Model(CFG))
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(ValueError, match="3 bytes after the last parameter"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_parameter(self, tmp_path, bad):
        model = Model(CFG)
        params = model.params()
        # two bad parameters: the error names the first in file order
        for name in ("rea_head.weight", "head.bias"):
            params[name].data = params[name].data.copy()
            params[name].data.flat[1] = bad
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        with pytest.raises(ValueError, match="'head.bias' holds a non-finite"):
            load_checkpoint(path)

    def test_set_params_validates(self):
        model = Model(CFG)
        with pytest.raises(KeyError):
            model.set_params({"nonexistent.weight": np.zeros(3)})
        with pytest.raises(ValueError):
            model.set_params({"head.bias": np.zeros(99)})

    def test_snapshot_is_a_copy(self):
        model = Model(CFG)
        snap = model.snapshot()
        model.head.bias.data[:] = 42.0
        assert not np.array_equal(snap["head.bias"], model.head.bias.data)
