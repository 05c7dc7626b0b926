"""Model assembly: pathway mixing, gate overrides, checkpoint format."""

import json
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from dualpath import layers
from dualpath.fusion import (Model, ModelConfig, final_fuse,
                             load_checkpoint, reasoning_aggregate,
                             save_checkpoint)
from dualpath.layers import Affine
from dualpath.losses import LossConfig, stack_loss_configs, total_loss
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


# Checkpoint names and grad_check's per-group order: they must not change.
PARAM_NAMES = [
    f"decoupler.{kind}_{m}.{lin}.{p}" for kind in ("shared", "private")
    for m in ("text", "video", "audio") for lin in ("lin1", "lin2") for p in ("weight", "bias")
] + [
    "intuition.context.weight", "intuition.context.bias", "intuition.synergy.weight",
    "intuition.synergy.bias", "intuition.synergy_scale", "intuition.norm.gain",
    "intuition.norm.bias",
    "perception.diff_proj.weight", "perception.diff_proj.bias", "perception.prototype",
    "perception.classifier_text.weight", "perception.classifier_text.bias",
    "perception.classifier_video.weight", "perception.classifier_video.bias",
    "perception.classifier_audio.weight", "perception.classifier_audio.bias",
    "perception.stat_weight", "perception.stat_bias",
    "perception.unc_lift.weight", "perception.unc_lift.bias",
    "perception.trust_in.weight", "perception.trust_in.bias",
    "perception.trust_out.weight", "perception.trust_out.bias",
    "perception.div_gate.weight", "perception.div_gate.bias",
    "head.weight", "head.bias", "rea_head.weight", "rea_head.bias",
]
# one shared encoder in the first shared one's place
SHARED_ENCODER_PARAM_NAMES = [
    "decoupler.shared.lin1.weight", "decoupler.shared.lin1.bias",
    "decoupler.shared.lin2.weight", "decoupler.shared.lin2.bias",
] + PARAM_NAMES[12:]


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
        for value in (-0.1, 1.5, float("nan"), float("inf"), True, "0.5"):
            with pytest.raises(ValueError, match="gate_override"):
                Model(replace(CFG, gate_override=value))

    def test_gate_override_values(self, batch):
        """Any value in [0, 1] clamps the gate there, and a stack holds
        each member's value."""
        for value in (None, 0.0, 0.5, 1.0):
            assert Model(replace(CFG, gate_override=value)).gate_overrides == (value,)
        gate = Model(replace(CFG, gate_override=0.5)).forward_batch(*batch).report.gate.data
        assert np.array_equal(gate, np.full_like(gate, 0.5))
        members = [Model(replace(CFG, gate_override=v)) for v in (None, 1.0, 0.0)]
        assert Model.stack(members).gate_overrides == (None, 1.0, 0.0)

    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("override", [0.0, 0.5, 1.0])
    def test_a_clamped_gate_passes_its_parameters_zeros(self, batch, override, share):
        """The clamp records its node even when it clamps every row: after
        a backward, a clamped model's gate parameters hold a zero gradient,
        plain or in a stack, and no parameter's gradient is None."""
        cfg = replace(CFG, share_shared_encoder=share)
        labels = np.arange(len(batch[0])) % CFG.num_classes
        plain = Model(replace(cfg, gate_override=override))
        total_loss(plain.forward_batch(*batch), labels, LossConfig())[0].backward()
        stack = Model.stack([Model(replace(cfg, gate_override=override)), Model(cfg)])
        stack_cfg = stack_loss_configs([LossConfig()] * 2)
        total_loss(stack.forward_batch(*batch), labels, stack_cfg)[0].sum().backward()
        for model, shares in ((plain, slice(None)), (stack, 0)):
            params = model.params()
            assert all(p.grad is not None for p in params.values())
            for name in model.perception.div_gate.params():
                assert np.array_equal(params[name].grad[shares],
                                      np.zeros_like(params[name].data[shares])), name
        assert np.any(stack.params()["perception.div_gate.weight"].grad[1] != 0.0)

    def test_no_rea_uses_consensus_only(self, batch):
        model = Model(replace(CFG, gate_override=0.0))
        out = model.forward_batch(*batch)
        assert np.array_equal(out.report.gate.data,
                              np.zeros_like(out.report.gate.data))
        assert np.array_equal(out.fused.data, out.intuition_repr.data)

    def test_no_int_uses_reasoning_only(self, batch):
        model = Model(replace(CFG, gate_override=1.0))
        out = model.forward_batch(*batch)
        assert np.array_equal(out.fused.data, out.reasoning_repr.data)

    def test_no_rea_severs_prototype_influence(self, batch):
        """With the gate clamped to 0 the conflict prototype cannot reach
        the prediction head, so perturbing it must not move the output."""
        model = Model(replace(CFG, gate_override=0.0))
        base = model.forward_batch(*batch)
        model.perception.prototype.data = model.perception.prototype.data + 5.0
        moved = model.forward_batch(*batch)
        assert np.array_equal(base.probs.data, moved.probs.data)
        unablated = Model(CFG)  # the same init with a free gate
        before = unablated.forward_batch(*batch)
        unablated.perception.prototype.data = unablated.perception.prototype.data + 5.0
        assert not np.array_equal(
            before.probs.data, unablated.forward_batch(*batch).probs.data)


BAD_CONFIG_FIELDS = [
    ("feature_dim", 0), ("hidden_dim", 0), ("hidden_dim", -2),
    ("temperature", True), ("temperature", "1.0"), ("temperature", None),
    ("dropout", "0.1"), ("dropout", None), ("dropout", False),
    ("share_shared_encoder", "yes"), ("share_shared_encoder", 1),
    ("gate_override", 1.5), ("gate_override", True), ("gate_override", "0.5"),
]


def checkpoint_blob(blob: bytes, config: dict | None = None, repeat: str | None = None
                    ) -> bytes:
    """A saved checkpoint's bytes with the config block replaced by
    ``config`` and, for ``repeat``, that parameter's section appended
    once more and the section count bumped."""
    (cfg_len,) = struct.unpack_from("<I", blob, 6)
    head, rest = blob[:6], blob[10 + cfg_len:]
    cfg_blob = blob[10:10 + cfg_len] if config is None else json.dumps(config).encode()
    (count,) = struct.unpack_from("<I", rest)
    pos = 4
    for _ in range(count):
        start = pos
        (name_len,) = struct.unpack_from("<H", rest, pos)
        name = rest[pos + 2:pos + 2 + name_len].decode()
        pos += 2 + name_len
        ndim = rest[pos]
        shape = struct.unpack_from(f"<{ndim}I", rest, pos + 1)
        pos += 1 + 4 * ndim + 8 * int(np.prod(shape))
        if name == repeat:
            rest += rest[start:pos]
            count += 1
    return (head + struct.pack("<I", len(cfg_blob)) + cfg_blob
            + struct.pack("<I", count) + rest[4:])


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

    @pytest.mark.parametrize("field, value", BAD_CONFIG_FIELDS)
    def test_names_the_bad_field(self, field, value):
        """Each bad value, a wrongly typed one included, is a ValueError
        that names its field."""
        with pytest.raises(ValueError, match=f"ModelConfig.{field} "):
            ModelConfig(**{field: value}).validate()


class TestParams:
    def test_names_and_order_are_fixed(self):
        assert len(PARAM_NAMES) == 54 and len(SHARED_ENCODER_PARAM_NAMES) == 46
        assert list(Model(ModelConfig()).params()) == PARAM_NAMES
        shared = Model(ModelConfig(share_shared_encoder=True))
        assert list(shared.params()) == SHARED_ENCODER_PARAM_NAMES

    def test_a_new_tensor_attribute_registers_itself(self):
        model = Model(CFG)
        extra = model.perception.extra = Tensor(np.zeros(3))
        params = model.params()
        names = list(params)
        assert names[names.index("perception.div_gate.bias") + 1] == "perception.extra"
        assert params["perception.extra"] is extra
        assert len(params) == 55

    def test_two_tensors_under_one_name_raise(self):
        model = Model(CFG)
        model.rea_head = Affine(Rng(0, "twin"), 6, 3, "head")
        with pytest.raises(ValueError, match="'head.weight'"):
            model.params()

    def test_stack_puts_a_model_axis_in_front_of_every_parameter(self):
        members = [Model(replace(CFG, init_seed=s)) for s in (1, 2, 3)]
        stack = Model.stack(members)
        assert list(stack.params()) == list(members[0].params())
        assert stack.perception.stat_weight.data.shape == (3, 1, 4)
        for name, p in stack.params().items():
            shape = members[0].params()[name].data.shape
            assert p.data.shape == (3,) + (1,) * (2 - len(shape)) + shape, name
            for m, member in enumerate(members):
                assert np.array_equal(p.data[m].reshape(shape),
                                      member.params()[name].data), (name, m)

    def test_stack_members_differ_only_in_init_seed_and_gate_override(self):
        Model.stack([Model(CFG), Model(replace(CFG, init_seed=9, gate_override=1.0))])
        with pytest.raises(ValueError, match="up to init_seed and gate_override"):
            Model.stack([Model(CFG), Model(replace(CFG, dropout=0.0))])

    def test_a_stack_of_no_members_raises(self):
        with pytest.raises(ValueError, match="empty list"):
            Model.stack([])

    def test_stack_draws_no_init_and_keeps_shared_modules_shared(self, monkeypatch):
        """The stack copies its first member's module tree: no init draw,
        so it builds with every init draw made to raise, and an encoder
        that three modalities share is one module in the stack too."""
        cfg = replace(CFG, share_shared_encoder=True)
        members = [Model(cfg), Model(replace(cfg, init_seed=2))]

        def draw(*args, **kwargs):
            raise AssertionError("Model.stack drew an init")

        monkeypatch.setattr(layers, "glorot", draw)
        monkeypatch.setattr(Rng, "normal", draw)
        stack = Model.stack(members)
        encoders = stack.decoupler.shared_enc
        assert encoders["text"] is encoders["video"] is encoders["audio"]
        assert encoders["text"] is not members[0].decoupler.shared_enc["text"]
        assert list(stack.params()) == list(members[0].params())
        for name, p in stack.params().items():
            assert p is not members[0].params()[name], name
            assert np.array_equal(p.data[1].reshape(members[1].params()[name].data.shape),
                                  members[1].params()[name].data), name

    def test_a_stack_is_not_a_member(self):
        """A stack's parameters carry a model axis already; stacking it again
        fails naming the member instead of deep inside a reshape."""
        stack = Model.stack([Model(CFG), Model(replace(CFG, init_seed=2))])
        with pytest.raises(ValueError, match="member 1 is a stack of 2"):
            Model.stack([Model(CFG), stack])


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

    def test_refuses_a_stack_and_writes_nothing(self, tmp_path):
        path = tmp_path / "stack.ckpt"
        stack = Model.stack([Model(CFG), Model(replace(CFG, init_seed=2))])
        with pytest.raises(ValueError, match="one model, got a stack of 2"):
            save_checkpoint(path, stack)
        assert not path.exists()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("override", [None, 0.0, 1.0])
    def test_round_trip_keeps_the_gate_clamp(self, tmp_path, batch, override):
        """The clamp is part of the config block, so a loaded checkpoint
        forwards exactly as the saved model did."""
        model = Model(replace(CFG, gate_override=override))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config.gate_override == override
        assert loaded.gate_overrides == (override,)
        assert np.array_equal(loaded.forward_batch(*batch).probs.data,
                              model.forward_batch(*batch).probs.data)

    def test_rejects_bad_version(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(b"DPCK" + b"\xff\x7f" + b"\x00" * 32)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_rejects_a_version_1_file(self, tmp_path):
        """Version 1 stored no gate clamp: such a file fails, naming its
        version and how to rebuild it."""
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, Model(CFG))
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
        with pytest.raises(ValueError, match=r"version 1.*no gate clamp.*dualpath train"):
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

    def test_rejects_a_section_too_large_for_int64(self, tmp_path):
        """A shape whose element count is 2**64 needs that many values, not
        the 0 a wrapped int64 product would ask for."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Model(CFG))
        blob = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", blob, 6)
        name = b"head.bias"
        section = (struct.pack("<H", len(name)) + name + struct.pack("<B", 4)
                   + struct.pack("<4I", *(65536,) * 4))
        path.write_bytes(blob[:10 + cfg_len] + struct.pack("<I", 1) + section)
        with pytest.raises(ValueError, match="checkpoint truncated in head.bias data"):
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

    def test_rejects_a_repeated_parameter(self, tmp_path):
        """A file that names a parameter twice, the count bumped to match,
        raises instead of letting the later copy win."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Model(CFG))
        name = "decoupler.private_audio.lin1.bias"
        path.write_bytes(checkpoint_blob(path.read_bytes(), repeat=name))
        with pytest.raises(ValueError, match=f"'{name}' twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", BAD_CONFIG_FIELDS)
    def test_rejects_a_bad_config_block(self, tmp_path, field, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Model(CFG))
        blob = path.read_bytes()
        path.write_bytes(checkpoint_blob(blob, config=asdict(CFG)))
        assert load_checkpoint(path).config == CFG  # the rewrite alone is harmless
        path.write_bytes(checkpoint_blob(blob, config={**asdict(CFG), field: value}))
        with pytest.raises(ValueError, match=f"ModelConfig.{field} "):
            load_checkpoint(path)

    @pytest.mark.parametrize("config, match", [
        ({**asdict(CFG), "depth": 3}, r"unknown checkpoint config keys: \['depth'\]"),
        ([1, 2], "'checkpoint' config must be a JSON object"),
        ({k: v for k, v in asdict(CFG).items() if k != "dropout"}, r"lacks \['dropout'\]"),
    ], ids=["unknown_key", "not_an_object", "missing_dropout"])
    def test_rejects_a_config_block_of_another_shape(self, tmp_path, config, match):
        """The block names every ModelConfig field and no other; a missing
        field does not fall back to its default."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Model(CFG))
        path.write_bytes(checkpoint_blob(path.read_bytes(), config=config))
        with pytest.raises(ValueError, match=match):
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
