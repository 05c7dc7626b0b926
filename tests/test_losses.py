"""Objective terms: hand values, invariances, and gradient direction."""

import logging
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import cmd, cmd_pair, cross_entropy

from dualpath.losses import (COMPONENT_ORDER, WEIGHTS, LossConfig,
                             diff_loss, sim_loss, task_loss, total_loss)
from dualpath.fusion import Model, ModelConfig
from dualpath.rng import Rng
from dualpath.synthdata import DatasetConfig, MODALITIES, generate
from dualpath.tensor import Tensor


def by_modality(*tensors):
    return dict(zip(MODALITIES, tensors))


def make_feats(rng, n, d_h):
    """(shared, private) dicts of random (n, d_h) features."""
    arrs = [Tensor(rng.child(str(i)).normal(size=(n, d_h))) for i in range(6)]
    return by_modality(*arrs[:3]), by_modality(*arrs[3:])


def fake_outputs(fused_probs, rea_logits, unimodal):
    report = SimpleNamespace(unimodal=Tensor(np.stack([unimodal[m] for m in MODALITIES])))
    return SimpleNamespace(probs=Tensor(fused_probs),
                           rea_logits=Tensor(rea_logits), report=report)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        probs = Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        loss = cross_entropy(probs, np.array([0, 1]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_is_log_c(self):
        probs = Tensor(np.full((4, 5), 0.2))
        loss = cross_entropy(probs, np.array([0, 1, 2, 3]))
        assert float(loss.data) == pytest.approx(np.log(5.0), abs=1e-12)

    def test_hand_value(self):
        probs = Tensor(np.array([[0.7, 0.2, 0.1]]))
        loss = cross_entropy(probs, np.array([0]))
        assert float(loss.data) == pytest.approx(0.35667494393873245, abs=1e-15)

    def test_confidently_wrong_is_large_but_finite(self):
        probs = Tensor(np.array([[0.0, 1.0]]))
        loss = cross_entropy(probs, np.array([0]))
        assert np.isfinite(loss.data)
        assert float(loss.data) == pytest.approx(-np.log(1e-12), rel=1e-9)

    def test_mean_over_batch(self):
        probs = Tensor(np.array([[0.5, 0.5], [0.25, 0.75]]))
        loss = cross_entropy(probs, np.array([0, 1]))
        want = -(np.log(0.5) + np.log(0.75)) / 2.0
        assert float(loss.data) == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_analytic_form(self):
        p = np.array([[0.6, 0.3, 0.1]])
        probs = Tensor(p)
        cross_entropy(probs, np.array([0])).backward()
        want = np.array([[-1.0 / 0.6, 0.0, 0.0]])
        assert np.abs(probs.grad - want).max() < 1e-12


class TestTaskLoss:
    def test_zero_weights_reduce_to_fused_ce(self):
        labels = np.array([0, 1])
        outputs = fake_outputs(
            np.array([[0.8, 0.2], [0.3, 0.7]]),
            np.zeros((2, 2)),
            {m: np.full((2, 2), 0.5) for m in MODALITIES})
        cfg = LossConfig(reasoning_weight=0.0, unimodal_weight=0.0)
        total, parts = task_loss(outputs, labels, cfg)
        want = -(np.log(0.8) + np.log(0.7)) / 2.0
        assert float(total.data) == pytest.approx(want, abs=1e-12)
        assert parts["cls"] == pytest.approx(want, abs=1e-12)

    def test_all_heads_perfect_gives_zero(self):
        labels = np.array([1])
        onehot = np.array([[0.0, 1.0]])
        outputs = fake_outputs(onehot, np.array([[-400.0, 400.0]]),
                               {m: onehot for m in MODALITIES})
        total, parts = task_loss(outputs, labels, LossConfig())
        assert float(total.data) == pytest.approx(0.0, abs=1e-12)
        assert parts["rea"] == pytest.approx(0.0, abs=1e-12)
        assert parts["uni"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_combination(self):
        labels = np.array([0])
        outputs = fake_outputs(
            np.array([[0.5, 0.5]]),
            np.array([[0.0, 0.0]]),
            {m: np.array([[0.25, 0.75]]) for m in MODALITIES})
        cfg = LossConfig(reasoning_weight=0.1, unimodal_weight=0.1)
        total, parts = task_loss(outputs, labels, cfg)
        ln2, ln4 = np.log(2.0), np.log(4.0)
        want = ln2 + 0.1 * ln2 + 0.1 * 3 * ln4
        assert float(total.data) == pytest.approx(want, abs=1e-12)
        assert parts["uni"] == pytest.approx(3 * ln4, abs=1e-12)


class TestDiffLoss:
    def test_zero_privates_give_zero(self):
        shared, _ = make_feats(Rng(0, "f"), 6, 4)
        zero = Tensor(np.zeros((6, 4)))
        z = by_modality(zero, zero, zero)
        assert float(diff_loss(shared, z).data) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_centered_columns_give_zero(self):
        col_a = np.array([[1.0], [-1.0]])
        col_b = np.array([[1.0], [1.0]])
        shared = Tensor(np.concatenate([col_a, np.zeros((2, 1))], axis=1))
        private = Tensor(np.concatenate([np.zeros((2, 1)), col_b], axis=1))
        # private columns are constant, so centering zeroes them entirely
        loss = diff_loss(by_modality(shared, shared, shared),
                         by_modality(private, private, private))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_small_matrices(self):
        # N=2, d_h=1: center([1, 3]) = [-1, 1]; center([2, 0]) = [1, -1]
        # private^T shared = -2, squared 4, scale 1/(2*1)^2 = 1/4 -> 1 per term
        s = Tensor(np.array([[1.0], [3.0]]))
        p = Tensor(np.array([[2.0], [0.0]]))
        loss = diff_loss(by_modality(s, s, s), by_modality(p, p, p))
        # 3 private-shared terms of 1.0 plus 6 private-private terms of 1.0
        assert float(loss.data) == pytest.approx(9.0, abs=1e-12)

    def test_batch_of_one_warns_and_returns_zero(self, caplog):
        shared, private = make_feats(Rng(1, "f"), 1, 4)
        with caplog.at_level(logging.WARNING, logger="dualpath.losses"):
            out = diff_loss(shared, private)
        assert float(out.data) == 0.0
        assert any("too small" in r.message for r in caplog.records)

    def test_descends_under_gradient_steps(self):
        """200 plain gradient steps on the raw feature tensors should
        drive the penalty well below its starting value."""
        rng = Rng(2, "f")
        tensors = [Tensor(rng.child(str(i)).normal(size=(8, 4))) for i in range(6)]
        shared, private = by_modality(*tensors[:3]), by_modality(*tensors[3:])
        start = float(diff_loss(shared, private).data)
        for _ in range(200):
            for t in tensors:
                t.grad = None
            loss = diff_loss(shared, private)
            loss.backward()
            for t in tensors:
                t.data = t.data - 2.0 * t.grad
        end = float(diff_loss(shared, private).data)
        assert end < 1e-3 * start


class TestCmd:
    """The per-input CMD reference of ``tests/oracles.py``, which the
    ``sim_loss`` tests hold the one-node loss to."""

    def test_identical_batches_give_zero(self):
        x = Tensor(Rng(3, "x").normal(size=(10, 4)))
        assert float(cmd(x, x, 5).data) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self):
        a = Tensor(Rng(4, "a").normal(size=(8, 3)))
        b = Tensor(Rng(4, "b").normal(size=(8, 3)))
        assert float(cmd(a, b, 4).data) == pytest.approx(
            float(cmd(b, a, 4).data), abs=1e-12)

    def test_hand_value_order_two(self):
        # a = [1, 2, 3]: mean 2, var 2/3; b = [2, 4, 6]: mean 4, var 8/3
        a = Tensor(np.array([[1.0], [2.0], [3.0]]))
        b = Tensor(np.array([[2.0], [4.0], [6.0]]))
        want = 2.0 + (8.0 / 3.0 - 2.0 / 3.0)
        assert float(cmd(a, b, 2).data) == pytest.approx(want, abs=1e-12)

    def test_moment_matched_distinct_batches_vanish(self):
        # both have mean 0 and second central moment 2
        a = Tensor(np.array([[0.0], [0.0], [2.0], [-2.0]]))
        r = np.sqrt(2.0)
        b = Tensor(np.array([[-r], [r], [-r], [r]]))
        assert float(cmd(a, b, 2).data) == pytest.approx(0.0, abs=1e-12)
        assert float(cmd(a, b, 3).data) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_at_order_five(self):
        a = Rng(5, "a").normal(size=(12, 5))
        b = Rng(5, "b").normal(size=(12, 5)) + 0.3
        got = float(cmd(Tensor(a), Tensor(b), 5).data)
        assert got == pytest.approx(cmd_pair(a, b, 5), abs=1e-12)

    def test_rejects_bad_order(self):
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            cmd(x, x, 0)

    def test_batches_of_different_sizes(self):
        a = Tensor(np.array([[0.0], [2.0]]))
        b = Tensor(np.array([[1.0], [1.0], [1.0], [1.0]]))
        assert float(cmd(a, b, 2).data) == pytest.approx(0.0 + 1.0, abs=1e-12)
        assert float(cmd(Tensor(np.zeros((1, 2))), b, 3).data) == 0.0


class TestSimLoss:
    def test_tiny_batch_warns_and_returns_zero(self, caplog):
        shared = by_modality(*(Tensor(np.full((1, 2), float(i))) for i in range(3)))
        with caplog.at_level(logging.WARNING, logger="dualpath.losses"):
            out = sim_loss(shared, 3)
        assert float(out.data) == 0.0
        assert any("too small" in r.message for r in caplog.records)

    def test_rejects_bad_order(self):
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            sim_loss(by_modality(x, x, x), 0)

    @pytest.mark.parametrize("order", [True, 2.0, "3"])
    def test_rejects_an_order_that_is_no_integer(self, order):
        """True used to run as order 1."""
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="order"):
            sim_loss(by_modality(x, x, x), order)

    def test_identical_shared_batches_give_zero(self):
        x = Tensor(Rng(6, "x").normal(size=(8, 4)))
        shared = by_modality(x, x, x)
        assert float(sim_loss(shared, 5).data) == pytest.approx(0.0, abs=1e-15)

    def test_average_over_three_pairs(self):
        a = Tensor(Rng(7, "a").normal(size=(8, 4)))
        b = Tensor(Rng(7, "b").normal(size=(8, 4)))
        c = Tensor(Rng(7, "c").normal(size=(8, 4)))
        want = (float(cmd(a, b, 3).data) + float(cmd(a, c, 3).data)
                + float(cmd(b, c, 3).data)) / 3.0
        assert float(sim_loss(by_modality(a, b, c), 3).data) == pytest.approx(want, abs=1e-12)

    def test_descends_under_gradient_steps(self):
        rng = Rng(8, "f")
        shared = by_modality(*(Tensor(rng.child(str(i)).normal(size=(8, 4)))
                               for i in range(3)))
        start = float(sim_loss(shared, 3).data)
        for _ in range(200):
            for t in shared.values():
                t.grad = None
            sim_loss(shared, 3).backward()
            for t in shared.values():
                t.data = t.data - 0.05 * t.grad
        assert float(sim_loss(shared, 3).data) < 0.05 * start


@pytest.fixture(scope="module")
def model_and_batch():
    data_cfg = DatasetConfig(num_classes=3, feature_dim=8, n_train=16,
                             n_val=4, n_test=4, seed=3)
    train = generate(data_cfg)[0]
    model = Model(ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                              init_seed=4))
    out = model.forward_batch(train.text, train.video, train.audio)
    return out, train.labels


class TestTotalLoss:
    def test_structural_weights_zero_reduce_to_task(self, model_and_batch):
        out, labels = model_and_batch
        cfg = LossConfig(orthogonality_weight=0.0, alignment_weight=0.0)
        total, _ = total_loss(out, labels, cfg)
        task, _ = task_loss(out, labels, cfg)
        assert float(total.data) == pytest.approx(float(task.data), abs=1e-12)

    def test_weighted_combination(self, model_and_batch):
        out, labels = model_and_batch
        cfg = LossConfig()
        total, parts = total_loss(out, labels, cfg)
        task, _ = task_loss(out, labels, cfg)
        want = (float(task.data) + 0.1 * float(diff_loss(out.shared, out.private).data)
                + 0.1 * float(sim_loss(out.shared, cfg.moment_order).data))
        assert float(total.data) == pytest.approx(want, abs=1e-12)
        assert parts["total"] == pytest.approx(want, abs=1e-12)

    def test_parts_cover_component_order(self, model_and_batch):
        out, labels = model_and_batch
        _, parts = total_loss(out, labels, LossConfig())
        assert set(parts) == set(COMPONENT_ORDER)
        assert all(np.isfinite(v) for v in parts.values())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(reasoning_weight=-0.1).validate()
        with pytest.raises(ValueError):
            LossConfig(moment_order=0).validate()

    def test_config_rejects_an_array_weight(self):
        """Weights are numbers; only stack_loss_configs builds (M,) arrays."""
        with pytest.raises(ValueError, match="LossConfig.reasoning_weight"):
            LossConfig(reasoning_weight=np.array([0.1, 0.2])).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1", None, True])
    @pytest.mark.parametrize("name", WEIGHTS)
    def test_config_rejects_non_finite_weights(self, name, value):
        """A scalar weight, or an array holding one (a weight is a plain
        number). A bool only as a scalar: numpy stores [0.1, True] as floats."""
        for weight in (value,) if isinstance(value, bool) else (value, np.array([0.1, value])):
            with pytest.raises(ValueError, match=name):
                LossConfig(**{name: weight}).validate()
