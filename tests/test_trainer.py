"""Optimizer mechanics, training loop control flow, gradient certification."""

import json
import math
from dataclasses import asdict, replace
from itertools import count

import numpy as np
import pytest

import oracles
from oracles import _kink_crossed, _only_abs_crossed
from dualpath import functional, fusion, layers, losses, perception, tensor, trainer
from dualpath.experiments import ExperimentConfig
from dualpath.fusion import Model, ModelConfig, load_checkpoint, save_checkpoint
from dualpath.losses import LossConfig, total_loss
from dualpath.rng import Rng
from dualpath.synthdata import Dataset, DatasetConfig, generate
from dualpath.tensor import Tensor, is_recording, no_grad
from dualpath.trainer import (AdamW, DivergenceError, GradCheckResult,
                              TrainConfig, default_val_metric,
                              grad_check, train, train_models)

DATA_CFG = DatasetConfig(num_classes=3, feature_dim=8, n_train=120, n_val=40,
                         n_test=40, conflict_rate=0.3, seed=21)
MODEL_CFG = ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                        dropout=0.1, init_seed=0)


@pytest.fixture(scope="module")
def splits():
    return generate(DATA_CFG)


def script_val_scores(monkeypatch, scores):
    """Make each epoch's validation score of a one-model run the next of
    ``scores``."""
    scores = iter(scores)
    monkeypatch.setattr(trainer, "default_val_metric",
                        lambda model, data: np.array([next(scores)]))


def first_bad_stage(group: str) -> str:
    """The first stage of ``_first_nonfinite`` that a NaN in ``group``
    reaches."""
    owner, part = group.split(".")[:2]
    if owner == "decoupler":
        return part  # the encoder's own output, e.g. "shared_text"
    if part.startswith("classifier_"):
        return "unimodal_probs_" + part.removeprefix("classifier_")
    key = part if owner == "perception" else owner
    return {"intuition": "intuition_repr", "head": "probs", "rea_head": "loss_rea",
            "diff_proj": "diff_vector", "prototype": "semantic_energy",
            "stat_weight": "stat_bias", "stat_bias": "stat_bias", "unc_lift": "trust",
            "trust_in": "trust", "trust_out": "trust", "div_gate": "gate"}[key]


def quick_train_cfg(**kw):
    base = dict(learning_rate=3e-3, max_epochs=6, batch_size=16, patience=5, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestAdamW:
    def test_decay_applies_without_gradient_signal(self):
        p = Tensor(np.array([2.0, -4.0]))
        p.grad = np.zeros(2)
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        opt = AdamW({"p": p}, cfg)
        opt.step(cfg.learning_rate)
        assert np.abs(p.data - np.array([2.0, -4.0]) * (1 - 0.1 * 0.5)).max() < 1e-15

    def test_a_param_without_grad_fails_the_step(self):
        """Every parameter holds a gradient when a step runs; a None one
        fails the gather, before any parameter moves."""
        p, q = Tensor(np.array([1.0])), Tensor(np.array([2.0, 3.0]))
        p.grad, q.grad = None, np.ones(2)
        opt = AdamW({"p": p, "q": q}, TrainConfig(weight_decay=0.5))
        with pytest.raises(TypeError):
            opt.step(1.0)
        assert p.data[0] == 1.0 and np.array_equal(q.data, [2.0, 3.0])

    def test_first_step_moves_by_lr_against_gradient_sign(self):
        # with bias correction the first update is g / (|g| + eps) = sign(g)
        p = Tensor(np.array([0.0, 0.0]))
        p.grad = np.array([3.0, -0.25])
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.0)
        opt = AdamW({"p": p}, cfg)
        opt.step(cfg.learning_rate)
        assert np.abs(p.data - np.array([-0.01, 0.01])).max() < 1e-9

    def test_steps_shrink_a_quadratic(self):
        p = Tensor(np.array([5.0]))
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0)
        opt = AdamW({"p": p}, cfg)
        for _ in range(300):
            p.grad = 2.0 * p.data
            opt.step(cfg.learning_rate)
        assert abs(p.data[0]) < 0.5

    def test_matches_per_group_reference_bit_for_bit(self):
        """The whole-buffer step against the group-by-group loop on a
        default model's groups, every group stepped and the gate's groups
        given zero gradients, as under a clamp: moments and parameters
        agree exactly after every step."""
        cfg = TrainConfig()
        ref = Model(ModelConfig()).params()
        params = Model(ModelConfig()).params()
        assert len(params) == 54
        opt = AdamW(params, cfg)
        ms = {k: np.zeros_like(p.data) for k, p in ref.items()}
        vs = {k: np.zeros_like(p.data) for k, p in ref.items()}
        rng = Rng(0, "adamw_reference")
        for t in range(1, 26):
            for i, (name, p) in enumerate(params.items()):
                g = rng.child(f"grad{i}", t).normal(scale=10.0 ** (i % 5 - 3),
                                                    size=p.data.shape)
                if name.startswith("perception.div_gate."):
                    g = np.zeros_like(g)
                p.grad = g
                ref[name].grad = g.copy()
            lr = cfg.learning_rate * min(1.0, t / 5)
            opt.step(lr)
            oracles.adamw_reference(ref, ms, vs, t, lr, cfg)
            assert np.array_equal(opt.m, np.concatenate(list(ms.values()), axis=None))
            assert np.array_equal(opt.v, np.concatenate(list(vs.values()), axis=None))
            for name, p in params.items():
                assert np.array_equal(p.data, ref[name].data), (t, name)

    def test_take_carries_the_kept_models_moments(self):
        """Dropping the middle model of three: the new optimizer holds the
        other two's parameters, moments and step count, and steps them
        exactly as the old one would have."""
        rng = Rng(0, "adamw_take")
        shapes = {"w": (3, 4, 2), "b": (3, 1, 2), "s": (3, 1, 1)}
        params = {k: Tensor(rng.child(k).normal(size=s)) for k, s in shapes.items()}
        opt = AdamW(params, TrainConfig())
        for t in range(4):
            for k, p in params.items():
                p.grad = rng.child(f"g{k}", t).normal(size=p.data.shape)
            opt.step(0.01)
        kept = {k: Tensor(p.data[[0, 2]]) for k, p in params.items()}
        taken = opt.take(kept, [0, 2])
        assert taken.t == opt.t == 4
        for k, p in params.items():
            p.grad = rng.child(f"g{k}", 9).normal(size=p.data.shape)
            kept[k].grad = p.grad[[0, 2]]
        opt.step(0.01)
        taken.step(0.01)
        for k, p in params.items():
            assert np.array_equal(kept[k].data, p.data[[0, 2]]), k

    def test_restored_values_land_in_the_arena(self, tmp_path):
        model = Model(MODEL_CFG)
        params = model.params()
        opt = AdamW(params, TrainConfig(learning_rate=0.01))
        init = model.snapshot()

        def step():
            for i, p in enumerate(params.values()):
                p.grad = np.full(p.data.shape, 0.5 + i)
            opt.step(0.01)

        step()
        snap = model.snapshot()
        frozen = {k: a.copy() for k, a in snap.items()}
        step()
        for name, p in params.items():
            assert np.array_equal(snap[name], frozen[name]), name
            assert not np.array_equal(p.data, snap[name]), name

        model.set_params(init)
        for name, p in params.items():
            assert np.shares_memory(p.data, opt.arena), name
            assert np.array_equal(p.data, init[name]), name
        step()
        for name, p in params.items():
            assert not np.array_equal(p.data, init[name]), name

        save_checkpoint(tmp_path / "ck.bin", model)
        saved = model.snapshot()
        loaded = load_checkpoint(tmp_path / "ck.bin")
        loaded_params = loaded.params()
        loaded_opt = AdamW(loaded_params, TrainConfig())
        model.set_params(loaded.snapshot())
        for name, p in loaded_params.items():
            assert np.shares_memory(p.data, loaded_opt.arena), name
            assert np.array_equal(p.data, saved[name]), name
            assert np.shares_memory(params[name].data, opt.arena), name
            assert np.array_equal(params[name].data, saved[name]), name


class TestTrainLoop:
    def test_zero_learning_rate_freezes_parameters(self, splits):
        train_data, val_data, _ = splits
        model = Model(MODEL_CFG)
        before = model.snapshot()
        history = train(model, train_data, val_data,
                        quick_train_cfg(learning_rate=0.0, max_epochs=2),
                        LossConfig())
        for name, arr in model.snapshot().items():
            assert np.array_equal(arr, before[name]), name
        losses = [e["total"] for e in history.epoch_losses]
        assert len(losses) == 2

    def test_loss_decreases_across_seeds(self, splits):
        train_data, val_data, _ = splits
        for seed in range(3):
            model = Model(ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                                      dropout=0.1, init_seed=seed))
            history = train(model, train_data, val_data,
                            quick_train_cfg(seed=seed, max_epochs=8,
                                            patience=8),
                            LossConfig())
            losses = [e["total"] for e in history.epoch_losses]
            assert losses[-1] < losses[0], f"seed {seed}: {losses}"

    def test_training_is_deterministic(self, splits):
        train_data, val_data, _ = splits

        def run():
            model = Model(MODEL_CFG)
            history = train(model, train_data, val_data,
                            quick_train_cfg(max_epochs=3), LossConfig())
            return model.snapshot(), history

        snap_a, hist_a = run()
        snap_b, hist_b = run()
        for name in snap_a:
            assert np.array_equal(snap_a[name], snap_b[name]), name
        assert hist_a.epoch_losses == hist_b.epoch_losses
        assert hist_a.val_metrics == hist_b.val_metrics

    def test_early_stopping_on_flat_metric(self, splits, monkeypatch):
        train_data, val_data, _ = splits
        script_val_scores(monkeypatch, [0.5] * 30)
        model = Model(MODEL_CFG)
        history = train(model, train_data, val_data,
                        quick_train_cfg(max_epochs=30, patience=1),
                        LossConfig())
        # first epoch sets the best score; the second never improves on it
        assert len(history.val_metrics) == 2
        assert history.stopped_early
        assert history.best_epoch == 0

    def test_patience_counts_epochs_without_improvement(self, splits, monkeypatch):
        train_data, val_data, _ = splits
        script_val_scores(monkeypatch, [0.5, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6])
        model = Model(MODEL_CFG)
        history = train(model, train_data, val_data,
                        quick_train_cfg(max_epochs=30, patience=3),
                        LossConfig())
        assert len(history.val_metrics) == 5
        assert history.best_epoch == 1
        assert history.stopped_early

    def test_best_epoch_tracks_argmax(self, splits):
        train_data, val_data, _ = splits
        model = Model(MODEL_CFG)
        history = train(model, train_data, val_data,
                        quick_train_cfg(max_epochs=4, patience=10),
                        LossConfig())
        vals = history.val_metrics
        # best_epoch is the first epoch achieving the maximum
        assert history.best_epoch == int(np.argmax(vals))

    def test_restores_best_epoch_parameters(self, splits, monkeypatch):
        """With a metric that peaks at epoch 1 and then collapses, the
        returned model must match a fresh run stopped at the peak."""
        train_data, val_data, _ = splits
        # warmup length scales with max_epochs, so disable it to make the
        # two trajectories step-for-step identical
        script_val_scores(monkeypatch, [0.2, 0.9, 0.1, 0.1, 0.1])
        model_a = Model(MODEL_CFG)
        train(model_a, train_data, val_data,
              quick_train_cfg(max_epochs=5, patience=10,
                              warmup_proportion=0.0),
              LossConfig())
        script_val_scores(monkeypatch, [0.2, 0.9])
        model_b = Model(MODEL_CFG)
        train(model_b, train_data, val_data,
              quick_train_cfg(max_epochs=2, patience=10,
                              warmup_proportion=0.0),
              LossConfig())
        snap_a, snap_b = model_a.snapshot(), model_b.snapshot()
        for name in snap_a:
            assert np.array_equal(snap_a[name], snap_b[name]), name

    def test_snapshots_once_per_improving_epoch(self, splits, monkeypatch):
        """A model's parameters are copied only when its val score
        improves; epoch 0 always does, so no copy is made before it."""
        train_data, val_data, _ = splits
        scores = iter([[0.5, 0.5], [0.6, 0.4], [0.6, 0.7], [0.7, 0.7]])
        monkeypatch.setattr(trainer, "default_val_metric",
                            lambda model, data: np.array(next(scores)))
        calls = count()
        snapshot = Model.snapshot
        monkeypatch.setattr(Model, "snapshot", lambda model: (next(calls), snapshot(model))[1])
        models = [Model(replace(MODEL_CFG, init_seed=s)) for s in (0, 1)]
        histories = train_models(models, train_data, val_data,
                                 [quick_train_cfg(seed=s, max_epochs=4, patience=10)
                                  for s in (0, 1)], [LossConfig()] * 2)
        assert [h.best_epoch for h in histories] == [3, 2]
        assert next(calls) == 3 + 2  # epochs 0, 1, 3 and 0, 2

    def test_divergence_names_first_bad_stage(self, splits):
        train_data, val_data, _ = splits
        model = Model(MODEL_CFG)
        model.decoupler.shared_enc["text"].lin1.weight.data[0, 0] = np.nan
        with pytest.raises(DivergenceError) as err:
            train(model, train_data, val_data, quick_train_cfg(max_epochs=1),
                  LossConfig())
        assert err.value.component == "shared_text"

    @pytest.mark.parametrize("group,stage", [
        (group, first_bad_stage(group)) for group in Model(MODEL_CFG).params()])
    def test_first_nonfinite_names_the_first_stage_a_nan_reaches(self, splits, group,
                                                                 stage):
        """A NaN in any parameter group makes the loss NaN: no norm guard
        or probability floor turns it back into a number."""
        train_data = splits[0]
        model = Model(MODEL_CFG)
        model.params()[group].data.flat[0] = np.nan
        with no_grad():
            out = model.forward_batch(train_data.text[:16], train_data.video[:16],
                                      train_data.audio[:16])
            loss, parts = total_loss(out, train_data.labels[:16], LossConfig())
        assert not np.isfinite(loss.data)
        assert trainer._first_nonfinite(out, parts) == stage

    def test_a_nan_parameter_stops_training_before_any_update(self, splits):
        """The first step's loss is already NaN, so training stops there,
        naming the first bad stage, before an update spreads the NaN."""
        train_data, val_data, _ = splits
        model = Model(MODEL_CFG)
        model.head.bias.data[0] = np.nan
        before = model.snapshot()
        with pytest.raises(DivergenceError) as err:
            train(model, train_data, val_data, quick_train_cfg(max_epochs=1),
                  LossConfig())
        assert err.value.component == "probs"
        for name, value in model.snapshot().items():
            assert np.array_equal(value, before[name], equal_nan=True), name

    def test_parameter_walks_do_not_grow_with_the_step_count(self, splits, monkeypatch):
        """The step loop clears gradients through the optimizer's own list
        of parameters: a run's ``Module.params`` walks depend on its
        epochs, not on its steps."""
        train_data, val_data, _ = splits
        walk = layers.Module.params
        calls = []

        def counting(self):
            calls.append(self)
            return walk(self)

        monkeypatch.setattr(layers.Module, "params", counting)
        counts = []
        for batch_size in (60, 8):  # 2 and 15 steps an epoch
            script_val_scores(monkeypatch, [0.5, 0.6, 0.7])
            calls.clear()
            train(Model(MODEL_CFG), train_data, val_data,
                  quick_train_cfg(batch_size=batch_size, max_epochs=3), LossConfig())
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_nonfinite_val_metric_is_divergence(self, splits, monkeypatch):
        train_data, val_data, _ = splits
        script_val_scores(monkeypatch, [float("nan")] * 3)
        with pytest.raises(DivergenceError) as err:
            train(Model(MODEL_CFG), train_data, val_data,
                  quick_train_cfg(max_epochs=3), LossConfig())
        assert err.value.component == "val_metric"

    def test_rejects_empty_split(self, splits):
        train_data, _, _ = splits
        empty = Dataset(train_data.text[:0], train_data.video[:0],
                        train_data.audio[:0], train_data.labels[:0],
                        train_data.conflict_flag[:0])
        model = Model(MODEL_CFG)
        with pytest.raises(ValueError):
            train(model, empty, train_data, quick_train_cfg(), LossConfig())

    @pytest.mark.parametrize("value", [5.0, 1.0, -0.1, float("nan")])
    def test_config_rejects_a_dropout_outside_the_unit_interval(self, value):
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig(dropout=value).validate()
        ModelConfig(dropout=0.0).validate()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(warmup_proportion=1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()

    @pytest.mark.parametrize("kw,field", [
        ({"learning_rate": -1.0}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"weight_decay": -1.0}, "weight_decay"),
        ({"weight_decay": float("nan")}, "weight_decay"),
        ({"beta1": 1.5}, "beta1"),
        ({"beta1": 1.0}, "beta1"),
        ({"beta1": -0.1}, "beta1"),
        ({"beta2": 1.0}, "beta2"),
        ({"beta2": float("nan")}, "beta2"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": -1e-8}, "epsilon"),
        ({"weight_decay": float("inf")}, "weight_decay"),
        ({"epsilon": float("nan")}, "epsilon"),
        ({"epsilon": float("inf")}, "epsilon"),
        ({"beta1": None}, "TrainConfig.beta1"),
        ({"warmup_proportion": True}, "TrainConfig.warmup_proportion"),
        ({"learning_rate": "0.1"}, "TrainConfig.learning_rate"),
        ({"learning_rate": None}, "TrainConfig.learning_rate"),
        ({"weight_decay": True}, "TrainConfig.weight_decay"),
        ({"epsilon": True}, "TrainConfig.epsilon"),
    ])
    def test_config_rejects_bad_optimizer_values(self, kw, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**kw).validate()
        # the edges that stay legal
        TrainConfig(learning_rate=0.0, weight_decay=0.0, beta1=0.0, beta2=0.0).validate()

    @pytest.mark.parametrize("override", [1.0, 0.0], ids=["no_int", "no_rea"])
    def test_a_clamped_gate_moves_by_decay_alone(self, splits, override):
        """Under a gate clamp the divergence gate receives a zero gradient,
        so its Adam term is exactly 0: without decay it stays at its init
        bit for bit, and with the default decay its weight is its init
        shrunk by ``w - w * (lr_t * wd)`` at each step up to the best
        epoch, while the rest of the model trains."""
        train_data, val_data, _ = splits
        gate = ("perception.div_gate.weight", "perception.div_gate.bias")
        model = Model(replace(MODEL_CFG, gate_override=override))
        before = model.snapshot()
        train(model, train_data, val_data, quick_train_cfg(max_epochs=2, weight_decay=0.0),
              LossConfig())
        for name in gate:
            assert np.array_equal(model.snapshot()[name], before[name]), name

        cfg = quick_train_cfg(max_epochs=2)
        model = Model(replace(MODEL_CFG, gate_override=override))
        history = train(model, train_data, val_data, cfg, LossConfig())
        after = model.snapshot()
        steps_per_epoch = -(-len(train_data) // cfg.batch_size)
        warmup_steps = max(1, round(cfg.warmup_proportion * cfg.max_epochs * steps_per_epoch))
        w = before["perception.div_gate.weight"].copy()
        for t in range(1, (history.best_epoch + 1) * steps_per_epoch + 1):
            lr_t = cfg.learning_rate * min(1.0, t / warmup_steps)
            w = w - w * (lr_t * cfg.weight_decay)
        assert w[0, 0] < 1.0
        assert np.array_equal(after["perception.div_gate.weight"], w)
        assert np.array_equal(after["perception.div_gate.bias"], before["perception.div_gate.bias"])
        assert not np.array_equal(after["head.weight"], before["head.weight"])

    def test_mixed_stack_matches_models_trained_alone(self, splits):
        """A full, a reasoning-only and a consensus-only model, at two seeds
        with different loss weights, trained as one stack with a patience
        that stops them at different epochs: each ends bit for bit where it
        ends trained alone, with the same history."""
        train_data, val_data, _ = splits
        seeds = (0, 1, 0)
        overrides = [None, 1.0, 0.0]
        cfgs = [quick_train_cfg(seed=s, max_epochs=8, patience=2) for s in seeds]
        loss_cfgs = [LossConfig(), LossConfig(unimodal_weight=0.0),
                     LossConfig(reasoning_weight=0.0)]
        models = [Model(replace(MODEL_CFG, init_seed=s, gate_override=v))
                  for s, v in zip(seeds, overrides)]
        histories = train_models(models, train_data, val_data, cfgs, loss_cfgs)
        assert len({len(h.val_metrics) for h in histories}) > 1
        for m, model in enumerate(models):
            alone = Model(replace(MODEL_CFG, init_seed=seeds[m], gate_override=overrides[m]))
            history = train(alone, train_data, val_data, cfgs[m], loss_cfgs[m])
            assert history == histories[m], m
            for name, arr in alone.snapshot().items():
                assert np.array_equal(model.snapshot()[name], arr), (m, name)

    def test_stacked_runs_must_share_their_train_settings(self, splits):
        train_data, val_data, _ = splits
        with pytest.raises(ValueError, match="but the seed"):
            train_models([Model(MODEL_CFG), Model(MODEL_CFG)], train_data, val_data,
                         [quick_train_cfg(), quick_train_cfg(batch_size=8)],
                         [LossConfig(), LossConfig()])

    def test_rejects_an_array_loss_weight_before_stacking(self, splits, monkeypatch):
        """Each member's LossConfig is validated as given: its weights are
        numbers, and only the stack's own config holds (M,) arrays."""
        train_data, val_data, _ = splits

        def stack(cls, members):
            raise AssertionError("Model.stack called")
        monkeypatch.setattr(Model, "stack", classmethod(stack))
        with pytest.raises(ValueError, match="LossConfig.reasoning_weight"):
            train_models([Model(MODEL_CFG), Model(MODEL_CFG)], train_data, val_data,
                         [quick_train_cfg(), quick_train_cfg(seed=1)],
                         [LossConfig(), LossConfig(reasoning_weight=np.array([0.1, 0.2]))])

    @pytest.mark.parametrize("n_models, n_cfgs, n_loss_cfgs",
                             [(2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 2, 3), (0, 0, 0)])
    def test_rejects_a_config_list_of_another_length(self, splits, n_models, n_cfgs,
                                                     n_loss_cfgs):
        """One TrainConfig and one LossConfig per model, and at least one
        model: a ValueError giving the three lengths, before any step."""
        train_data, val_data, _ = splits
        models = [Model(MODEL_CFG) for _ in range(n_models)]
        before = [model.snapshot() for model in models]
        with pytest.raises(ValueError, match=f"{n_models} models, {n_cfgs} train configs "
                                             f"and {n_loss_cfgs} loss configs"):
            train_models(models, train_data, val_data, [quick_train_cfg()] * n_cfgs,
                         [LossConfig()] * n_loss_cfgs)
        for model, snap in zip(models, before):
            assert all(np.array_equal(snap[k], v) for k, v in model.snapshot().items())

    def test_default_val_metric_is_accuracy(self, splits):
        _, val_data, _ = splits
        model = Model(MODEL_CFG)
        score = default_val_metric(model, val_data)
        out = model.forward_batch(val_data.text, val_data.video, val_data.audio)
        want = float((out.probs.data.argmax(axis=1) == val_data.labels).mean())
        assert score == want


@pytest.fixture(scope="module")
def small_batch():
    cfg = DatasetConfig(num_classes=3, feature_dim=8, n_train=8, n_val=4,
                        n_test=4, seed=31)
    return generate(cfg)[0]


SMALL_MODEL = ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6)


def abs_kink_model(batch: Dataset) -> Model:
    """A small model one of whose text deviations |private - centroid|
    sits 1e-6 from its kink: probing the text private bias at 1e-5 moves
    it by 6.7e-6 and flips its sign, at 1e-6 it does not."""
    model = Model(replace(SMALL_MODEL, init_seed=5))
    with no_grad():
        out = model.forward_batch(batch.text, batch.video, batch.audio)
    signed = out.private["text"].data - out.report.centroid.data
    row, col = 2, 3
    # a text bias shift b moves private_text - centroid by 2b/3
    bias = model.decoupler.private_enc["text"].lin2.bias
    bias.data[col] += 1.5 * (np.sign(signed[row, col]) * 1e-6 - signed[row, col])
    return model


@pytest.fixture(scope="module")
def trained():
    """A default model after 2 epochs on 400 samples, and a batch of 8."""
    train_split, val_split, _ = generate(DatasetConfig(n_train=400))
    model = Model(ModelConfig())
    train(model, train_split, val_split, TrainConfig(max_epochs=2, patience=2),
          LossConfig())
    batch = Dataset(*(a[:8] for a in (train_split.text, train_split.video,
                                      train_split.audio, train_split.labels,
                                      train_split.conflict_flag)))
    return model, batch


def perfbench_setup(seed: int):
    """The benchmark's gradcheck unit for ``seed``: a fresh default model,
    a batch of 8 and the probe seed, drawn as ``perfbench`` draws them."""
    data_seed, init_seed, probe_seed = (
        int(x) for x in Rng(seed, "perfbench").integers(0, 2 ** 31 - 1, size=3))
    batch = generate(DatasetConfig(n_train=8, n_val=0, n_test=0, seed=data_seed))[0]
    return Model(ModelConfig(init_seed=init_seed)), batch, LossConfig(), {"seed": probe_seed}


CRITERION_1_SHAPES = [
    (ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6, init_seed=0),
     DatasetConfig(num_classes=3, feature_dim=8, n_train=8, n_val=2, n_test=2, seed=41)),
    (ModelConfig(feature_dim=16, num_classes=4, hidden_dim=16, init_seed=1),
     DatasetConfig(num_classes=4, feature_dim=16, n_train=8, n_val=2, n_test=2, seed=42)),
    (ModelConfig(feature_dim=8, num_classes=4, hidden_dim=5, init_seed=2),
     DatasetConfig(num_classes=4, feature_dim=8, n_train=8, n_val=2, n_test=2, seed=43)),
]


def reference_setup(name: str, request):
    """(model, batch, loss config, grad_check keywords) of a named set-up.
    The ``eps-*`` set-ups set ``trainer.PROBE_STEP`` through the test's
    monkeypatch."""
    if name.startswith("perfbench-"):
        return perfbench_setup(int(name.split("-")[1]))
    if name.startswith("criterion-1-"):
        model_cfg, data_cfg = CRITERION_1_SHAPES[int(name[-1])]
        return Model(model_cfg), generate(data_cfg)[0], LossConfig(), {}
    if name == "trained":
        model, batch = request.getfixturevalue("trained")
        return model, batch, LossConfig(), {}
    if name == "eps-1e-2":
        # six classes: some true-class probabilities sit within 10 x 1e-2
        # of the floor while every guarded norm stays clear of its kink
        batch = generate(DatasetConfig(num_classes=6, feature_dim=8, n_train=8,
                                       n_val=2, n_test=2, seed=31))[0]
        model = Model(replace(SMALL_MODEL, num_classes=6, init_seed=0))
        request.getfixturevalue("monkeypatch").setattr(trainer, "PROBE_STEP", 1e-2)
        return model, batch, LossConfig(), {"coords_per_group": 5}
    small = request.getfixturevalue("small_batch")
    if name == "abs-retry":
        return abs_kink_model(small), small, LossConfig(), {}
    if name == "corrupt-hook":
        def corrupt(grads):
            grads["head.weight"] *= 1.01

        return (Model(replace(SMALL_MODEL, init_seed=6)), small, LossConfig(),
                {"coords_per_group": 8, "corrupt_hook": corrupt})
    if name == "eps-1e-3":
        request.getfixturevalue("monkeypatch").setattr(trainer, "PROBE_STEP", 1e-3)
        return Model(replace(SMALL_MODEL, init_seed=0)), small, LossConfig(), {}
    if name == "shared-encoder":
        return (Model(replace(SMALL_MODEL, init_seed=3, share_shared_encoder=True)),
                small, LossConfig(), {"coords_per_group": 8})
    if name == "gate-override":
        # a reasoning-only model: its probe stack must clamp the gate too
        return (Model(replace(SMALL_MODEL, init_seed=4, gate_override=1.0)), small,
                LossConfig(), {})
    assert name == "no-reasoning-loss", name
    return (Model(replace(SMALL_MODEL, init_seed=7)), small,
            LossConfig(reasoning_weight=0.0), {"coords_per_group": 4})


class TestGradCheck:
    def test_full_objective_gradients_certify(self, small_batch):
        model = Model(ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                                  init_seed=5))
        result = grad_check(model, small_batch, LossConfig(),
                            coords_per_group=8)
        assert isinstance(result, GradCheckResult)
        assert result.max_rel_error < 1e-4, max(result.per_group, key=result.per_group.get)
        assert result.coords_checked > 0
        assert set(result.per_group) == set(model.params())
        assert sum(result.resampled_by_kind.values()) == result.resampled

    def test_detects_corrupted_gradient(self, small_batch):
        model = Model(ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                                  init_seed=6))

        def corrupt(grads):
            grads["head.weight"] *= 1.01

        result = grad_check(model, small_batch, LossConfig(),
                            coords_per_group=8, corrupt_hook=corrupt)
        assert result.per_group["head.weight"] >= 0.009

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gradient_fails_its_group(self, small_batch, bad):
        """A NaN or inf analytic gradient gives a NaN relative error. It
        fails its group and the check at any threshold instead of dropping
        out of the maximum, here as in the one-probe-at-a-time reference."""
        model = Model(ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                                  init_seed=5))

        def corrupt(grads):
            grads["head.weight"][...] = bad

        kw = {"coords_per_group": 4, "corrupt_hook": corrupt}
        result = grad_check(model, small_batch, LossConfig(), **kw)
        assert np.isnan(result.per_group["head.weight"])
        assert np.isnan(result.max_rel_error)
        assert all(np.isfinite(err) for name, err in result.per_group.items()
                   if name != "head.weight")
        assert not result.passed(1e-4) and not result.passed(np.inf)
        reference = oracles.grad_check_reference(model, small_batch, LossConfig(), **kw)
        assert json.dumps(asdict(result)) == json.dumps(asdict(reference))

    def test_rejects_a_bad_loss_config_before_any_forward(self, small_batch, monkeypatch):
        def forward(*args, **kwargs):
            raise AssertionError("a forward ran before the config was checked")

        monkeypatch.setattr(Model, "forward_batch", forward)
        for cfg in (LossConfig(reasoning_weight=-0.1), LossConfig(moment_order=0)):
            with pytest.raises(ValueError):
                grad_check(Model(SMALL_MODEL), small_batch, cfg)

    @pytest.mark.parametrize("coords", [0, -1, 2.5, 20.0, True, "20", None])
    def test_rejects_a_bad_coordinate_count_before_any_forward(self, small_batch,
                                                               monkeypatch, coords):
        def forward(*args, **kwargs):
            raise AssertionError("a forward ran before coords_per_group was checked")

        monkeypatch.setattr(Model, "forward_batch", forward)
        with pytest.raises(ValueError, match="coords_per_group"):
            grad_check(Model(SMALL_MODEL), small_batch, LossConfig(), coords_per_group=coords)

    @pytest.mark.parametrize("seed", [1.5, True, "0", None])
    def test_rejects_a_seed_that_is_no_integer_before_any_forward(self, small_batch,
                                                                  monkeypatch, seed):
        """1.5 and True used to probe the coordinates of seed 1."""
        def forward(*args, **kwargs):
            raise AssertionError("a forward ran before the seed was checked")

        monkeypatch.setattr(Model, "forward_batch", forward)
        with pytest.raises(ValueError, match="seed"):
            grad_check(Model(SMALL_MODEL), small_batch, LossConfig(), seed=seed)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_refuses_a_batch_of_fewer_than_two_rows(self, small_batch, monkeypatch, rows):
        """At 0 rows every probe resampled with divide-by-zero warnings; at 1
        the check passed though diff_loss and sim_loss were skipped, their
        backward never certified. Both now fail before the stack is built."""
        def stack(*args, **kwargs):
            raise AssertionError("a stack was built before the batch was checked")

        monkeypatch.setattr(Model, "stack", stack)
        batch = Dataset(*(a[:rows] for a in (small_batch.text, small_batch.video,
                                              small_batch.audio, small_batch.labels,
                                              small_batch.conflict_flag)))
        with pytest.raises(ValueError, match=f"at least 2 rows, got {rows}"):
            grad_check(Model(SMALL_MODEL), batch, LossConfig())

    def test_unused_head_reports_zero_error(self, small_batch):
        """With the auxiliary weight at zero its head gets no gradient; the
        checker must agree the true derivative is zero rather than flag it."""
        model = Model(ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                                  init_seed=7))
        cfg = LossConfig(reasoning_weight=0.0)
        result = grad_check(model, small_batch, cfg, coords_per_group=4)
        assert result.per_group["rea_head.weight"] == 0.0
        assert result.max_rel_error < 1e-4

    def test_passed_needs_coverage_and_no_skips(self):
        def result(err, checked, skipped):
            return GradCheckResult(max_rel_error=err, per_group={"w": err},
                                   coords_checked=checked, resampled=0,
                                   skipped=skipped)

        assert result(1e-6, 10, 0).passed(1e-4)
        assert not result(1e-3, 10, 0).passed(1e-4)
        assert not result(0.0, 0, 0).passed(1e-4)
        assert not result(0.0, 10, 1).passed(1e-4)
        assert not result(np.nan, 10, 0).passed(1e-4)
        assert not result(np.inf, 10, 0).passed(np.inf)


    def test_abs_kink_near_a_deviation_is_probed_at_smaller_steps(self, small_batch):
        """One text deviation sits 1e-6 from its kink (``abs_kink_model``).
        The retry at the smaller step must certify every wanted coordinate
        instead of resampling them away."""
        model = abs_kink_model(small_batch)
        result = grad_check(model, small_batch, LossConfig(), coords_per_group=20)
        size = sum(min(p.data.size, 20) for p in model.params().values())
        assert result.skipped == 0 and result.resampled == 0
        assert result.coords_checked == size
        assert result.passed(1e-4), max(result.per_group, key=result.per_group.get)


# The modules whose ops record their nodes through ``tensor.node``, each
# holding its own name for it.
NODE_MODULES = (tensor, functional, fusion, layers, losses, perception)


def default_grad_check(monkeypatch, scaled: str | None = None,
                       seen: set | None = None) -> GradCheckResult:
    """The default ``dualpath gradcheck`` (seed 0, a batch of 8), with every
    backward closure of op kind ``scaled`` handed its incoming gradient
    times 1 + 1e-3. A kind is the owner in the closure's ``__qualname__``
    (``Tensor.__add__`` for ``Tensor.__add__.<locals>.back``); ``seen``
    collects the kinds recorded."""
    record = tensor.node

    def node(data, parents, back):
        kind = back.__qualname__.split(".<locals>")[0]
        if seen is not None:
            seen.add(kind)
        if kind == scaled:
            inner = back

            def back(g):
                inner(g * (1.0 + 1e-3))
        return record(data, parents, back)

    cfg = ExperimentConfig()
    batch = generate(replace(cfg.dataset, n_train=8, n_val=2, n_test=2))[0]
    with monkeypatch.context() as patch:
        for module in NODE_MODULES:
            patch.setattr(module, "node", node)
        return grad_check(Model(cfg.model_config(0)), batch, cfg.effective_loss(), seed=0)


def test_the_certifier_fails_a_gradient_off_by_1e_3_in_any_op_kind(monkeypatch):
    """The default check passes, and scaling the backward of any one op
    kind it records by 1 + 1e-3 makes it fail at the CLI's threshold."""
    kinds: set[str] = set()
    assert default_grad_check(monkeypatch, seen=kinds).passed(1e-4)
    assert len(kinds) >= 22, sorted(kinds)
    missed = [kind for kind in sorted(kinds)
              if default_grad_check(monkeypatch, scaled=kind).passed(1e-4)]
    assert missed == []


class TestKinkKinds:
    def test_kink_crossed_names_the_kind_that_tripped(self):
        eps = 1e-5
        signs = ("abs_signs", np.array([1.0, -1.0]))
        assert _kink_crossed([signs], [signs], eps) is None
        assert _kink_crossed([signs], [("abs_signs", np.array([1.0, 1.0]))],
                             eps) == "abs_signs"
        assert _kink_crossed([("norm_floor", 5e-5)], [("norm_floor", 0.5)],
                             eps) == "norm_floor"
        assert _kink_crossed([("norm_floor", 0.5)], [("norm_floor", 0.4)], eps) is None
        assert _kink_crossed([("clamp_margin", 1e-5)], [("clamp_margin", 1.0)],
                             eps) == "clamp_margin"
        assert _kink_crossed([("clamp_margin", 1.0)], [("clamp_margin", 1.0)], eps) is None
        assert _kink_crossed([signs], [], eps) == "length"
        assert _kink_crossed([signs], [("norm_floor", 1.0)], eps) == "length"
        # The first kink in recorded order that trips is the one named.
        assert _kink_crossed([("norm_floor", 5e-5), ("abs_signs", np.array([1.0]))],
                             [("norm_floor", 5e-5), ("abs_signs", np.array([-1.0]))],
                             eps) == "norm_floor"

    def test_result_defaults_to_no_kinds(self):
        res = GradCheckResult(max_rel_error=0.0, per_group={}, coords_checked=0,
                              resampled=0, skipped=0)
        assert res.resampled_by_kind == {}

    def test_trained_model_certifies_every_coordinate(self, trained):
        """After 2 epochs on 400 samples some CMD moment differences sit
        near 1e-3, far above the probe step; the certifier must check
        every wanted coordinate rather than resample them all away."""
        model, batch = trained
        result = grad_check(model, batch, LossConfig(), coords_per_group=20)
        size = sum(min(p.data.size, 20) for p in model.params().values())
        assert result.coords_checked == size
        assert result.skipped == 0
        assert result.passed(1e-4), max(result.per_group, key=result.per_group.get)


class TestStackedProbes:
    """``grad_check`` evaluates its probes in rounds, many to one stacked
    forward; ``oracles.grad_check_reference`` probes one coordinate at a
    time with two plain forwards. Their results must be identical."""

    @pytest.mark.parametrize("name", [
        "perfbench-1", "perfbench-80", "perfbench-404", "perfbench-52",
        "criterion-1-0", "criterion-1-1", "criterion-1-2", "abs-retry",
        "corrupt-hook", "trained", "eps-1e-3", "eps-1e-2", "shared-encoder",
        "no-reasoning-loss", "gate-override"])
    def test_matches_one_probe_at_a_time(self, name, request):
        model, batch, loss_cfg, kw = reference_setup(name, request)
        result = grad_check(model, batch, loss_cfg, **kw)
        reference = oracles.grad_check_reference(model, batch, loss_cfg,
                                                 epsilon=trainer.PROBE_STEP, **kw)
        assert json.dumps(asdict(result)) == json.dumps(asdict(reference))
        # each set-up exercises what it is here for
        kinds = set(result.resampled_by_kind)
        if name == "perfbench-52":  # fails on rounding, not on a kink
            assert not result.passed(1e-4) and result.skipped == 0
        elif name == "corrupt-hook":
            assert result.per_group["head.weight"] >= 0.009
        elif name == "eps-1e-3":
            assert kinds == {"norm_floor"} and result.skipped > 0
        elif name == "eps-1e-2":
            assert kinds == {"clamp_margin", "abs_signs"} and result.skipped > 0
        else:
            assert result.passed(1e-4), max(result.per_group, key=result.per_group.get)
        if name == "gate-override":  # the gate is a constant: no probe moves the loss
            assert all(result.per_group[p] == 0.0 for p in model.perception.div_gate.params())

    @pytest.mark.parametrize("name", [
        "abs-retry", "eps-1e-2", "eps-1e-3", "shared-encoder", "perfbench-1"])
    def test_result_does_not_depend_on_the_round_width(self, name, request, monkeypatch):
        """The same result, bit for bit, at one pair a round, at 12 pairs,
        at the earlier width of 20 and at the module's width, also on
        set-ups that retry or resample."""
        model, batch, loss_cfg, kw = reference_setup(name, request)
        dumps = set()
        for pairs in (1, 12, 20, trainer._PROBE_PAIRS):  # the tuple is built first
            monkeypatch.setattr(trainer, "_PROBE_PAIRS", pairs)
            dumps.add(json.dumps(asdict(grad_check(model, batch, loss_cfg, **kw))))
        assert len(dumps) == 1

    def test_default_check_makes_one_forward_per_round(self, monkeypatch):
        """A fresh default model certifies 811 coordinates without a
        resample. One probe at a time that took 1 + 2 x 811 = 1623
        forwards; in rounds of ``_PROBE_PAIRS`` pairs it takes one recorded
        analytic forward and one unrecorded forward per round, all on a
        stack and none on the model itself."""
        model, batch, loss_cfg, kw = perfbench_setup(1)
        forward = Model.forward_batch
        calls = []

        def counting(self, *args, **kwargs):
            calls.append((self is model, is_recording()))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Model, "forward_batch", counting)
        result = grad_check(model, batch, loss_cfg, **kw)
        assert result.coords_checked == 811 and result.resampled == 0
        rounds = math.ceil(811 / trainer._PROBE_PAIRS)
        assert calls == [(False, True)] + [(False, False)] * rounds

    def test_a_round_gives_the_member_axis_only_to_the_groups_it_perturbs(
            self, monkeypatch):
        """At every round's forward a group the round perturbs holds one
        slice per member and every other group keeps its (1, ...) stack
        shape; over the check every group is perturbed."""
        model, batch, loss_cfg, kw = perfbench_setup(1)
        members = 2 * trainer._PROBE_PAIRS
        forward = Model.forward_batch
        rounds = []

        def recording(self, *args, **kwargs):
            if not is_recording():  # a probe round, not the analytic pass
                rounds.append({name: (len(p.data), any(not np.array_equal(p.data[0], q)
                                                       for q in p.data[1:]))
                               for name, p in self.params().items()})
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Model, "forward_batch", recording)
        grad_check(model, batch, loss_cfg, **kw)
        assert len(rounds) == math.ceil(811 / trainer._PROBE_PAIRS)
        perturbed = set()
        for groups in rounds:
            assert all(lead == (members if moved else 1) for lead, moved in groups.values())
            wide = {name for name, (lead, _) in groups.items() if lead == members}
            assert wide
            perturbed |= wide
        assert perturbed == set(model.params())

    @pytest.mark.parametrize("shared_encoder", [False, True])
    def test_pools_are_each_groups_permutation_taken_from_the_end(self, shared_encoder,
                                                                  monkeypatch):
        """Group g's pool is ``Rng(seed, "gradcheck").child(g).permutation``
        of its size, and the rounds probe its coordinates from the end."""
        model, batch, loss_cfg, kw = perfbench_setup(1)
        if shared_encoder:
            model = Model(replace(model.config, share_shared_encoder=True))
        forward = Model.forward_batch
        probed: dict[str, list[int]] = {}

        def recording(self, *args, **kwargs):
            if not is_recording():  # a probe round: pair j moved one coordinate
                for name, p in self.params().items():
                    rows = p.data.reshape(len(p.data), -1)
                    for plus, minus in zip(rows[0::2], rows[1::2]):
                        for i in np.flatnonzero(plus != minus).tolist():
                            if i not in probed.setdefault(name, []):
                                probed[name].append(i)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(Model, "forward_batch", recording)
        result = grad_check(model, batch, loss_cfg, **kw)
        assert result.passed(1e-4)
        params = model.params()
        assert set(probed) == set(params)
        for name, p in params.items():
            pool = Rng(kw["seed"], "gradcheck").child(name).permutation(p.data.size)
            assert len(probed[name]) >= min(p.data.size, 20), name
            assert probed[name] == pool[::-1][:len(probed[name])].tolist(), name

    def test_judges_a_round_as_pair_by_pair(self):
        """One pass over a round's records gives each pair the kind and the
        abs-only flag ``_kink_crossed`` and ``_only_abs_crossed`` give it,
        a fanned-out (1, ...) record included."""
        rng = Rng(3, "judge-round")
        pairs, members = 5, 12
        steps = np.array([1e-5, 1e-6, 1e-5, 1e-7, 1e-5])
        signs = rng.child("s").integers(-1, 2, size=(members, 3, 4)).astype(np.int8)
        signs[1::2] = signs[0::2]
        signs[3, 1, 2] = -signs[2, 1, 2] or 1  # pair 1 flips one sign
        signs[7, 0, 0] = -signs[6, 0, 0] or 1  # so does pair 3
        norms = np.full(members, 1.0)
        norms[6] = 5e-7  # pair 3 also sits near a guarded norm's kink
        kinks = [
            ("abs_signs", signs),
            ("abs_signs", np.broadcast_to(rng.child("f").integers(-1, 2, size=(1, 4)),
                                          (members, 4))),
            ("norm_floor", norms),
            ("clamp_margin", np.broadcast_to(np.array([2e-5]), (members,))),  # trips pair 0, 2, 4
        ]
        first, only_abs = trainer._judge_round(kinks, steps)
        for j in range(pairs):
            plus = [(kind, pay[2 * j]) for kind, pay in kinks]
            minus = [(kind, pay[2 * j + 1]) for kind, pay in kinks]
            assert first[j] == _kink_crossed(plus, minus, steps[j]), j
            assert only_abs[j] == _only_abs_crossed(plus, minus, steps[j]), j
        assert first == ["clamp_margin", "abs_signs", "clamp_margin", "abs_signs", "clamp_margin"]
        assert only_abs == [False, True, False, False, False]

    def test_never_writes_the_model(self, small_batch, monkeypatch):
        """The analytic pass and the probes run on a stack of copies: a
        member bound to an optimizer arena keeps its parameters, its arena
        bytes and the gradients it holds, also when the loss raises in the
        middle of a probe."""
        members = [Model(replace(SMALL_MODEL, init_seed=s)) for s in (5, 6)]
        stack = Model.stack(members)
        opt = AdamW(stack.params(), TrainConfig())
        stack.bind(members)
        model = members[1]
        arena = opt.arena.tobytes()
        before = {k: a.tobytes() for k, a in model.snapshot().items()}
        sentinels = {}
        for name, p in model.params().items():
            p.grad = sentinels[name] = np.full(p.data.shape, 7.0)

        def assert_untouched():
            assert opt.arena.tobytes() == arena
            for name, p in model.params().items():
                assert p.data.tobytes() == before[name], name
                assert np.shares_memory(p.data, opt.arena), name
                assert p.grad is sentinels[name] and (p.grad == 7.0).all(), name

        grad_check(model, small_batch, LossConfig(), coords_per_group=4)
        assert_untouched()
        calls = count()
        total_loss = trainer.total_loss

        def failing(*args, **kwargs):
            if next(calls) == 1:  # the first probe's loss, after the analytic one
                raise RuntimeError("loss failed")
            return total_loss(*args, **kwargs)

        monkeypatch.setattr(trainer, "total_loss", failing)
        with pytest.raises(RuntimeError, match="loss failed"):
            grad_check(model, small_batch, LossConfig(), coords_per_group=4)
        assert_untouched()


class TestReusedOutputs:
    """Inside a check's probe rounds an op that reads only unperturbed
    arrays returns the output its first call on them gave."""

    def test_a_head_round_runs_no_encoder_affine(self, monkeypatch):
        """A round that perturbs only head groups takes every encoder's
        output from the cache; a round that perturbs an encoder runs it."""
        model, batch, loss_cfg, kw = perfbench_setup(1)
        record, forward = layers.node, Model.forward_batch
        rounds: list[dict] = []  # per round: the groups it widens, encoder affines run

        def counting_node(data, parents, back):
            if rounds and back.__qualname__.startswith("_affine."):
                rounds[-1]["affines"] += parents[1] in rounds[-1]["encoders"]
            return record(data, parents, back)

        def recording(self, *args, **kwargs):
            if not is_recording():
                params = self.params().items()
                rounds.append({"wide": {n for n, p in params if len(p.data) > 1},
                               "encoders": {p for n, p in params if n.startswith("decoupler.")},
                               "affines": 0})
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(layers, "node", counting_node)
        monkeypatch.setattr(Model, "forward_batch", recording)
        grad_check(model, batch, loss_cfg, **kw)
        head = [r for r in rounds if all(n.split(".")[0] in ("head", "rea_head")
                                         for n in r["wide"])]
        encoder = [r for r in rounds if any(n.startswith("decoupler.") for n in r["wide"])]
        assert head and encoder
        assert [r["affines"] for r in head] == [0] * len(head)
        assert all(r["affines"] > 0 for r in encoder)

    @pytest.mark.parametrize("name", ["shared-encoder", "gate-override", "abs-retry"])
    def test_each_round_equals_the_same_round_without_the_cache(self, name, request,
                                                                monkeypatch):
        """Each round's loss vector and kink records (kinds, shapes, values
        and whether a record is one slice fanned out) equal those of the
        same stack state evaluated again with the cache off."""
        model, batch, loss_cfg, kw = reference_setup(name, request)
        forward, loss = Model.forward_batch, trainer.total_loss
        members = 2 * trainer._PROBE_PAIRS
        calls, checked = [], []

        def capturing(self, *args, **kwargs):
            calls.append((self, args, kwargs))
            return forward(self, *args, **kwargs)

        def comparing(out, labels, cfg):
            result = loss(out, labels, cfg)
            if is_recording():  # the analytic pass
                return result
            reuse, kinks = tensor._reuse, list(tensor._kink_watch)
            assert reuse is not None and reuse.outputs  # the round reused outputs
            stack, args, kwargs = calls[-1]
            tensor._reuse = None
            try:
                with tensor.watch_kinks(members) as plain_kinks:
                    plain = loss(forward(stack, *args, **kwargs), labels, cfg)[0].data
            finally:
                tensor._reuse = reuse
            np.testing.assert_array_equal(result[0].data, plain)
            assert [k for k, _ in kinks] == [k for k, _ in plain_kinks]
            for (kind, pay), (_, want) in zip(kinks, plain_kinks):
                assert pay.shape == want.shape and (pay.strides[0] == 0) == (want.strides[0] == 0)
                np.testing.assert_array_equal(pay, want, err_msg=kind)
            checked.append(len(kinks))
            return result

        monkeypatch.setattr(Model, "forward_batch", capturing)
        monkeypatch.setattr(trainer, "total_loss", comparing)
        result = grad_check(model, batch, loss_cfg, **kw)
        assert len(checked) >= 2 and result.passed(1e-4)
