"""Acceptance gates for the whole package.

Nine headline guarantees, one test each, ordered fast to slow. Each test
prints a PASS line with its measured value so a verbose run doubles as
an acceptance report. The slow half (multi-seed training, the ablation
grid, the noise sweep) runs real experiments at the default desk-scale
configuration and checks quality bars, not just plumbing.
"""

import time

import numpy as np
import pytest

from oracles import trace_forward

from dualpath.experiments import (DEFAULT_SIGMAS, ExperimentConfig, run_ablation,
                                  run_main, run_robustness, train_runs, train_single)
from dualpath.functional import layer_norm
from dualpath.fusion import (Model, ModelConfig, load_checkpoint,
                             save_checkpoint)
from dualpath.losses import LossConfig, cmd, cross_entropy
from dualpath.metrics import compute_metrics
from dualpath.perception import js_divergence, normalized_entropy
from dualpath.rng import Rng
from dualpath.synthdata import (DatasetConfig, MODALITIES, generate,
                                nearest_anchor_accuracy)
from dualpath.tensor import Tensor
from dualpath.trainer import TrainConfig, grad_check

MODS = ("text", "video", "audio")


# -- criterion 1: gradient certification ------------------------------------

def test_criterion_1_gradients_certify_against_finite_differences():
    configs = [
        (ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6, init_seed=0),
         DatasetConfig(num_classes=3, feature_dim=8, n_train=8, n_val=2,
                       n_test=2, seed=41)),
        (ModelConfig(feature_dim=16, num_classes=4, hidden_dim=16, init_seed=1),
         DatasetConfig(num_classes=4, feature_dim=16, n_train=8, n_val=2,
                       n_test=2, seed=42)),
        (ModelConfig(feature_dim=8, num_classes=4, hidden_dim=5, init_seed=2),
         DatasetConfig(num_classes=4, feature_dim=8, n_train=8, n_val=2,
                       n_test=2, seed=43)),
    ]
    start = time.perf_counter()
    worst = 0.0
    for model_cfg, data_cfg in configs:
        model = Model(model_cfg)
        batch = generate(data_cfg)[0]
        res = grad_check(model, batch, LossConfig(), coords_per_group=20)
        assert set(res.per_group) == set(model.params())
        assert res.skipped == 0
        worst_group = max(res.per_group, key=res.per_group.get)
        assert res.max_rel_error < 1e-4, (model_cfg, worst_group, res.max_rel_error)
        worst = max(worst, res.max_rel_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 1 PASS: max rel error {worst:.3e} over "
          f"{len(configs)} configs in {elapsed:.1f}s")


# -- criterion 2: closed-form oracle agreement -------------------------------

def test_criterion_2_analytic_values_match_closed_forms():
    tol = 1e-9

    same = Tensor(np.array([[0.1, 0.2, 0.3, 0.4]]))
    assert abs(js_divergence({m: same for m in MODS}).data.item()) < tol

    a = Tensor(np.array([[1.0, 0.0]]))
    b = Tensor(np.array([[0.0, 1.0]]))
    two_one = js_divergence({"text": a, "video": a, "audio": b})
    assert abs(two_one.data.item() - (2 * np.log(1.5) + np.log(3)) / 3) < tol

    disjoint = {
        "text": Tensor(np.array([[1.0, 0.0, 0.0]])),
        "video": Tensor(np.array([[0.0, 1.0, 0.0]])),
        "audio": Tensor(np.array([[0.0, 0.0, 1.0]])),
    }
    assert abs(js_divergence(disjoint).data.item() - np.log(3.0)) < tol

    uniform = Tensor(np.full((1, 4), 0.25))
    assert abs(normalized_entropy(uniform, 4).data.item() - 1.0) < tol
    onehot = Tensor(np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert abs(normalized_entropy(onehot, 4).data.item()) < tol
    half = Tensor(np.array([[0.5, 0.5, 0.0, 0.0]]))
    assert abs(normalized_entropy(half, 4).data.item() - 0.5) < tol

    x = Tensor(Rng(0, "cmd").normal(size=(10, 4)))
    assert abs(float(cmd(x, x, 5).data)) < tol
    y = Tensor(Rng(1, "cmd").normal(size=(10, 4)))
    assert abs(float(cmd(x, y, 5).data) - float(cmd(y, x, 5).data)) < tol
    pair_a = Tensor(np.array([[1.0], [2.0], [3.0]]))
    pair_b = Tensor(np.array([[2.0], [4.0], [6.0]]))
    assert abs(float(cmd(pair_a, pair_b, 2).data) - 4.0) < tol

    probs = Tensor(np.full((6, 5), 0.2))
    ce = cross_entropy(probs, np.arange(6) % 5)
    assert abs(float(ce.data) - np.log(5.0)) < tol
    point7 = cross_entropy(Tensor(np.array([[0.7, 0.2, 0.1]])), np.array([0]))
    assert abs(float(point7.data) - 0.35667494393873245) < tol

    hand = compute_metrics(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), 2)
    assert abs(hand.macro_f1 - 11.0 / 15.0) < tol

    print("criterion 2 PASS: divergence, entropy, moment, cross-entropy and "
          "F1 values match closed forms at 1e-9")


# -- criterion 3: runtime invariants -----------------------------------------

def test_criterion_3_runtime_invariants_hold_under_random_probes():
    start = time.perf_counter()
    model = Model(ModelConfig(init_seed=3))
    d = model.config.feature_dim
    rng = Rng(7, "probes")
    n_normal, n_extreme = 700, 500
    blocks = []
    for m in MODS:
        normal = rng.child(f"n/{m}").normal(size=(n_normal, d))
        extreme = rng.child(f"e/{m}").normal(size=(n_extreme, d)) * 100.0
        blocks.append(np.concatenate([normal, extreme], axis=0))
    n = n_normal + n_extreme
    out = model.forward_batch(*blocks)
    report = out.report

    probs = out.probs.data
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    assert (probs > 0).all()
    for m in MODS:
        uni = report.probs[m].data
        assert np.abs(uni.sum(axis=1) - 1.0).max() < 1e-12
        ent = report.entropies[m].data
        assert (ent >= -1e-12).all() and (ent <= 1.0 + 1e-12).all()

    trust = report.trust.data
    assert np.abs(trust.sum(axis=1) - 1.0).max() < 1e-12
    assert (trust > 0).all()

    gate = report.gate.data
    assert (gate > 0.0).all() and (gate < 1.0).all()

    js = report.js_div.data
    assert (js >= -1e-12).all()
    assert (js <= np.log(3.0) + 1e-12).all()

    gated = np.linalg.norm(report.gated_diff.data, axis=1)
    full = np.linalg.norm(report.diff_vector.data, axis=1)
    live = full > 0
    assert (gated[live] < full[live]).all()

    # with the synergy scale at its zero init the consensus pathway must
    # equal the normalized context projection exactly
    assert float(model.intuition.synergy_scale.data) == 0.0
    tensors = [Tensor(b) for b in blocks]
    raw = model.intuition.fuse_raw(*tensors)
    want = layer_norm(raw, model.intuition.norm.gain, model.intuition.norm.bias)
    assert np.array_equal(out.intuition_repr.data, want.data)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 3 PASS: all invariants held on {n} probes "
          f"in {elapsed:.1f}s")


# -- criterion 4: independent re-evaluation ----------------------------------

def test_criterion_4_forward_pass_matches_independent_trace():
    tol = 1e-10
    checked = 0
    scalar_keys = ("semantic_energy", "js", "stat_bias", "conflict_energy",
                   "gate")
    vector_keys = (["intuition", "centroid", "diff_vector", "gated_diff",
                    "trust", "reasoning", "fused", "logits", "probs",
                    "rea_logits"]
                   + [f"shared_{m}" for m in MODS]
                   + [f"private_{m}" for m in MODS]
                   + [f"dev_{m}" for m in MODS]
                   + [f"probs_{m}" for m in MODS])
    for k in range(100):
        model = Model(ModelConfig(feature_dim=6, num_classes=3, hidden_dim=5,
                                  init_seed=k))
        if k % 2:
            prng = Rng(k, "perturb")
            model.set_params({
                name: p.data + 0.3 * prng.child(name).normal(size=p.data.shape)
                for name, p in model.params().items()})
        irng = Rng(k, "input")
        text = irng.child("text").normal(size=6)
        video = irng.child("video").normal(size=6)
        audio = irng.child("audio").normal(size=6)
        trace = trace_forward(model, text, video, audio)
        out = model.forward_batch(text[None], video[None], audio[None])
        got = {
            "intuition": out.intuition_repr.data[0],
            "centroid": out.report.centroid.data[0],
            "diff_vector": out.report.diff_vector.data[0],
            "semantic_energy": out.report.semantic_energy.data[0, 0],
            "js": out.report.js_div.data[0, 0],
            "stat_bias": out.report.stat_bias.data[0, 0],
            "conflict_energy": out.report.conflict_energy.data[0, 0],
            "gated_diff": out.report.gated_diff.data[0],
            "trust": out.report.trust.data[0],
            "gate": out.report.gate.data[0, 0],
            "reasoning": out.reasoning_repr.data[0],
            "fused": out.fused.data[0],
            "logits": out.logits.data[0],
            "probs": out.probs.data[0],
            "rea_logits": out.rea_logits.data[0],
        }
        for m in MODS:
            got[f"shared_{m}"] = out.shared[m].data[0]
            got[f"private_{m}"] = out.private[m].data[0]
            got[f"dev_{m}"] = out.report.deviations[m].data[0]
            got[f"probs_{m}"] = out.report.probs[m].data[0]
        for key in scalar_keys:
            assert abs(got[key] - trace[key]) <= tol, (k, key)
            checked += 1
        for key in vector_keys:
            assert np.abs(got[key] - np.asarray(trace[key])).max() <= tol, (k, key)
            checked += 1
    print(f"criterion 4 PASS: {checked} stage comparisons across "
          f"100 parameterizations agreed within 1e-10")


# -- criteria 5 and 6 share one set of default-config runs -------------------

@pytest.fixture(scope="module")
def default_runs():
    cfg = ExperimentConfig()
    splits = generate(cfg.dataset)
    start = time.perf_counter()
    runs = train_runs([(cfg, seed) for seed in cfg.seeds], splits)  # one stack
    rows = [(seed, metrics, gating)
            for seed, (_, _, metrics, gating, _) in zip(cfg.seeds, runs)]
    elapsed = time.perf_counter() - start
    return cfg, splits, rows, elapsed


def test_criterion_5_default_training_reaches_the_accuracy_bar(default_runs):
    cfg, splits, rows, elapsed = default_runs
    anchor_acc = nearest_anchor_accuracy(splits[2], cfg.dataset)
    assert anchor_acc >= 0.95, "task is not cleanly solvable; bar is void"
    accs = [metrics.acc for _, metrics, _ in rows]
    mean_acc = float(np.mean(accs))
    assert mean_acc >= 0.85, accs
    assert elapsed < 300.0
    print(f"criterion 5 PASS: mean test accuracy {mean_acc:.4f} over "
          f"{len(rows)} seeds in {elapsed:.0f}s (anchor oracle {anchor_acc:.3f})")


def test_criterion_6_gate_opens_wider_on_conflicted_samples(default_runs):
    _, _, rows, _ = default_runs
    wins = 0
    gaps = []
    for _, _, gating in rows:
        conf = gating["gate_mean_conflicted"]
        cons = gating["gate_mean_consistent"]
        assert conf is not None and cons is not None
        gaps.append(conf - cons)
        wins += int(conf > cons)
    assert wins >= 4, gaps
    print(f"criterion 6 PASS: conflicted-sample gate higher on {wins}/5 seeds "
          f"(mean gap {float(np.mean(gaps)):+.4f})")


# -- criterion 7: ablation separates the reasoning pathway -------------------

def test_criterion_7_reasoning_pathway_earns_its_conflict_accuracy(tmp_path):
    start = time.perf_counter()
    report = run_ablation(ExperimentConfig(), str(tmp_path / "ablation"))
    elapsed = time.perf_counter() - start
    by_name = {v["variant"]: v for v in report["variants"]}
    full = by_name["full"]["aggregate"]["conflict_subset_acc"]["mean"]
    no_rea = by_name["no_rea"]["aggregate"]["conflict_subset_acc"]["mean"]
    assert full >= no_rea, (full, no_rea)
    assert elapsed < 1800.0
    print(f"criterion 7 PASS: conflict-subset accuracy full {full:.4f} >= "
          f"reasoning-ablated {no_rea:.4f}; grid took {elapsed:.0f}s")


# -- criterion 8: graceful degradation under input noise ---------------------

def test_criterion_8_macro_f1_degrades_monotonically_with_noise(tmp_path):
    report = run_robustness(ExperimentConfig(), str(tmp_path / "robust"))
    rows = report["by_sigma_mean"]
    sigmas = [r["sigma"] for r in rows]
    assert tuple(sigmas) == DEFAULT_SIGMAS
    f1s = [r["macro_f1"]["mean"] for r in rows]
    for prev, cur in zip(f1s, f1s[1:]):
        assert cur <= prev + 0.02, f1s
    assert f1s[-1] < f1s[0]
    path = " -> ".join(f"{v:.3f}" for v in f1s)
    print(f"criterion 8 PASS: macro F1 {path} over sigmas {sigmas}")


# -- criterion 9: byte determinism --------------------------------------------

def test_criterion_9_reports_and_checkpoints_reproduce_exactly(tmp_path):
    cfg = ExperimentConfig(
        dataset=DatasetConfig(num_classes=3, feature_dim=8, n_train=240,
                              n_val=60, n_test=60, seed=19),
        train=TrainConfig(max_epochs=4, batch_size=16, seed=0),
        hidden_dim=8,
        seeds=(0, 1),
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_main(cfg, str(out_a))
    run_main(cfg, str(out_b))
    for name in ("main_report.json", "main_metrics.csv", "gating.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    model, _, _, _, _ = train_single(cfg, 0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model)
    loaded = load_checkpoint(ckpt)
    for name, p in model.params().items():
        assert np.array_equal(loaded.params()[name].data, p.data), name
    test_data = generate(cfg.dataset)[2]
    a = model.forward_batch(test_data.text, test_data.video, test_data.audio)
    b = loaded.forward_batch(test_data.text, test_data.video, test_data.audio)
    assert np.array_equal(a.probs.data, b.probs.data)
    print("criterion 9 PASS: report files byte-identical across runs; "
          "checkpoint round-trip bit-exact")
