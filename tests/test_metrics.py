"""Classification metrics: hand-computed confusion cases and conventions."""

import numpy as np
import pytest

from dualpath.fusion import Model, ModelConfig
from dualpath.metrics import (Metrics, compute_metrics, eval_forward, evaluate,
                              gate_stats, gating_summary, output_metrics)
from dualpath.synthdata import DatasetConfig, generate


def test_perfect_predictions():
    labels = np.array([0, 1, 2, 0, 1, 2])
    m = compute_metrics(labels, labels.copy(), 3)
    assert m.acc == 1.0
    assert m.macro_f1 == 1.0
    assert m.macro_precision == 1.0
    assert m.macro_recall == 1.0
    assert m.weighted_f1 == 1.0
    assert m.per_class_f1 == (1.0, 1.0, 1.0)


def test_everything_wrong_binary_complement():
    labels = np.array([0, 0, 1, 1])
    preds = 1 - labels
    m = compute_metrics(labels, preds, 2)
    assert m.acc == 0.0
    assert m.macro_f1 == 0.0
    assert m.macro_precision == 0.0
    assert m.weighted_f1 == 0.0


def test_hand_confusion_case():
    # class 0: tp=1, fp=0, fn=1 -> P=1, R=0.5, F1=2/3
    # class 1: tp=2, fp=1, fn=0 -> P=2/3, R=1, F1=0.8
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 1, 1, 1])
    m = compute_metrics(labels, preds, 2)
    assert m.acc == pytest.approx(0.75)
    assert m.per_class_f1[0] == pytest.approx(2.0 / 3.0)
    assert m.per_class_f1[1] == pytest.approx(0.8)
    assert m.macro_f1 == pytest.approx(11.0 / 15.0)
    assert m.macro_precision == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
    assert m.macro_recall == pytest.approx(0.75)
    # supports are equal so the weighted average matches the macro one
    assert m.weighted_f1 == pytest.approx(m.macro_f1)


def test_absent_class_counts_as_zero_in_macro():
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 0, 1, 1])
    m = compute_metrics(labels, preds, 4)
    assert m.per_class_f1 == (1.0, 1.0, 0.0, 0.0)
    assert m.macro_f1 == pytest.approx(0.5)
    # weighted average ignores empty classes through zero support
    assert m.weighted_f1 == pytest.approx(1.0)


def test_class_permutation_invariance_of_macro():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=200)
    preds = rng.integers(0, 4, size=200)
    base = compute_metrics(labels, preds, 4)
    perm = np.array([2, 3, 1, 0])
    permuted = compute_metrics(perm[labels], perm[preds], 4)
    assert permuted.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)
    assert permuted.acc == pytest.approx(base.acc, abs=1e-12)


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        compute_metrics(np.array([]), np.array([]), 2)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        compute_metrics(np.array([0, 1]), np.array([0]), 2)


@pytest.mark.parametrize("labels, preds, num_classes, message", [
    ([0, 5], [0, 1], 2, r"label 5 at position 1 is outside \[0, 2\)"),
    ([-1, 1], [0, 1], 2, r"label -1 at position 0 is outside \[0, 2\)"),
    ([0, 1], [0, 0], 1, r"label 1 at position 1 is outside \[0, 1\)"),
    ([0, 1], [2, 1], 2, r"prediction 2 at position 0 is outside \[0, 2\)"),
])
def test_out_of_range_class_rejected(labels, preds, num_classes, message):
    """A class index outside [0, num_classes) is named, never counted."""
    with pytest.raises(ValueError, match=message):
        compute_metrics(np.array(labels), np.array(preds), num_classes)


def test_conflict_mask_length_mismatch_rejected():
    with pytest.raises(ValueError, match="conflict_mask has 2 entries, labels 3"):
        compute_metrics(np.array([0, 1, 1]), np.array([0, 1, 0]), 2,
                        conflict_mask=np.array([True, False]))


def test_subset_accuracies_follow_the_mask():
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 1, 1, 0])
    mask = np.array([True, True, False, False])
    m = compute_metrics(labels, preds, 2, conflict_mask=mask)
    assert m.conflict_subset_acc == pytest.approx(0.5)
    assert m.consistent_subset_acc == pytest.approx(0.5)
    flipped = compute_metrics(labels, preds, 2,
                              conflict_mask=np.array([True, False, False, False]))
    assert flipped.conflict_subset_acc == pytest.approx(1.0)
    assert flipped.consistent_subset_acc == pytest.approx(1.0 / 3.0)


def test_empty_subset_reports_none():
    labels = np.array([0, 1])
    preds = np.array([0, 1])
    m = compute_metrics(labels, preds, 2, conflict_mask=np.array([False, False]))
    assert m.conflict_subset_acc is None
    assert m.consistent_subset_acc == 1.0
    m2 = compute_metrics(labels, preds, 2, conflict_mask=np.array([True, True]))
    assert m2.consistent_subset_acc is None
    no_mask = compute_metrics(labels, preds, 2)
    assert no_mask.conflict_subset_acc is None
    assert no_mask.consistent_subset_acc is None


def test_as_dict_round_trip():
    m = compute_metrics(np.array([0, 1]), np.array([0, 1]), 2,
                        conflict_mask=np.array([True, False]))
    d = m.as_dict()
    assert d["acc"] == 1.0
    assert isinstance(d["per_class_f1"], list)
    assert set(d) == {
        "acc", "macro_f1", "macro_precision", "macro_recall", "weighted_f1",
        "weighted_precision", "per_class_f1", "conflict_subset_acc",
        "consistent_subset_acc",
    }


@pytest.fixture(scope="module")
def model_and_split():
    data_cfg = DatasetConfig(num_classes=3, feature_dim=8, n_train=30,
                             n_val=10, n_test=40, seed=17)
    test = generate(data_cfg)[2]
    model = Model(ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                              init_seed=2))
    return model, test


class TestModelFacing:
    def test_eval_forward_matches_forward_batch(self, model_and_split):
        model, test = model_and_split
        out = eval_forward(model, test)
        ref = model.forward_batch(test.text, test.video, test.audio)
        assert np.array_equal(out.probs.data, ref.probs.data)
        assert np.array_equal(out.report.gate.data, ref.report.gate.data)

    def test_evaluate_wires_conflict_mask(self, model_and_split):
        model, test = model_and_split
        m = evaluate(model, test)
        assert isinstance(m, Metrics)
        out = model.forward_batch(test.text, test.video, test.audio)
        preds = out.probs.data.argmax(axis=1)
        mask = test.conflicted_mask
        if mask.any():
            want = float((preds[mask] == test.labels[mask]).mean())
            assert m.conflict_subset_acc == pytest.approx(want)

    def test_reducers_share_one_forward(self, model_and_split):
        """evaluate and gating_summary equal the reducers over one eval forward."""
        model, test = model_and_split
        # the fixture is an untrained model, so a fresh one of its config
        # holds its parameters; the shared fixture keeps a free gate
        for clamped in (model, Model(model.config, 0.0)):
            out = eval_forward(clamped, test)
            assert output_metrics(out, test, 3) == evaluate(clamped, test)
            assert gate_stats(out, test) == gating_summary(clamped, test)

    def test_gating_summary_fields_and_ranges(self, model_and_split):
        model, test = model_and_split
        g = gating_summary(model, test)
        assert set(g) == {"gate_mean", "gate_mean_conflicted",
                          "gate_mean_consistent", "n_conflicted", "n_consistent"}
        assert 0.0 < g["gate_mean"] < 1.0
        assert g["n_conflicted"] + g["n_consistent"] == len(test)

    def test_gating_summary_respects_ablation(self, model_and_split):
        model, test = model_and_split
        g = gating_summary(Model(model.config, 0.0), test)
        assert g["gate_mean"] == 0.0
        g2 = gating_summary(Model(model.config, 1.0), test)
        assert g2["gate_mean"] == 1.0
