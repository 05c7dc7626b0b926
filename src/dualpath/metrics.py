"""Classification metrics with explicit conventions.

Per-class precision, recall and F1 use the 0/0 -> 0 convention; macro
averages run over all configured classes, present in the data or not;
weighted averages use true-class support. Subset accuracies split the
data by its conflict flag; an empty subset yields None rather than a
made-up number.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from dualpath.fusion import Model, ModelOutput
from dualpath.synthdata import Dataset
from dualpath.tensor import no_grad


@dataclass(frozen=True)
class Metrics:
    acc: float
    macro_f1: float
    macro_precision: float
    macro_recall: float
    weighted_f1: float
    weighted_precision: float
    per_class_f1: tuple
    conflict_subset_acc: float | None
    consistent_subset_acc: float | None

    def as_dict(self) -> dict:
        d = asdict(self)
        d["per_class_f1"] = list(self.per_class_f1)
        return d


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def compute_metrics(labels: np.ndarray, preds: np.ndarray, num_classes: int,
                    conflict_mask: np.ndarray | None = None) -> Metrics:
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    if len(labels) == 0:
        raise ValueError("cannot compute metrics on an empty sample list")
    if len(labels) != len(preds):
        raise ValueError("labels and predictions differ in length")
    acc = float((labels == preds).mean())
    precision = np.zeros(num_classes)
    recall = np.zeros(num_classes)
    f1 = np.zeros(num_classes)
    support = np.zeros(num_classes)
    for c in range(num_classes):
        tp = float(np.sum((preds == c) & (labels == c)))
        fp = float(np.sum((preds == c) & (labels != c)))
        fn = float(np.sum((preds != c) & (labels == c)))
        precision[c] = _safe_div(tp, tp + fp)
        recall[c] = _safe_div(tp, tp + fn)
        f1[c] = _safe_div(2 * precision[c] * recall[c], precision[c] + recall[c])
        support[c] = tp + fn
    weights = support / support.sum()
    conflict_acc = consistent_acc = None
    if conflict_mask is not None:
        conflict_mask = np.asarray(conflict_mask, dtype=bool)
        if conflict_mask.any():
            conflict_acc = float((labels[conflict_mask] == preds[conflict_mask]).mean())
        if (~conflict_mask).any():
            consistent_acc = float((labels[~conflict_mask] == preds[~conflict_mask]).mean())
    return Metrics(
        acc=acc,
        macro_f1=float(f1.mean()),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        weighted_f1=float((weights * f1).sum()),
        weighted_precision=float((weights * precision).sum()),
        per_class_f1=tuple(float(x) for x in f1),
        conflict_subset_acc=conflict_acc,
        consistent_subset_acc=consistent_acc,
    )


def eval_forward(model: Model, data: Dataset) -> ModelOutput:
    """One eval-mode forward over a whole split, recording no tape; the
    reducers below read predictions and gate statistics from it."""
    with no_grad():
        return model.forward_batch(data.text, data.video, data.audio, train=False)


def output_metrics(out: ModelOutput, data: Dataset, num_classes: int) -> Metrics:
    """Metrics of an eval forward's argmax predictions on its split."""
    return compute_metrics(data.labels, out.probs.data.argmax(axis=1),
                           num_classes, data.conflicted_mask)


def gate_stats(out: ModelOutput, data: Dataset) -> dict:
    """Mean gate value of an eval forward on the conflicted and consistent
    subsets of its split."""
    gate = out.report.gate.data.reshape(-1)
    mask = data.conflicted_mask
    return {
        "gate_mean": float(gate.mean()),
        "gate_mean_conflicted": float(gate[mask].mean()) if mask.any() else None,
        "gate_mean_consistent": float(gate[~mask].mean()) if (~mask).any() else None,
        "n_conflicted": int(mask.sum()),
        "n_consistent": int((~mask).sum()),
    }


def evaluate(model: Model, data: Dataset) -> Metrics:
    """Eval-mode metrics for a split, including conflict-subset accuracies."""
    return output_metrics(eval_forward(model, data), data, model.config.num_classes)


def gating_summary(model: Model, data: Dataset) -> dict:
    """Mean gate value on the conflicted and consistent subsets."""
    return gate_stats(eval_forward(model, data), data)
