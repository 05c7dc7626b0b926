"""Graph census: the autodiff nodes one training step and one eval
forward+loss keep alive, counted by op kind.

The op kind of a node is the function that created its ``_back`` closure,
read from the closure's ``__qualname__`` (``Tensor.__add__.<locals>.back``
is ``add``). Leaves are split into parameters and constants. A node is
constant when no parameter is among its ancestors or itself: its gradient
can never reach the optimizer.

Run ``python3 perfbench/census.py`` from the repository root to print the
census of the working tree as JSON.
"""

from __future__ import annotations

import json
import os
import sys

# Op kinds of the seed code. A kind outside this list is counted as "other",
# so the metric names stay fixed when the autodiff core changes.
OP_KINDS = (
    "leaf_param", "leaf_const",
    "add", "sub", "mul", "truediv", "neg", "pow", "matmul",
    "sum", "mean", "reshape", "transpose", "getitem",
    "exp", "log", "safe_log", "sqrt", "tanh", "sigmoid", "abs", "clamp_min",
    "concat", "where_const", "other",
)

BATCH = 16


def op_kind(node, param_ids: set[int]) -> str:
    back = node._back
    if back is None:
        return "leaf_param" if id(node) in param_ids else "leaf_const"
    owner = back.__qualname__.split(".<locals>")[0].rsplit(".", 1)[-1]
    kind = owner.strip("_")
    return kind if kind in OP_KINDS else "other"


def walk(root, params) -> dict[str, int]:
    """Count the nodes reachable from ``root`` by op kind, plus totals."""
    param_ids = {id(p) for p in params}
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in seen)
    has_param: dict[int, bool] = {}
    counts = dict.fromkeys(OP_KINDS, 0)
    for node in order:  # parents come before children
        has_param[id(node)] = id(node) in param_ids or any(
            has_param[id(p)] for p in node._parents)
        counts[op_kind(node, param_ids)] += 1
    counts["nodes"] = len(order)
    counts["const"] = sum(not v for v in has_param.values())
    return counts


def census() -> dict[str, dict[str, int]]:
    """Census of one default-size training step and one eval forward+loss
    on the same batch. Fixed seeds: the counts depend on the code only."""
    from dualpath.fusion import Model, ModelConfig
    from dualpath.losses import LossConfig, total_loss
    from dualpath.rng import Rng
    from dualpath.synthdata import DatasetConfig, generate

    batch = generate(DatasetConfig(n_train=BATCH, n_val=0, n_test=0, seed=0))[0]
    model = Model(ModelConfig(init_seed=0))
    params = list(model.params().values())
    out = {}
    for phase, train in (("train_step", True), ("eval", False)):
        rng = Rng(0, "train").child("dropout", 1) if train else None
        fwd = model.forward_batch(batch.text, batch.video, batch.audio,
                                  train=train, rng=rng)
        loss, _ = total_loss(fwd, batch.labels, LossConfig())
        out[phase] = walk(loss, params)
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    json.dump(census(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
