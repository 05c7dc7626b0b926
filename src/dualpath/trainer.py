"""Mini-batch training and finite-difference gradient certification.

``train_models`` trains M models at once as one stack (``Model.stack``):
one forward, loss vector and backward of its sum (on one ``tape()``) and
one optimizer step a batch. Each model keeps everything a run of its own
would have: its init, its shuffle and dropout streams, its loss weights,
its gate override (``ModelConfig.gate_override``), its history, its patience
counter and its best snapshot, and its parameters come out bit for bit
as if it had trained alone. ``train`` is the call for one model.

The optimizer is adaptive moment estimation with decoupled weight decay
and bias-corrected moments; the learning rate ramps linearly over the
first fraction of total steps, then stays constant. It packs every
parameter group into one flat arena (each ``Tensor.data`` becomes a view
into it) and updates the whole buffer at once, elementwise in the same
expression order as a group-by-group loop, so the bits do not depend on
the layout. Every parameter takes the same step: a clamped gate's
parameters receive a zero gradient, which leaves their moments at
exactly 0 and so their Adam term at exactly 0, and they move by the
decoupled decay alone. Validation accuracy drives early stopping; a model
that stops leaves the stack, which is rebuilt from the others with
their moments, and at the end each model's best-scoring epoch's
parameters are restored, written into its arena.

The gradient checker compares every parameter group's analytic gradient
against central differences on a subsample of coordinates. Probes that
straddle a nonsmooth point (an absolute value whose argument changes
sign between the two evaluations, a guarded norm or a clamped
probability within ten probe steps of its kink) are resampled and
counted, so the reported error reflects only genuinely differentiable
coordinates. When an absolute value's sign flip is the only kink a
probe crossed, the same coordinate is probed again at a tenth of the
step, then at a hundredth, and the first step that crosses nothing is
used; rounding in the quotient grows like 1e-16 |L| / step, so it stops
there. The probes run in rounds: one no-grad forward of a stack of
copies of the model evaluates up to ``_PROBE_PAIRS`` probes, member 2j
at pair j's +step and member 2j + 1 at its -step. Only the groups a
round perturbs get a per-member copy; the others keep their (1, ...)
stack shape, which every member shares, so an op runs once until it
meets a perturbed group and fans out there. Two modality-block ops,
``layers.affine_block`` and ``perception.deviations``, fan out all
three modalities' slices when one is perturbed; ``diff_loss`` and
``sim_loss`` fan out only the perturbed ones. A member watch of the kinks
records such a shared slice's kinks once, fanned out over the members,
and the round is judged in one pass, one array comparison per kink
record across its pairs. The analytic pass runs on the same stack, so
the model is only read: neither its parameters nor its gradients are
written. A stack slice is bit for bit its model's own forward, so the
result is exactly that of probing one coordinate at a time. A group
takes a new coordinate only while its checked and in-flight probes fall
short of its quota, so the coordinates probed are those a one-at-a-time
loop would probe: each group's pool is its ``Rng(seed, "gradcheck")``
child's permutation, drawn by ``Rng.child_permutations`` and taken from
the end.

The rounds share one ``tensor.ReusedOutputs`` cache: an op call whose
tensor arguments are all unperturbed (the shared groups, the batch, or
outputs of such calls) runs on the first round that reaches it, and
later rounds making the identical call take its output and its kink
records. So a round recomputes only what its probes move; one that
perturbs only the heads runs no encoder. A round perturbs a group by
handing it a new array, never by writing into a shared one, which is
what lets the cache know an unperturbed group by its identity.
The stack itself is built without an init draw (``Model.stack``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from dualpath.fusion import Model, ModelOutput
from dualpath.losses import COMPONENT_ORDER, LossConfig, stack_loss_configs, total_loss
from dualpath.metrics import eval_forward
from dualpath.rng import Rng, StackedRng
from dualpath.synthdata import (Dataset, MODALITIES, is_integer, require_integers,
                                require_numbers)
from dualpath.tensor import ReusedOutputs, no_grad, tape, watch_kinks


class DivergenceError(RuntimeError):
    """Training produced a non-finite value; names the first bad component."""

    def __init__(self, component: str):
        super().__init__(f"training diverged: first non-finite value in {component!r}")
        self.component = component


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 40
    batch_size: int = 16
    patience: int = 5
    warmup_proportion: float = 0.05
    weight_decay: float = 0.1
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def validate(self) -> None:
        require_integers(self, "seed")
        require_integers(self, "max_epochs", "batch_size", "patience", low=1)
        require_numbers(self, "[0, 1)", "warmup_proportion", "beta1", "beta2")
        require_numbers(self, "[0, inf)", "learning_rate", "weight_decay")
        require_numbers(self, "(0, inf)", "epsilon")


@dataclass
class TrainHistory:
    epoch_losses: list[dict] = field(default_factory=list)
    val_metrics: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


class AdamW:
    """Adaptive moments with bias correction; weight decay is applied
    directly to the parameter, never through the gradient. ``arena``
    (the parameters), ``m`` and ``v`` are flat buffers holding the groups
    in ``params`` order, each group's M model slices in model order for
    a stack. Every element takes the same update: a zero gradient leaves
    its m and v at exactly 0, so its Adam term is exactly 0 and it moves
    by the decoupled decay alone."""

    def __init__(self, params: dict, cfg: TrainConfig):
        self.cfg = cfg
        self._tensors = list(params.values())
        self.arena = np.concatenate([p.data for p in self._tensors], axis=None)
        offsets = self._offsets = np.cumsum([0] + [p.data.size for p in self._tensors])
        for p, lo, hi in zip(self._tensors, offsets, offsets[1:]):
            p.data = self.arena[lo:hi].reshape(p.data.shape)
        self._grad = np.empty_like(self.arena)
        self._tmp = (np.empty_like(self.arena), np.empty_like(self.arena))
        self.m = np.zeros_like(self.arena)
        self.v = np.zeros_like(self.arena)
        self.t = 0

    def zero_grad(self) -> None:
        """Drop the gradients of the parameters this optimizer updates."""
        for p in self._tensors:
            p.grad = None

    def take(self, params: dict, rows: list[int]) -> "AdamW":
        """An optimizer over ``params``, a stack of this one's models
        ``rows``, that carries their moments and the step count."""
        out = AdamW(params, self.cfg)
        out.t = self.t
        spans = zip(self._tensors, self._offsets, self._offsets[1:],
                    out._offsets, out._offsets[1:])
        for p, lo, hi, out_lo, out_hi in spans:
            for mine, theirs in ((self.m, out.m), (self.v, out.v)):
                theirs[out_lo:out_hi] = mine[lo:hi].reshape(p.data.shape)[rows].ravel()
        return out

    def step(self, lr: float) -> None:
        """One update from every parameter's ``grad``."""
        self.t += 1
        b1, b2 = self.cfg.beta1, self.cfg.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        g = np.concatenate([p.grad for p in self._tensors], axis=None, out=self._grad)
        m, v, w = self.m, self.v, self.arena
        # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
        # w -= lr (m / bc1) / (sqrt(v / bc2) + eps) + lr wd w,
        # evaluated in place, op for op, in two scratch buffers
        a, b = self._tmp
        np.multiply(m, b1, out=m)
        np.add(m, np.multiply(g, 1.0 - b1, out=a), out=m)
        np.multiply(v, b2, out=v)
        np.multiply(np.multiply(g, g, out=a), 1.0 - b2, out=a)
        np.add(v, a, out=v)
        np.add(np.sqrt(np.divide(v, bc2, out=a), out=a), self.cfg.epsilon, out=a)
        np.divide(np.divide(m, bc1, out=b), a, out=b)
        np.multiply(b, lr, out=b)
        np.add(b, np.multiply(w, lr * self.cfg.weight_decay, out=a), out=b)
        np.subtract(w, b, out=w)


def _first_nonfinite(out: ModelOutput, parts: dict[str, float]) -> str:
    """Walk the pipeline in execution order; name the first bad stage."""
    rep = out.report
    stages = [(f"{kind}_{m}", feats[m].data) for m in MODALITIES
              for kind, feats in (("shared", out.shared), ("private", out.private))]
    stages += [("intuition_repr", out.intuition_repr.data),
               ("diff_vector", rep.diff_vector.data), ("semantic_energy", rep.semantic_energy.data)]
    stages += zip([f"unimodal_probs_{m}" for m in MODALITIES], rep.unimodal.data)
    stages += [(name, getattr(rep, name).data) for name in (
        "js_div", "stat_bias", "conflict_energy", "gated_diff", "trust", "gate")]
    stages += [(name, getattr(out, name).data) for name in ("reasoning_repr", "fused", "probs")]
    for name, data in stages:
        if not np.all(np.isfinite(data)):
            return name
    for name in COMPONENT_ORDER:
        if name in parts and not np.isfinite(parts[name]):
            return f"loss_{name}"
    return "loss_total"


def default_val_metric(model: Model, data: Dataset):
    """Plain accuracy on a split, eval mode: a float for a plain model, an
    (M,) array for a stack."""
    preds = eval_forward(model, data).probs.data.argmax(axis=-1)
    return (preds == data.labels).mean(axis=-1)


def train(model: Model, train_data: Dataset, val_data: Dataset,
          cfg: TrainConfig, loss_cfg: LossConfig) -> TrainHistory:
    """Optimize one model in place: ``train_models`` with M = 1."""
    return train_models([model], train_data, val_data, [cfg], [loss_cfg])[0]


def train_models(models: list[Model], train_data: Dataset, val_data: Dataset,
                 cfgs: list[TrainConfig], loss_cfgs: list[LossConfig]
                 ) -> list[TrainHistory]:
    """Optimize ``models`` in place as one stack, model m under
    ``cfgs[m]``, ``loss_cfgs[m]`` and its own gate override; returns their
    histories. The configs may differ in ``seed`` only. A model that
    stops early leaves the stack; each ends at the parameters of its best
    validation epoch, scored by ``default_val_metric``. A non-finite
    training loss or validation score raises DivergenceError."""
    if not models or len(cfgs) != len(models) or len(loss_cfgs) != len(models):
        raise ValueError(f"need one TrainConfig and one LossConfig per model, got "
                         f"{len(models)} models, {len(cfgs)} train configs and "
                         f"{len(loss_cfgs)} loss configs")
    cfg = cfgs[0]
    for c, loss_cfg in zip(cfgs, loss_cfgs):
        c.validate()
        loss_cfg.validate()
        if replace(c, seed=cfg.seed) != cfg:
            raise ValueError("stacked runs must share every train setting but the seed")
    live_loss = stack_loss_configs(loss_cfgs)
    if len(train_data) == 0 or len(val_data) == 0:
        raise ValueError("train and val splits must be nonempty")
    stack = Model.stack(models)
    opt = AdamW(stack.params(), cfg)
    stack.bind(models)
    n = len(train_data)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.max_epochs * steps_per_epoch
    warmup_steps = max(1, int(round(cfg.warmup_proportion * total_steps)))
    histories = [TrainHistory() for _ in models]
    best_snapshot = [None] * len(models)  # epoch 0 always improves
    live = list(range(len(models)))  # the models in the stack, in stack order
    step = 0
    for epoch in range(cfg.max_epochs):
        rng = StackedRng([cfgs[m].seed for m in live], "train")
        order = rng.child("shuffle", epoch).permutation(n)
        sums: list[dict[str, float]] = [{} for _ in live]
        for b in range(steps_per_epoch):
            idx = order[:, b * cfg.batch_size:(b + 1) * cfg.batch_size]
            step += 1
            lr = cfg.learning_rate * min(1.0, step / warmup_steps)
            opt.zero_grad()
            with tape():
                out = stack.forward_batch(train_data.text[idx], train_data.video[idx],
                                          train_data.audio[idx], train=True,
                                          rng=rng.child("dropout", step))
                loss, parts = total_loss(out, train_data.labels[idx], live_loss)
                for i, total in enumerate(parts["total"]):
                    if not np.isfinite(total):
                        raise DivergenceError(_first_nonfinite(
                            out.member(i), {k: vals[i] for k, vals in parts.items()}))
                loss.sum().backward()
            opt.step(lr)
            for i, row in enumerate(sums):
                for k, vals in parts.items():
                    row[k] = row.get(k, 0.0) + vals[i]
        scores = default_val_metric(stack, val_data)
        keep = []
        for i, m in enumerate(live):
            history = histories[m]
            history.epoch_losses.append({k: val / steps_per_epoch
                                         for k, val in sums[i].items()})
            score = float(scores[i])
            if not np.isfinite(score):
                raise DivergenceError("val_metric")
            history.val_metrics.append(score)
            if history.best_epoch < 0 or score > history.val_metrics[history.best_epoch]:
                best_snapshot[m] = models[m].snapshot()
                history.best_epoch = epoch
            elif epoch - history.best_epoch >= cfg.patience:
                history.stopped_early = True
                continue
            keep.append(i)
        if not keep:
            break
        if len(keep) < len(live):
            # a stopped model leaves the stack, its parameters where they are
            live = [live[i] for i in keep]
            live_loss = stack_loss_configs([loss_cfgs[m] for m in live])
            stack = Model.stack([models[m] for m in live])
            opt = opt.take(stack.params(), keep)
            stack.bind([models[m] for m in live])
    for model, snapshot in zip(models, best_snapshot):
        model.set_params(snapshot)
    return histories


# -- gradient certification -------------------------------------------------

@dataclass
class GradCheckResult:
    max_rel_error: float
    per_group: dict[str, float]
    coords_checked: int
    resampled: int
    skipped: int
    resampled_by_kind: dict[str, int] = field(default_factory=dict)

    def passed(self, threshold: float) -> bool:
        """True only when something was certified: every wanted coordinate
        was checked, at least one was, and all errors sit below threshold
        (a non-finite error never does)."""
        return (self.max_rel_error < threshold and self.skipped == 0
                and self.coords_checked > 0)


# Probe pairs one stacked forward of grad_check evaluates: member 2j holds
# pair j's +step and member 2j + 1 its -step. More pairs take fewer
# rounds but raise peak memory: each perturbed group is copied to
# 2 * _PROBE_PAIRS members, and so is every activation downstream of it,
# though diff_loss and sim_loss fan out only the features a round widens.
# The width was sized on the default model (feature and hidden dim 16) at
# batch 8 as the widest whose peak RSS stays within 2% of the 20-pair
# rounds before that loss change. A wider model pays more: at hidden 128 a
# check's traced peak is 33 MiB at 20 pairs and 62 MiB at 48, about 1.9x
# (75 MiB at 20 pairs before the change). BENCH_probe_fanout.json records
# these readings and the sweep, BENCH_wide_probe_rounds.json the earlier one.
_PROBE_PAIRS = 48

PROBE_STEP = 1e-5  # grad_check's first central-difference step


def _judge_round(kinks: list, steps: np.ndarray) -> tuple[list, list]:
    """Judge every pair of a round at once, one array comparison per kink
    record of a member watch: pair j's +step is member 2j, its -step
    member 2j + 1 and its step ``steps[j]``. A kink is crossed when an
    abs's signs differ between the two evaluations, or when the smaller
    distance to a guarded norm's or clamped probability's kink falls
    below ten steps. Returns each pair's first crossed kind, None when it
    crossed nothing, and whether abs sign flips were all it crossed.
    Every member makes the same sequence of records, so no pair can
    differ in the kinds or number of its records."""
    pairs = len(steps)
    first: list[str | None] = [None] * pairs
    other = np.zeros(pairs, dtype=bool)  # crossed a kink other than an abs
    for kind, pay in kinks:
        plus, minus = pay[0:2 * pairs:2], pay[1:2 * pairs:2]
        if kind == "abs_signs":
            if pay.strides[0] == 0:
                continue  # one slice's signs fanned over the members: no pair moves them
            hit = (plus != minus).reshape(pairs, -1).any(axis=1)
        else:
            # a fanned distance still counts: it is measured to the kink
            hit = np.minimum(plus, minus) < 10.0 * steps
            other |= hit
        for j in np.flatnonzero(hit):
            if first[j] is None:
                first[j] = kind
    return first, [kind == "abs_signs" and not o for kind, o in zip(first, other)]


def grad_check(model: Model, batch: Dataset, loss_cfg: LossConfig,
               coords_per_group: int = 20,
               seed: int = 0, corrupt_hook=None) -> GradCheckResult:
    """Certify analytic gradients of the full objective against central
    differences, >= coords_per_group coordinates per parameter group
    (capped at group size). ``model`` is only read: the analytic pass and
    the probes run on a stack of copies of it.

    ``corrupt_hook`` receives the analytic gradient dict before the
    comparison; tests use it to verify the checker actually detects a
    broken gradient.
    """
    if not is_integer(coords_per_group, low=1):
        raise ValueError(f"coords_per_group must be an integer >= 1, got {coords_per_group!r}")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if len(batch) < 2:  # diff_loss and sim_loss would skip, certifying nothing
        raise ValueError(f"grad_check needs a batch of at least 2 rows, got {len(batch)}")
    loss_cfg.validate()
    labels = batch.labels
    # A stack of copies of the model whose groups keep their (1, ...) stack
    # shape, so in a probe round each op runs once until it meets a group
    # with the member axis; a round gives only the groups it perturbs
    # (members, ...) copies and drops them after its forward.
    stack = Model.stack([model])
    params = stack.params()
    out = stack.forward_batch(batch.text, batch.video, batch.audio, train=False)
    total_loss(out, labels, loss_cfg)[0].backward()
    del out  # the graph goes before the first round
    grads = {name: p.grad for name, p in params.items()}
    if corrupt_hook is not None:
        corrupt_hook(grads)

    names, tensors = list(params), list(params.values())
    shared = [t.data for t in tensors]
    flats = [a.reshape(-1) for a in shared]
    gflats = [grads[name].reshape(-1) for name in names]
    # each group's coordinates in probe order, taken from the end
    pools = Rng(seed, "gradcheck").child_permutations(names, [flat.size for flat in flats])
    left = [len(pool) for pool in pools]
    wants = [min(flat.size, coords_per_group) for flat in flats]
    done = [0] * len(names)
    in_flight = [0] * len(names)
    worst = [0.0] * len(names)  # per group, the largest relative error so far
    by_kind: dict[str, int] = {}
    steps = (PROBE_STEP, PROBE_STEP / 10.0, PROBE_STEP / 100.0)
    members = 2 * _PROBE_PAIRS
    retries: list[tuple[int, int, int]] = []
    # an op call that reads only unperturbed groups, the batch and such
    # calls' outputs runs once a check
    reuse = ReusedOutputs(shared + [batch.text, batch.video, batch.audio])
    while True:
        # (group, coordinate, step index) per pair of members
        probes, retries = retries, []
        for g, pool in enumerate(pools):
            while len(probes) < _PROBE_PAIRS and left[g] and done[g] + in_flight[g] < wants[g]:
                left[g] -= 1
                probes.append((g, int(pool[left[g]]), 0))
                in_flight[g] += 1
        if not probes:
            break
        rows = {}
        for j, (g, i, k) in enumerate(probes):
            if g not in rows:
                # a new array, never a write into a shared one: the reuse
                # cache knows an unperturbed group by its array's identity
                tensors[g].data = np.repeat(shared[g], members, axis=0)
                rows[g] = tensors[g].data.reshape(members, -1)
            rows[g][2 * j, i] = flats[g][i] + steps[k]
            rows[g][2 * j + 1, i] = flats[g][i] - steps[k]
        with no_grad(), watch_kinks(members) as kinks, reuse:
            out = stack.forward_batch(batch.text, batch.video, batch.audio, train=False)
            values = total_loss(out, labels, loss_cfg)[0].data
        del out  # else it lives on through the next round's forward
        for g in rows:
            tensors[g].data = shared[g]
        pairs = len(probes)
        step = np.array([steps[k] for *_, k in probes])
        crossed, only_abs = _judge_round(kinks, step)
        # every pair's central difference and relative error in one pass,
        # the IEEE operations of a pair-at-a-time loop in the same order
        values = np.broadcast_to(values, (members,))
        fd = (values[0:2 * pairs:2] - values[1:2 * pairs:2]) / (2.0 * step)
        g_i = np.array([gflats[g][i] for g, i, _ in probes])
        # an infinite analytic gradient's inf / inf is its intended NaN error
        with np.errstate(invalid="ignore"):
            errors = np.abs(fd - g_i) / np.maximum(np.maximum(np.abs(fd), np.abs(g_i)), 1e-8)
        for j, (g, i, k) in enumerate(probes):
            kind = crossed[j]
            if kind is None:
                worst[g] = np.maximum(worst[g], errors[j])  # a NaN error stays NaN
                done[g] += 1
            elif k + 1 < len(steps) and only_abs[j]:
                retries.append((g, i, k + 1))
                continue
            else:
                by_kind[kind] = by_kind.get(kind, 0) + 1
            in_flight[g] -= 1

    per_group = {name: float(w) for name, w in zip(names, worst)}
    checked = sum(done)
    return GradCheckResult(max_rel_error=float(np.max(worst)),
                           per_group=per_group, coords_checked=checked,
                           resampled=sum(by_kind.values()),
                           skipped=sum(wants) - checked,
                           resampled_by_kind=by_kind)
