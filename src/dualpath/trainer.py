"""Mini-batch training and finite-difference gradient certification.

The optimizer is adaptive moment estimation with decoupled weight decay
and bias-corrected moments; the learning rate ramps linearly over the
first fraction of total steps, then stays constant. It packs every
parameter group into one flat arena (each ``Tensor.data`` becomes a view
into it) and updates the whole buffer at once, elementwise in the same
expression order as a group-by-group loop, so the bits do not depend on
the layout. A group that received no gradient (the divergence gate
under a gate clamp) is masked out: no update, no moment change, no
decay. Validation accuracy drives early stopping, and the best-scoring
epoch's parameters are restored at the end, written into the arena.

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
there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dualpath.fusion import Ablation, Model, ModelOutput
from dualpath.losses import LossConfig, total_loss
from dualpath.metrics import eval_forward, output_metrics
from dualpath.rng import Rng
from dualpath.synthdata import Dataset, MODALITIES
from dualpath.tensor import no_grad, watch_kinks


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
    dropout: float = 0.2
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def validate(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= self.warmup_proportion < 1.0:
            raise ValueError("warmup_proportion must lie in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")


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
    in ``params`` order; every in-place write to them takes a
    per-element "received a gradient" mask."""

    def __init__(self, params: dict, cfg: TrainConfig):
        self.cfg = cfg
        self._tensors = list(params.values())
        sizes = [p.data.size for p in self._tensors]
        self._sizes = np.array(sizes)
        self.arena = np.concatenate([p.data for p in self._tensors], axis=None)
        offsets = np.cumsum([0] + sizes)
        for p, lo, hi in zip(self._tensors, offsets, offsets[1:]):
            p.data = self.arena[lo:hi].reshape(p.data.shape)
        self._zeros = [np.zeros(n) for n in sizes]  # gathered for a None grad
        self._masks: dict[tuple, np.ndarray] = {}  # received flags -> mask
        self._grad = np.empty_like(self.arena)
        self.m = np.zeros_like(self.arena)
        self.v = np.zeros_like(self.arena)
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.cfg.beta1, self.cfg.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        grads = [p.grad for p in self._tensors]
        flags = tuple(gr is not None for gr in grads)
        mask = self._masks.get(flags)
        if mask is None:
            mask = self._masks[flags] = np.repeat(flags, self._sizes)
        g = np.concatenate([gr if ok else z for gr, ok, z in zip(grads, flags, self._zeros)],
                           axis=None, out=self._grad)
        m, v, w = self.m, self.v, self.arena
        np.multiply(m, b1, out=m, where=mask)
        np.add(m, (1.0 - b1) * g, out=m, where=mask)
        np.multiply(v, b2, out=v, where=mask)
        np.add(v, (1.0 - b2) * (g * g), out=v, where=mask)
        update = (m / bc1) / (np.sqrt(v / bc2) + self.cfg.epsilon)
        np.subtract(w, lr * update + lr * self.cfg.weight_decay * w, out=w,
                    where=mask)


def _first_nonfinite(out: ModelOutput, parts: dict[str, float]) -> str:
    """Walk the pipeline in execution order; name the first bad stage."""
    stages: list[tuple[str, np.ndarray]] = []
    for m in MODALITIES:
        stages.append((f"shared_{m}", out.features.shared(m).data))
        stages.append((f"private_{m}", out.features.private(m).data))
    stages.append(("intuition_repr", out.intuition_repr.data))
    rep = out.report
    stages.extend([
        ("diff_vector", rep.diff_vector.data),
        ("semantic_energy", rep.semantic_energy.data),
    ])
    for m in MODALITIES:
        stages.append((f"unimodal_probs_{m}", rep.probs[m].data))
    stages.extend([
        ("js_div", rep.js_div.data),
        ("stat_bias", rep.stat_bias.data),
        ("conflict_energy", rep.conflict_energy.data),
        ("gated_diff", rep.gated_diff.data),
        ("trust", rep.trust.data),
        ("gate", rep.gate.data),
        ("reasoning_repr", out.reasoning_repr.data),
        ("fused", out.fused.data),
        ("probs", out.probs.data),
    ])
    for name, arr in stages:
        if not np.all(np.isfinite(arr)):
            return name
    for name in ("cls", "rea", "uni", "diff", "sim", "total"):
        if name in parts and not np.isfinite(parts[name]):
            return f"loss_{name}"
    return "loss_total"


def default_val_metric(model: Model, data: Dataset,
                       ablation: Ablation | None = None) -> float:
    """Plain accuracy on a split, eval mode."""
    return output_metrics(eval_forward(model, data, ablation), data,
                          model.config.num_classes).acc


def train(model: Model, train_data: Dataset, val_data: Dataset,
          cfg: TrainConfig, loss_cfg: LossConfig,
          ablation: Ablation | None = None,
          val_metric=None) -> TrainHistory:
    """Optimize in place; returns the history. The model ends at the
    parameters of its best validation epoch. A non-finite training loss
    or validation score raises DivergenceError."""
    cfg.validate()
    loss_cfg.validate()
    if len(train_data) == 0 or len(val_data) == 0:
        raise ValueError("train and val splits must be nonempty")
    if val_metric is None:
        val_metric = lambda m, d: default_val_metric(m, d, ablation)
    rng = Rng(cfg.seed, "train")
    params = model.params()
    opt = AdamW(params, cfg)
    n = len(train_data)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.max_epochs * steps_per_epoch
    warmup_steps = max(1, int(round(cfg.warmup_proportion * total_steps)))
    history = TrainHistory()
    best_val = -np.inf
    best_snapshot = model.snapshot()
    bad_epochs = 0
    step = 0
    for epoch in range(cfg.max_epochs):
        order = rng.child("shuffle", epoch).permutation(n)
        sums: dict[str, float] = {}
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            step += 1
            lr = cfg.learning_rate * min(1.0, step / warmup_steps)
            model.zero_grad()
            out = model.forward_batch(train_data.text[idx], train_data.video[idx],
                                      train_data.audio[idx], train=True,
                                      rng=rng.child("dropout", step),
                                      ablation=ablation)
            loss, parts = total_loss(out, train_data.labels[idx], loss_cfg)
            if not np.isfinite(parts["total"]):
                raise DivergenceError(_first_nonfinite(out, parts))
            loss.backward()
            opt.step(lr)
            for k, val in parts.items():
                sums[k] = sums.get(k, 0.0) + val
        history.epoch_losses.append({k: val / steps_per_epoch for k, val in sums.items()})
        score = float(val_metric(model, val_data))
        if not np.isfinite(score):
            raise DivergenceError("val_metric")
        history.val_metrics.append(score)
        if score > best_val:
            best_val = score
            best_snapshot = model.snapshot()
            history.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                history.stopped_early = True
                break
    model.set_params(best_snapshot)
    return history


# -- gradient certification -------------------------------------------------

@dataclass
class GradCheckResult:
    max_rel_error: float
    per_group: dict[str, float]
    coords_checked: int
    resampled: int
    skipped: int
    resampled_by_kind: dict[str, int] = field(default_factory=dict)

    def worst_group(self) -> str:
        return max(self.per_group, key=self.per_group.get)

    def passed(self, threshold: float) -> bool:
        """True only when something was certified: every wanted coordinate
        was checked, at least one was, and all errors sit below threshold."""
        return (self.max_rel_error < threshold and self.skipped == 0
                and self.coords_checked > 0)


def _kink_crossed(plus: list, minus: list, fd_eps: float) -> str | None:
    """The kind of kink the two finite-difference evaluations crossed, or
    None when both stayed on one smooth branch of every nonsmooth op.
    "length" means the two recorded different kink sequences."""
    if len(plus) != len(minus):
        return "length"
    for (kind_p, pay_p), (kind_m, pay_m) in zip(plus, minus):
        if kind_p != kind_m:
            return "length"
        if kind_p == "abs_signs":
            if not np.array_equal(pay_p, pay_m):
                return kind_p
        elif min(pay_p, pay_m) < 10.0 * fd_eps:
            # norm_floor and clamp_margin: distance to the kink against the step
            return kind_p
    return None


def _only_abs_crossed(plus: list, minus: list, fd_eps: float) -> bool:
    """True when the two evaluations crossed an abs sign flip and no
    kink of any other kind."""
    if _kink_crossed(plus, minus, fd_eps) != "abs_signs":
        return False
    rest = [[k for k in rec if k[0] != "abs_signs"] for rec in (plus, minus)]
    return _kink_crossed(*rest, fd_eps) is None


def grad_check(model: Model, batch: Dataset, loss_cfg: LossConfig,
               epsilon: float = 1e-5, coords_per_group: int = 20,
               seed: int = 0, corrupt_hook=None) -> GradCheckResult:
    """Certify analytic gradients of the full objective against central
    differences, >= coords_per_group coordinates per parameter group
    (capped at group size).

    ``corrupt_hook`` receives the analytic gradient dict before the
    comparison; tests use it to verify the checker actually detects a
    broken gradient.
    """
    labels = batch.labels

    def loss_value() -> float:
        with no_grad():
            out = model.forward_batch(batch.text, batch.video, batch.audio, train=False)
            loss, _ = total_loss(out, labels, loss_cfg)
        return float(loss.data)

    def probe(flat: np.ndarray, i: int) -> tuple[str | None, float]:
        """Central difference at coordinate ``i``, or the kink it crossed."""
        orig = flat[i]
        for step in (epsilon, epsilon / 10.0, epsilon / 100.0):
            flat[i] = orig + step
            with watch_kinks() as kinks_plus:
                hi = loss_value()
            flat[i] = orig - step
            with watch_kinks() as kinks_minus:
                lo = loss_value()
            flat[i] = orig
            kind = _kink_crossed(kinks_plus, kinks_minus, step)
            if kind is None:
                return None, (hi - lo) / (2.0 * step)
            if not _only_abs_crossed(kinks_plus, kinks_minus, step):
                break
        return kind, 0.0

    model.zero_grad()
    out = model.forward_batch(batch.text, batch.video, batch.audio, train=False)
    loss, _ = total_loss(out, labels, loss_cfg)
    loss.backward()
    grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for name, p in model.params().items()}
    if corrupt_hook is not None:
        corrupt_hook(grads)

    rng = Rng(seed, "gradcheck")
    per_group: dict[str, float] = {}
    checked = resampled = skipped = 0
    by_kind: dict[str, int] = {}
    for name, param in model.params().items():
        flat = param.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        pool = list(rng.child(name).permutation(flat.size))
        want = min(flat.size, coords_per_group)
        done = 0
        worst = 0.0
        while done < want and pool:
            i = int(pool.pop())
            kind, fd = probe(flat, i)
            if kind is not None:
                resampled += 1
                by_kind[kind] = by_kind.get(kind, 0) + 1
                continue
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, rel)
            done += 1
            checked += 1
        if done < want:
            skipped += want - done
        per_group[name] = worst
    return GradCheckResult(max_rel_error=max(per_group.values()),
                           per_group=per_group, coords_checked=checked,
                           resampled=resampled, skipped=skipped,
                           resampled_by_kind=by_kind)
