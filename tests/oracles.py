"""Independent straight-line re-implementations used as test oracles.

Everything here except the sections at the end is plain numpy on single
samples with explicit loops and textbook formulas, and imports none of
the package's differentiable ops; model weights are read directly off
the parameter tensors. If the production pipeline and these functions
agree to tight tolerance on random inputs, both would have to share a
bug to be wrong together.

The composite references rebuild each fused op (the affine map with and
without tanh, softmax, layer norm, the guarded norm, cosine similarity,
the JS divergence, the normalized entropy, cross-entropy, the
orthogonality penalty and CMD) from primitive Tensor ops, whose
gradients are checked on their own, with the same numpy work in the same
order and the same kink records. The fused ops must match them: values
bit for bit, gradients to rounding. The primitives only they use
(mean, truediv, neg, exp, log, safe_log, sqrt, abs_, getitem, clamp_min,
transpose, where_const) are test-local nodes built with ``tensor.node()``.

The per-modality references run each of the package's modality-block
ops as one node per modality, pair, product or sum; the block ops must
match them bit for bit, gradients included. ``cmd`` and ``moment_match``
match moments one input at a time, batches of different sizes included.
``cross_entropy`` is task_loss's cross-entropy against one label vector.

``adamw_reference`` is the optimizer step as a loop over parameter
groups; the whole-buffer ``AdamW`` must match it bit for bit.

``grad_check_reference`` is the gradient certifier probing one
coordinate at a time, two plain forwards a probe, perturbing the model's
own parameters, and judging each pair's kink records with
``_kink_crossed`` and ``_only_abs_crossed``; the stacked ``grad_check``,
which judges a whole round at once, must return exactly its result.
"""

import numpy as np

from dualpath.functional import guarded_sqrt, one_hot, row_sum, stack_slices
from dualpath.losses import _nll, total_loss
from dualpath.rng import Rng
from dualpath.tensor import Tensor, _note_kink, concat, no_grad, node, watch_kinks
from dualpath.trainer import GradCheckResult

MODS = ("text", "video", "audio")


def softmax_vec(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def layer_norm_vec(v, gain, bias, eps=1e-5):
    mu = v.mean()
    var = ((v - mu) ** 2).mean()
    return (v - mu) / np.sqrt(var + eps) * gain + bias


def affine_vec(x, layer):
    return x @ layer.weight.data + layer.bias.data


def mlp_vec(x, mlp):
    """affine -> tanh -> affine, matching TanhMlp in eval mode."""
    h = np.tanh(affine_vec(x, mlp.lin1))
    return affine_vec(h, mlp.lin2)


def kl_vec(p, q):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            total += pi * (np.log(pi) - np.log(qi))
    return total


def js_vec(p1, p2, p3):
    avg = (np.asarray(p1) + np.asarray(p2) + np.asarray(p3)) / 3.0
    return (kl_vec(p1, avg) + kl_vec(p2, avg) + kl_vec(p3, avg)) / 3.0


def entropy_vec(p, num_classes):
    h = 0.0
    for pi in p:
        if pi > 0.0:
            h -= pi * np.log(pi)
    return h / np.log(num_classes)


def cosine_vec(a, b):
    na = np.sqrt(float(np.dot(a, a)))
    nb = np.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)


def cmd_pair(a, b, order):
    """Loop-based central moment discrepancy between (N, d) arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    total = np.linalg.norm(mu_a - mu_b)
    for k in range(2, order + 1):
        ma = ((a - mu_a) ** k).mean(axis=0)
        mb = ((b - mu_b) ** k).mean(axis=0)
        total += np.linalg.norm(ma - mb)
    return float(total)


def trace_forward(model, text, video, audio):
    """Re-evaluate the whole eval-mode pipeline for one sample.

    Returns every intermediate under descriptive keys; arrays are 1-D.
    """
    text = np.asarray(text, dtype=np.float64)
    video = np.asarray(video, dtype=np.float64)
    audio = np.asarray(audio, dtype=np.float64)
    raw = {"text": text, "video": video, "audio": audio}
    out = {}

    shared = {}
    private = {}
    for m in MODS:
        shared[m] = mlp_vec(raw[m], model.decoupler.shared_enc[m])
        private[m] = mlp_vec(raw[m], model.decoupler.private_enc[m])
        out[f"shared_{m}"] = shared[m]
        out[f"private_{m}"] = private[m]

    intu = model.intuition
    z_raw = np.tanh(affine_vec(np.concatenate([text, video, audio]), intu.context))
    prods = np.concatenate([shared["text"] * shared["video"],
                            shared["text"] * shared["audio"],
                            shared["video"] * shared["audio"]])
    z_syn = np.tanh(affine_vec(prods, intu.synergy))
    alpha = float(intu.synergy_scale.data)
    z_int = layer_norm_vec(z_raw + alpha * z_syn, intu.norm.gain.data,
                           intu.norm.bias.data)
    out["z_raw"] = z_raw
    out["z_syn"] = z_syn
    out["intuition"] = z_int

    per = model.perception
    centroid = (private["text"] + private["video"] + private["audio"]) / 3.0
    devs = {m: np.abs(private[m] - centroid) for m in MODS}
    out["centroid"] = centroid
    for m in MODS:
        out[f"dev_{m}"] = devs[m]
    diff = np.tanh(affine_vec(np.concatenate([devs[m] for m in MODS]), per.diff_proj))
    out["diff_vector"] = diff
    sem = cosine_vec(diff, per.prototype.data) * per.temperature
    out["semantic_energy"] = sem
    probs = {m: softmax_vec(affine_vec(private[m], per.classifiers[m])) for m in MODS}
    for m in MODS:
        out[f"probs_{m}"] = probs[m]
    js = js_vec(probs["text"], probs["video"], probs["audio"])
    ents = {m: entropy_vec(probs[m], per.num_classes) for m in MODS}
    out["js"] = js
    for m in MODS:
        out[f"entropy_{m}"] = ents[m]
    stats = np.array([js, ents["text"], ents["video"], ents["audio"]])
    stat_bias = float(stats @ per.stat_weight.data) + float(per.stat_bias.data)
    out["stat_bias"] = stat_bias
    energy = sem + stat_bias
    gate_scalar = 1.0 / (1.0 + np.exp(-energy))
    gated = gate_scalar * diff
    out["conflict_energy"] = energy
    out["gated_diff"] = gated
    lift = affine_vec(np.array([ents[m] for m in MODS]), per.unc_lift)
    trust_logits = affine_vec(np.tanh(affine_vec(gated + lift, per.trust_in)),
                              per.trust_out)
    trust = softmax_vec(trust_logits)
    out["trust"] = trust
    strength = np.tanh(np.linalg.norm(gated))
    div_term = (np.array([js]) @ per.div_gate.weight.data).item() + per.div_gate.bias.data.item()
    gate = 1.0 / (1.0 + np.exp(-(strength + div_term)))
    out["gate"] = gate

    reasoning = sum(trust[i] * private[m] for i, m in enumerate(MODS))
    fused = (1.0 - gate) * z_int + gate * reasoning
    logits = affine_vec(fused, model.head)
    out["reasoning"] = reasoning
    out["fused"] = fused
    out["logits"] = logits
    out["probs"] = softmax_vec(logits)
    out["rea_logits"] = affine_vec(reasoning, model.rea_head)
    return out


# -- primitive nodes used only by the composite references --------------------

def mean(x, axis=None, keepdims=False):
    data = x.data.mean(axis=axis, keepdims=keepdims)
    # an empty result gets an empty gradient; the max() only avoids 0 // 0
    count = x.data.size // max(data.size, 1)

    def back(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accum(np.broadcast_to(g, x.data.shape) / count)

    return node(data, (x,), back)


def truediv(a, b):
    def back(g):
        if not a.const:
            a._accum(g / b.data)
        if not b.const:
            b._accum(-g * a.data / (b.data * b.data))

    return node(a.data / b.data, (a, b), back)


def neg(x):
    def back(g):
        x._accum(-g)

    return node(-x.data, (x,), back)


def exp(x):
    y = np.exp(x.data)

    def back(g):
        x._accum(g * y)

    return node(y, (x,), back)


def log(x):
    def back(g):
        x._accum(g / x.data)

    return node(np.log(x.data), (x,), back)


def safe_log(x):
    """log(x) where x > 0, exactly 0 where x == 0, where the gradient is
    masked to 0 too: the 0*log(0) = 0 convention of entropy sums."""
    positive = x.data > 0

    def back(g):
        x._accum(np.where(positive, g / np.where(positive, x.data, 1.0), 0.0))

    return node(np.log(np.where(positive, x.data, 1.0)), (x,), back)


def sqrt(x):
    y = np.sqrt(x.data)

    def back(g):
        x._accum(g * 0.5 / y)

    return node(y, (x,), back)


def where_const(cond, a, b):
    """Select with a constant boolean mask: gradient flows to ``a`` where
    cond holds and to ``b`` elsewhere."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(cond, dtype=bool)

    def back(g):
        a._accum(np.where(cond, g, 0.0))
        b._accum(np.where(cond, 0.0, g))

    return node(np.where(cond, a.data, b.data), (a, b), back)


def abs_(x):
    """|x|, the subgradient at 0 taken as 0, recording ``abs_signs``."""
    _note_kink("abs_signs", x.data)

    def back(g):
        x._accum(g * np.sign(x.data))

    return node(np.abs(x.data), (x,), back)


def getitem(x, key):
    """Basic (slice/int/tuple) indexing; the backward scatters into zeros."""
    def back(g):
        buf = np.zeros_like(x.data)
        buf[key] += g
        x._accum(buf)

    return node(x.data[key], (x,), back)


def clamp_min(x, floor):
    _note_kink("clamp_margin", x.data, floor)
    mask = x.data > floor

    def back(g):
        x._accum(g * mask)

    return node(np.where(mask, x.data, floor), (x,), back)


def transpose(x):
    if x.data.ndim != 2:
        raise ValueError("transpose() is defined for 2-D tensors")

    def back(g):
        x._accum(g.T)

    return node(x.data.T, (x,), back)


# -- composite references for the fused single-node ops -----------------------

PROB_FLOOR = 1e-12


def affine_composite(x, weight, bias):
    return x @ weight + bias


def affine_tanh_composite(x, weight, bias):
    return (x @ weight + bias).tanh()


def layer_norm_composite(x, gain, bias, eps=1e-5):
    mu = mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = mean(centered * centered, axis=-1, keepdims=True)
    return truediv(centered, sqrt(var + eps)) * gain + bias


def cosine_rows_composite(a, b):
    if b.data.ndim == 1:
        b = b.reshape(1, -1)
    dots = (a * b).sum(axis=-1, keepdims=True)
    denom = l2_norm_composite(a, -1) * l2_norm_composite(b, -1)
    ok = denom.data > 0
    guarded = where_const(ok, denom, Tensor(np.ones_like(denom.data)))
    return where_const(ok, truediv(dots, guarded), Tensor(np.zeros_like(dots.data)))


def js_divergence_composite(probs):
    avg = (probs["text"] + probs["video"] + probs["audio"]) * (1.0 / 3.0)
    log_avg = safe_log(avg)
    total = None
    for m in MODS:
        p = probs[m]
        kl = (p * (safe_log(p) - log_avg)).sum(axis=-1, keepdims=True)
        total = kl if total is None else total + kl
    return total * (1.0 / 3.0)


def normalized_entropy_composite(p, num_classes):
    h = neg((p * safe_log(p)).sum(axis=-1, keepdims=True))
    return h * (1.0 / np.log(num_classes))


def softmax_composite(x, axis=-1):
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    e = exp(x - shift)
    return truediv(e, e.sum(axis=axis, keepdims=True))


def l2_norm_composite(x, axis):
    sq = (x * x).sum(axis=axis, keepdims=axis is not None)
    positive = sq.data > 0
    _note_kink("norm_floor", sq.data)
    guarded = where_const(positive, sq, Tensor(np.ones_like(sq.data)))
    return where_const(positive, sqrt(guarded), Tensor(np.zeros_like(sq.data)))


def cross_entropy_composite(probs, labels):
    n, c = probs.data.shape
    mask = Tensor(np.eye(c)[np.asarray(labels)])
    picked = (probs * mask).sum(axis=-1, keepdims=True)
    return neg(mean(log(clamp_min(picked, PROB_FLOOR))))


def _center_composite(x):
    return x - mean(x, axis=0, keepdims=True)


def diff_loss_composite(shared, private):
    n, d_h = private["text"].data.shape
    scale = 1.0 / float(n * d_h) ** 2
    private = {m: _center_composite(private[m]) for m in MODS}
    shared = {m: _center_composite(shared[m]) for m in MODS}
    total = None
    for m in MODS:
        prod = transpose(private[m]) @ shared[m]
        term = (prod * prod).sum() * scale
        total = term if total is None else total + term
    for i in MODS:
        for j in MODS:
            if i == j:
                continue
            prod = transpose(private[i]) @ private[j]
            total = total + (prod * prod).sum() * scale
    return total


def cmd_composite(a, b, order):
    mu_a = mean(a, axis=0)
    mu_b = mean(b, axis=0)
    total = l2_norm_composite(mu_a - mu_b, axis=None)
    ca = a - mu_a.reshape(1, -1)
    cb = b - mu_b.reshape(1, -1)
    pow_a, pow_b = ca, cb
    for _ in range(2, order + 1):
        pow_a = pow_a * ca
        pow_b = pow_b * cb
        total = total + l2_norm_composite(mean(pow_a, axis=0) - mean(pow_b, axis=0),
                                          axis=None)
    return total


# -- per-modality references for the modality-block ops -----------------------
#
# Each per-modality stage the package runs as one node over the three
# modalities, here as one node per modality (or pair) and per product or
# sum, from the same primitive and single-modality fused ops; the block
# ops must match them bit for bit, gradients included, and make the same
# kink records.

def stack_node(tensors):
    """The tensors, one per modality, as one (..., K, N, d) block node: a
    test-local stand-in for a block op's block input. A (1, ...) tensor
    beside (M, ...) ones is broadcast; its gradient is summed back."""
    data = stack_slices([t.data for t in tensors])

    def back(g):
        for k, t in enumerate(tensors):
            t._accum(g[..., k, :, :])

    return node(data, tuple(tensors), back)


def deviations_per_modality(private):
    """(centroid, |private - centroid| concatenated in MODS order)."""
    c = (private["text"] + private["video"] + private["audio"]) * (1.0 / 3.0)
    return c, concat([abs_(private[m] - c) for m in MODS], axis=-1)


def affine_per_modality(xs, layers):
    """Each layer's own affine node, the outputs stacked on axis -3."""
    outs = [lin(x) for x, lin in zip(xs, layers)]
    return concat([y.reshape(*y.data.shape[:-2], 1, *y.data.shape[-2:]) for y in outs],
                  axis=-3)


def _safe_log_array(p):
    positive = p > 0
    return np.log(np.where(positive, p, 1.0)), positive


def js_divergence_per_modality(probs):
    """The one-node JS divergence over a dict of three distributions."""
    ps = tuple(probs[m] for m in MODS)
    avg = (ps[0].data + ps[1].data + ps[2].data) * (1.0 / 3.0)
    log_avg, avg_positive = _safe_log_array(avg)
    gaps, masks = [], []
    total = None
    for p in ps:
        log_p, positive = _safe_log_array(p.data)
        gap = log_p - log_avg
        kl = row_sum(p.data * gap)
        total = kl if total is None else total + kl
        gaps.append(gap)
        masks.append(positive)

    def back(g):
        g = g * (1.0 / 3.0)
        for p, gap, positive in zip(ps, gaps, masks):
            p._accum(g * (gap - (avg_positive > positive)))

    return node(total * (1.0 / 3.0), ps, back)


def entropy_per_modality(p, num_classes):
    """The one-node normalized entropy of one (..., N, C) distribution."""
    scale = 1.0 / np.log(num_classes)
    log_p, positive = _safe_log_array(p.data)

    def back(g):
        p._accum(-(g * scale) * (log_p + positive))

    return node(-row_sum(p.data * log_p) * scale, (p,), back)


def entropy_columns_per_modality(probs, num_classes):
    """Each modality's entropy node, concatenated as (..., N, 3) columns."""
    return concat([entropy_per_modality(probs[m], num_classes) for m in MODS], axis=-1)


def cross_entropy(probs, labels):
    """Mean negative log-probability of the true class over the rows of
    (..., N, C) probabilities with (..., N) labels: one ``_nll`` node."""
    return _nll(probs, one_hot(np.asarray(labels), probs.data.shape[-1]))


def unimodal_ce_per_modality(probs, labels):
    """The three unimodal cross-entropies, one node each, added in order."""
    total = None
    for m in MODS:
        term = cross_entropy(probs[m], labels)
        total = term if total is None else total + term
    return total


def weighted_sum_composite(terms, weights):
    """terms[0] + weights[0] * terms[1] + ..., each weight a constant leaf."""
    total = terms[0]
    for t, w in zip(terms[1:], weights):
        total = total + t * w
    return total


def reasoning_aggregate_per_modality(trust, private):
    out = None
    for i, m in enumerate(MODS):
        term = getitem(trust, (..., slice(i, i + 1))) * private[m]
        out = term if out is None else out + term
    return out


def diff_loss_pairwise(shared, private):
    """The one-node diff_loss with its nine products made one at a time."""
    inputs = tuple(private[m] for m in MODS) + tuple(shared[m] for m in MODS)
    n, d_h = inputs[0].data.shape[-2:]
    scale = 1.0 / float(n * d_h) ** 2
    centered = [t.data - t.data.sum(axis=-2, keepdims=True) / n for t in inputs]
    pairs = [(i, 3 + i) for i in range(3)] + [
        (i, j) for i in range(3) for j in range(3) if i != j]
    prods, value = [], None
    for i, j in pairs:
        prod = centered[i].swapaxes(-1, -2) @ centered[j]
        term = (prod * prod).sum(axis=(-2, -1)) * scale
        value = term if value is None else value + term
        prods.append(prod)

    def back(g):
        grads = [np.zeros(g.shape + c.shape[-2:]) for c in centered]
        g = g[..., None, None]
        for (i, j), prod in zip(pairs, prods):
            gp = (2.0 * scale) * g * prod
            grads[i] += centered[j] @ gp.swapaxes(-1, -2)
            grads[j] += centered[i] @ gp
        for t, gt in zip(inputs, grads):
            t._accum(gt - gt.sum(axis=-2, keepdims=True) / n)

    return node(value, inputs, back)


def cmd(a, b, order):
    """Central moment discrepancy between two (..., N, d) batches, which
    may differ in N: one node (``moment_match`` of one pair)."""
    return moment_match((a, b), ((0, 1),), order, 1.0)


def sim_loss_per_input(shared, order):
    """sim_loss with each input's powers and moments formed on its own."""
    return moment_match(tuple(shared[m] for m in MODS), ((0, 1), (0, 2), (1, 2)),
                        order, 1.0 / 3.0)


def moment_match(inputs, pairs, order, scale):
    """``scale`` times the sum of ``cmd(inputs[i], inputs[j], order)`` over
    ``pairs``, added in pair order, as one node with one ``norm_floor``
    record per order; each input's centered powers and moments are formed
    on its own, at its own N. A batch of fewer than two rows makes it 0."""
    if order < 1:
        raise ValueError("order must be >= 1")
    rows = [x.data.shape[-2] for x in inputs]
    if min(rows) < 2:
        return Tensor(np.zeros(inputs[0].data.shape[:-2]))
    powers, moments = [], []
    for x, n in zip(inputs, rows):
        mu = x.data.sum(axis=-2, keepdims=True) / n
        c = power = x.data - mu
        pw, ms = [c], [mu]
        for k in range(2, order + 1):
            power = power * c
            ms.append(power.sum(axis=-2, keepdims=True) / n)
            if k < order:
                pw.append(power)
        powers.append(pw)
        moments.append(ms)
    diffs = []
    for k in range(order):
        diff = [moments[i][k] - moments[j][k] for i, j in pairs]
        if len({d.shape for d in diff}) > 1:
            diff = np.broadcast_arrays(*diff)
        diffs.append(np.stack(diff, axis=-3))
    norms = [guarded_sqrt((d * d).sum(axis=(-2, -1))) for d in diffs]
    per_pair = sum(norms[1:], norms[0])
    value = per_pair[..., 0]
    for p in range(1, len(pairs)):
        value = value + per_pair[..., p]

    def back(g):
        g = (g * scale)[..., None, None, None]
        units = []
        for d, norm in zip(diffs, norms):
            norm = norm[..., None, None]
            units.append(np.divide(g * d, norm, out=np.zeros_like(d), where=norm > 0))
        lead = units[0].shape[:-3]
        for p in reversed(range(len(pairs))):
            for i, sign in zip(pairs[p], (1.0, -1.0)):
                pw, n = powers[i], rows[i]
                grad_c = np.zeros(lead + pw[0].shape[-2:])
                for k in range(2, order + 1):
                    grad_c += (k / n) * pw[k - 2] * units[k - 1][..., p, :, :]
                inputs[i]._accum(sign * (units[0][..., p, :, :] / n + grad_c
                                         - grad_c.sum(axis=-2, keepdims=True) / n))

    return node(value * scale, inputs, back)


# -- optimizer reference ------------------------------------------------------

def adamw_reference(params, ms, vs, t, lr, cfg):
    """Step ``t`` (1-based) of AdamW, one parameter group at a time.
    ``ms`` and ``vs`` map group names to moment arrays, updated in place."""
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad
        m = ms[name]
        v = vs[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
        p.data -= lr * update + lr * cfg.weight_decay * p.data


# -- certifier reference ------------------------------------------------------

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


def grad_check_reference(model, batch, loss_cfg, epsilon=1e-5, coords_per_group=20,
                         seed=0, corrupt_hook=None):
    """``trainer.grad_check`` one probe at a time: each probe writes its
    coordinate into the model, evaluates the loss at +step and at -step
    with two plain forwards, and writes the coordinate back."""
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

    for p in model.params().values():
        p.grad = None
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
            # an infinite analytic gradient's inf / inf is its intended NaN error
            with np.errstate(invalid="ignore"):
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
            worst = float(np.maximum(worst, rel))  # a NaN error stays NaN
            done += 1
            checked += 1
        if done < want:
            skipped += want - done
        per_group[name] = worst
    return GradCheckResult(max_rel_error=float(np.max(list(per_group.values()))),
                           per_group=per_group, coords_checked=checked,
                           resampled=resampled, skipped=skipped,
                           resampled_by_kind=by_kind)
