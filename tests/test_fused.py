"""Fused single-node ops against their composite references.

Each fused op (the affine map with and without tanh, softmax, layer_norm,
l2_norm, cosine_rows, js_divergence, normalized_entropy, the cross-entropy
``_nll``, diff_loss, sim_loss, and the reference CMD of
``tests/oracles.py``) must give the composite's values bit for bit, its
gradients to rounding and its kink records exactly, while recording one
tape node per call and none under no_grad(). A test caps the tape of a
whole training step. The stacked tests run each kernel once over a stack
of models, (M, N, d), against its plain call on every model's slice. The
modality-block ops (one node over the three modalities) are held to their
per-modality references, gradients bit for bit too.
"""

import logging
import tracemalloc

import numpy as np
import pytest

import oracles
from dualpath.functional import cosine_rows, l2_norm, layer_norm, one_hot, softmax
from dualpath.fusion import Model, ModelConfig, _stacked_shape, reasoning_aggregate
from dualpath.layers import Affine, affine_block
from dualpath.losses import (PROB_FLOOR, LossConfig, _nll, _weighted_sum,
                             diff_loss, sim_loss, total_loss)
from dualpath.perception import deviations, js_divergence, normalized_entropy
from dualpath.rng import Rng
from dualpath.synthdata import MODALITIES, DatasetConfig, generate
from dualpath.tensor import Tensor, _unbroadcast, constant, no_grad, watch_kinks

GRAD_RTOL = 1e-12
# perfbench/census.py after the affine, layer-norm, cosine and divergence
# fusions, the one-node sim_loss and the modality-block ops: nodes
# reachable from the loss of one default batch-16 training step, and of
# one eval forward+loss.
TRAIN_STEP_NODES = 134
EVAL_NODES = 122


def tape_nodes(root):
    """Distinct nodes reachable from ``root``, leaves included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def run(fn, arrays, wrap):
    """Call ``fn`` on fresh tensors; return value, gradients, kinks and the
    output. A non-scalar output is reduced against fixed weights so every
    element's gradient is exercised."""
    tensors = [Tensor(a.copy()) for a in arrays]
    with watch_kinks() as kinks:
        out = fn(*wrap(tensors))
    loss = out
    if out.data.ndim:
        weights = Rng(99, "fused/weights").normal(size=out.data.shape)
        loss = (out * Tensor(weights)).sum()
    loss.backward()
    grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    return out.data, grads, kinks, out


def assert_matches_reference(fused, reference, arrays, wrap=lambda ts: ts):
    value, grads, kinks, out = run(fused, arrays, wrap)
    ref_value, ref_grads, ref_kinks, _ = run(reference, arrays, wrap)
    assert np.array_equal(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert np.all(np.isfinite(g))
        assert np.max(np.abs(g - ref), initial=0.0) <= GRAD_RTOL * np.max(np.abs(ref), initial=0.0)
    assert [k for k, _ in kinks] == [k for k, _ in ref_kinks]
    assert [p for _, p in kinks] == [p for _, p in ref_kinks]
    # one recorded node whose parents are the input leaves
    assert out._back is not None
    assert all(p._back is None for p in out._parents)
    with no_grad():
        quiet = fused(*wrap([Tensor(a.copy()) for a in arrays]))
    assert quiet._parents == () and quiet._back is None
    assert np.array_equal(quiet.data, value)
    return value, grads


def normal(label, shape, scale=1.0):
    return Rng(7, "fused/" + label).normal(scale=scale, size=shape)


def feats_of(ts):
    """(shared, private) dicts of six tensors, three shared then three private."""
    return dict(zip(MODALITIES, ts[:3])), dict(zip(MODALITIES, ts[3:]))


BATCHES = [2, 16]


def affine_layer(weight, bias, squash):
    d_in, d_out = weight.data.shape[-2:]
    lin = Affine(Rng(0, "fused/affine"), d_in, d_out, "lin")
    lin.weight, lin.bias = weight, bias
    return lin.tanh if squash else lin


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("squash", [False, True])
def test_affine_with_a_zero_row(n, squash):
    x = normal("aff_x", (n, 6))
    x[0] = 0.0
    ref = oracles.affine_tanh_composite if squash else oracles.affine_composite
    assert_matches_reference(lambda x, w, b: affine_layer(w, b, squash)(x), ref,
                             [x, normal("aff_w", (6, 3)), normal("aff_b", (3,))])


def test_affine_rejects_a_1d_input():
    with pytest.raises(ValueError, match="2-D"):
        affine_layer(Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), squash=False)(
            Tensor(np.ones(3)))


def test_affine_takes_no_gradient_into_a_constant_input():
    x = constant(normal("aff_c", (4, 6)))
    w, b = Tensor(normal("aff_w", (6, 3))), Tensor(normal("aff_b", (3,)))
    affine_layer(w, b, squash=True)(x).sum().backward()
    assert x.grad is None
    assert w.grad is not None and b.grad is not None


@pytest.mark.parametrize("n", BATCHES)
def test_layer_norm_with_a_zero_row(n):
    x = normal("ln_x", (n, 5), scale=2.0)
    x[0] = 0.0
    assert_matches_reference(layer_norm, oracles.layer_norm_composite,
                             [x, normal("ln_g", (5,)) + 1.0, normal("ln_b", (5,))])


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("shape", ["vector", "rows"])
def test_cosine_rows_with_a_zero_row(n, shape):
    a = normal("cos_a", (n, 5))
    a[0] = 0.0
    b = normal("cos_b", (5,) if shape == "vector" else (n, 5))
    if shape == "rows":
        b[-1] = 0.0
    value, _ = assert_matches_reference(cosine_rows, oracles.cosine_rows_composite, [a, b])
    assert value.shape == (n, 1) and value[0, 0] == 0.0


def test_cosine_rows_against_a_zero_vector():
    value, grads = assert_matches_reference(cosine_rows, oracles.cosine_rows_composite,
                                            [normal("cos_z", (4, 5)), np.zeros(5)])
    assert np.array_equal(value, np.zeros((4, 1)))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)


def probabilities(label, n, zeros):
    """(n, 4) rows on the simplex; each listed (row, column) is exactly 0."""
    p = np.exp(normal(label, (n, 4), scale=2.0))
    for i, j in zeros:
        p[i, j] = 0.0
    return p / p.sum(axis=1, keepdims=True)


def slices(block):
    """A (..., 3, N, C) block tensor as a modality dict of getitem nodes."""
    return {m: oracles.getitem(block, (..., i, slice(None), slice(None)))
            for i, m in enumerate(MODALITIES)}


@pytest.mark.parametrize("n", BATCHES)
def test_js_divergence_with_zero_probabilities(n):
    # column 0 of row 0 is zero in one input only, column 3 in all three
    block = np.stack([probabilities("js_t", n, [(0, 0), (0, 3)]),
                      probabilities("js_v", n, [(0, 3)]),
                      probabilities("js_a", n, [(0, 3), (n - 1, 1)])])
    assert_matches_reference(js_divergence,
                             lambda b: oracles.js_divergence_composite(slices(b)), [block])


def test_js_divergence_with_one_tensor_in_two_slots():
    p, q = probabilities("js_p", 3, [(1, 2)]), probabilities("js_q", 3, [])
    assert_block_matches_per_modality(
        lambda p, q: js_divergence(oracles.stack_node([p, q, p])),
        lambda p, q: oracles.js_divergence_per_modality(dict(zip(MODALITIES, (p, q, p)))),
        [p, q])


@pytest.mark.parametrize("n", BATCHES)
def test_normalized_entropy_with_zero_probabilities(n):
    p = probabilities("ent", n, [(0, 1), (n - 1, 0), (n - 1, 2)])
    p[n // 2] = [0.0, 1.0, 0.0, 0.0]
    assert_matches_reference(lambda t: normalized_entropy(t, 4),
                             lambda t: oracles.normalized_entropy_composite(
                                 oracles.getitem(t, 0), 4), [p[None]])


@pytest.mark.parametrize("n", BATCHES)
def test_softmax(n):
    assert_matches_reference(softmax, oracles.softmax_composite,
                             [normal("sm", (n, 4), scale=3.0)])


@pytest.mark.parametrize("n", BATCHES)
def test_l2_norm_rows_with_a_zero_row(n):
    x = normal("l2", (n, 6))
    x[0] = 0.0
    _, (grad,) = assert_matches_reference(l2_norm,
                                          lambda t: oracles.l2_norm_composite(t, -1), [x])
    assert np.array_equal(grad[0], np.zeros(6))


@pytest.mark.parametrize("n", BATCHES)
def test_cross_entropy_with_a_probability_below_the_floor(n):
    labels = np.arange(n) % 4
    logits = normal("ce", (n, 4), scale=2.0)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    probs[0] = [PROB_FLOOR / 10.0, 1.0 - PROB_FLOOR / 10.0, 0.0, 0.0]
    _, (grad,) = assert_matches_reference(lambda p: oracles.cross_entropy(p, labels),
                                          lambda p: oracles.cross_entropy_composite(p, labels),
                                          [probs])
    assert np.array_equal(grad[0], np.zeros(4))
    assert np.all(grad[1:][np.arange(n - 1), labels[1:]] < 0)


@pytest.mark.parametrize("n", BATCHES)
def test_diff_loss(n):
    arrays = [normal(f"diff{i}", (n, 5)) for i in range(6)]
    assert_matches_reference(diff_loss, oracles.diff_loss_composite, arrays, wrap=feats_of)


def test_diff_loss_with_one_tensor_in_several_slots():
    s, p = normal("ds", (4, 3)), normal("dp", (4, 3))

    def same(ts):
        return feats_of([ts[0]] * 3 + [ts[1]] * 3)

    assert_matches_reference(diff_loss, oracles.diff_loss_composite, [s, p], wrap=same)


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("order", [1, 2, 5])
def test_cmd(n, order):
    a = normal("cmd_a", (n, 5))
    b = normal("cmd_b", (n, 5)) + 0.3
    assert_matches_reference(lambda x, y: oracles.cmd(x, y, order),
                             lambda x, y: oracles.cmd_composite(x, y, order), [a, b])


def test_cmd_of_a_batch_with_itself_is_zero_with_zero_gradient():
    x = normal("cmd_x", (16, 5))
    value, (grad,) = assert_matches_reference(
        lambda t: oracles.cmd(t, t, 5), lambda t: oracles.cmd_composite(t, t, 5), [x])
    assert value == 0.0
    assert np.array_equal(grad, np.zeros_like(x))


def test_cmd_batches_of_different_sizes():
    assert_matches_reference(lambda x, y: oracles.cmd(x, y, 3),
                             lambda x, y: oracles.cmd_composite(x, y, 3),
                             [normal("cmd_c", (5, 4)), normal("cmd_d", (9, 4))])


def test_training_step_tape_stays_fused():
    """Same batch and seeds as perfbench/census.py: undoing a fusion grows
    the tape past the census and fails here."""
    batch = generate(DatasetConfig(n_train=16, n_val=0, n_test=0, seed=0))[0]
    model = Model(ModelConfig(init_seed=0))
    for train, cap in ((True, TRAIN_STEP_NODES), (False, EVAL_NODES)):
        rng = Rng(0, "train").child("dropout", 1) if train else None
        out = model.forward_batch(batch.text, batch.video, batch.audio,
                                  train=train, rng=rng)
        loss, _ = total_loss(out, batch.labels, LossConfig())
        assert tape_nodes(loss) <= cap


# -- stacked kernels ----------------------------------------------------------
#
# A stack of M models runs each kernel once over (M, N, ...) arrays. Every
# model's slice must equal the kernel's plain 2-D call on that slice: values
# and gradients bit for bit, and each kink record the smallest of the
# slices' records of that position.

STACK = 3


def run_weighted(fn, arrays, wrap, weights):
    """Value, gradients and kinks of ``fn``, reduced against ``weights``."""
    tensors = [Tensor(a.copy()) for a in arrays]
    with watch_kinks() as kinks:
        out = fn(*wrap(tensors))
    (out * Tensor(weights)).sum().backward()
    grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    return out.data, grads, kinks


def assert_stack_matches_slices(fn, arrays, plain, wrap=lambda ts: ts, slice_fn=None):
    """``arrays`` carry a leading model axis, except where ``plain[i]`` is
    None: that input is shared whole by every model. ``plain[i]`` is the
    shape of one model's slice as the plain kernel takes it. Model m's
    slice runs ``slice_fn(m)``, ``fn`` by default."""
    with no_grad():
        shape = fn(*wrap([Tensor(a) for a in arrays])).data.shape
    weights = Rng(99, "fused/stack").normal(size=shape)
    value, grads, kinks = run_weighted(fn, arrays, wrap, weights)
    slices = []
    for m in range(STACK):
        part = [a if p is None else a[m].reshape(p) for a, p in zip(arrays, plain)]
        slices.append(run_weighted(slice_fn(m) if slice_fn else fn, part, wrap, weights[m]))
    for m, (v, gs, _) in enumerate(slices):
        assert np.array_equal(value[m], v), m
        for i, p in enumerate(plain):
            if p is not None:
                assert np.array_equal(grads[i][m].reshape(p), gs[i]), (m, i)
        if p is None:  # a shared input takes the slices' gradients, summed in order
            total = slices[0][1][i].copy()
            for _, gs, _ in slices[1:]:
                total += gs[i]
            assert np.array_equal(grads[i], total), i
    assert all(len(k) == len(kinks) for _, _, k in slices)
    for j, (kind, payload) in enumerate(kinks):
        assert all(k[j][0] == kind for _, _, k in slices)
        if kind == "abs_signs":  # the stack's signs, one slice per model
            assert all(np.array_equal(payload[m], k[j][1]) for m, (_, _, k) in enumerate(slices))
        else:
            assert payload == min(k[j][1] for _, _, k in slices)
    return value


def stacked(label, shape, scale=1.0):
    return normal("stack/" + label, (STACK,) + shape, scale)


@pytest.mark.parametrize("n", [1, 16, 17])
@pytest.mark.parametrize("squash", [False, True])
@pytest.mark.parametrize("shared_input", [False, True], ids=["own", "shared"])
def test_stacked_affine(n, squash, shared_input):
    x = normal("stack/aff_x", (n, 6)) if shared_input else stacked("aff_x", (n, 6))
    assert_stack_matches_slices(
        lambda x, w, b: affine_layer(w, b, squash)(x),
        [x, stacked("aff_w", (6, 3)), stacked("aff_b", (1, 3))],
        [None if shared_input else (n, 6), (6, 3), (3,)])


@pytest.mark.parametrize("n", BATCHES)
def test_stacked_layer_norm(n):
    assert_stack_matches_slices(
        layer_norm, [stacked("ln_x", (n, 5), 2.0), stacked("ln_g", (1, 5)) + 1.0,
                     stacked("ln_b", (1, 5))], [(n, 5), (5,), (5,)])


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("shape", ["vector", "rows"])
def test_stacked_cosine_rows(n, shape):
    a = stacked("cos_a", (n, 5))
    a[1, 0] = 0.0
    b = stacked("cos_b", (1, 5) if shape == "vector" else (n, 5))
    assert_stack_matches_slices(cosine_rows, [a, b],
                                [(n, 5), (5,) if shape == "vector" else (n, 5)])


def stacked_probabilities(label, n):
    return np.stack([probabilities(f"{label}{m}", n, [(0, m)]) for m in range(STACK)])


@pytest.mark.parametrize("n", BATCHES)
def test_stacked_divergence_and_entropy(n):
    block = np.stack([stacked_probabilities(f"sjs{i}", n) for i in range(3)], axis=1)
    assert_stack_matches_slices(js_divergence, [block], [(3, n, 4)])
    assert_stack_matches_slices(lambda t: normalized_entropy(t, 4), [block], [(3, n, 4)])


@pytest.mark.parametrize("n", BATCHES)
def test_stacked_softmax_and_l2_norm(n):
    x = stacked("sm", (n, 4), 3.0)
    x[2, 0] = 0.0
    assert_stack_matches_slices(softmax, [x], [(n, 4)])
    assert_stack_matches_slices(l2_norm, [x], [(n, 4)])


@pytest.mark.parametrize("n", BATCHES)
def test_stacked_cross_entropy(n):
    probs = stacked_probabilities("sce", n)
    probs[1, 0] = [PROB_FLOOR / 10.0, 1.0 - PROB_FLOOR / 10.0, 0.0, 0.0]
    labels = (np.arange(STACK * n).reshape(STACK, n) * 7) % 4
    value = assert_stack_matches_slices(
        lambda p: oracles.cross_entropy(p, labels), [probs], [(n, 4)],
        slice_fn=lambda m: lambda p: oracles.cross_entropy(p, labels[m]))
    assert value.shape == (STACK,)


@pytest.mark.parametrize("n", BATCHES)
def test_stacked_diff_loss(n):
    value = assert_stack_matches_slices(
        diff_loss, [stacked(f"sdiff{i}", (n, 5)) for i in range(6)], [(n, 5)] * 6,
        wrap=feats_of)
    assert value.shape == (STACK,)


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("order", [1, 2, 5])
def test_stacked_cmd(n, order):
    a = stacked("scmd_a", (n, 5))
    b = stacked("scmd_b", (n, 5)) + 0.3
    b[1] = a[1]  # one model whose moments all agree: zero norms, zero gradient
    assert_stack_matches_slices(lambda x, y: oracles.cmd(x, y, order), [a, b], [(n, 5)] * 2)


@pytest.mark.parametrize("n", [1, 16])
def test_stacked_matmul(n):
    assert_stack_matches_slices(lambda a, b: a @ b,
                                [stacked("smm_a", (n, 4)), stacked("smm_b", (4, 1))],
                                [(n, 4), (4, 1)])
    with pytest.raises(ValueError, match="one rank"):
        Tensor(stacked("smm_a", (n, 4))) @ Tensor(normal("smm_c", (4, 1)))


# -- members sharing a slice --------------------------------------------------
#
# grad_check keeps the parameter groups a probe round leaves alone at their
# (1, ...) stack shape, so a kernel meets (1, ...) operands beside (M, ...)
# ones. Its result must be that of the same operands repeated M times.

def repeated(arrays):
    """``arrays`` with each (1, ...) one repeated to the stack's M."""
    return [np.repeat(a, STACK, axis=0) if len(a) == 1 else a for a in arrays]


@pytest.mark.parametrize("squash", [False, True])
def test_affine_bias_grows_a_one_member_product(squash):
    """A (1, N, d_in) input and weight with an (M, 1, d_out) bias: each
    slice is that member's plain affine map, and the (1, ...) weight takes
    the members' gradients summed."""
    x, w, b = normal("aff1_x", (1, 5, 6)), normal("aff1_w", (1, 6, 3)), stacked("aff1_b", (1, 3))
    weights = normal("aff1_g", (STACK, 5, 3))
    runs = [run_weighted(lambda x, w, b: affine_layer(w, b, squash)(x), arrays, lambda ts: ts,
                         weights) for arrays in ([x, w, b], repeated([x, w, b]))]
    (value, grads, _), (ref_value, ref_grads, _) = runs
    for m in range(STACK):
        plain = affine_layer(Tensor(w[0]), Tensor(b[m, 0]), squash)(Tensor(x[0])).data
        assert np.array_equal(value[m], plain), m
    assert np.array_equal(value, ref_value)
    assert np.array_equal(grads[2], ref_grads[2])
    for g, ref in zip(grads[:2], ref_grads[:2]):
        assert np.array_equal(g, ref.sum(axis=0, keepdims=True))


@pytest.mark.parametrize("ones", [(0,), (0, 1), (0, 1, 2), (1, 4)])
@pytest.mark.parametrize("loss", ["sim", "diff"])
def test_losses_with_one_member_inputs_equal_repeated_inputs(loss, ones):
    """``sim_loss`` and ``diff_loss`` over features some of which are
    (1, ...): values, kink records and the (M, ...) inputs' gradients bit
    for bit those of the inputs repeated over the members. A (1, ...)
    input's gradient is the members' gradients summed; ``sim_loss`` sums
    each pair's share separately, so it matches to rounding."""
    fn = (lambda shared, _: sim_loss(shared, 3)) if loss == "sim" else diff_loss
    arrays = sim_features(f"ones{loss}", (STACK, 6, 4))
    arrays = [a[:1] if i in ones else a for i, a in enumerate(arrays)]
    weights = normal("ones_g", (STACK,))

    def run(arrays):
        tensors = [Tensor(a.copy()) for a in arrays]
        with watch_kinks(STACK) as kinks:
            out = fn(*feats_of(tensors))
        (out * Tensor(weights)).sum().backward()
        return out.data, [t.grad for t in tensors], kinks

    value, grads, kinks = run(arrays)
    ref_value, ref_grads, ref_kinks = run(repeated(arrays))
    assert np.array_equal(np.broadcast_to(value, ref_value.shape), ref_value)
    assert [k for k, _ in kinks] == [k for k, _ in ref_kinks]
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(kinks, ref_kinks))
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        if ref is None:  # sim_loss reads no private feature
            assert g is None
        elif i not in ones:
            assert np.array_equal(g, ref), i
        else:
            ref = ref.sum(axis=0, keepdims=True)
            assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref)), i


# A probe round perturbs one group, so the losses meet one or two (M, ...)
# features beside (1, ...) ones under no_grad(), where each product or
# moment is formed at its own inputs' shape; a round that perturbs a group
# downstream of the features meets only (1, ...) ones. Values and records
# must be those of the recorded (9, ...) and (3, ...) blocks over the
# features repeated to the members.

@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("loss, wide", [
    *[("diff", (i,)) for i in range(6)], ("diff", (0, 3)), ("diff", (2, 4)),
    ("diff", ()), ("diff", tuple(range(6))),
    *[("sim", (i,)) for i in range(3)], ("sim", (0, 2)), ("sim", (1, 2)),
    ("sim", ()), ("sim", (0, 1, 2))])
def test_no_grad_losses_equal_the_recorded_block(loss, wide, n):
    fn = (lambda shared, _: sim_loss(shared, 5)) if loss == "sim" else diff_loss
    arrays = sim_features(f"wide{loss}", (STACK, n, 4))
    arrays = [a if i in wide else a[:1] for i, a in enumerate(arrays)]

    def run(arrays):
        with watch_kinks(STACK) as kinks:
            out = fn(*feats_of([Tensor(a) for a in arrays]))
        return out.data, kinks

    with no_grad():
        value, kinks = run(arrays)
    ref_value, ref_kinks = run(repeated(arrays))
    assert value.shape == ((STACK,) if wide else (1,))
    assert np.array_equal(np.broadcast_to(value, ref_value.shape), ref_value)
    assert [k for k, _ in kinks] == [k for k, _ in ref_kinks]
    assert all(np.array_equal(np.broadcast_to(p, q.shape), q)
               for (_, p), (_, q) in zip(kinks, ref_kinks))
    if loss == "sim":
        assert [k for k, _ in kinks] == ["norm_floor"] * 5


def test_no_grad_diff_loss_of_a_probe_round_allocates_no_pair_block():
    """A round-shaped call, one (96, 8, 16) slot among (1, 8, 16) ones,
    allocates less than the (9, 96, 16, 16) products of the broadcast block."""
    arrays = [normal(f"round{i}", (96 if i == 2 else 1, 8, 16)) for i in range(6)]
    tensors = feats_of([Tensor(a) for a in arrays])
    with no_grad():
        diff_loss(*tensors)  # warm-up
        tracemalloc.start()
        try:
            value = diff_loss(*tensors).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert value.shape == (96,)
    assert peak < 9 * 96 * 16 * 16 * np.dtype(np.float64).itemsize, peak


# -- sim_loss: one node over the three modality pairs -----------------------

def three_pair_sim(pair_fn, order):
    """sim_loss as three CMD terms, (t, v) + (t, a) + (v, a), then / 3."""
    def sim(shared):
        t, v, a = (shared[m] for m in MODALITIES)
        return (pair_fn(t, v, order) + pair_fn(t, a, order)
                + pair_fn(v, a, order)) * (1.0 / 3.0)
    return sim


def sim_features(label, shape):
    """Six feature arrays; the video shared features sit a hair off the
    text ones, so the (text, video) mean difference is a near-kink."""
    arrays = [normal(f"{label}{i}", shape) for i in range(6)]
    arrays[1] = arrays[0] + 1e-6 * normal(f"{label}near", shape)
    return arrays


def run_sim(fn, arrays, members=None):
    """Value, the three shared inputs' gradients and the kink records."""
    tensors = [Tensor(a.copy()) for a in arrays]
    with watch_kinks(members) as kinks:
        out = fn(feats_of(tensors)[0])
    weights = Rng(99, "fused/sim").normal(size=out.data.shape)
    (out * Tensor(weights)).sum().backward()
    return out, [t.grad for t in tensors[:3]], kinks


def pairs_min(kinks, order):
    """Per order, the smallest of the three pairs' records: the composite
    records pair by pair, orders 1 .. order within each pair."""
    assert len(kinks) == 3 * order and all(k == "norm_floor" for k, _ in kinks)
    return [np.minimum.reduce([kinks[p * order + k][1] for p in range(3)])
            for k in range(order)]


@pytest.mark.parametrize("members", [None, STACK], ids=["plain", "stacked"])
@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("order", [1, 2, 5])
def test_sim_loss_is_three_cmd_terms_bit_for_bit(members, n, order):
    shape = (n, 5) if members is None else (members, n, 5)
    arrays = sim_features(f"sim{members}", shape)
    out, grads, kinks = run_sim(lambda f: sim_loss(f, order), arrays, members)
    ref_out, ref_grads, ref_kinks = run_sim(three_pair_sim(oracles.cmd, order), arrays,
                                            members)
    assert np.array_equal(out.data, ref_out.data)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)
    assert [k for k, _ in kinks] == ["norm_floor"] * order
    assert all(np.array_equal(p, want) for (_, p), want in zip(kinks, pairs_min(ref_kinks, order)))
    assert out._back is not None and len(out._parents) == 3  # one node
    if members is None:  # the primitive composite: values bit for bit, gradients to rounding
        comp_out, comp_grads, comp_kinks = run_sim(
            three_pair_sim(oracles.cmd_composite, order), arrays)
        assert np.array_equal(out.data, comp_out.data)
        for g, ref in zip(grads, comp_grads):
            assert np.max(np.abs(g - ref)) <= GRAD_RTOL * np.max(np.abs(ref))
        assert [p for _, p in comp_kinks] == [p for _, p in ref_kinks]


@pytest.mark.parametrize("members", [None, STACK], ids=["plain", "stacked"])
def test_sim_loss_kink_verdicts_match_three_cmd_terms(members):
    """A probe pair judged from the fused records gets the verdict it gets
    from the three terms' records: the near-kink of the (text, video) mean
    difference trips large steps and not small ones."""
    shape = (8, 4) if members is None else (members, 8, 4)
    arrays = sim_features("simkink", shape)
    verdicts = {}
    for name, fn in (("fused", lambda f: sim_loss(f, 3)),
                     ("terms", three_pair_sim(oracles.cmd, 3))):
        for step in (1e-3, 1e-5, 1e-7, 1e-9):
            plus, minus = [a.copy() for a in arrays], [a.copy() for a in arrays]
            plus[2].reshape(-1)[5] += step
            minus[2].reshape(-1)[5] -= step
            records = [run_sim(fn, a, members)[2] for a in (plus, minus)]
            if members is not None:  # each model's records, as grad_check reads them
                records = [[[(k, p[m]) for k, p in rec] for rec in records]
                           for m in range(members)]
            else:
                records = [records]
            verdicts.setdefault(name, []).append(
                [oracles._kink_crossed(*rec, step) for rec in records])
    assert verdicts["fused"] == verdicts["terms"]
    flat = [v for per_step in verdicts["fused"] for v in per_step]
    assert "norm_floor" in flat and None in flat


@pytest.mark.parametrize("members", [None, STACK], ids=["plain", "stacked"])
def test_sim_loss_of_a_batch_of_one_is_zero_without_gradient(members, caplog):
    shape = (1, 5) if members is None else (members, 1, 5)
    arrays = [normal(f"sim1_{i}", shape) for i in range(6)]
    with caplog.at_level(logging.WARNING, logger="dualpath.losses"):
        out, grads, kinks = run_sim(lambda f: sim_loss(f, 5), arrays, members)
    ref_out, ref_grads, _ = run_sim(three_pair_sim(oracles.cmd, 5), arrays, members)
    assert np.array_equal(out.data, np.zeros(shape[:-2]))
    assert np.array_equal(out.data, ref_out.data)
    assert grads == ref_grads == [None] * 3
    assert kinks == []
    assert any("too small" in r.message for r in caplog.records)


# -- modality-block ops -------------------------------------------------------
#
# Each op that runs the three modalities as one node is held to its
# per-modality reference in tests/oracles.py, the same work done by one node
# per modality, pair, product or sum, three ways: on plain inputs; on a
# stack of models, where each model's slice must also be the op's plain
# call; and with some inputs at (1, ...) beside (M, ...) ones, as a
# grad_check probe round makes them. Values, gradients and kink records
# match bit for bit. The (1, ...) set-ups run M = 4 models under a member
# watch, so a kink payload led by the modality axis (3) would raise there.

MIXED = 4


def by_mod(*tensors):
    return dict(zip(MODALITIES, tensors))


def lifted(label, core, lead, scale=1.0):
    """A normal array of one model's ``core`` shape, with a stack's
    ``lead`` in front of the shape the stack holds it at."""
    return normal("block/" + label, lead + _stacked_shape(core) if lead else core, scale)


def stacked_probs(label, n, lead):
    """(..., n, 4) rows on the simplex, one row of each near the CE floor."""
    p = np.exp(lifted(label, (n, 4), lead, 2.0))
    p[..., 0, :] = [PROB_FLOOR / 10.0, 1.0 - PROB_FLOOR / 10.0, 0.0, 0.0]
    return p / p.sum(axis=-1, keepdims=True)


def labels_of(n, lead):
    return (np.arange(int(np.prod(lead, dtype=int)) * n).reshape(lead + (n,)) * 5) % 4


def layers_of(tensors):
    """Three affine layers holding (weight, bias) pairs of ``tensors``."""
    out = []
    for w, b in zip(tensors[0::2], tensors[1::2]):
        lin = Affine(Rng(0, "fused/affine"), 1, 1, "lin")
        lin.weight, lin.bias = w, b
        out.append(lin)
    return out


def block_case(name, lead, labels=None):
    """(block op, per-modality reference, input arrays, one model's input
    shapes) of a named case; the first three inputs are the three
    modalities' own."""
    n = 6
    if name == "deviations":
        arrays = [lifted(f"dev{i}", (n, 5), lead) for i in range(3)]
        arrays[1][..., 0, :] = arrays[0][..., 0, :]  # a row where two agree
        arrays[2][..., 0, :2] = arrays[0][..., 0, :2]  # and entries where all three do
        return (lambda *ts: deviations(by_mod(*ts))[1],
                lambda *ts: oracles.deviations_per_modality(by_mod(*ts))[1],
                arrays, [(n, 5)] * 3)
    if name == "affine":
        arrays = [lifted(f"affx{i}", (n, 6), lead) for i in range(3)]
        for i in range(3):
            arrays += [lifted(f"affw{i}", (6, 4), lead), lifted(f"affb{i}", (4,), lead)]
        return (lambda *ts: affine_block(list(ts[:3]), layers_of(ts[3:])),
                lambda *ts: oracles.affine_per_modality(list(ts[:3]), layers_of(ts[3:])),
                arrays, [(n, 6)] * 3 + [(6, 4), (4,)] * 3)
    if name in ("js", "entropy", "unimodal_ce"):
        arrays = [stacked_probs(f"{name}{i}", n, lead) for i in range(3)]
        arrays[1][..., 1, 2] = 0.0  # zero probabilities: in one input, then in all
        arrays[2][..., 2, :] = arrays[0][..., 2, :] = arrays[1][..., 2, :] = [0.5, 0.5, 0, 0]
        if name == "js":
            block = lambda *ts: js_divergence(oracles.stack_node(ts))  # noqa: E731
            ref = lambda *ts: oracles.js_divergence_per_modality(by_mod(*ts))  # noqa: E731
        elif name == "entropy":
            block = lambda *ts: normalized_entropy(oracles.stack_node(ts), 4)  # noqa: E731
            ref = lambda *ts: oracles.entropy_columns_per_modality(by_mod(*ts), 4)  # noqa: E731
        else:
            labels = labels_of(n, lead) if labels is None else labels
            block = lambda *ts: _nll(oracles.stack_node(ts), one_hot(labels, 4),  # noqa: E731
                                     block=True)
            ref = lambda *ts: oracles.unimodal_ce_per_modality(by_mod(*ts), labels)  # noqa: E731
        return block, ref, arrays, [(n, 4)] * 3
    if name == "reasoning":
        arrays = [lifted(f"rea{i}", (n, 5), lead) for i in range(3)]
        trust = np.exp(lifted("rea_trust", (n, 3), lead))
        arrays.append(trust / trust.sum(axis=-1, keepdims=True))
        return (lambda t, v, a, trust: reasoning_aggregate(trust, by_mod(t, v, a)),
                lambda t, v, a, trust: oracles.reasoning_aggregate_per_modality(
                    trust, by_mod(t, v, a)),
                arrays, [(n, 5)] * 3 + [(n, 3)])
    if name == "diff":
        arrays = [lifted(f"diff{i}", (n, 5), lead) for i in range(6)]
        return (lambda *ts: diff_loss(by_mod(*ts[3:]), by_mod(*ts[:3])),
                lambda *ts: oracles.diff_loss_pairwise(by_mod(*ts[3:]), by_mod(*ts[:3])),
                arrays, [(n, 5)] * 6)
    assert name == "sim", name
    arrays = [lifted(f"sim{i}", (n, 5), lead) for i in range(3)]
    arrays[1] = arrays[0] + 1e-6 * lifted("simnear", (n, 5), lead)  # a near-kink mean gap
    return (lambda *ts: sim_loss(by_mod(*ts), 4),
            lambda *ts: oracles.sim_loss_per_input(by_mod(*ts), 4),
            arrays, [(n, 5)] * 3)


BLOCK_CASES = ["deviations", "affine", "js", "entropy", "unimodal_ce", "reasoning",
               "diff", "sim"]
# (1, ...) inputs per case, as probe rounds make them: the text input's
# group perturbed, or the video's and audio's; for the affine block, a
# classifier's weight or bias perturbed, or the text private encoder
MIXED_ONES = {"affine": [(0, 1, 2, 4, 5, 6, 7, 8), (0, 1, 2, 3, 5, 6, 7, 8),
                         (1, 2, 3, 4, 5, 6, 7, 8)],
              "diff": [(0,), (1, 2), (0, 1, 2), (3, 4, 5)]}


def run_block(fn, arrays, members=None):
    """Output, gradients (None where none arrived) and kink records of
    ``fn`` on fresh leaves, reduced against fixed weights."""
    tensors = [Tensor(a.copy()) for a in arrays]
    with watch_kinks(members) as kinks:
        out = fn(*tensors)
    weights = Rng(99, "fused/block").normal(size=out.data.shape)
    (out * Tensor(weights)).sum().backward()
    return out, [t.grad for t in tensors], kinks


def assert_same_kinks(kinks, ref):
    assert [k for k, _ in kinks] == [k for k, _ in ref]
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(kinks, ref))


def assert_block_matches_per_modality(block, ref, arrays, members=None):
    """Value, every gradient and every kink record of ``block`` those of
    ``ref`` on the same inputs, bit for bit."""
    out, grads, kinks = run_block(block, arrays, members)
    ref_out, ref_grads, ref_kinks = run_block(ref, arrays, members)
    assert np.array_equal(out.data, ref_out.data)
    for i, (g, r) in enumerate(zip(grads, ref_grads)):
        assert (g is None and r is None) or np.array_equal(g, r), i
    assert_same_kinks(kinks, ref_kinks)
    return out


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_op_matches_per_modality_nodes(name):
    block, ref, arrays, _ = block_case(name, ())
    out = assert_block_matches_per_modality(block, ref, arrays)
    if name not in ("js", "entropy", "unimodal_ce"):  # those read a test-side stack node
        assert out._back is not None and all(p._back is None for p in out._parents)
        assert len(out._parents) == len(arrays)  # every input its own parent
        with no_grad():
            quiet = block(*[Tensor(a) for a in arrays])
        assert quiet._back is None and np.array_equal(quiet.data, out.data)


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_stacked_block_op_matches_per_modality_nodes_and_slices(name):
    block, ref, arrays, cores = block_case(name, (STACK,))
    assert_block_matches_per_modality(block, ref, arrays)
    labels = labels_of(6, (STACK,))
    assert_stack_matches_slices(
        block, arrays, cores,
        slice_fn=lambda m: block_case(name, (), labels[m])[0])


# The ops that stack a (1, ...) input's broadcast array and accumulate its
# gradient once, where the per-modality nodes run it at (1, ...) after
# summing the members' gradients; every other op sums where its reference
# does.
FANNED_OUT = {"affine", "js", "entropy", "unimodal_ce"}


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_op_with_one_member_inputs(name):
    """Inputs at (1, ...) beside (M, ...) ones: the value and kink records
    those of the per-modality reference on the same inputs. The gradients
    are the reference's too, except where the op fans a (1, ...) input
    out: there each is the reference's on the input repeated over the
    members, summed back to its shape."""
    labels = labels_of(6, ())  # every member's, as in a probe round
    block, ref, arrays, _ = block_case(name, (MIXED,), labels)
    for ones in MIXED_ONES.get(name, [(0,), (1, 2)]):
        mixed = [a[:1] if i in ones else a for i, a in enumerate(arrays)]
        out, grads, kinks = run_block(block, mixed, MIXED)
        ref_out, ref_grads, ref_kinks = run_block(ref, mixed, MIXED)
        assert out.data.shape == ref_out.data.shape
        assert np.array_equal(out.data, ref_out.data)
        assert_same_kinks(kinks, ref_kinks)
        if name in FANNED_OUT:  # a bias's row axis fans out over the 6 rows too
            fanned = [np.repeat(np.repeat(a, MIXED, axis=0), 6 if a.shape[-2] == 1 else 1,
                                axis=-2) if i in ones else a for i, a in enumerate(mixed)]
            _, fan_grads, _ = run_block(ref, fanned, MIXED)
            ref_grads = [_unbroadcast(r, a.shape) for r, a in zip(fan_grads, mixed)]
        for i, (g, r) in enumerate(zip(grads, ref_grads)):
            assert (g is None and r is None) or np.array_equal(g, r), (ones, i)


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_op_with_one_tensor_in_two_modality_slots(name):
    """The text input passed again in the audio slot: its gradient adds
    both slots' shares in the reference's order."""
    block, ref, arrays, _ = block_case(name, ())

    def twice(fn):
        return lambda *ts: fn(ts[0], ts[1], ts[0], *ts[2:])

    assert_block_matches_per_modality(twice(block), twice(ref), arrays[:2] + arrays[3:])


def test_weighted_sums_match_the_constant_weighted_chain():
    """total_loss's five weighted terms, summed in two nodes as task_loss
    and total_loss sum them, against the chain of constant-weighted sums:
    values and gradients bit for bit, each node over its own terms with no
    constant leaf, and (M,) weights for a stack."""
    for lead, weights in (((), (0.1, 0.3, 0.05, 0.7)),
                          ((STACK,), tuple(normal(f"ws{i}", (STACK,)) for i in range(4)))):
        arrays = [normal(f"wterm{i}", lead) for i in range(5)]

        def grown(cls, rea, uni, diff, sim):
            task = _weighted_sum(cls, (rea, uni), weights[:2])
            return _weighted_sum(task, (diff, sim), weights[2:])

        out = assert_block_matches_per_modality(
            grown, lambda *ts: oracles.weighted_sum_composite(ts, weights), arrays)
        task, *structural = out._parents
        assert len(structural) == 2 and len(task._parents) == 3
        assert all(p._back is None for p in (*task._parents, *structural))
        with no_grad():
            quiet = grown(*[Tensor(a) for a in arrays])
        assert quiet._back is None and np.array_equal(quiet.data, out.data)
        # one tensor as three terms: its shares add in the chain's order
        assert_block_matches_per_modality(
            lambda cls, x, sim: grown(cls, x, x, x, sim),
            lambda cls, x, sim: oracles.weighted_sum_composite((cls, x, x, x, sim), weights),
            [arrays[0], arrays[1], arrays[4]])
