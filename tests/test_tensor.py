"""Autodiff engine: values, gradients against central differences,
broadcasting, backward order, constants, and the nonsmooth-op
bookkeeping."""

import gc
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

import oracles
from dualpath import tensor
from dualpath.fusion import Model, ModelConfig
from dualpath.losses import LossConfig, stack_loss_configs, total_loss
from dualpath.rng import Rng, StackedRng
from dualpath.synthdata import MODALITIES, DatasetConfig, generate
from dualpath.tensor import Tensor, concat, constant, no_grad, tape, watch_kinks


def fd_grad(f, arrays, eps=1e-6):
    """Central-difference gradient of a scalar-valued f(list of arrays)."""
    grads = [np.zeros_like(a) for a in arrays]
    for gi, arr in enumerate(arrays):
        flat = arr.reshape(-1)
        gflat = grads[gi].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(arrays)
            flat[i] = orig - eps
            lo = f(arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
    return grads


def analytic_grad(build, arrays):
    tens = [Tensor(a.copy()) for a in arrays]
    out = build(tens)
    out.backward()
    return [t.grad for t in tens]


def check_op(build, arrays, tol=5e-6):
    ana = analytic_grad(build, arrays)
    num = fd_grad(lambda arrs: float(build([Tensor(a) for a in arrs]).data), arrays)
    for a, n in zip(ana, num):
        # floor the denominator at a fraction of the array's gradient scale
        # so finite-difference roundoff on near-zero coordinates does not
        # dominate the relative error
        floor = max(1e-3 * float(np.abs(a).max()), 1e-6)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        assert np.max(np.abs(a - n) / denom) < tol


def test_arithmetic_values():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 5.0])
    assert np.array_equal((a + b).data, [4.0, 7.0])
    assert np.array_equal((a - b).data, [-2.0, -3.0])
    assert np.array_equal((a * b).data, [3.0, 10.0])
    assert np.allclose(oracles.truediv(a, b).data, [1 / 3, 2 / 5])
    assert np.array_equal(oracles.neg(a).data, [-1.0, -2.0])
    assert np.array_equal((2.0 - a).data, [1.0, 0.0])
    assert np.array_equal((2.0 * a).data, [2.0, 4.0])


def test_backward_requires_scalar():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        (t * 2).backward()


def test_grad_accumulates_over_reuse():
    x = Tensor(2.0)
    y = x * x + x * 3.0
    y.backward()
    assert float(x.grad) == pytest.approx(2 * 2.0 + 3.0)


def test_intermediate_with_many_consumers():
    """An intermediate read by four ops, one of them twice, runs its
    backward only after every consumer has passed its gradient on."""
    x = Rng(6, "t_fan").normal(size=(3, 4))

    def build(ts):
        h = ts[0].tanh()
        u = h * h + h * 3.0 - h.sigmoid()
        return (u * h.sum(axis=0)).sum()

    check_op(build, [x])


def test_graph_reused_across_two_backward_calls():
    x = Tensor(np.array([0.3, -1.2, 2.0]))
    h = (x * x).tanh()
    first, second = (h * 2.0).sum(), (h * h).sum()
    first.backward()
    g_first = x.grad.copy()
    first.backward()  # the same root again: the leaf accumulates once more
    assert np.allclose(x.grad, 2.0 * g_first, rtol=1e-15, atol=0.0)
    x.grad = None
    second.backward()  # another root over the same intermediate h
    g_second = x.grad.copy()
    x.grad = None
    (h * 2.0 + h * h).sum().backward()
    assert np.allclose(g_first + g_second, x.grad, rtol=1e-14, atol=0.0)


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: signed zeros and NaNs must match too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_taped_root_differentiates_twice_and_after_its_block():
    """Inside tape() a second backward clears the nodes' gradients of the
    first, so a leaf with one path to the root gets exactly twice the
    gradient; a root built after the block takes the gather walk."""
    x = Tensor(np.array([0.3, -1.2, 2.0]))
    h = (x * np.array([1.5, 0.5, -0.25])).tanh()
    (h * 2.0 + h * h).sum().backward()
    untaped = x.grad
    x.grad = None
    with tape():
        h = (x * np.array([1.5, 0.5, -0.25])).tanh()
        root = (h * 2.0 + h * h).sum()
        root.backward()
        assert same_bits(x.grad, untaped)
        root.backward()
        assert same_bits(x.grad, 2.0 * untaped)
    assert tensor._tape is None
    x.grad = None
    (h * 2.0 + h * h).sum().backward()
    assert same_bits(x.grad, untaped)


def test_nested_tape_shares_the_outer_list():
    """A root recorded in an inner block may reach the outer block's nodes."""
    x = Tensor(np.array([0.7, -0.4]))
    (x * x).tanh().sum().backward()
    untaped, x.grad = x.grad, None
    with tape():
        h = x * x
        with tape():
            h.tanh().sum().backward()
        assert tensor._tape is not None
    assert same_bits(x.grad, untaped)


def test_tape_closes_when_its_block_raises():
    with pytest.raises(RuntimeError):
        with tape():
            Tensor(np.ones(2)).tanh()
            raise RuntimeError("inside the block")
    assert tensor._tape is None


@pytest.mark.parametrize("taped", [False, True], ids=["gather", "tape"])
@pytest.mark.parametrize("build", [lambda a, b: (a + b).sum(),
                                   lambda a, b: concat([a, b], axis=0).sum()],
                         ids=["add", "concat"])
def test_leaves_own_their_gradients(build, taped):
    """Nodes borrow the gradients handed to them; leaves never do: two
    leaves fed the same array, or slices of one, get writable arrays of
    their own."""
    a, b = Tensor(np.array([1.0, -2.0, 3.0])), Tensor(np.array([0.5, 4.0, -1.0]))
    with tape() if taped else nullcontext():
        build(a, b).backward()
    assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
    assert a.grad.flags.writeable and b.grad.flags.writeable
    before = b.grad.copy()
    a.grad *= 2
    assert same_bits(b.grad, before) and same_bits(a.grad, 2.0 * np.ones(3))


def stacked_step(batch, taped: bool, **model_kw) -> dict:
    """The parameters of a stack of two default models after one training
    step's forward, loss and backward, dropout on, each member on its own
    order of the batch's rows."""
    models = [Model(ModelConfig(init_seed=s, **model_kw)) for s in (0, 1)]
    stack = Model.stack(models)
    idx = np.stack([np.arange(len(batch)), np.arange(len(batch))[::-1]])
    inputs = [getattr(batch, m)[idx] for m in MODALITIES]
    with tape() if taped else nullcontext():
        out = stack.forward_batch(*inputs, train=True,
                                  rng=StackedRng([0, 1], "train").child("dropout", 1))
        loss, _ = total_loss(out, batch.labels[idx], stack_loss_configs([LossConfig()] * 2))
        loss.sum().backward()
    return stack.params()


def test_tape_walk_matches_the_gather_walk(default_batch):
    taped, gathered = (stacked_step(default_batch, t) for t in (True, False))
    assert list(taped) == list(gathered)
    for name, p in taped.items():
        assert same_bits(p.grad, gathered[name].grad), name


def test_training_step_parameters_own_their_gradients(default_batch):
    """With one shared encoder serving three modalities, every parameter
    still ends a step with a writable gradient array no other holds."""
    params = list(stacked_step(default_batch, True, share_shared_encoder=True).values())
    for i, p in enumerate(params):
        assert p.grad.flags.writeable
        assert not any(np.shares_memory(p.grad, q.grad) for q in params[i + 1:])
    before = [q.grad.copy() for q in params[1:]]
    params[0].grad *= 2
    assert all(same_bits(q.grad, b) for q, b in zip(params[1:], before))


def test_recorded_forward_is_freed_by_refcount(default_batch):
    model = Model(ModelConfig(init_seed=0))
    gc.collect()
    gc.disable()
    try:
        out = model.forward_batch(default_batch.text, default_batch.video,
                                  default_batch.audio, train=False)
        loss, _ = total_loss(out, default_batch.labels, LossConfig())
        assert loss._back is not None
        watched = [weakref.ref(out.report.diff_vector.data),
                   weakref.ref(out.shared["text"].data)]
        del out, loss
        assert all(ref() is None for ref in watched)
    finally:
        gc.enable()


def test_constants_take_no_gradient():
    x = Tensor(np.array([1.0, -2.0]))
    c = constant(np.array([3.0, 4.0]))
    (x * c + oracles.truediv(c, x) - c + 2.0 * x).sum().backward()
    assert c.grad is None
    assert np.allclose(x.grad, [3.0 - 3.0 + 2.0, 4.0 - 1.0 + 2.0])


def test_training_step_leaves_constant_leaves_without_gradient(default_batch):
    """The inputs, dropout masks and wrapped scalars of a step are
    constants; the parameters all get a gradient."""
    model = Model(ModelConfig(init_seed=0))
    out = model.forward_batch(default_batch.text, default_batch.video,
                              default_batch.audio, train=True,
                              rng=Rng(0, "train").child("dropout", 1))
    loss, _ = total_loss(out, default_batch.labels, LossConfig())
    loss.backward()
    leaves, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            if node._back is None:
                leaves.append(node)
    params = {id(p) for p in model.params().values()}
    consts = [t for t in leaves if id(t) not in params]
    assert len(consts) >= 3 + 6  # three inputs, six dropout masks
    assert all(t.const and t.grad is None for t in consts)
    assert all(p.grad is not None for p in model.params().values())


def test_arithmetic_grads():
    rng = Rng(0, "t_arith")
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0

    def build(ts):
        u = ts[0] * ts[1] + oracles.truediv(ts[0], ts[1]) - ts[1]
        return (u * u * u).sum()

    check_op(build, [a, b])


def test_broadcast_grads():
    rng = Rng(1, "t_bcast")
    a = rng.normal(size=(4, 5))
    row = rng.normal(size=(1, 5))
    col = rng.normal(size=(4, 1))
    vec = rng.normal(size=5)
    check_op(lambda ts: (ts[0] * ts[1] + ts[2] - ts[3]).sum(), [a, row, col, vec])


# matrix @ matrix, matrix @ column, row @ matrix, row @ column
@pytest.mark.parametrize("ashape,bshape", [((3, 4), (4, 2)), ((3, 4), (4, 1)),
                                           ((1, 4), (4, 2)), ((1, 4), (4, 1))])
def test_matmul_shapes_and_grads(ashape, bshape):
    rng = Rng(2, f"t_mm{ashape}{bshape}")
    a = rng.normal(size=ashape)
    b = rng.normal(size=bshape)
    assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)
    check_op(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])


@pytest.mark.parametrize("ashape,bshape", [((3,), (3, 2)), ((2, 3), (3,)),
                                           ((2, 2, 3), (3, 2))],
                         ids=["1d_left", "1d_right", "3d"])
def test_matmul_rejects_non_2d(ashape, bshape):
    with pytest.raises(ValueError):
        Tensor(np.zeros(ashape)) @ Tensor(np.zeros(bshape))


def test_reductions_and_shape_ops():
    rng = Rng(3, "t_red")
    x = rng.normal(size=(4, 6))
    check_op(lambda ts: ts[0].sum(axis=0).sum(), [x])
    check_op(lambda ts: oracles.mean(ts[0], axis=1, keepdims=True).sum(), [x])
    check_op(lambda ts: (oracles.mean(ts[0]) * 3.0), [x])
    check_op(lambda ts: oracles.getitem(ts[0].reshape(-1), slice(3, 10)).sum(), [x])
    check_op(lambda ts: oracles.getitem(oracles.transpose(ts[0]), slice(1, 3)).sum(), [x])
    assert oracles.transpose(Tensor(x)).data.shape == (6, 4)
    with pytest.raises(ValueError):
        oracles.transpose(Tensor(np.zeros(3)))


def test_mean_of_empty_rows_has_empty_gradient():
    t = Tensor(np.zeros((0, 3)))
    oracles.mean(t, axis=-1, keepdims=True).sum().backward()
    assert t.grad.shape == (0, 3)


def test_elementwise_functions():
    rng = Rng(4, "t_elem")
    x = rng.normal(size=(3, 5))
    check_op(lambda ts: oracles.exp(ts[0]).sum(), [x])
    check_op(lambda ts: ts[0].tanh().sum(), [x])
    check_op(lambda ts: ts[0].sigmoid().sum(), [x])
    check_op(lambda ts: oracles.log(oracles.exp(ts[0]) + 1.0).sum(), [x])
    check_op(lambda ts: oracles.sqrt(ts[0] * ts[0] + 0.5).sum(), [x])
    assert np.allclose(Tensor(x).sigmoid().data, 1 / (1 + np.exp(-x)))


def test_sigmoid_stable_at_extremes():
    v = Tensor(np.array([-1000.0, 0.0, 1000.0])).sigmoid().data
    assert np.all(np.isfinite(v))
    assert v[0] == 0.0 and v[1] == 0.5 and v[2] == 1.0


def test_safe_log_conventions():
    t = Tensor(np.array([0.0, 0.5, 2.0]))
    out = oracles.safe_log(t)
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(np.log(0.5))
    (out * Tensor(np.array([7.0, 1.0, 1.0]))).sum().backward()
    assert t.grad[0] == 0.0
    assert t.grad[1] == pytest.approx(2.0)
    assert t.grad[2] == pytest.approx(0.5)


def test_abs_subgradient_zero_at_zero():
    t = Tensor(np.array([-2.0, 0.0, 3.0]))
    out = oracles.abs_(t)
    assert np.array_equal(out.data, [2.0, 0.0, 3.0])
    out.sum().backward()
    assert np.array_equal(t.grad, [-1.0, 0.0, 1.0])


def test_clamp_min():
    t = Tensor(np.array([0.5, 2.0]))
    out = oracles.clamp_min(t, 1.0)
    assert np.array_equal(out.data, [1.0, 2.0])
    out.sum().backward()
    assert np.array_equal(t.grad, [0.0, 1.0])


def test_concat_round_trips_gradient():
    rng = Rng(5, "t_cat")
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 4))

    def build(ts):
        cat = concat([ts[0], ts[1]], axis=-1)
        return (cat * cat).sum()

    check_op(build, [a, b])
    cat = concat([Tensor(a), Tensor(b)], axis=1)
    assert np.array_equal(cat.data, np.concatenate([a, b], axis=1))


@pytest.mark.parametrize("axis,one,many", [(-1, (1, 3, 2), (4, 3, 5)),
                                            (1, (1, 3, 2), (4, 5, 2))])
def test_concat_broadcasts_a_one_member_part(axis, one, many):
    """A (1, ...) part beside a stack's (M, ...) part is broadcast over the
    members first; the (1, ...) part takes its slice of the gradient
    summed over them."""
    rng = Rng(6, "t_cat_members")
    a, b = Tensor(rng.child("one").normal(size=one)), Tensor(rng.child("many").normal(size=many))
    shape = list(many)
    shape[axis] = one[axis]
    cat = concat([a, b], axis=axis)
    assert np.array_equal(cat.data, np.concatenate(
        [np.broadcast_to(a.data, shape), b.data], axis=axis))
    weights = rng.child("w").normal(size=cat.data.shape)
    (cat * Tensor(weights)).sum().backward()
    w_one, w_many = np.split(weights, [one[axis]], axis=axis)
    assert np.array_equal(b.grad, w_many)
    assert np.array_equal(a.grad, w_one.sum(axis=0, keepdims=True))


def test_where_const_masks_gradient():
    cond = np.array([True, False, True])
    a = Tensor(np.array([1.0, 2.0, 3.0]))
    b = Tensor(np.array([10.0, 20.0, 30.0]))
    out = oracles.where_const(cond, a, b)
    assert np.array_equal(out.data, [1.0, 20.0, 3.0])
    out.sum().backward()
    assert np.array_equal(a.grad, [1.0, 0.0, 1.0])
    assert np.array_equal(b.grad, [0.0, 1.0, 0.0])


def test_getitem_scatters_gradient():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    y = oracles.getitem(x, (slice(1, None), slice(None, 2)))
    (y * y).sum().backward()
    expected = np.zeros((3, 4))
    expected[1:, :2] = 2 * x.data[1:, :2]
    assert np.array_equal(x.grad, expected)


def test_watch_kinks_records_abs_and_clamp():
    with watch_kinks() as log:
        oracles.abs_(Tensor(np.array([-1.0, 2.0])))
        oracles.clamp_min(Tensor(np.array([0.5, 3.0])), 1.0)
    kinds = [k for k, _ in log]
    assert kinds == ["abs_signs", "clamp_margin"]
    assert np.array_equal(log[0][1], [-1, 1])
    assert log[1][1] == pytest.approx(0.5)


def test_watch_kinks_restores_previous_scope():
    with watch_kinks() as outer:
        oracles.abs_(Tensor(np.array([1.0])))
        with watch_kinks() as inner:
            oracles.abs_(Tensor(np.array([-1.0])))
        oracles.abs_(Tensor(np.array([2.0])))
    assert len(inner) == 1
    assert len(outer) == 2


def test_member_watch_keeps_each_models_records():
    """Over a stack's (M, ...) arrays a member watch records, per model,
    exactly what a plain watch records on that model's slice."""
    from dualpath.functional import l2_norm

    rng = Rng(0, "member-watch")
    x = rng.child("x").normal(size=(3, 5, 4))
    x[1, 2] = 0.0  # one model holds a zero row: its smallest norm is 0
    probs = rng.child("p").uniform(size=(3, 5, 4))
    probs /= probs.sum(axis=-1, keepdims=True)
    labels = np.array([0, 3, 1, 1, 2])

    def record(x, probs):
        oracles.abs_(Tensor(x))
        l2_norm(Tensor(x))
        oracles.cross_entropy(Tensor(probs), labels)

    with watch_kinks(members=3) as stacked:
        record(x, probs)
    assert [k for k, _ in stacked] == ["abs_signs", "norm_floor", "clamp_margin"]
    assert stacked[0][1].shape == (3, 5, 4)
    for m in range(3):
        with watch_kinks() as plain:
            record(x[m], probs[m])
        assert np.array_equal(stacked[0][1][m], plain[0][1])
        for (kind, payload), (plain_kind, plain_payload) in zip(stacked[1:], plain[1:]):
            assert kind == plain_kind
            assert payload.shape == (3,) and payload[m] == plain_payload
    assert stacked[1][1][1] == 0.0


def test_member_watch_fans_out_a_one_member_payload():
    """A (1, ...) payload, one slice every member shares, is recorded as
    M copies of that slice's record."""
    from dualpath.functional import l2_norm

    rng = Rng(1, "member-watch")
    x = rng.child("x").normal(size=(1, 5, 4))
    probs = rng.child("p").uniform(size=(1, 5, 4))
    probs /= probs.sum(axis=-1, keepdims=True)
    labels = np.array([0, 3, 1, 1, 2])

    def record(x, probs):
        oracles.abs_(Tensor(x))
        l2_norm(Tensor(x))
        oracles.cross_entropy(Tensor(probs), labels)

    with watch_kinks(members=3) as stacked:
        record(x, probs)
    with watch_kinks() as plain:
        record(x[0], probs[0])
    assert [k for k, _ in stacked] == [k for k, _ in plain]
    assert stacked[0][1].shape == (3, 5, 4)
    assert all(p.shape == (3,) for _, p in stacked[1:])
    for (_, payload), (_, plain_payload) in zip(stacked, plain):
        for m in range(3):
            assert np.array_equal(payload[m], plain_payload)


@pytest.mark.parametrize("shape", [(), (2,), (2, 3)])
def test_member_watch_rejects_a_payload_without_the_model_axis(shape):
    with watch_kinks(members=3):
        with pytest.raises(ValueError, match="3 models"):
            oracles.abs_(Tensor(np.ones(shape)))


@pytest.fixture(scope="module")
def default_batch():
    return generate(DatasetConfig(n_train=16, n_val=0, n_test=0, seed=0))[0]


@pytest.mark.parametrize("taped", [False, True], ids=["gather", "tape"])
def test_training_step_leaves_no_cyclic_garbage(default_batch, taped):
    """The tape holds no reference cycles: a whole step is freed by
    reference counting, with nothing left for the cyclic collector, and
    the tape()'s list goes with its block."""
    model = Model(ModelConfig(init_seed=0))
    gc.collect()
    gc.disable()
    try:
        with tape() if taped else nullcontext():
            out = model.forward_batch(default_batch.text, default_batch.video,
                                      default_batch.audio, train=True,
                                      rng=Rng(0, "train").child("dropout", 1))
            loss, _ = total_loss(out, default_batch.labels, LossConfig())
            loss.backward()
        del out, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


# (op, build from the operands a, b and the positive c, the parents the
# node must have: an operand's name, or "*" for a plain value the op wraps
# as a constant)
RECORDING_CASES = [
    ("add", lambda a, b, c: a + b, "ab"),
    ("add_scalar", lambda a, b, c: a + 1.0, "a*"),
    ("sub", lambda a, b, c: a - b, "ab"),
    ("rsub", lambda a, b, c: 2.0 - a, "*a"),
    ("mul", lambda a, b, c: a * b, "ab"),
    ("rmul", lambda a, b, c: 2.0 * a, "*a"),
    ("matmul", lambda a, b, c: a @ b, "ab"),
    ("sum", lambda a, b, c: a.sum(axis=0), "a"),
    ("reshape", lambda a, b, c: a.reshape(-1), "a"),
    ("getitem", lambda a, b, c: oracles.getitem(a, 0), "a"),
    ("tanh", lambda a, b, c: a.tanh(), "a"),
    ("sigmoid", lambda a, b, c: a.sigmoid(), "a"),
    ("abs", lambda a, b, c: oracles.abs_(a), "a"),
    ("concat", lambda a, b, c: concat([a, b], axis=0), "ab"),
    ("concat_array", lambda a, b, c: concat([a, np.ones((1, 2))], axis=0), "a*"),
    ("mean", lambda a, b, c: oracles.mean(a), "a"),
    ("truediv", lambda a, b, c: oracles.truediv(a, b), "ab"),
    ("neg", lambda a, b, c: oracles.neg(a), "a"),
    ("transpose", lambda a, b, c: oracles.transpose(a), "a"),
    ("exp", lambda a, b, c: oracles.exp(b), "b"),
    ("log", lambda a, b, c: oracles.log(c), "c"),
    ("safe_log", lambda a, b, c: oracles.safe_log(a), "a"),
    ("sqrt", lambda a, b, c: oracles.sqrt(c), "c"),
    ("clamp_min", lambda a, b, c: oracles.clamp_min(a, 0.0), "a"),
    ("where_const", lambda a, b, c: oracles.where_const(a.data > 0, a, b), "ab"),
]


@pytest.mark.parametrize("build,parents", [case[1:] for case in RECORDING_CASES],
                         ids=[case[0] for case in RECORDING_CASES])
def test_no_grad_records_no_tape(build, parents):
    """Every op records exactly one node, its operands as parents, while
    recording, and none inside no_grad(); its value and kink records are
    the same either way."""
    a = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]))
    b = Tensor(np.array([[0.5, 1.0], [-1.0, 2.0]]))
    c = Tensor(np.abs(b.data))
    operands = {"a": a, "b": b, "c": c}
    with watch_kinks() as kinks:
        out = build(a, b, c)
    assert out._back is not None
    assert len(out._parents) == len(parents)
    for parent, name in zip(out._parents, parents):
        if name == "*":
            assert parent.const and parent._back is None
        else:
            assert parent is operands[name]
    with no_grad(), watch_kinks() as quiet_kinks:
        quiet = build(a, b, c)
    assert quiet._parents == () and quiet._back is None
    assert np.array_equal(quiet.data, out.data)
    assert [k for k, _ in quiet_kinks] == [k for k, _ in kinks]
    for (_, p), (_, q) in zip(kinks, quiet_kinks):
        assert np.array_equal(p, q)


def test_abs_reports_its_kink_inside_no_grad():
    with no_grad(), watch_kinks() as kinks:
        oracles.abs_(Tensor(np.array([-2.0, 0.0, 3.0])))
    assert [k for k, _ in kinks] == ["abs_signs"]
    assert np.array_equal(kinks[0][1], [-1, 0, 1])


def test_no_grad_restores_mode_when_nested_and_on_error():
    x = Tensor([1.0])
    with no_grad():
        with no_grad():
            assert (x * 2.0)._back is None
        assert (x * 2.0)._back is None
    assert (x * 2.0)._back is not None
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    assert (x * 2.0)._back is not None


def test_no_grad_matches_recorded_forward(default_batch):
    model = Model(ModelConfig(init_seed=0))

    def forward():
        with watch_kinks() as kinks:
            out = model.forward_batch(default_batch.text, default_batch.video,
                                      default_batch.audio, train=False)
            loss, _ = total_loss(out, default_batch.labels, LossConfig())
        return out.probs.data, float(loss.data), kinks

    probs, loss, kinks = forward()
    with no_grad():
        probs_ng, loss_ng, kinks_ng = forward()
    assert np.array_equal(probs, probs_ng)
    assert loss == loss_ng
    assert [k for k, _ in kinks] == [k for k, _ in kinks_ng]
    for (_, p), (_, q) in zip(kinks, kinks_ng):
        assert np.array_equal(p, q)
