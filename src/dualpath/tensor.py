"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation records its parents and a backward closure ``back(g)``
that receives the gradient of the operation's output and accumulates the
matching gradients into the parents. A closure captures its parents and,
where the derivative needs it, the output *array*, never the output
tensor, so the tape holds no reference cycles and a graph is freed by
reference counting as soon as its last tensor goes. Every tensor takes a
sequence number when it is created, and a node's parents always exist
before it, so decreasing sequence number is a reverse topological order.
``backward()`` of a scalar recorded in a ``tape()`` block walks the
block's list of nodes (a Wengert list; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008) last first, any other root the nodes it
reaches, gathered and sorted; it clears their stale gradients first.
Gradients accumulate into leaves, parameters and inputs alike, except
constants: the operands ops wrap themselves and the arrays ``constant()``
wraps get no gradient product and are never accumulated into. No closure
writes into the gradient it is handed, so a node borrows its first and
adds a later one into a new array; a leaf copies its first and adds later
ones in place, so its ``grad`` is its own. Values are immutable once
constructed; only the trainer mutates parameter ``data`` between steps.

Matmul takes matrices or stacks of them (one leading axis, as a stack of
models has), each slice the product of its own matrices.

Every op records exactly one node through ``node()``: the primitive
``Tensor`` ops and ``concat`` here, and the composite functions with a
hand-written backward elsewhere (affine maps, softmax, layer norm,
cosine similarity, the divergences, the guarded norm and the loss
terms). ``node()`` is the only code that reads the recording flag or
attaches parents and a closure.

Inside ``no_grad()`` operations compute the same values but record
nothing: no parents, no closure. Nonsmooth ops still report their kinks
to ``watch_kinks()``, so a finite-difference probe run without a tape is
judged exactly as a recorded one. An op hands ``_note_kink`` its raw
array and the reduction to a kink record runs only inside a watch, so
an unwatched forward pays nothing for it.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count

import numpy as np

Array = np.ndarray

# When not None, nonsmooth ops append (kind, payload) entries here so the
# gradient checker can reject finite-difference probes that sit on or cross
# a kink. See watch_kinks().
_kink_watch: list[tuple[str, object]] | None = None

# M in a member watch: payloads then keep one record per model-axis slice.
_kink_members: int | None = None

# False inside no_grad(): ops then build neither parents nor a closure.
_recording = True

# The nodes recorded inside the open tape(), in creation order; else None.
_tape: list | None = None

# Creation sequence numbers; backward() runs closures in decreasing order.
# Only their order matters, so one counter serves every graph.
_next_seq = count().__next__


@contextmanager
def watch_kinks(members: int | None = None):
    """Collect kink diagnostics from every op executed inside the block,
    as (kind, payload) entries in execution order: ``abs_signs``, the
    int8 signs of an absolute value's argument; ``norm_floor``, the
    smallest norm a guarded norm took; ``clamp_margin``, the smallest
    distance of a clamped value from its floor.

    With ``members=M`` the block runs a stack of M models and each entry
    holds one record per model, indexed by the leading model axis:
    ``norm_floor`` and ``clamp_margin`` become (M,) vectors of per-slice
    minima and ``abs_signs`` keeps its (M, ...) signs, so model m's
    records are exactly those its own forward would make. A (1, ...)
    payload, one slice every model shares, is reduced once and its record
    broadcast read-only over the M models (a zero stride on the model
    axis). A payload whose leading axis is neither M nor 1 raises
    ValueError."""
    global _kink_watch, _kink_members
    prev = _kink_watch, _kink_members
    _kink_watch, _kink_members = [], members
    try:
        yield _kink_watch
    finally:
        _kink_watch, _kink_members = prev


@contextmanager
def no_grad():
    """Compute without recording a tape, for forwards whose graph is never
    differentiated. Tensors made inside the block are leaves."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


@contextmanager
def tape():
    """Keep the nodes recorded in the block, in the outer block's list when
    nested, for ``backward()``: a root recorded there must reach only them."""
    global _tape
    outer, _tape = _tape, [] if _tape is None else _tape
    try:
        yield
    finally:
        _tape = outer


def is_recording() -> bool:
    """False inside no_grad(): a node's backward will never run, so an op
    need not keep what only its backward reads."""
    return _recording


def _note_kink(kind: str, raw: Array, floor: float = 0.0) -> None:
    """Record a kink of ``kind`` while a watch is open, reducing ``raw``
    only then: an absolute value's argument to its signs, squared norms
    to the smallest norm, values clamped at ``floor`` to their smallest
    distance from it."""
    if _kink_watch is None:
        return
    members = _kink_members
    lead = raw.shape[:1]
    if members is not None and lead != (members,) and lead != (1,):
        raise ValueError(f"{kind} payload of shape {raw.shape} has a leading "
                         f"axis of neither {members} models nor 1")
    if kind == "abs_signs":
        payload = np.sign(raw).astype(np.int8)
    else:
        if kind == "clamp_margin":
            raw = np.abs(raw - floor)
        rows = raw.reshape(len(raw) if members is not None else 1, -1)
        low = rows.min(axis=1) if raw.size else np.zeros(len(rows))
        if kind == "norm_floor":
            low = np.sqrt(low)
        payload = low if members is not None else float(low[0])
    if members is not None and lead != (members,):
        # one (1, ...) slice that every member shares: its record, fanned out
        payload = np.broadcast_to(payload, (members,) + payload.shape[1:])
    _kink_watch.append((kind, payload))


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "const", "_parents", "_back", "_seq")
    # numpy defers to the reflected operators, so ``array * tensor`` is a node
    __array_ufunc__ = None

    def __init__(self, data):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.const = False
        self._parents: tuple = ()
        self._back = None
        self._seq = _next_seq()

    # -- gradient plumbing -------------------------------------------------

    def _accum(self, g: Array) -> None:
        if self.const:
            return
        if g.shape != self.data.shape:
            g = _unbroadcast(g, self.data.shape)
        if self._back is not None:  # a node borrows g: no closure writes into it
            self.grad = g if self.grad is None else self.grad + g
        elif self.grad is None:
            self.grad = np.array(g)  # a leaf owns its buffer; g may be a view
        else:
            self.grad += g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every non-constant leaf the tape
        reaches. Recorded nodes keep their gradient of this call only, so
        a graph can be differentiated again, from this root or another."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output, got shape %s" % (self.data.shape,))
        if _tape and self._seq >= _tape[0]._seq:  # recorded in the open tape()
            nodes = _tape
        else:
            found = {self._seq: self}
            stack = [self]
            while stack:
                for p in stack.pop()._parents:
                    if p._back is not None and p._seq not in found:
                        found[p._seq] = p
                        stack.append(p)
            nodes = [found[seq] for seq in sorted(found)]
        for node in nodes:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(nodes):
            if node._back is not None and node.grad is not None:
                node._back(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _operand(other)

        def back(g):
            self._accum(g)
            other._accum(g)

        return node(self.data + other.data, (self, other), back)

    def __sub__(self, other) -> "Tensor":
        other = _operand(other)

        def back(g):
            self._accum(g)
            other._accum(-g)

        return node(self.data - other.data, (self, other), back)

    def __mul__(self, other) -> "Tensor":
        other = _operand(other)

        def back(g):
            if not self.const:
                self._accum(g * other.data)
            if not other.const:
                other._accum(g * self.data)

        return node(self.data * other.data, (self, other), back)

    def __rsub__(self, other) -> "Tensor":
        return constant(other) - self

    def __rmul__(self, other) -> "Tensor":
        return constant(other) * self

    def __matmul__(self, other) -> "Tensor":
        other = _operand(other)
        a, b = self.data, other.data
        if a.ndim != b.ndim or a.ndim < 2:
            raise ValueError("matmul takes two operands of one rank, at least 2-D "
                             "(stacks of matrices), got %d-D @ %d-D" % (a.ndim, b.ndim))

        def back(g):
            if not self.const:
                self._accum(g @ b.swapaxes(-1, -2))
            if not other.const:
                other._accum(a.swapaxes(-1, -2) @ g)

        return node(a @ b, (self, other), back)

    # -- reductions and shape ops -------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def back(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return node(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def reshape(self, *shape: int) -> "Tensor":
        def back(g):
            self._accum(g.reshape(self.data.shape))

        return node(self.data.reshape(shape), (self,), back)

    # -- elementwise functions ------------------------------------------------

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)

        def back(g):
            self._accum(g * (1.0 - y * y))

        return node(y, (self,), back)

    def sigmoid(self) -> "Tensor":
        x = self.data
        e = np.exp(-np.abs(x))
        y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        def back(g):
            self._accum(g * y * (1.0 - y))

        return node(y, (self,), back)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, data={self.data!r})"


def constant(data) -> Tensor:
    """A leaf that takes no gradient: backward closures compute no
    gradient product for it and never accumulate into it."""
    out = Tensor(data)
    out.const = True
    return out


def _operand(x) -> Tensor:
    """``x`` itself if it is a tensor, else ``x`` wrapped as a constant."""
    return x if isinstance(x, Tensor) else constant(x)


def node(data, parents: tuple, back) -> Tensor:
    """A tensor holding ``data`` whose backward closure ``back(g)`` passes
    the gradient on to ``parents``. Inside no_grad() it is a plain leaf
    and ``back`` is dropped, so ``back`` should compute backward-only
    arrays itself rather than capture them."""
    out = Tensor(data)
    if _recording:
        out._parents, out._back = parents, back
        if _tape is not None:
            _tape.append(out)
    return out


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along an axis; backward slices the gradient back apart.
    Parts that differ off that axis, such as a (1, ...) part beside a
    stack's (M, ...) one, are broadcast there first; the (1, ...) part then
    takes the gradient summed over the members."""
    parts = tuple(_operand(t) for t in tensors)
    arrays = [p.data for p in parts]
    ndim = arrays[0].ndim
    ax = axis if axis >= 0 else ndim + axis
    if len({a.shape[:ax] + a.shape[ax + 1:] for a in arrays}) > 1:
        out = np.broadcast_shapes(*(a.shape[:ax] + (1,) + a.shape[ax + 1:] for a in arrays))
        arrays = [np.broadcast_to(a, out[:ax] + a.shape[ax:ax + 1] + out[ax + 1:])
                  for a in arrays]
    data = np.concatenate(arrays, axis=ax)

    def back(g):
        offset = 0
        for p in parts:
            size = p.data.shape[ax]
            sl = [slice(None)] * ndim
            sl[ax] = slice(offset, offset + size)
            p._accum(g[tuple(sl)])
            offset += size

    return node(data, parts, back)
