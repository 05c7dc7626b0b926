"""Full model: both pathways assembled into one prediction head.

The consensus pathway summarizes agreement; the reasoning pathway
re-weights private features by trust. A per-sample gate in (0, 1) mixes
the two, leaning on reasoning when perceived conflict is high. A model's
config may carry a gate override, the clamp of the "w/o intuition" and
"w/o reasoning" variants: it fixes the gate instead of deleting branches,
so parameter counts stay comparable across variants, and a checkpoint
keeps it with the rest of the config.

``Model.stack`` builds one model over M member models whose parameters
carry a leading model axis; its forward runs all M at once, each slice
bit-identical to that member's own forward, each under its own gate
override.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from dualpath.decoupler import Decoupler
from dualpath.functional import softmax
from dualpath.intuition import IntuitionPath
from dualpath.layers import Affine, Module
from dualpath.perception import ConflictReport, Perception
from dualpath.rng import Rng
from dualpath.synthdata import (MODALITIES, is_number, json_object, require_bools,
                                require_integers, require_numbers)
from dualpath.tensor import Tensor, _unbroadcast, constant, node

CHECKPOINT_MAGIC = b"DPCK"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int = 16
    num_classes: int = 4
    hidden_dim: int = 16
    temperature: float = 1.0
    dropout: float = 0.2
    share_shared_encoder: bool = False
    init_seed: int = 0
    # None leaves the gate free; 1.0 keeps reasoning only, 0.0 intuition only
    gate_override: float | None = None

    def validate(self) -> None:
        """Raise ValueError naming the first bad field. ``Model`` runs it on
        every config it is built from, a checkpoint's included."""
        require_integers(self, "init_seed")
        require_integers(self, "feature_dim", "hidden_dim", low=1)
        require_integers(self, "num_classes", low=2)
        require_numbers(self, "(0, inf)", "temperature")
        require_numbers(self, "[0, 1)", "dropout")
        require_bools(self, "share_shared_encoder")
        if self.gate_override is not None and not is_number(self.gate_override, "[0, 1]"):
            raise ValueError(f"ModelConfig.gate_override must be None or lie in [0, 1], "
                             f"got {self.gate_override!r}")


@dataclass
class ModelOutput:
    """A forward's tensors. Shapes are a plain model's; a stack's carry a
    leading model axis, (M, N, ...), and ``member`` takes one model's.
    ``shared`` and ``private`` are the decoupler's two dicts."""

    intuition_repr: Tensor   # (N, d_h)
    reasoning_repr: Tensor   # (N, d_h)
    fused: Tensor            # (N, d_h)
    logits: Tensor           # (N, C)
    probs: Tensor            # (N, C)
    rea_logits: Tensor       # (N, C) auxiliary head on the reasoning repr
    report: ConflictReport
    shared: dict             # modality -> (N, d_h), for intuition and both structural losses
    private: dict            # modality -> (N, d_h), for perception, reasoning and diff_loss

    def member(self, m: int) -> "ModelOutput":
        """Model ``m``'s slice of a stacked forward, as constant tensors."""
        return _take(self, m)


def _take(x, m: int):
    if isinstance(x, Tensor):
        return constant(x.data[m])
    if isinstance(x, dict):
        return {k: _take(v, m) for k, v in x.items()}
    if is_dataclass(x):
        return replace(x, **{f.name: _take(getattr(x, f.name), m) for f in fields(x)})
    raise TypeError(f"cannot take a model slice of {type(x).__name__}")


def reasoning_aggregate(trust: Tensor, private: dict[str, Tensor]) -> Tensor:
    """Trust-weighted sum of the private features, (..., N, d_h), added
    (text + video) + audio: one tape node over ``trust`` and the three
    features, whose backward runs as the per-modality products' and sums'
    own nodes would."""
    ps = tuple(private[m] for m in MODALITIES)
    w = [trust.data[..., i:i + 1] for i in range(3)]
    out = w[0] * ps[0].data + w[1] * ps[1].data + w[2] * ps[2].data

    def back(g):
        gt = np.zeros(trust.data.shape)
        for i in reversed(range(3)):
            gt[..., i:i + 1] += _unbroadcast(g * ps[i].data, w[i].shape)
            ps[i]._accum(g * w[i])
        trust._accum(gt)

    return node(out, (trust, *ps), back)


def final_fuse(intuition_repr: Tensor, reasoning_repr: Tensor, gate: Tensor) -> Tensor:
    """Convex combination of the two pathway representations."""
    return (1.0 - gate) * intuition_repr + gate * reasoning_repr


def clamp_gate(gate: Tensor, mask: np.ndarray, value: np.ndarray) -> Tensor:
    """``value`` where ``mask`` is set and ``gate`` elsewhere, the masks
    broadcasting over rows: one node that passes no gradient back through
    the clamped entries, so a fully clamped gate's parameters get zeros."""
    data = np.where(mask, value, gate.data)

    def back(g):
        gate._accum(np.where(mask, 0.0, g))

    return node(data, (gate,), back)


def _stacked_shape(shape: tuple) -> tuple:
    """A parameter's shape within a stack, less the model axis: matrices
    keep theirs, and vectors and scalars become (1, d) and (1, 1) rows
    that broadcast over samples."""
    return (1,) * (2 - len(shape)) + shape


class Model(Module):
    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        # one per model: a stack holds its members' gate overrides
        self.gate_overrides = (config.gate_override,)
        self.stack_size: int | None = None  # M for a stack, None for a plain model
        rng = Rng(config.init_seed, "init")
        self.decoupler = Decoupler(rng.child("decoupler"), config.feature_dim,
                                   config.hidden_dim, dropout=config.dropout,
                                   share_weights=config.share_shared_encoder)
        self.intuition = IntuitionPath(rng.child("intuition"), config.feature_dim,
                                       config.hidden_dim)
        self.perception = Perception(rng.child("perception"), config.hidden_dim,
                                     config.num_classes, config.temperature)
        self.head = Affine(rng.child("head"), config.hidden_dim, config.num_classes,
                           "head")
        self.rea_head = Affine(rng.child("rea_head"), config.hidden_dim,
                               config.num_classes, "rea_head")

    def forward_batch(self, text, video, audio, train: bool = False,
                      rng: Rng | None = None) -> ModelOutput:
        text, video, audio = self._check_inputs(text, video, audio)
        shared, private = self.decoupler(text, video, audio, train=train, rng=rng)
        intuition_repr = self.intuition(text, video, audio, shared)
        report = self.perception(private)
        reasoning_repr = reasoning_aggregate(report.trust, private)
        gate = report.gate
        clamp = self._gate_clamp()
        if clamp is not None:
            gate = report.gate = clamp_gate(gate, *clamp)
        fused = final_fuse(intuition_repr, reasoning_repr, gate)
        logits = self.head(fused)
        probs = softmax(logits)
        rea_logits = self.rea_head(reasoning_repr)
        return ModelOutput(intuition_repr=intuition_repr,
                           reasoning_repr=reasoning_repr, fused=fused,
                           logits=logits, probs=probs, rea_logits=rea_logits,
                           report=report, shared=shared, private=private)

    def _gate_clamp(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The gate override as (mask, value) arrays, or None when no model
        is clamped: 0-d arrays for a plain model, (M, 1, 1) arrays for a
        stack, one entry per member."""
        if all(v is None for v in self.gate_overrides):
            return None
        mask = np.array([v is not None for v in self.gate_overrides])
        value = np.array([0.0 if v is None else v for v in self.gate_overrides])
        shape = () if self.stack_size is None else (-1, 1, 1)
        return mask.reshape(shape), value.reshape(shape)

    def _check_inputs(self, *inputs) -> list[Tensor]:
        """Wrap the modalities as constant tensors; each must be a finite
        (N, feature_dim) array with the text input's N. A stack of M models
        also takes (M, N, feature_dim), one batch per model."""
        out = [x if isinstance(x, Tensor) else constant(x) for x in inputs]
        d, shape = self.config.feature_dim, out[0].data.shape
        per_model = self.stack_size is not None and shape[:1] == (self.stack_size,)
        want = shape[:2 if per_model and len(shape) == 3 else 1] + (d,)
        for m, x in zip(MODALITIES, out):
            if x.data.shape != want:
                layout = f"(N, {d})" if self.stack_size is None else (
                    f"(N, {d}) or ({self.stack_size}, N, {d})")
                raise ValueError(f"{m} input has shape {x.data.shape}; forward_batch "
                                 f"expects {layout} with text's N")
            if not np.isfinite(x.data).all():
                raise ValueError(f"{m} input holds non-finite values")
        return out

    def gate_params(self) -> list[str]:
        """The parameters that reach the loss only through the gate: a
        clamped model's share of their gradient is zero, and ``train_models``
        leaves that share where it is."""
        return list(self.perception.div_gate.params())

    @classmethod
    def stack(cls, members: list["Model"]) -> "Model":
        """One model over ``members`` (M of them) that runs them together.
        Every parameter gains a leading model axis: weights (M, d_in,
        d_out); biases, gains, the prototype and the stat weight (M, 1, d);
        scalars (M, 1, 1). Its arrays are copies;
        ``bind`` makes the members' parameters views of them. Members must
        share a config up to ``init_seed`` and ``gate_override``; each keeps
        its gate override."""
        config = members[0].config
        for member in members:
            if replace(member.config, init_seed=config.init_seed,
                       gate_override=config.gate_override) != config:
                raise ValueError("stacked models must share a config up to "
                                 "init_seed and gate_override")
        out = cls(config)
        out.stack_size = len(members)
        out.gate_overrides = tuple(member.config.gate_override for member in members)
        member_params = [member.params() for member in members]
        for name, p in out.params().items():
            shape = _stacked_shape(p.data.shape)
            p.data = np.stack([mp[name].data.reshape(shape) for mp in member_params])
        return out

    def bind(self, members: list["Model"]) -> None:
        """Make each member's parameters views of its slice of this stack,
        so the stack's updates show in the members and a member's
        ``set_params`` writes into the stack."""
        member_params = [member.params() for member in members]
        for name, p in self.params().items():
            for m, mp in enumerate(member_params):
                q = mp[name]
                q.data = p.data[m].reshape(q.data.shape)

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        params = self.params()
        for name, arr in values.items():
            if name not in params:
                raise KeyError(f"unknown parameter {name!r}")
            if params[name].data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            # write in place: the arrays may be views into an optimizer's arena
            params[name].data[...] = arr

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params().items()}


# -- checkpoint serialization ----------------------------------------------
#
# Layout (little-endian):
#   magic b"DPCK"; version u16
#   config: u32 length + UTF-8 JSON of ModelConfig
#   u32 section count, then per section:
#     u16 name length + UTF-8 name; u8 ndim; u32 per dim; float64 data.

_CK_HEAD = struct.Struct("<4sH")


def save_checkpoint(path, model: Model) -> None:
    cfg_blob = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    params = model.params()
    with open(path, "wb") as fh:
        fh.write(_CK_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(cfg_blob)))
        fh.write(cfg_blob)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            blob = name.encode("utf-8")
            data = params[name].data
            fh.write(struct.pack("<H", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.astype("<f8").tobytes())


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint. A file shorter than its contents
    say, or longer, raises ValueError naming what was being read; a NaN or
    infinite parameter value raises ValueError naming the first such
    parameter. A config block that is not a JSON object naming every
    ``ModelConfig`` field and no other, each valid, raises ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n: int, section: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"checkpoint truncated in {section}: needs {n} bytes "
                             f"at offset {pos}, file is {len(blob)} bytes")
        pos += n
        return blob[pos - n:pos]

    magic, version = _CK_HEAD.unpack(take(_CK_HEAD.size, "header"))
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}" + (
            ": a version 1 file stores no gate clamp; re-run `dualpath train` to "
            "rebuild it (training is deterministic)" if version == 1 else ""))
    (cfg_len,) = struct.unpack("<I", take(4, "config length"))
    names = ModelConfig.__dataclass_fields__
    block = json_object(json.loads(take(cfg_len, "config").decode("utf-8")), names, "checkpoint")
    if len(block) < len(names):
        raise ValueError(f"checkpoint config lacks {sorted(set(names) - set(block))}")
    config = ModelConfig(**block)
    (count,) = struct.unpack("<I", take(4, "parameter count"))
    values: dict[str, np.ndarray] = {}
    for k in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"parameter {k} name length"))
        name = take(name_len, f"parameter {k} name").decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1, f"{name} ndim"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"{name} shape"))
        n = math.prod(shape)
        arr = np.frombuffer(take(8 * n, f"{name} data"), dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint parameter {name!r} holds a non-finite value")
        if name in values:
            raise ValueError(f"checkpoint names parameter {name!r} twice")
        values[name] = arr.astype(np.float64)
    if pos != len(blob):
        raise ValueError(f"checkpoint has {len(blob) - pos} bytes after the last "
                         f"parameter (file is {len(blob)} bytes)")
    model = Model(config)
    expected = set(model.params())
    if set(values) != expected:
        raise ValueError("checkpoint parameter names do not match the config")
    model.set_params(values)
    return model
