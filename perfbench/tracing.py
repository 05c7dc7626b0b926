"""Span recording installed around the package's public entry points.

The benchmark patches these names at run time and restores them after
each traced unit; nothing in ``src/`` knows about tracing. A class method
is replaced on its class. A module function is replaced in every
``dualpath`` module that holds a reference to it, because ``from x import
f`` copies the binding into the importing module.

A span is ``[name, parent, start_ns, end_ns, n, train]``: ``parent`` is
the index of the enclosing span within the same unit (-1 for the root),
``n`` is the item count the call processes where one is defined, and
``train`` is the ``train`` flag of ``Model.forward_batch``. Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (span name, module, attribute); "Class.method" patches a class attribute.
SPANS = (
    ("tensor.backward", "dualpath.tensor", "Tensor.backward"),
    ("functional.softmax", "dualpath.functional", "softmax"),
    ("functional.layer_norm", "dualpath.functional", "layer_norm"),
    ("synthdata.generate", "dualpath.synthdata", "generate"),
    ("synthdata.inject_noise", "dualpath.synthdata", "inject_noise_dataset"),
    ("decoupler.forward", "dualpath.decoupler", "Decoupler.__call__"),
    ("intuition.forward", "dualpath.intuition", "IntuitionPath.__call__"),
    ("perception.forward", "dualpath.perception", "Perception.__call__"),
    ("fusion.forward_batch", "dualpath.fusion", "Model.forward_batch"),
    ("losses.task", "dualpath.losses", "task_loss"),
    ("losses.diff", "dualpath.losses", "diff_loss"),
    ("losses.sim", "dualpath.losses", "sim_loss"),
    ("losses.total", "dualpath.losses", "total_loss"),
    ("trainer.train", "dualpath.trainer", "train"),
    ("trainer.val", "dualpath.trainer", "default_val_metric"),
    ("trainer.adamw", "dualpath.trainer", "AdamW.step"),
    ("trainer.grad_check", "dualpath.trainer", "grad_check"),
    ("metrics.evaluate", "dualpath.metrics", "evaluate"),
    ("metrics.gating_summary", "dualpath.metrics", "gating_summary"),
    ("experiments.run_main", "dualpath.experiments", "run_main"),
    ("experiments.train_single", "dualpath.experiments", "train_single"),
)

# Calls counted against the innermost open span, without a span of their own:
# Rng.child runs tens of thousands of times per generated split.
COUNTERS = (
    ("rng.child", "dualpath.rng", "Rng.child"),
)


def _item_count(name: str, args: tuple, kwargs: dict) -> int:
    if name == "synthdata.generate":
        cfg = args[0] if args else kwargs["config"]
        return cfg.n_train + cfg.n_val + cfg.n_test
    if name == "synthdata.inject_noise":
        return len(args[0] if args else kwargs["data"])
    if name == "fusion.forward_batch":
        text = args[1] if len(args) > 1 else kwargs["text"]
        return len(getattr(text, "data", text))
    return 0


def _train_flag(name: str, args: tuple, kwargs: dict) -> bool:
    if name != "fusion.forward_batch":
        return False
    return bool(kwargs.get("train", args[4] if len(args) > 4 else False))


class Recorder:
    """Holds the spans and counters of every traced unit of one run."""

    def __init__(self):
        self.units: list[dict] = []
        self._spans: list[list] | None = None
        self._stack: list[int] = []
        self._counts: Counter | None = None

    def begin(self, run_id: str) -> None:
        self._spans = []
        self._stack = []
        self._counts = Counter()
        self.units.append({"run_id": run_id, "spans": self._spans,
                           "counts": self._counts})

    def span(self, name: str, fn, args: tuple, kwargs: dict):
        spans = self._spans
        rec = [name, self._stack[-1] if self._stack else -1, 0, 0,
               _item_count(name, args, kwargs), _train_flag(name, args, kwargs)]
        self._stack.append(len(spans))
        spans.append(rec)
        rec[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, fn, args: tuple, kwargs: dict):
        where = self._spans[self._stack[-1]][0] if self._stack else "-"
        self._counts[f"{name}@{where}"] += 1
        return fn(*args, **kwargs)

    def root(self, name: str, fn, *args):
        """Run ``fn`` as the root span of the current unit."""
        return self.span(name, fn, args, {})


def _resolve(module: str, attr: str):
    """Return (owner, attribute, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(leaf)
    else:
        original = getattr(owner, leaf, None)
    if original is None:
        return None
    return owner, leaf, original


class Patches:
    """Installs wrappers that report to a Recorder, and removes them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for kind, targets in (("span", SPANS), ("count", COUNTERS)):
            hook = getattr(self.recorder, kind)
            for name, module, attr in targets:
                found = _resolve(module, attr)
                if found is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                owner, leaf, original = found
                wrapper = _wrap(hook, name, original)
                if isinstance(owner, type):
                    self._set(owner, leaf, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "dualpath"
                                           or mod_name.startswith("dualpath.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def _wrap(hook, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return hook(name, original, args, kwargs)
    return wrapper


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly in a single thread, so the children of a span are
    disjoint and the self times of a unit sum to its root's duration.
    """
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
