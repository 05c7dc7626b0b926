"""The benchmark still finds every package name it patches or calls,
and its calls still bind.

``perfbench/tracing.py`` wraps package entry points by module and
attribute name at run time and reads some of their arguments by
position, and the workloads call the public API. A renamed or deleted
name, or a changed signature, would otherwise surface only in the slow
benchmark smoke test.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import os

import numpy as np

from dualpath.fusion import Model
from dualpath.synthdata import generate, inject_noise_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    targets = tracing.SPANS + tracing.COUNTERS
    assert targets
    missing = [f"{module}.{attr}" for _, module, attr in targets
               if tracing._resolve(module, attr) is None]
    assert missing == []


def test_traced_argument_positions_match_the_signatures():
    """``tracing.py`` reads a forward's rows from args[1] and its train
    flag from args[4] (args[0] is the model), a generated split's sizes
    from args[0] of ``generate`` and a noised split's rows from args[0] of
    ``inject_noise_dataset``, or from the keyword of the same name."""
    tracing = load_tracing()
    forward = list(inspect.signature(Model.forward_batch).parameters)
    assert forward.index("text") == 1 and forward.index("train") == 4
    assert list(inspect.signature(generate).parameters)[0] == "config"
    assert list(inspect.signature(inject_noise_dataset).parameters)[0] == "data"
    rows = np.zeros((5, 2))
    assert tracing._item_count("fusion.forward_batch", (None, rows), {}) == 5
    assert tracing._item_count("fusion.forward_batch", (None,), {"text": rows}) == 5
    assert tracing._train_flag("fusion.forward_batch", (None, rows, rows, rows, True), {})
    assert not tracing._train_flag("fusion.forward_batch", (None, rows, rows, rows), {})


def package_aliases(tree: ast.AST) -> dict[str, str]:
    """Module name by alias, for each ``import dualpath.X as a``."""
    return {item.asname: item.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for item in node.names
            if item.name.startswith("dualpath.") and item.asname}


def package_names_used(source: str) -> list[tuple[str, str]]:
    """(module, name) for each ``from dualpath.X import name`` and each
    ``a.name`` where ``a`` was bound by ``import dualpath.X as a``."""
    tree = ast.parse(source)
    aliases = package_aliases(tree)
    used = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("dualpath.")):
            used.extend((node.module, item.name) for item in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.append((aliases[node.value.id], node.attr))
    return used


def test_every_package_name_the_benchmark_uses_resolves():
    files = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    assert files
    used = []
    missing = []
    for path in files:
        with open(path) as fh:
            names = package_names_used(fh.read())
        used.extend(names)
        missing.extend(f"{os.path.basename(path)}: {module}.{name}"
                       for module, name in names
                       if not hasattr(importlib.import_module(module), name))
    assert ("dualpath.synthdata", "inject_noise_dataset") in used
    assert missing == []


def package_calls(source: str) -> list[tuple[str, str, ast.Call]]:
    """(module, name, call) for each ``a.name(...)`` call where ``a`` was
    bound by ``import dualpath.X as a``."""
    tree = ast.parse(source)
    aliases = package_aliases(tree)
    return [(aliases[node.func.value.id], node.func.attr, node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases]


def test_every_package_call_the_benchmark_makes_binds():
    files = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    called = []
    unbound = []
    for path in files:
        with open(path) as fh:
            calls = package_calls(fh.read())
        for module, name, call in calls:
            called.append((module, name))
            assert not any(isinstance(a, ast.Starred) for a in call.args)
            assert all(k.arg is not None for k in call.keywords)
            signature = inspect.signature(getattr(importlib.import_module(module), name))
            try:
                signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
            except TypeError as exc:
                unbound.append(f"{os.path.basename(path)}:{call.lineno}: "
                               f"{module}.{name}: {exc}")
    assert ("dualpath.trainer", "grad_check") in called
    assert ("dualpath.metrics", "evaluate") in called
    assert unbound == []
