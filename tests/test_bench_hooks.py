"""The benchmark still finds every package name it patches or calls.

``perfbench/tracing.py`` wraps package entry points by module and
attribute name at run time, and the workloads call the public API. A
renamed or deleted name would otherwise surface only in the slow
benchmark smoke test.
"""

import ast
import glob
import importlib
import importlib.util
import os

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


def package_names_used(source: str) -> list[tuple[str, str]]:
    """(module, name) for each ``from dualpath.X import name`` and each
    ``a.name`` where ``a`` was bound by ``import dualpath.X as a``."""
    tree = ast.parse(source)
    aliases = {}
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.startswith("dualpath.") and item.asname:
                    aliases[item.asname] = item.name
        elif (isinstance(node, ast.ImportFrom)
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
