"""The benchmark's tracing hooks still find every name they patch.

``perfbench/tracing.py`` wraps package entry points by module and
attribute name at run time. A renamed or deleted entry point would
otherwise surface only in the slow benchmark smoke test.
"""

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
