"""The package's heap policy: on glibc, freed temporaries stay in the
process heap, so a warm large-batch eval forward takes almost no page
faults."""

import ctypes
import os
import platform
import subprocess
import sys

import pytest

import dualpath

ON_GLIBC = platform.libc_ver()[0] == "glibc"

# a fresh interpreter, so the policy can only come from importing dualpath
WARM_FORWARD_FAULTS = """
import resource
from dualpath import fusion, synthdata
from dualpath.metrics import eval_forward
test = synthdata.generate(synthdata.DatasetConfig(n_train=0, n_val=0, n_test=2500))[2]
model = fusion.Model(fusion.ModelConfig())
eval_forward(model, test)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
eval_forward(model, test)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not ON_GLIBC, reason="the heap policy acts on glibc only")
def test_warm_large_batch_forward_takes_few_page_faults():
    """Without the policy glibc returns each forward's freed 0.3-1 MB
    temporaries to the kernel, and a warm 2500-row forward faults ~1,400
    pages back in."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", WARM_FORWARD_FAULTS], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert int(out) < 100


@pytest.mark.skipif(not ON_GLIBC, reason="the heap policy acts on glibc only")
def test_settings_take_on_glibc():
    assert dualpath._hold_heap_pages() is True


def test_does_nothing_on_another_libc(monkeypatch):
    def no_library(*args, **kwargs):
        raise AssertionError("the C library was opened")

    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("musl", "1.2"))
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert dualpath._hold_heap_pages() is False
