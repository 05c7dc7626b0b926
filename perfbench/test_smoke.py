"""Smoke test of the benchmark at reduced size.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from census import census  # noqa: E402
from perlayer import PER_LAYER  # noqa: E402
from tracing import Patches, Recorder, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads_and_per_layer_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_census_is_deterministic():
    first = census()
    assert first == census()
    for phase in first.values():
        assert phase["nodes"] == sum(v for k, v in phase.items()
                                     if k not in ("nodes", "const"))


def test_self_times_are_nonnegative_and_sum_to_the_root():
    wl = WORKLOADS["gradcheck"](seed=3, root=ROOT, smoke=True)
    state = wl.setup()
    recorder = Recorder()
    patches = Patches(recorder)
    import dualpath.tensor as tensor

    original = tensor.Tensor.__dict__["backward"]
    patches.install()
    try:
        for run_id in ("unit-0", "unit-1"):
            recorder.begin(run_id)
            recorder.root("bench.unit", wl.unit, state)
    finally:
        patches.uninstall()
    assert tensor.Tensor.__dict__["backward"] is original
    assert patches.missing == []
    for unit in recorder.units:
        spans = unit["spans"]
        own = self_times(spans)
        assert len(spans) > 100
        assert min(own) >= 0
        assert sum(own) == spans[0][3] - spans[0][2]


def test_probe_scales_its_own_kernel_to_the_reference_time():
    import signal

    from speed import KERNEL_ROUNDS, REF_KERNEL_S, Probe, kernel

    rounds = 200 * KERNEL_ROUNDS
    result, timing = Probe(interval_s=0.01).time(kernel, rounds)
    assert result == kernel(rounds)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert timing.samples >= 4
    assert 0 < timing.wall_s and timing.scaled_s == timing.wall_s * timing.speed
    # Timing the kernel itself, the machine's speed cancels: the scaled
    # time is the reference time of that many rounds, whatever the load.
    assert 0.5 < timing.scaled_s / (200 * REF_KERNEL_S) < 1.5
