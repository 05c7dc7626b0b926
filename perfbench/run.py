"""Benchmark of the dualpath package: one workload per invocation.

Usage, from the repository root:

    python3 perfbench/run.py --workload {train,gradcheck,infer} --seed N \
        --seconds S --trace {0,1} [--smoke]

With ``--trace 0`` the workload is set up at least MIN_SETUPS times and
until SETUP_SECONDS have been timed, then units of work run back to back
until S seconds of them have been measured (at least MIN_UNITS). Each
set-up and unit is timed by a ``speed.Probe``, which scales its wall time
to a reference machine speed, so that a shared machine's slow stretches
do not move the figures. The end-to-end times are medians of the scaled
times over the set-ups and the units; the raw wall times are printed and
recorded beside them.

With ``--trace 1`` the workload is set up once, traced, then an untraced
and a traced unit alternate until S seconds have been measured. The
per-layer metrics come from the traced units; the ratio of the median
traced and untraced unit times is the tracing overhead.

``--smoke`` shrinks every workload, for the smoke test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the machine. The result, the machine facts and any spans are also
written to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

# One BLAS/OpenMP thread, in this process only: every
# operand is small, and one thread keeps runs comparable on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_SETUPS = 5  # and until SETUP_SECONDS of set-up have been timed
SETUP_SECONDS = 1.0
MAX_SETUPS = 400
MIN_UNITS = 3
MIN_TRACED_PAIRS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "gradcheck", "infer"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes, for the smoke test")
    return p.parse_args(argv)


def require_sources() -> None:
    """Fail before measuring when the package or its oracle is missing."""
    for rel in (os.path.join("src", "dualpath", "__init__.py"),
                os.path.join("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            sys.exit(f"perfbench: {rel} not found under {ROOT}; "
                     "run from a checkout of the repository")


def machine_facts() -> dict:
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, libs = None, []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        pass
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(wl, seconds: float, checks) -> dict:
    from speed import Probe

    probe = Probe()
    setups, state = [], None
    while len(setups) < MIN_SETUPS or (sum(t.wall_s for t in setups) < SETUP_SECONDS
                                       and len(setups) < MAX_SETUPS):
        state = None  # free the previous inputs before building the next
        gc.collect()
        state, timing = probe.time(wl.setup)
        setups.append(timing)
    units, rates, prints = [], [], []
    while sum(t.wall_s for t in units) < seconds or len(units) < MIN_UNITS:
        gc.collect()
        result, timing = probe.time(wl.unit, state)
        units.append(timing)
        rates.append(wl.items(state, result) / timing.scaled_s)
        wl.check(state, result, checks)
        prints.append(wl.fingerprint(result))
    checks.expect(len(set(prints)) == 1, "outputs differ between repeats of one seed")
    return {
        "units": len(units),
        "setup_walls_s": [t.wall_s for t in setups],
        "setup_speeds": [t.speed for t in setups],
        "unit_walls_s": [t.wall_s for t in units],
        "unit_speeds": [t.speed for t in units],
        "raw_wall_s": statistics.median(t.wall_s for t in units),
        "metrics": {
            "setup_s": statistics.median(t.scaled_s for t in setups),
            "wall_s": statistics.median(t.scaled_s for t in units),
            "items_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb(),
            "pass_ratio": 1.0 - len(checks.failures) / checks.attempted,
        },
    }


def run_traced(wl, seconds: float, checks) -> dict:
    from census import census
    from perlayer import derive, self_time_table
    from tracing import Patches, Recorder

    recorder = Recorder()
    patches = Patches(recorder)

    def traced(run_id, fn, *args):
        patches.install()
        recorder.begin(run_id)
        try:
            return recorder.root(f"bench.{run_id.split('-')[0]}", fn, *args)
        finally:
            patches.uninstall()

    state = traced("setup", wl.setup)
    setup_trace = recorder.units.pop()
    untraced_ms, unit_counts, prints = [], [], []
    measured = 0.0
    while measured < seconds or len(recorder.units) < MIN_TRACED_PAIRS:
        gc.collect()
        t0 = time.perf_counter()
        result = wl.unit(state)
        wall = time.perf_counter() - t0
        untraced_ms.append(wall * 1e3)
        wl.check(state, result, checks)
        prints.append(wl.fingerprint(result))
        gc.collect()
        t0 = time.perf_counter()
        result = traced(f"unit-{len(recorder.units)}", wl.unit, state)
        measured += wall + time.perf_counter() - t0
        wl.check(state, result, checks)
        prints.append(wl.fingerprint(result))
        unit_counts.append(wl.unit_counts(result))
    checks.expect(len(set(prints)) == 1, "outputs differ between repeats of one seed")
    layer = derive(setup_trace, recorder.units, untraced_ms, census(), unit_counts)
    return {
        "units": len(recorder.units),
        "metrics": layer,
        "missing_targets": patches.missing,
        "self_time": self_time_table(recorder.units),
        "spans": [setup_trace] + recorder.units,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perlayer import PER_LAYER
    from workloads import OUT_DIR, WORKLOADS, Checks

    wl = WORKLOADS[args.workload](seed=args.seed, root=ROOT, smoke=args.smoke)
    checks = Checks()
    out_dir = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        run = run_traced(wl, args.seconds, checks)
        units = dict(PER_LAYER)
        print(f"{args.workload} seed {args.seed}: {run['units']} traced units; "
              "self time per unit by span:")
        for name, ms, share in run["self_time"]:
            label = "(unattributed)" if name.startswith("bench.") else name
            print(f"  {label:<28} {ms:12.3f} ms  {100 * share:6.2f}%")
        if run["missing_targets"]:
            print("  not traced (not found): " + ", ".join(run["missing_targets"]))
    else:
        run = run_untraced(wl, args.seconds, checks)
        units = END_TO_END_UNITS
        m = run["metrics"]
        print(f"{args.workload} seed {args.seed}: {run['units']} units; median raw wall "
              f"{run['raw_wall_s']:.4f} s at a median speed of "
              f"{statistics.median(run['unit_speeds']):.3f} x the reference")
        for name, value, unit in (
                ("setup_s", m["setup_s"], "s"),
                ("wall_s", m["wall_s"], "s"),
                (wl.rate_name, m["items_per_s"], wl.rate_unit),
                ("peak_rss_mb", m["peak_rss_mb"], "MiB"),
                ("fail_ratio", 1.0 - m["pass_ratio"], "ratio")):
            print(f"  {name:<20} {value:14.4f} {unit}")
    for failure in checks.failures:
        print(f"  CHECK FAILED: {failure}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in run["metrics"].items()},
    }
    machine = machine_facts()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "machine": machine, "result": result,
              "check_failures": checks.failures,
              **{k: v for k, v in run.items() if k != "metrics"}}
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"machine": machine}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
