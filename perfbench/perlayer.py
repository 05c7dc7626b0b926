"""Per-layer metrics derived from the spans of a traced run.

Times are self times (a span's duration minus its traced children) in
milliseconds, as the median per call unless a p99 is named. Counts are
per traced unit. A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from census import OP_KINDS
from tracing import self_times

NS_PER_MS = 1e6

# metric -> span whose median self time per call it reports
P50_SELF_MS = {
    "tensor.backward_ms": "tensor.backward",
    "functional.softmax_ms": "functional.softmax",
    "functional.layer_norm_ms": "functional.layer_norm",
    "decoupler.forward_ms": "decoupler.forward",
    "intuition.forward_ms": "intuition.forward",
    "perception.forward_ms": "perception.forward",
    "losses.task_ms": "losses.task",
    "losses.diff_ms": "losses.diff",
    "losses.sim_ms": "losses.sim",
    "losses.total_self_ms": "losses.total",
    "trainer.adamw_ms": "trainer.adamw",
    "metrics.evaluate_ms": "metrics.evaluate",
    "metrics.gating_summary_ms": "metrics.gating_summary",
    "experiments.run_main_self_ms": "experiments.run_main",
}

# metric -> span whose median duration per call, children included, it reports
P50_TOTAL_MS = {
    "trainer.val_ms": "trainer.val",  # one validation pass per epoch
}

# metric -> span whose calls per unit it counts
CALLS = {
    "tensor.backward_calls": "tensor.backward",
    "functional.softmax_calls": "functional.softmax",
    "functional.layer_norm_calls": "functional.layer_norm",
    "fusion.forward_calls": "fusion.forward_batch",
}

PATHWAYS = ("decoupler.forward", "intuition.forward", "perception.forward")

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("tensor.graph_nodes", "count"),
    ("tensor.const_nodes", "count"),
    *((f"tensor.nodes.{k}", "count") for k in OP_KINDS),
    ("tensor.eval_graph_nodes", "count"),
    ("tensor.eval_const_nodes", "count"),
    *((f"tensor.eval_nodes.{k}", "count") for k in OP_KINDS),
    *((name, "ms") for name in P50_SELF_MS),
    *((name, "ms") for name in P50_TOTAL_MS),
    *((name, "count") for name in CALLS),
    ("fusion.forward_self_ms", "ms"),
    ("trainer.step_ms_p50", "ms"),
    ("trainer.step_ms_p99", "ms"),
    ("trainer.probe_ms_p50", "ms"),
    ("trainer.probe_ms_p99", "ms"),
    ("trainer.coords_checked", "count"),
    ("trainer.resampled", "count"),
    ("trainer.skipped", "count"),
    ("trainer.useful_probe_ratio", "ratio"),
    ("rng.child_calls_per_1k", "calls/1k"),
    ("synthdata.generate_ms_per_1k", "ms/1k"),
    ("synthdata.inject_noise_ms_per_1k", "ms/1k"),
    ("experiments.test_forwards_per_seed", "count"),
    ("trace.unit_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            kids[span[1]].append(i)
    return kids


def _ancestors(spans: list[list], i: int):
    parent = spans[i][1]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][1]


def _dur(span: list) -> int:
    return span[3] - span[2]


def step_times(spans: list[list]) -> list[int]:
    """Training steps: a train-mode forward start to the next AdamW end."""
    out, start = [], None
    for name, _, t0, t1, _, train in spans:
        if name == "fusion.forward_batch" and train:
            start = t0
        elif name == "trainer.adamw" and start is not None:
            out.append(t1 - start)
            start = None
    return out


def probe_times(spans: list[list], kids: dict[int, list[int]]) -> list[int]:
    """Gradcheck probes: the +eps forward start to the -eps loss end.

    Inside ``grad_check`` the forwards and losses come in order: one
    analytic pass, then a +eps/-eps pair per probe.
    """
    out = []
    for i, span in enumerate(spans):
        if span[0] != "trainer.grad_check":
            continue
        fwd = [spans[k] for k in kids[i] if spans[k][0] == "fusion.forward_batch"][1:]
        loss = [spans[k] for k in kids[i] if spans[k][0] == "losses.total"][1:]
        out.extend(loss[j + 1][3] - fwd[j][2] for j in range(0, min(len(fwd), len(loss)) - 1, 2))
    return out


def derive(setup: dict | None, units: list[dict], untraced_ms: list[float],
           census: dict, unit_counts: list[dict]) -> dict[str, float]:
    """Every PER_LAYER metric from the setup and unit traces of one run."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    for prefix, phase in (("tensor.", "train_step"), ("tensor.eval_", "eval")):
        counts = census[phase]
        out[f"{prefix}graph_nodes"] = counts["nodes"]
        out[f"{prefix}const_nodes"] = counts["const"]
        for kind in OP_KINDS:
            out[f"{prefix}nodes.{kind}"] = counts[kind]

    self_ms: dict[str, list[float]] = defaultdict(list)
    total_ms: dict[str, list[float]] = defaultdict(list)
    calls: Counter = Counter()
    fusion_self, steps, probes = [], [], []
    samples: Counter = Counter()
    synth_ms: Counter = Counter()
    rng_child = 0
    test_forwards = seeds = 0
    unit_ms, unattributed = [], []
    traces = ([setup] if setup else []) + units
    for trace in traces:
        spans = trace["spans"]
        own = self_times(spans)
        kids = _children(spans)
        for i, span in enumerate(spans):
            name = span[0]
            self_ms[name].append(own[i] / NS_PER_MS)
            total_ms[name].append(_dur(span) / NS_PER_MS)
            if trace is not setup:
                calls[name] += 1
            if name == "fusion.forward_batch":
                pathways = sum(_dur(spans[k]) for k in kids[i] if spans[k][0] in PATHWAYS)
                fusion_self.append((_dur(span) - pathways) / NS_PER_MS)
                if not span[5] and trace is not setup:
                    above = set(_ancestors(spans, i))
                    if "experiments.run_main" in above and "trainer.train" not in above:
                        test_forwards += 1
            elif name == "experiments.train_single" and trace is not setup:
                seeds += 1
            elif name in ("synthdata.generate", "synthdata.inject_noise"):
                samples[name] += span[4]
                synth_ms[name] += own[i] / NS_PER_MS
        for key, n in trace["counts"].items():
            if key.startswith("rng.child@synthdata."):
                rng_child += n
        if trace is not setup:
            steps.extend(step_times(spans))
            probes.extend(probe_times(spans, kids))
            unit_ms.append(_dur(spans[0]) / NS_PER_MS)
            unattributed.append(own[0] / NS_PER_MS)

    for metric, name in P50_SELF_MS.items():
        out[metric] = _pct(self_ms[name], 50)
    for metric, name in P50_TOTAL_MS.items():
        out[metric] = _pct(total_ms[name], 50)
    for metric, name in CALLS.items():
        out[metric] = calls[name] / max(len(units), 1)
    out["fusion.forward_self_ms"] = _pct(fusion_self, 50)
    steps_ms = [t / NS_PER_MS for t in steps]
    probes_ms = [t / NS_PER_MS for t in probes]
    out["trainer.step_ms_p50"] = _pct(steps_ms, 50)
    out["trainer.step_ms_p99"] = _pct(steps_ms, 99)
    out["trainer.probe_ms_p50"] = _pct(probes_ms, 50)
    out["trainer.probe_ms_p99"] = _pct(probes_ms, 99)
    for key in ("trainer.coords_checked", "trainer.resampled", "trainer.skipped",
                "trainer.useful_probe_ratio"):
        values = [c[key] for c in unit_counts if key in c]
        out[key] = _pct(values, 50)
    total_samples = sum(samples.values())
    if total_samples:
        out["rng.child_calls_per_1k"] = 1000.0 * rng_child / total_samples
    for metric, name in (("synthdata.generate_ms_per_1k", "synthdata.generate"),
                         ("synthdata.inject_noise_ms_per_1k", "synthdata.inject_noise")):
        if samples[name]:
            out[metric] = 1000.0 * synth_ms[name] / samples[name]
    if seeds:
        out["experiments.test_forwards_per_seed"] = test_forwards / seeds
    out["trace.unit_ms"] = _pct(unit_ms, 50)
    out["trace.unattributed_ms"] = _pct(unattributed, 50)
    if untraced_ms and unit_ms:
        out["trace.overhead_ratio"] = _pct(unit_ms, 50) / _pct(untraced_ms, 50) - 1.0
    return out


def self_time_table(units: list[dict]) -> list[tuple[str, float, float]]:
    """(span, self ms per unit, share of the unit) for the traced units,
    largest first; the root's own self time is the unattributed remainder."""
    total: Counter = Counter()
    for trace in units:
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            total[span[0]] += own
    whole = sum(total.values()) or 1
    n = max(len(units), 1)
    return [(name, ns / NS_PER_MS / n, ns / whole) for name, ns in total.most_common()]
