"""The three benchmark workloads, run through the package's public API.

Each workload builds its inputs in ``setup`` from the benchmark seed,
does one closed-loop unit of work in ``unit`` (the timed part), and
checks the unit's outputs in ``check``. ``items`` is the number of work
items a unit processed, the numerator of ``items_per_s``. ``fingerprint``
digests a unit's outputs; the runner requires every repeat of one seed,
in every process, to give the same one. See README.md for why each
workload exists and which layers it exercises.

Every call into the package goes through a module attribute (``ex.run_main``,
not an imported name) so the tracing wrappers see it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

import dualpath.experiments as ex
import dualpath.fusion as fusion
import dualpath.losses as losses
import dualpath.metrics as metrics
import dualpath.rng as rng
import dualpath.synthdata as synthdata
import dualpath.trainer as trainer

OUT_DIR = ".bench_out"


class Checks:
    """Tally of output checks; a failed check is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def derive_seeds(seed: int, count: int) -> list[int]:
    """Distinct, stable seeds for the dataset, inits and probes."""
    stream = rng.Rng(seed, "perfbench")
    return [int(x) for x in stream.integers(0, 2 ** 31 - 1, size=count)]


def load_oracles(root: str):
    """tests/oracles.py: the straight-line reference forward pass."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Train:
    """``run_main`` at the default dataset and model, two seeds, with
    ``patience == max_epochs`` so every seed runs the same step count."""

    seed: int
    root: str
    smoke: bool = False
    rate_name: ClassVar[str] = "train_samples_per_s"
    rate_unit: ClassVar[str] = "samples/s"
    epochs: ClassVar[int] = 2

    def setup(self) -> dict:
        data_seed, s0, s1 = derive_seeds(self.seed, 3)
        data = synthdata.DatasetConfig(seed=data_seed)
        if self.smoke:
            data = synthdata.DatasetConfig(n_train=480, n_val=64, n_test=64,
                                           seed=data_seed)
        cfg = ex.ExperimentConfig(
            dataset=data,
            train=trainer.TrainConfig(max_epochs=self.epochs, patience=self.epochs),
            seeds=(s0, s1))
        splits = synthdata.generate(cfg.dataset)
        names = ("train", "val", "test")
        return {
            "cfg": cfg,
            "digests": {n: synthdata.dataset_digest(s, cfg.dataset)
                        for n, s in zip(names, splits)},
            "anchor_acc": synthdata.nearest_anchor_accuracy(splits[2], cfg.dataset),
        }

    def unit(self, state: dict) -> dict:
        out = tempfile.mkdtemp(prefix="train-", dir=os.path.join(self.root, OUT_DIR))
        try:
            report = ex.run_main(state["cfg"], out)
            files = {f: _sha256(os.path.join(out, f)) for f in sorted(os.listdir(out))}
        finally:
            shutil.rmtree(out)
        return {"report": report, "files": files}

    def items(self, state: dict, result: dict) -> int:
        cfg = state["cfg"]
        return len(cfg.seeds) * cfg.train.max_epochs * cfg.dataset.n_train

    def fingerprint(self, result: dict) -> str:
        return digest(result["files"])

    def unit_counts(self, result: dict) -> dict[str, float]:
        return {}

    def check(self, state: dict, result: dict, checks: Checks) -> None:
        report = result["report"]
        checks.expect(state["anchor_acc"] >= 0.95,
                      f"anchor oracle {state['anchor_acc']:.3f} < 0.95: bar is void")
        mean_acc = report["aggregate"]["acc"]["mean"]
        checks.expect(mean_acc >= 0.85, f"mean test accuracy {mean_acc:.4f} < 0.85")
        checks.expect(report["dataset_digest"] == state["digests"],
                      "report dataset digests differ from a fresh generation")
        checks.expect(len(result["files"]) == 3, f"report files {sorted(result['files'])}")


@dataclass(frozen=True)
class GradCheck:
    """``grad_check`` on a fresh default-size model, batch of 8, 20
    coordinates per parameter group."""

    seed: int
    root: str
    smoke: bool = False
    rate_name: ClassVar[str] = "probes_per_s"
    rate_unit: ClassVar[str] = "probes/s"

    def setup(self) -> dict:
        data_seed, init_seed, probe_seed = derive_seeds(self.seed, 3)
        if self.smoke:
            data_cfg = synthdata.DatasetConfig(num_classes=3, feature_dim=8, n_train=8,
                                               n_val=0, n_test=0, seed=data_seed)
            model_cfg = fusion.ModelConfig(feature_dim=8, num_classes=3, hidden_dim=6,
                                           init_seed=init_seed)
        else:
            data_cfg = synthdata.DatasetConfig(n_train=8, n_val=0, n_test=0,
                                               seed=data_seed)
            model_cfg = fusion.ModelConfig(init_seed=init_seed)
        model = fusion.Model(model_cfg)
        coords = 2 if self.smoke else 20
        return {
            "model": model,
            "batch": synthdata.generate(data_cfg)[0],
            "coords": coords,
            "probe_seed": probe_seed,
            "expected": sum(min(p.data.size, coords) for p in model.params().values()),
        }

    def unit(self, state: dict):
        return trainer.grad_check(state["model"], state["batch"], losses.LossConfig(),
                                  coords_per_group=state["coords"],
                                  seed=state["probe_seed"])

    def items(self, state: dict, result) -> int:
        return result.coords_checked + result.resampled

    def unit_counts(self, result) -> dict[str, float]:
        probes = result.coords_checked + result.resampled
        return {"trainer.coords_checked": result.coords_checked,
                "trainer.resampled": result.resampled,
                "trainer.skipped": result.skipped,
                "trainer.useful_probe_ratio": result.coords_checked / probes if probes else 0.0}

    def check(self, state: dict, result, checks: Checks) -> None:
        # The CLI's "passed" reads max_rel_error alone, which certifies
        # nothing when every probe was resampled; coverage is checked too.
        checks.expect(set(result.per_group) == set(state["model"].params()),
                      "not every parameter group was checked")
        checks.expect(result.skipped == 0, f"{result.skipped} coordinates skipped")
        checks.expect(0 < result.coords_checked == state["expected"],
                      f"checked {result.coords_checked} of {state['expected']} coordinates")
        checks.expect(result.max_rel_error < 1e-4,
                      f"max relative error {result.max_rel_error:.3e} >= 1e-4")

    def fingerprint(self, result) -> str:
        return digest(asdict(result))


@dataclass(frozen=True)
class Infer:
    """Noise sweep over a large test split with a fresh-init model:
    ``inject_noise_dataset`` on text, then ``evaluate`` and
    ``gating_summary``, at each default sigma."""

    seed: int
    root: str
    smoke: bool = False
    oracle_rows: ClassVar[int] = 16
    rate_name: ClassVar[str] = "eval_samples_per_s"
    rate_unit: ClassVar[str] = "samples/s"

    @property
    def n_test(self) -> int:
        return 200 if self.smoke else 2500

    def setup(self) -> dict:
        data_seed, init_seed, noise_seed = derive_seeds(self.seed, 3)
        cfg = synthdata.DatasetConfig(n_train=0, n_val=0, n_test=self.n_test,
                                      seed=data_seed)
        return {
            "test": synthdata.generate(cfg)[2],
            "model": fusion.Model(fusion.ModelConfig(init_seed=init_seed)),
            "noise_seed": noise_seed,
            "oracle_checked": False,
        }

    def unit(self, state: dict) -> dict:
        rows = []
        noisy_sets = []
        for si, sigma in enumerate(ex.DEFAULT_SIGMAS):
            noisy = synthdata.inject_noise_dataset(
                state["test"], sigma, "text", rng.Rng(state["noise_seed"], "robust/noise", si))
            m = metrics.evaluate(state["model"], noisy)
            g = metrics.gating_summary(state["model"], noisy)
            rows.append({"sigma": sigma, **m.as_dict(), **g})
            noisy_sets.append(noisy)
        return {"rows": rows, "noisy": noisy_sets}

    def items(self, state: dict, result: dict) -> int:
        return len(state["test"]) * len(result["rows"])

    def fingerprint(self, result: dict) -> str:
        return digest(result["rows"])

    def unit_counts(self, result: dict) -> dict[str, float]:
        return {}

    def check(self, state: dict, result: dict, checks: Checks) -> None:
        for row in result["rows"]:
            checks.expect(0.0 < row["gate_mean"] < 1.0,
                          f"gate mean {row['gate_mean']} outside (0, 1) at sigma {row['sigma']}")
        if state["oracle_checked"]:
            return
        state["oracle_checked"] = True
        # Once per run, outside the timed unit: recompute the probabilities
        # the unit scored and hold them to the straight-line oracle.
        oracles = load_oracles(self.root)
        model = state["model"]
        pick = rng.Rng(self.seed, "perfbench/oracle-rows").permutation(
            len(state["test"]))[:self.oracle_rows]
        for row, noisy in zip(result["rows"], result["noisy"]):
            probs = model.forward_batch(noisy.text, noisy.video, noisy.audio,
                                        train=False).probs.data
            sigma = row["sigma"]
            checks.expect(np.all(np.isfinite(probs)), f"non-finite probs at sigma {sigma}")
            worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
            checks.expect(worst <= 1e-12, f"row sum off by {worst:.3e} at sigma {sigma}")
            acc = float((probs.argmax(axis=1) == noisy.labels).mean())
            checks.expect(acc == row["acc"], f"evaluate acc {row['acc']} != {acc} at sigma {sigma}")
            err = max(float(np.max(np.abs(
                oracles.trace_forward(model, noisy.text[i], noisy.video[i],
                                      noisy.audio[i])["probs"] - probs[i])))
                for i in pick)
            checks.expect(err <= 1e-10, f"oracle mismatch {err:.3e} at sigma {sigma}")


WORKLOADS = {"train": Train, "gradcheck": GradCheck, "infer": Infer}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
