"""Experiment orchestration: multi-seed runs, ablation grid, noise sweep.

Every run is a pure function of its config, and report files contain no
timestamps or timings, so identical (config, seeds) produce identical
bytes. All the models of one experiment (its seeds, and for the grid
every variant at every seed) train together as one stack and are tested
in one stacked forward; each model's numbers are bit for bit those of a
run of its own.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from dualpath.fusion import Model, ModelConfig, ModelOutput
from dualpath.losses import LossConfig
from dualpath.metrics import Metrics, eval_forward, gate_stats, output_metrics
from dualpath.perception import REPORT_COLUMNS
from dualpath.rng import Rng
from dualpath.synthdata import (Dataset, DatasetConfig, dataset_digest, generate,
                                inject_noise_dataset, is_integer, is_number, json_object,
                                require_bools)
from dualpath.trainer import TrainConfig, TrainHistory, train_models

ABLATION_FLAGS = ("no_int", "no_rea", "no_sim", "no_diff", "no_uni", "no_rea_loss")

DEFAULT_SIGMAS = (0.0, 0.1, 0.3, 0.5, 0.7)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    hidden_dim: int | None = None       # None -> feature_dim
    temperature: float = 1.0
    dropout: float = 0.2
    share_shared_encoder: bool = False
    no_int: bool = False
    no_rea: bool = False
    no_sim: bool = False
    no_diff: bool = False
    no_uni: bool = False
    no_rea_loss: bool = False
    sigmas: tuple = DEFAULT_SIGMAS
    seeds: tuple = (0, 1, 2, 3, 4)
    out_dir: str = "runs"

    def validate(self) -> None:
        self.dataset.validate()
        self.train.validate()
        if self.train.seed != TrainConfig.seed:  # each run trains at its own seed
            raise ValueError(f"train.seed must be {TrainConfig.seed}, got "
                             f"{self.train.seed!r}: list the run seeds in 'seeds'")
        self.loss.validate()
        require_bools(self, *ABLATION_FLAGS)
        self.model_config(0).validate()
        if not isinstance(self.out_dir, str):
            raise ValueError(f"ExperimentConfig.out_dir must be a string, "
                             f"got {self.out_dir!r}")
        if self.no_int and self.no_rea:
            raise ValueError("no_int and no_rea cannot both be set")
        if not all(is_number(s, "[0, inf)") for s in self.sigmas):
            raise ValueError(f"sigmas must be finite numbers >= 0, got {self.sigmas!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not all(is_integer(s) for s in self.seeds):
            raise ValueError(f"seeds must be integers, got {self.seeds!r}")

    def model_config(self, seed: int) -> ModelConfig:
        return ModelConfig(
            feature_dim=self.dataset.feature_dim,
            num_classes=self.dataset.num_classes,
            hidden_dim=self.dataset.feature_dim if self.hidden_dim is None else self.hidden_dim,
            temperature=self.temperature,
            dropout=self.dropout,
            share_shared_encoder=self.share_shared_encoder,
            init_seed=seed,
            # 1.0 (reasoning only) under no_int, 0.0 (intuition only) under no_rea
            gate_override=1.0 if self.no_int else 0.0 if self.no_rea else None,
        )

    def effective_loss(self) -> LossConfig:
        kw = asdict(self.loss)
        if self.no_rea or self.no_rea_loss:
            kw["reasoning_weight"] = 0.0
        if self.no_uni:
            kw["unimodal_weight"] = 0.0
        if self.no_diff:
            kw["orthogonality_weight"] = 0.0
        if self.no_sim:
            kw["alignment_weight"] = 0.0
        return LossConfig(**kw)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["sigmas"] = list(self.sigmas)
        d["seeds"] = list(self.seeds)
        return d


def load_experiment_config(source) -> ExperimentConfig:
    """Build a config from a JSON file path or an already-parsed dict.

    Unknown keys are rejected so typos fail loudly, and a value of the
    wrong JSON type raises ValueError naming its key.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            source = json.load(fh)
    sections = {"dataset": DatasetConfig, "train": TrainConfig, "loss": LossConfig}
    raw = json_object(source, (*sections, "model", "sigmas", "seeds", "out_dir",
                               *ABLATION_FLAGS), "")
    kwargs = {key: cls(**json_object(raw.get(key, {}), cls.__dataclass_fields__, key))
              for key, cls in sections.items()}
    kwargs.update(json_object(raw.get("model", {}), ("hidden_dim", "temperature", "dropout",
                                                     "share_shared_encoder"), "model"))
    for key in ("sigmas", "seeds"):
        if key in raw:
            if not isinstance(raw[key], (list, tuple)):
                raise ValueError(f"config key {key!r} must be a JSON list, got {raw[key]!r}")
            kwargs[key] = tuple(raw[key])
    kwargs.update((key, raw[key]) for key in ABLATION_FLAGS + ("out_dir",) if key in raw)
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


# -- deterministic report writing ------------------------------------------

def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(render_csv(header, rows))


def _aggregate(rows: list[dict], keys: list[str]) -> dict:
    out = {}
    for key in keys:
        vals = np.asarray([r[key] for r in rows if r[key] is not None],
                          dtype=np.float64)
        out[key] = ({"mean": float(vals.mean()), "std": float(vals.std())}
                    if vals.size else None)
    return out


def split_digests(splits: tuple[Dataset, Dataset, Dataset],
                  config: DatasetConfig) -> dict[str, str]:
    """Digest of each split's serialized bytes, keyed train/val/test."""
    return {name: dataset_digest(data, config)
            for name, data in zip(("train", "val", "test"), splits)}


METRIC_KEYS = ["acc", "macro_f1", "macro_precision", "macro_recall",
               "weighted_f1", "weighted_precision",
               "conflict_subset_acc", "consistent_subset_acc"]


# -- training runs -----------------------------------------------------------

def train_runs(runs: list[tuple[ExperimentConfig, int]],
               splits: tuple[Dataset, Dataset, Dataset],
               ) -> list[tuple[Model, TrainHistory, Metrics, dict, ModelOutput]]:
    """Train one model per (config, seed) run, all in one stack, and test
    them in one stacked forward; returns, per run, the model with its
    history, its metrics, its gate statistics and its eval forward on the
    test split. The configs may differ in their ``ABLATION_FLAGS`` only:
    the loss weights and gate override those set. An empty test split is
    rejected before any model is built."""
    train_data, val_data, test_data = splits
    if len(test_data) == 0:
        raise ValueError("the test split is empty: no metrics to compute")
    models = [Model(cfg.model_config(seed)) for cfg, seed in runs]
    histories = train_models(models, train_data, val_data,
                             [replace(cfg.train, seed=seed) for cfg, seed in runs],
                             [cfg.effective_loss() for cfg, _ in runs])
    test_out = eval_forward(Model.stack(models), test_data)
    out = []
    for m, (model, history) in enumerate(zip(models, histories)):
        member = test_out.member(m)
        metrics = output_metrics(member, test_data, model.config.num_classes)
        out.append((model, history, metrics, gate_stats(member, test_data), member))
    return out


def train_single(cfg: ExperimentConfig, seed: int,
                 splits: tuple[Dataset, Dataset, Dataset] | None = None,
                 ) -> tuple[Model, TrainHistory, Metrics, dict, ModelOutput]:
    """Train one model at one seed; returns it with its metrics, its gate
    statistics and its eval forward on the test split."""
    cfg.validate()
    if splits is None:
        splits = generate(cfg.dataset)
    return train_runs([(cfg, seed)], splits)[0]


def _seed_row(seed: int, metrics: Metrics, gating: dict) -> dict:
    row = {"seed": seed}
    row.update(metrics.as_dict())
    row.update(gating)
    return row


# -- experiments -------------------------------------------------------------

def _prepare(cfg: ExperimentConfig, out_dir: str | None
             ) -> tuple[str, tuple[Dataset, Dataset, Dataset]]:
    """Validate, create the output directory (``out_dir`` beats
    ``cfg.out_dir``) and generate the splits every seed of a run shares."""
    cfg.validate()
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out, generate(cfg.dataset)


def run_main(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Multi-seed training of the configured variant; reports per-seed and
    aggregate metrics plus gate behavior on conflicted vs consistent
    test subsets."""
    out, splits = _prepare(cfg, out_dir)
    conflicted = splits[2].conflicted_mask.astype(int).tolist()
    rows = []
    gating_rows = []
    results = train_runs([(cfg, seed) for seed in cfg.seeds], splits)
    for seed, (_, _, metrics, gating, test_out) in zip(cfg.seeds, results):
        rows.append(_seed_row(seed, metrics, gating))
        per_sample = test_out.report.rows().tolist()
        for i, flag in enumerate(conflicted):
            gating_rows.append([seed, i, flag] + per_sample[i])
    gate_conf = [r["gate_mean_conflicted"] for r in rows]
    gate_cons = [r["gate_mean_consistent"] for r in rows]
    higher = [int(a is not None and b is not None and a > b)
              for a, b in zip(gate_conf, gate_cons)]
    report = {
        "experiment": "main",
        "config": cfg.as_dict(),
        "dataset_digest": split_digests(splits, cfg.dataset),
        "per_seed": rows,
        "aggregate": _aggregate(rows, METRIC_KEYS + ["gate_mean_conflicted",
                                                     "gate_mean_consistent"]),
        "gate_higher_on_conflict_seeds": int(sum(higher)),
        "n_seeds": len(cfg.seeds),
    }
    write_json(os.path.join(out, "main_report.json"), report)
    write_csv(os.path.join(out, "main_metrics.csv"),
              ["seed"] + METRIC_KEYS,
              [[r["seed"]] + [r[k] for k in METRIC_KEYS] for r in rows])
    write_csv(os.path.join(out, "gating.csv"),
              ["seed", "sample", "conflicted"] + list(REPORT_COLUMNS),
              gating_rows)
    return report


def run_ablation(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Full model plus each single-flag ablation on byte-identical data.
    The grid sets every switch itself, so a config with any switch set is
    rejected rather than silently overridden."""
    for flag in ABLATION_FLAGS:
        if getattr(cfg, flag):
            raise ValueError(f"ablate sets every switch itself, one variant at a "
                             f"time; --{flag.replace('_', '-')} ({flag}) does not apply")
    out, splits = _prepare(cfg, out_dir)
    digest = dataset_digest(splits[0], cfg.dataset)
    variant_rows = []
    csv_rows = []
    names = ("full",) + ABLATION_FLAGS
    results = iter(train_runs(
        [(replace(cfg, **{f: f == name for f in ABLATION_FLAGS}), seed)
         for name in names for seed in cfg.seeds], splits))
    for name in names:
        seed_rows = []
        for seed in cfg.seeds:
            _, _, metrics, gating, _ = next(results)
            row = _seed_row(seed, metrics, gating)
            seed_rows.append(row)
            csv_rows.append([name, seed] + [row[k] for k in METRIC_KEYS]
                            + [row["gate_mean"]])
        variant_rows.append({
            "variant": name,
            "dataset_digest": digest,
            "per_seed": seed_rows,
            "aggregate": _aggregate(seed_rows, METRIC_KEYS + ["gate_mean"]),
        })
    report = {
        "experiment": "ablation",
        "config": cfg.as_dict(),
        "variants": variant_rows,
    }
    write_json(os.path.join(out, "ablation_report.json"), report)
    write_csv(os.path.join(out, "ablation.csv"),
              ["variant", "seed"] + METRIC_KEYS + ["gate_mean"], csv_rows)
    return report


def run_robustness(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Train on clean data; evaluate with Gaussian noise injected into the
    text features at each sigma. Each sigma's noise stream is keyed by the
    dataset seed and the sigma's position in ``sigmas``, not by its value:
    reports are reproducible, but the same sigma at another position (0.5
    in ``(0.5,)`` and in ``(0.0, 0.5)``) draws other noise. Sigma 0 adds
    no noise: its row is the clean test forward ``train_runs`` already
    made. Every other sigma tests all seeds' models in one stacked
    forward."""
    out, splits = _prepare(cfg, out_dir)
    columns = ["acc", "macro_f1", "weighted_f1"]
    per_seed = []
    csv_rows = []
    results = train_runs([(cfg, seed) for seed in cfg.seeds], splits)
    stack = Model.stack([model for model, _, _, _, _ in results])
    by_sigma = []  # per position in cfg.sigmas: the metrics of each seed's model
    for si, sigma in enumerate(cfg.sigmas):
        if sigma > 0:
            noisy = inject_noise_dataset(splits[2], sigma, "text",
                                         Rng(cfg.dataset.seed, "robust/noise", si))
            outs = eval_forward(stack, noisy)
            by_sigma.append([output_metrics(outs.member(m), noisy,
                                            cfg.dataset.num_classes)
                             for m in range(len(results))])
        else:
            by_sigma.append([clean for _, _, clean, _, _ in results])
    for m, (seed, (_, _, clean, _, _)) in enumerate(zip(cfg.seeds, results)):
        sigma_rows = []
        for si, sigma in enumerate(cfg.sigmas):
            row = by_sigma[si][m].as_dict()
            sigma_rows.append({"sigma": sigma, **row})
            csv_rows.append([seed, sigma] + [row[k] for k in columns])
        per_seed.append({"seed": seed, "clean": clean.as_dict(),
                         "by_sigma": sigma_rows})
    by_sigma_mean = [
        {"sigma": sigma, **_aggregate([ps["by_sigma"][si] for ps in per_seed],
                                      columns)}
        for si, sigma in enumerate(cfg.sigmas)]
    report = {
        "experiment": "robustness",
        "config": cfg.as_dict(),
        "noise_modality": "text",
        "per_seed": per_seed,
        "by_sigma_mean": by_sigma_mean,
    }
    write_json(os.path.join(out, "robustness_report.json"), report)
    write_csv(os.path.join(out, "robustness.csv"),
              ["seed", "sigma"] + columns, csv_rows)
    return report
