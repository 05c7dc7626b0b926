"""Command-line entry point.

Subcommands map one-to-one onto the experiment functions; every command
reads an optional JSON config file, applies flag overrides, and writes
its outputs under the resolved output directory. The DUALPATH_OUT
environment variable overrides any other choice of output directory.
Failures print a machine-readable JSON error record to stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from dualpath.experiments import (ABLATION_FLAGS, ExperimentConfig,
                                  load_experiment_config, run_ablation,
                                  run_main, run_robustness, split_digests,
                                  train_single, write_csv, write_json)
from dualpath.fusion import load_checkpoint, save_checkpoint
from dualpath.losses import COMPONENT_ORDER
from dualpath.metrics import evaluate
from dualpath.synthdata import generate, load_dataset, save_dataset
from dualpath.trainer import grad_check

OUT_ENV_VAR = "DUALPATH_OUT"

GRADCHECK_THRESHOLD = 1e-4

# Command-line flags a subcommand would ignore: `gen` draws from dataset.seed and
# `eval` trains nothing. A config file's values pass, as one file serves them all.
INAPPLICABLE_FLAGS = {"gen": ("seed",) + ABLATION_FLAGS,
                      "eval": ("seed", "no_sim", "no_diff", "no_uni", "no_rea_loss")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualpath",
        description="Conflict-aware dual-pathway multimodal fusion experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=False):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--out", help="output directory "
                       f"(overridden by ${OUT_ENV_VAR} if set)")
        p.add_argument("--seed", type=int, help="single run seed")
        if seeds:
            p.add_argument("--seeds", help="comma-separated run seeds")
        for flag in ABLATION_FLAGS:
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                           action="store_true", default=None,
                           help=f"set the {flag} variant flag")
        return p

    common(sub.add_parser("gen", help="write dataset split files"))
    common(sub.add_parser("train", help="train one model, save a checkpoint"))
    p_eval = common(sub.add_parser("eval", help="evaluate a checkpoint"))
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", help="dataset file; default is the config's test split")
    common(sub.add_parser("gradcheck", help="finite-difference gradient certification"))
    common(sub.add_parser("ablate", help="run the ablation grid"), seeds=True)
    p_rob = common(sub.add_parser("robust", help="noise-robustness sweep"), seeds=True)
    p_rob.add_argument("--sigmas", help="comma-separated noise levels")
    common(sub.add_parser("main", help="multi-seed main run"), seeds=True)
    p_rep = sub.add_parser("report", help="summarize reports in an output directory")
    p_rep.add_argument("--out", help="directory holding report JSON files")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_experiment_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if getattr(args, "seeds", None):
        overrides["seeds"] = tuple(int(s) for s in args.seeds.split(","))
    elif getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    if getattr(args, "sigmas", None):
        overrides["sigmas"] = tuple(float(s) for s in args.sigmas.split(","))
    for flag in ABLATION_FLAGS:
        if getattr(args, flag, None):
            overrides[flag] = True
    if os.environ.get(OUT_ENV_VAR):
        overrides["out_dir"] = os.environ[OUT_ENV_VAR]
    elif getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _cmd_gen(cfg: ExperimentConfig) -> dict:
    os.makedirs(cfg.out_dir, exist_ok=True)
    splits = generate(cfg.dataset)
    for name, data in zip(("train", "val", "test"), splits):
        save_dataset(os.path.join(cfg.out_dir, f"{name}.bin"), data, cfg.dataset)
    digests = split_digests(splits, cfg.dataset)
    write_json(os.path.join(cfg.out_dir, "digests.json"), digests)
    return {"out_dir": cfg.out_dir, "digests": digests}


def _cmd_train(cfg: ExperimentConfig) -> dict:
    os.makedirs(cfg.out_dir, exist_ok=True)
    seed = cfg.seeds[0]
    model, history, metrics, gating, _ = train_single(cfg, seed)
    ckpt = os.path.join(cfg.out_dir, f"model_seed{seed}.ckpt")
    save_checkpoint(ckpt, model)
    header = ["epoch"] + list(COMPONENT_ORDER) + ["val_acc"]
    rows = [[e] + [history.epoch_losses[e].get(k, 0.0) for k in COMPONENT_ORDER]
            + [history.val_metrics[e]] for e in range(len(history.val_metrics))]
    write_csv(os.path.join(cfg.out_dir, f"history_seed{seed}.csv"), header, rows)
    result = {"seed": seed, "checkpoint": ckpt, "best_epoch": history.best_epoch,
              "stopped_early": history.stopped_early,
              "metrics": metrics.as_dict(), "gating": gating}
    write_json(os.path.join(cfg.out_dir, f"train_seed{seed}.json"), result)
    return result


def _cmd_eval(cfg: ExperimentConfig, args) -> dict:
    model = load_checkpoint(args.checkpoint)
    if args.data:
        data, num_classes, feature_dim = load_dataset(args.data)
        if num_classes != model.config.num_classes or feature_dim != model.config.feature_dim:
            raise ValueError("dataset dims do not match the checkpoint")
    else:
        data = generate(cfg.dataset)[2]
    model.gate_override = cfg.gate_override()  # checkpoints store no clamp
    metrics = evaluate(model, data)
    return {"checkpoint": args.checkpoint, "metrics": metrics.as_dict()}


def _cmd_gradcheck(cfg: ExperimentConfig) -> dict:
    from dualpath.fusion import Model

    for flag in ("no_int", "no_rea"):
        if getattr(cfg, flag):
            raise ValueError(f"gradcheck certifies the full model; "
                             f"--{flag.replace('_', '-')} ({flag}) does not apply")
    seed = cfg.seeds[0]
    model = Model(cfg.model_config(seed))
    batch_cfg = replace(cfg.dataset, n_train=8, n_val=2, n_test=2)
    batch = generate(batch_cfg)[0]
    res = grad_check(model, batch, cfg.effective_loss(), seed=seed)
    # JSON has no NaN or inf: a non-finite error prints as null
    error = res.max_rel_error if math.isfinite(res.max_rel_error) else None
    return {"max_rel_error": error,
            "coords_checked": res.coords_checked,
            "resampled": res.resampled, "skipped": res.skipped,
            "resampled_by_kind": res.resampled_by_kind,
            "passed": res.passed(GRADCHECK_THRESHOLD)}


def _summarize_report(path: str) -> list[str]:
    with open(path) as fh:
        rep = json.load(fh)
    lines = [f"== {os.path.basename(path)} ({rep.get('experiment', '?')}) =="]
    if rep.get("experiment") == "main":
        agg = rep["aggregate"]
        for key in ("acc", "macro_f1", "conflict_subset_acc"):
            if agg.get(key):
                lines.append(f"  {key}: {agg[key]['mean']:.4f} +/- {agg[key]['std']:.4f}")
        lines.append(f"  gate higher on conflict: {rep['gate_higher_on_conflict_seeds']}"
                     f"/{rep['n_seeds']} seeds")
    elif rep.get("experiment") == "ablation":
        for vr in rep["variants"]:
            acc = vr["aggregate"]["acc"]["mean"]
            conf = vr["aggregate"]["conflict_subset_acc"]
            conf_s = f"{conf['mean']:.4f}" if conf else "n/a"
            lines.append(f"  {vr['variant']:<12} acc {acc:.4f}  conflict-acc {conf_s}")
    elif rep.get("experiment") == "robustness":
        for row in rep["by_sigma_mean"]:
            lines.append(f"  sigma {row['sigma']}: macro_f1 "
                         f"{row['macro_f1']['mean']:.4f}")
    return lines


def _cmd_report(out_dir: str) -> dict:
    names = ("main_report.json", "ablation_report.json", "robustness_report.json")
    found = [os.path.join(out_dir, n) for n in names
             if os.path.exists(os.path.join(out_dir, n))]
    if not found:
        raise FileNotFoundError(f"no report files in {out_dir!r}")
    lines = []
    for path in found:
        lines.extend(_summarize_report(path))
    print("\n".join(lines))
    return {"reports": found}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            out_dir = os.environ.get(OUT_ENV_VAR) or args.out or ExperimentConfig.out_dir
            _cmd_report(out_dir)
            return 0
        for flag in INAPPLICABLE_FLAGS.get(args.command, ()):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag.replace('_', '-')} does not apply to {args.command}")
        cfg = _resolve_config(args)
        if args.command == "gen":
            result = _cmd_gen(cfg)
        elif args.command == "train":
            result = _cmd_train(cfg)
        elif args.command == "eval":
            result = _cmd_eval(cfg, args)
        elif args.command == "gradcheck":
            result = _cmd_gradcheck(cfg)
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0 if result["passed"] else 1
        elif args.command == "main":
            result = run_main(cfg)
        elif args.command == "ablate":
            result = run_ablation(cfg)
        elif args.command == "robust":
            result = run_robustness(cfg)
        else:  # unreachable with required=True
            raise ValueError(f"unknown command {args.command!r}")
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
        return 0
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all failures
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
