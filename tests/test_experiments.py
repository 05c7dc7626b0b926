"""Experiment drivers and the command-line interface.

These run miniature configurations end to end, so they certify the
orchestration (seeding, report layout, byte determinism, flag plumbing)
rather than model quality. Quality bars live in the acceptance suite.
"""

import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dualpath import experiments
from dualpath.cli import OUT_ENV_VAR, main
from dualpath.experiments import (ABLATION_FLAGS, ExperimentConfig,
                                  load_experiment_config, render_csv,
                                  run_ablation, run_main, run_robustness,
                                  train_single, write_json)
from dualpath.fusion import ModelOutput, load_checkpoint, save_checkpoint
from dualpath.losses import LossConfig
from dualpath.metrics import Metrics
from dualpath.synthdata import DatasetConfig, dataset_digest, generate
from dualpath.trainer import TrainConfig, TrainHistory

TINY = ExperimentConfig(
    dataset=DatasetConfig(num_classes=3, feature_dim=8, n_train=96, n_val=32,
                          n_test=32, conflict_rate=0.3, seed=13),
    train=TrainConfig(max_epochs=2, batch_size=16, seed=0),
    hidden_dim=6,
    dropout=0.1,
    seeds=(0,),
    sigmas=(0.0, 0.5),
)


def tiny_config_json(tmp_path, **extra):
    raw = {
        "dataset": {"num_classes": 3, "feature_dim": 8, "n_train": 96,
                    "n_val": 32, "n_test": 32, "seed": 13},
        "train": {"max_epochs": 2, "batch_size": 16},
        "model": {"hidden_dim": 6, "dropout": 0.1},
        "seeds": [0],
        "sigmas": [0.0, 0.5],
    }
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_model_config_inherits_dataset_dims(self):
        mc = TINY.model_config(seed=3)
        assert mc.feature_dim == 8
        assert mc.hidden_dim == 6
        assert mc.num_classes == 3
        assert mc.init_seed == 3
        assert mc.dropout == TINY.dropout

    def test_hidden_dim_defaults_to_feature_dim(self):
        cfg = ExperimentConfig()
        assert cfg.model_config(0).hidden_dim == cfg.dataset.feature_dim

    def test_effective_loss_zeroes_ablated_terms(self):
        base = ExperimentConfig()
        assert base.effective_loss() == LossConfig()
        from dataclasses import replace
        assert replace(base, no_rea_loss=True).effective_loss().reasoning_weight == 0.0
        assert replace(base, no_rea=True).effective_loss().reasoning_weight == 0.0
        assert replace(base, no_uni=True).effective_loss().unimodal_weight == 0.0
        assert replace(base, no_diff=True).effective_loss().orthogonality_weight == 0.0
        assert replace(base, no_sim=True).effective_loss().alignment_weight == 0.0

    def test_ablation_only_for_pathway_flags(self):
        from dataclasses import replace
        def clamp(**flags):
            return replace(ExperimentConfig(), **flags).model_config(0).gate_override
        assert clamp() is None
        assert clamp(no_sim=True) is None
        assert clamp(no_rea=True) == 0.0
        assert clamp(no_int=True) == 1.0

    def test_conflicting_pathway_flags_rejected(self):
        from dataclasses import replace
        with pytest.raises(ValueError):
            replace(ExperimentConfig(), no_int=True, no_rea=True).validate()


    @pytest.mark.parametrize("raw,field", [
        ({"sigmas": [float("nan")]}, "sigmas"),
        ({"sigmas": [float("inf")]}, "sigmas"),
        ({"sigmas": [-0.1]}, "sigmas"),
        ({"sigmas": [True]}, "sigmas"),
        ({"sigmas": [0.1, True]}, "sigmas"),
        ({"sigmas": "0.5"}, "sigmas"),
        ({"sigmas": 0.5}, "'sigmas'"),
        ({"seeds": 5}, "'seeds'"),
        ({"seeds": {"0": 1}}, "'seeds'"),
        ({"seeds": [1.5]}, "seeds"),
        ({"seeds": ["1"]}, "seeds"),
        ({"seeds": []}, "seed"),
    ])
    def test_rejects_bad_sigmas_and_seeds(self, raw, field):
        with pytest.raises(ValueError, match=field):
            load_experiment_config(raw)

    @pytest.mark.parametrize("raw,field", [
        ({"dataset": {"seed": 1.5}}, "DatasetConfig.seed"),
        ({"dataset": {"n_train": 5.5}}, "n_train"),
        ({"dataset": {"n_val": True}}, "n_val"),
        ({"dataset": {"num_classes": 4.0}}, "num_classes"),
        ({"train": {"max_epochs": 1.5}}, "max_epochs"),
        ({"train": {"batch_size": 2.5}}, "batch_size"),
        ({"train": {"seed": 2.5}}, "TrainConfig.seed"),
        ({"train": {"patience": 2.0}}, "patience"),
        ({"loss": {"moment_order": 2.0}}, "moment_order"),
        ({"model": {"hidden_dim": 3.5}}, "hidden_dim"),
        ({"seeds": [True]}, "seeds"),
    ])
    def test_rejects_non_integer_counts_and_seeds(self, raw, field):
        with pytest.raises(ValueError, match=field):
            load_experiment_config(raw)

    @pytest.mark.parametrize("raw,field", [
        ({"no_sim": "false"}, "ExperimentConfig.no_sim"),
        ({"no_int": 1}, "ExperimentConfig.no_int"),
        ({"model": {"share_shared_encoder": "yes"}}, "ModelConfig.share_shared_encoder"),
        ({"model": {"hidden_dim": 0}}, "ModelConfig.hidden_dim"),
        ({"model": {"hidden_dim": -3}}, "ModelConfig.hidden_dim"),
        ({"model": {"temperature": -1.0}}, "ModelConfig.temperature"),
        ({"model": {"temperature": 0.0}}, "ModelConfig.temperature"),
        ({"model": {"temperature": float("nan")}}, "ModelConfig.temperature"),
        ({"model": {"temperature": float("inf")}}, "ModelConfig.temperature"),
        ({"model": {"temperature": "1.0"}}, "ModelConfig.temperature"),
        ({"model": {"dropout": 1.0}}, "ModelConfig.dropout"),
        ({"model": {"dropout": "0.1"}}, "ModelConfig.dropout"),
        ({"out_dir": 5}, "ExperimentConfig.out_dir"),
    ])
    def test_rejects_bad_flags_and_model_fields(self, raw, field):
        with pytest.raises(ValueError, match=field):
            load_experiment_config(raw)

    def test_accepted_flags_and_model_fields(self):
        cfg = load_experiment_config({"no_sim": False, "no_uni": True, "out_dir": "x",
                                      "model": {"hidden_dim": 1, "temperature": 2,
                                                "share_shared_encoder": True}})
        assert cfg.effective_loss().alignment_weight == LossConfig().alignment_weight
        assert cfg.model_config(0).hidden_dim == 1

    def test_integer_fields_fail_early_and_take_numpy_integers(self):
        for bad in ({"seed": 1.5}, {"n_train": 5.5}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                generate(DatasetConfig(**bad))
        with pytest.raises(ValueError, match="init_seed"):
            ExperimentConfig().model_config(np.float64(1.0)).validate()
        DatasetConfig(n_train=np.int64(4), seed=np.int32(2)).validate()
        TrainConfig(max_epochs=np.int64(2), seed=np.uint8(3)).validate()
        ExperimentConfig().model_config(np.int64(1)).validate()


class TestLoadConfig:
    def test_round_trip_from_file(self, tmp_path):
        path = tiny_config_json(tmp_path)
        cfg = load_experiment_config(path)
        assert cfg.dataset.num_classes == 3
        assert cfg.train.max_epochs == 2
        assert cfg.hidden_dim == 6
        assert cfg.seeds == (0,)
        assert cfg.sigmas == (0.0, 0.5)

    def test_the_readme_example_is_the_default_config(self):
        """The JSON block under README "JSON config" loads, and shows the
        defaults it claims to show."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## JSON config\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert load_experiment_config(json.loads(block)) == ExperimentConfig()

    def test_accepts_dict_source(self):
        cfg = load_experiment_config({"seeds": [1, 2], "out_dir": "elsewhere"})
        assert cfg.seeds == (1, 2)
        assert cfg.out_dir == "elsewhere"

    def test_defaults_fill_missing_sections(self):
        cfg = load_experiment_config({})
        assert cfg.dataset == DatasetConfig()
        assert cfg.train == TrainConfig()
        assert cfg.loss == LossConfig()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            load_experiment_config({"learning_rate": 0.1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset config keys"):
            load_experiment_config({"dataset": {"classes": 3}})
        with pytest.raises(ValueError, match="unknown train config keys"):
            load_experiment_config({"train": {"lr": 0.1}})
        with pytest.raises(ValueError, match=r"unknown train config keys: \['dropout'\]"):
            load_experiment_config({"train": {"dropout": 0.1}})
        with pytest.raises(ValueError, match="unknown model config keys"):
            load_experiment_config({"model": {"depth": 3}})

    def test_train_seed_other_than_the_default_rejected(self):
        """Each run trains at its own seed from ``seeds``: any other
        train.seed would be ignored, yet recorded in every report."""
        with pytest.raises(ValueError, match=r"train\.seed must be 0, got 99.*'seeds'"):
            load_experiment_config({"train": {"seed": 99}})
        assert load_experiment_config({"train": {"seed": 0}}).train.seed == 0

    def test_flag_conflict_rejected(self):
        with pytest.raises(ValueError):
            load_experiment_config({"no_int": True, "no_rea": True})

    @pytest.mark.parametrize("raw,key", [
        ({"dataset": None}, "'dataset'"),
        ({"train": [2]}, "'train'"),
        ({"loss": "default"}, "'loss'"),
        ({"model": 6}, "'model'"),
        ([1, 2], "experiment config"),
        (None, "experiment config"),
    ])
    def test_a_value_of_the_wrong_json_type_names_its_key(self, tmp_path, raw, key):
        """From a file or as parsed: a ValueError naming the key, not a
        TypeError from deep inside the loader."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        for source in (path, raw):
            with pytest.raises(ValueError, match=key):
                load_experiment_config(source)


class TestReportWriting:
    def test_json_is_sorted_with_trailing_newline(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"b": 1, "a": [1.5, None]})
        text = path.read_text()
        assert text == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'

    def test_csv_floats_use_repr(self):
        text = render_csv(["x", "y"], [[1, 0.1], ["s", 1.0 / 3.0]])
        lines = text.split("\n")
        assert lines[0] == "x,y"
        assert lines[1] == "1,0.1"
        assert lines[2] == "s,0.3333333333333333"


class TestTrainSingle:
    def test_returns_all_products(self):
        model, history, metrics, gating, test_out = train_single(TINY, 0)
        assert isinstance(history, TrainHistory)
        assert isinstance(test_out, ModelOutput)
        test = generate(TINY.dataset)[2]
        preds = test_out.probs.data.argmax(axis=1)
        assert len(preds) == len(test)
        assert metrics.acc == float((preds == test.labels).mean())
        assert isinstance(metrics, Metrics)
        assert len(history.epoch_losses) <= TINY.train.max_epochs
        assert 0.0 <= metrics.acc <= 1.0
        assert set(gating) >= {"gate_mean", "gate_mean_conflicted",
                               "gate_mean_consistent"}
        assert model.config.init_seed == 0

    def test_reuses_provided_splits(self):
        splits = generate(TINY.dataset)
        _, _, a, _, _ = train_single(TINY, 0, splits)
        _, _, b, _, _ = train_single(TINY, 0, splits)
        assert a == b


@pytest.fixture(scope="module")
def main_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("main")
    report = run_main(TINY, str(out))
    return report, out


@pytest.fixture(scope="module")
def ablation_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation")
    report = run_ablation(TINY, str(out))
    return report, out


@pytest.fixture(scope="module")
def robustness_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("robust")
    report = run_robustness(TINY, str(out))
    return report, out


class TestRunMain:
    def test_report_structure(self, main_result):
        report, _ = main_result
        assert report["experiment"] == "main"
        assert report["n_seeds"] == 1
        assert len(report["per_seed"]) == 1
        assert 0 <= report["gate_higher_on_conflict_seeds"] <= 1
        assert report["config"]["seeds"] == [0]

    def test_aggregate_matches_recomputation(self, main_result):
        report, _ = main_result
        accs = [r["acc"] for r in report["per_seed"]]
        assert report["aggregate"]["acc"]["mean"] == pytest.approx(
            float(np.mean(accs)), abs=1e-15)
        assert report["aggregate"]["acc"]["std"] == pytest.approx(
            float(np.std(accs)), abs=1e-15)

    def test_digests_match_regeneration(self, main_result):
        report, _ = main_result
        splits = generate(TINY.dataset)
        assert report["dataset_digest"]["test"] == dataset_digest(
            splits[2], TINY.dataset)

    def test_files_written(self, main_result):
        _, out = main_result
        assert (out / "main_report.json").exists()
        assert (out / "main_metrics.csv").exists()
        assert (out / "gating.csv").exists()

    def test_gating_csv_has_one_row_per_test_sample(self, main_result):
        _, out = main_result
        lines = (out / "gating.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + len(TINY.seeds) * TINY.dataset.n_test
        header = lines[0].split(",")
        assert header[:3] == ["seed", "sample", "conflicted"]
        assert "gate" in header

    def test_written_report_matches_returned(self, main_result):
        report, out = main_result
        on_disk = json.loads((out / "main_report.json").read_text())
        assert on_disk == json.loads(json.dumps(report))


def test_run_main_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_main(TINY, str(out_a))
    run_main(TINY, str(out_b))
    for name in ("main_report.json", "main_metrics.csv", "gating.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# Patience below max_epochs, so the stacked models stop at different epochs;
# the grid mixes full, gate-clamped and loss-ablated variants in one stack.
STOPPING = replace(TINY, dataset=replace(TINY.dataset, n_train=120, n_val=40, seed=5),
                   train=replace(TINY.train, max_epochs=8, patience=2,
                                 learning_rate=3e-3),
                   seeds=(0, 1))


@pytest.mark.parametrize("runner", [
    run_main, run_ablation, run_robustness, lambda cfg, out: train_single(cfg, 0)])
def test_an_empty_test_split_fails_before_training(tmp_path, monkeypatch, runner):
    def train_models(*args, **kwargs):
        raise AssertionError("trained before the test split was checked")

    monkeypatch.setattr(experiments, "train_models", train_models)
    cfg = replace(TINY, dataset=replace(TINY.dataset, n_test=0))
    with pytest.raises(ValueError, match="test split is empty"):
        runner(cfg, str(tmp_path))


@pytest.mark.parametrize("runner", [run_main, run_ablation, run_robustness])
def test_stacked_reports_match_one_model_at_a_time(tmp_path, monkeypatch, runner):
    """Every runner trains its models in one stack; training them one at a
    time instead must give byte-identical report files."""
    runner(STOPPING, str(tmp_path / "stacked"))
    stacked = experiments.train_runs
    histories = [h for _, h, _, _, _ in stacked(
        [(STOPPING, seed) for seed in STOPPING.seeds], generate(STOPPING.dataset))]
    assert len({len(h.val_metrics) for h in histories}) > 1

    def one_at_a_time(runs, splits):
        return [result for run in runs for result in stacked([run], splits)]

    monkeypatch.setattr(experiments, "train_runs", one_at_a_time)
    runner(STOPPING, str(tmp_path / "alone"))
    names = sorted(os.listdir(tmp_path / "stacked"))
    assert names == sorted(os.listdir(tmp_path / "alone")) and names
    for name in names:
        assert ((tmp_path / "stacked" / name).read_bytes()
                == (tmp_path / "alone" / name).read_bytes()), name


class TestRunAblation:
    def test_variant_roster(self, ablation_result):
        report, _ = ablation_result
        names = [v["variant"] for v in report["variants"]]
        assert names == ["full"] + list(ABLATION_FLAGS)

    def test_pathway_clamps_reflected_in_gate_mean(self, ablation_result):
        report, _ = ablation_result
        by_name = {v["variant"]: v for v in report["variants"]}
        assert by_name["no_rea"]["aggregate"]["gate_mean"]["mean"] == 0.0
        assert by_name["no_int"]["aggregate"]["gate_mean"]["mean"] == 1.0
        full_gate = by_name["full"]["aggregate"]["gate_mean"]["mean"]
        assert 0.0 < full_gate < 1.0

    def test_all_variants_share_the_dataset(self, ablation_result):
        report, _ = ablation_result
        digests = {v["dataset_digest"] for v in report["variants"]}
        assert len(digests) == 1

    def test_files_written(self, ablation_result):
        _, out = ablation_result
        assert (out / "ablation_report.json").exists()
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 7 * len(TINY.seeds)


class TestRunRobustness:
    def test_zero_sigma_equals_clean_metrics(self, robustness_result):
        report, _ = robustness_result
        for ps in report["per_seed"]:
            zero_row = ps["by_sigma"][0]
            assert zero_row["sigma"] == 0.0
            assert zero_row["acc"] == ps["clean"]["acc"]
            assert zero_row["macro_f1"] == ps["clean"]["macro_f1"]

    def test_zero_sigma_runs_no_forward(self, tmp_path, monkeypatch):
        """Sigma 0 reuses the clean test forward; every other sigma tests
        all seeds' models in one stacked forward."""
        cfg = replace(TINY, seeds=(0, 1), sigmas=(0.0, 0.5, 0.9))
        calls = []
        real = experiments.eval_forward

        def counting(model, data):
            calls.append(model.stack_size)
            return real(model, data)

        monkeypatch.setattr(experiments, "eval_forward", counting)
        run_robustness(cfg, str(tmp_path))
        # the clean test forward of train_runs, then one per nonzero sigma
        assert calls == [2, 2, 2]

    def test_by_sigma_mean_matches_recomputation(self, robustness_result):
        report, _ = robustness_result
        row = report["by_sigma_mean"][1]
        accs = [ps["by_sigma"][1]["acc"] for ps in report["per_seed"]]
        assert row["acc"]["mean"] == pytest.approx(float(np.mean(accs)), abs=1e-15)

    def test_a_repeated_sigma_keeps_each_of_its_draws(self, tmp_path):
        """Each sigma's noise is drawn for its position in the list, so a
        repeated sigma's rows are those of its two positions."""
        def rows(sigmas):
            report = run_robustness(replace(TINY, sigmas=sigmas), str(tmp_path))
            return report["per_seed"][0]["by_sigma"]

        repeated = rows((1.0, 0.3, 1.0))
        assert repeated[0] == rows((1.0,))[0]
        assert repeated[2] == rows((0.0, 0.0, 1.0))[2]
        assert repeated[0] != repeated[2]

    def test_notes_the_noisy_modality(self, robustness_result):
        report, _ = robustness_result
        assert report["noise_modality"] == "text"

    def test_files_written(self, robustness_result):
        _, out = robustness_result
        assert (out / "robustness_report.json").exists()
        lines = (out / "robustness.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + len(TINY.seeds) * len(TINY.sigmas)


class TestCli:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv(OUT_ENV_VAR, raising=False)

    def test_gen_train_eval_flow(self, tmp_path, capsys):
        cfg = tiny_config_json(tmp_path)
        out = tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("train.bin", "val.bin", "test.bin", "digests.json"):
            assert (out / name).exists(), name

        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "model_seed0.ckpt"
        assert ckpt.exists()
        assert (out / "history_seed0.csv").exists()
        assert (out / "train_seed0.json").exists()
        capsys.readouterr()

        assert main(["eval", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert "metrics" in printed

        assert main(["eval", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(ckpt),
                     "--data", str(out / "test.bin")]) == 0

    def test_eval_rejects_mismatched_data(self, tmp_path, capsys):
        cfg = tiny_config_json(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        other_cfg = tiny_config_json(
            other_dir,
            dataset={"num_classes": 3, "feature_dim": 12, "n_train": 30,
                     "n_val": 10, "n_test": 10, "seed": 1})
        other_out = tmp_path / "other_run"
        assert main(["gen", "--config", str(other_cfg), "--out", str(other_out)]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(out / "model_seed0.ckpt"),
                     "--data", str(other_out / "test.bin")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"

    def test_eval_checks_the_dims_of_the_generated_split(self, tmp_path, capsys):
        """Without --data, eval scores the config's test split, whose dims
        come from the config's dataset: a class count other than the
        checkpoint's fails instead of scoring the model's unused class."""
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config_json(tmp_path)),
                     "--out", str(out)]) == 0
        other = tmp_path / "other"
        other.mkdir()
        cfg = tiny_config_json(other, dataset={"num_classes": 2, "feature_dim": 8,
                                               "n_train": 96, "n_val": 32, "n_test": 32,
                                               "seed": 13})
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(out / "model_seed0.ckpt")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValueError"
        assert "[2, 8] do not match the checkpoint's [3, 8]" in record["message"]

    def test_eval_scores_the_clamp_the_checkpoint_holds(self, tmp_path, capsys):
        """A plain eval of a `train --no-int` checkpoint prints the test
        metrics train reported for it: the clamp comes from the file."""
        cfg = tiny_config_json(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--no-int"]) == 0
        trained = json.loads(capsys.readouterr().out)
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     trained["checkpoint"]]) == 0
        assert json.loads(capsys.readouterr().out)["metrics"] == trained["metrics"]

    def test_eval_rejects_nonfinite_checkpoint(self, tmp_path, capsys):
        cfg = tiny_config_json(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "model_seed0.ckpt"
        model = load_checkpoint(ckpt)
        bias = model.params()["head.bias"]
        bias.data = bias.data.copy()
        bias.data[0] = np.nan
        save_checkpoint(ckpt, model)
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(ckpt)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValueError"
        assert "'head.bias' holds a non-finite" in record["message"]

    def test_gen_rejects_a_nan_noise_std(self, tmp_path, capsys):
        cfg = tiny_config_json(tmp_path, dataset={"noise_std": float("nan")})
        assert "NaN" in cfg.read_text()
        out = tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValueError" and "noise_std" in record["message"]
        assert not out.exists() or not any(out.glob("*.bin"))

    def test_errors_are_json_records(self, tmp_path, capsys):
        cfg = tiny_config_json(tmp_path)
        code = main(["eval", "--config", str(cfg), "--out", str(tmp_path),
                     "--checkpoint", str(tmp_path / "missing.ckpt")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "FileNotFoundError"
        assert "message" in record

    def test_gradcheck_passes_on_tiny_config(self, tmp_path, capsys):
        cfg = tiny_config_json(tmp_path)
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["passed"] is True
        assert printed["max_rel_error"] < 1e-4
        assert sum(printed["resampled_by_kind"].values()) == printed["resampled"]

    @pytest.mark.parametrize("checked,skipped", [(0, 0), (5, 3)])
    def test_gradcheck_fails_without_full_coverage(self, tmp_path, capsys,
                                                   monkeypatch, checked, skipped):
        import dualpath.cli as cli
        from dualpath.trainer import GradCheckResult

        partial = GradCheckResult(max_rel_error=0.0, per_group={"w": 0.0},
                                  coords_checked=checked, resampled=12,
                                  skipped=skipped,
                                  resampled_by_kind={"norm_floor": 12})
        monkeypatch.setattr(cli, "grad_check", lambda *a, **kw: partial)
        cfg = tiny_config_json(tmp_path)
        assert main(["gradcheck", "--config", str(cfg)]) == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["passed"] is False
        assert printed["coords_checked"] == checked
        assert printed["resampled_by_kind"] == {"norm_floor": 12}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gradcheck_fails_on_a_nonfinite_gradient(self, tmp_path, capsys,
                                                     monkeypatch, bad):
        import dualpath.cli as cli
        from dualpath.trainer import grad_check

        def corrupt(grads):
            grads["head.weight"][...] = bad

        monkeypatch.setattr(cli, "grad_check",
                            lambda *a, **kw: grad_check(*a, corrupt_hook=corrupt, **kw))
        assert main(["gradcheck", "--config", str(tiny_config_json(tmp_path))]) == 1

        def reject(token):
            raise AssertionError(f"{token} is not JSON")

        printed = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert printed["passed"] is False and printed["max_rel_error"] is None

    @pytest.mark.parametrize("flag", ["no_int", "no_rea"])
    def test_gradcheck_rejects_pathway_flags(self, tmp_path, capsys, flag):
        """The check certifies the full model, so a pathway switch, from
        the command line or the config file, fails loudly."""
        cli_flag = "--" + flag.replace("_", "-")
        assert main(["gradcheck", "--config", str(tiny_config_json(tmp_path)), cli_flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValueError" and cli_flag in record["message"]
        cfg = tiny_config_json(tmp_path, **{flag: True})
        assert main(["gradcheck", "--config", str(cfg)]) == 1
        assert cli_flag in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("flag", ABLATION_FLAGS)
    def test_ablate_rejects_every_switch(self, tmp_path, capsys, flag):
        """The grid sets every switch itself, so a switch from the command
        line or the config file fails loudly before anything runs."""
        cli_flag = "--" + flag.replace("_", "-")
        out = tmp_path / "grid"
        assert main(["ablate", "--config", str(tiny_config_json(tmp_path)),
                     "--out", str(out), cli_flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValueError" and cli_flag in record["message"]
        cfg = tiny_config_json(tmp_path, **{flag: True})
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 1
        assert cli_flag in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [("gen", "seed")] + [
        ("gen", flag) for flag in ABLATION_FLAGS] + [
        ("eval", flag) for flag in ("seed",) + ABLATION_FLAGS])
    def test_gen_and_eval_reject_flags_they_would_ignore(self, tmp_path, capsys,
                                                         command, flag):
        """`gen` draws its splits from dataset.seed, and `eval` trains
        nothing and scores the gate clamp its checkpoint holds, so such a
        flag fails before anything is read or written."""
        cli_flag = "--" + flag.replace("_", "-")
        out = tmp_path / "run"
        argv = [command, "--config", str(tiny_config_json(tmp_path)), "--out", str(out),
                cli_flag] + (["5"] if flag == "seed" else [])
        if command == "eval":
            argv += ["--checkpoint", str(tmp_path / "missing.ckpt")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValueError" and cli_flag in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,named", [
        (command, flags, named) for command in ("main", "ablate", "robust")
        for flags, named in ((["--seed", "3", "--seeds", "1,2"], "--seeds"),
                             (["--seeds", ""], "--seeds"))] + [
        ("robust", ["--sigmas", ""], "--sigmas")])
    def test_sweeps_reject_seed_and_sigma_flags_they_would_drop(self, tmp_path, capsys,
                                                                command, flags, named):
        """`--seed` with `--seeds`, or an empty list, fails before anything
        runs instead of falling back to other seeds or noise levels."""
        out = tmp_path / "run"
        assert main([command, "--config", str(tiny_config_json(tmp_path)),
                     "--out", str(out)] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValueError" and named in record["message"]
        assert not out.exists()

    def test_gen_and_eval_take_switches_from_the_config_file(self, tmp_path, capsys):
        """One config file serves every subcommand, so its switches pass."""
        cfg = tiny_config_json(tmp_path, no_int=True, no_sim=True, no_uni=True)
        out = tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "train.bin").exists()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--checkpoint",
                     str(out / "model_seed0.ckpt")]) == 0
        assert "metrics" in json.loads(capsys.readouterr().out)

    def test_env_var_overrides_out_flag(self, tmp_path, monkeypatch):
        cfg = tiny_config_json(tmp_path)
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
        assert main(["gen", "--config", str(cfg), "--out", str(flag_dir)]) == 0
        assert (env_dir / "train.bin").exists()
        assert not flag_dir.exists()

    def test_seeds_flag_is_parsed(self, tmp_path, capsys):
        cfg = tiny_config_json(tmp_path)
        out = tmp_path / "multi"
        assert main(["main", "--config", str(cfg), "--out", str(out),
                     "--seeds", "0,1"]) == 0
        report = json.loads((out / "main_report.json").read_text())
        assert report["n_seeds"] == 2
        assert [r["seed"] for r in report["per_seed"]] == [0, 1]

    def test_ablation_flag_is_plumbed(self, tmp_path, capsys):
        cfg = tiny_config_json(tmp_path)
        out = tmp_path / "norea"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--no-rea"]) == 0
        result = json.loads((out / "train_seed0.json").read_text())
        assert result["gating"]["gate_mean"] == 0.0

    def test_report_command_summarizes(self, tmp_path, capsys):
        out = tmp_path / "rep"
        run_main(TINY, str(out))
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "main_report.json" in text
        assert "gate higher on conflict" in text

    def test_report_command_fails_on_empty_dir(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path)])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "FileNotFoundError"
