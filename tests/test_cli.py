import argparse
import csv
import dataclasses
import json
import math
import os
import platform
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftssd import cli
from shiftssd import data as DT
from shiftssd import detector as D
from shiftssd import harness as H
from shiftssd import ssa as S
from shiftssd import tensor as T


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def small_config_file(tmp_path):
    config = {
        "synth": {
            "extent": 14.0,
            "points_per_scene": 96,
            "noise_points": 48,
            "objects_min": 1,
            "objects_max": 2,
            "classes": [
                {"name": "crate", "mean_size": [2.0, 1.2, 1.0], "size_jitter": [0.2, 0.1, 0.1]},
                {"name": "post", "mean_size": [0.6, 0.6, 1.6], "size_jitter": [0.05, 0.05, 0.1]},
            ],
        },
        "model": {
            "stage_points": [24, 8],
            "stage_ssa": [
                {
                    "scales": [
                        {"radius": 1.0, "k": 4, "mlp": [8]},
                        {"radius": 2.0, "k": 8, "mlp": [8]},
                    ],
                    "shift_ratio": 0.125,
                    "aggregation": [12],
                    "exchange_op": "cs",
                    "selection": "farthest",
                },
                {
                    "scales": [
                        {"radius": 2.0, "k": 4, "mlp": [12]},
                        {"radius": 4.0, "k": 8, "mlp": [12]},
                    ],
                    "shift_ratio": 0.125,
                    "aggregation": [16],
                    "exchange_op": "cs",
                    "selection": "farthest",
                },
            ],
            "num_classes": 2,
            "anchors": [[2.0, 1.2, 1.0], [0.6, 0.6, 1.6]],
            "vote_hidden": [12],
            "agg_radius": 3.0,
            "agg_k": 8,
            "agg_f": [16],
            "agg_a": [16],
            "head_hidden": [12],
            "angle_bins": 4,
            "score_threshold": 0.2,
        },
        "train": {"epochs": 3, "peak_lr": 0.005},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def set_class_id(label_path, value):
    labels = json.loads(label_path.read_text())
    labels[0]["class_id"] = value
    label_path.write_text(json.dumps(labels))


def nan_first_point(cloud_path):
    rows = np.fromfile(cloud_path, dtype="<f4")
    rows[0] = np.nan
    rows.tofile(cloud_path)


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        assert run(["gen", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_seed_exits_1(self, tmp_path, capsys):
        assert run(["gen", "--scenes", 1, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "seed" in err

    def test_unknown_subcommand_exits_1(self):
        assert run(["frobnicate", "--seed", 1]) == 1

    def test_flags_match_readme(self):
        # each subcommand takes exactly the flags of its row in the README's flag table
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| subcommand | flags |\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
        documented = {names[0]: set(names[1:]) for names in (re.findall(r"`([^`]+)`", row) for row in table)}
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        taken = {
            name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, parser in subparsers.choices.items()
        }
        assert taken == documented

    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        code = run(["train", "--data", missing, "--out", tmp_path / "o", "--seed", 1])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: set_class_id(d / "scene_0000.json", 0), "scene_0000.json: label 0 malformed: class_id"),
            (lambda d: set_class_id(d / "scene_0000.json", 1.9), "scene_0000.json: label 0 malformed: class_id"),
            (lambda d: set_class_id(d / "scene_0000.json", True), "scene_0000.json: label 0 malformed: class_id"),
            (lambda d: nan_first_point(d / "scene_0000.bin"), "scene_0000.bin: non-finite positions"),
        ],
        ids=["class_id_0", "class_id_1.9", "class_id_true", "cloud_nan"],
    )
    def test_corrupt_dataset_exits_2_naming_file(self, tmp_path, small_config_file, capsys, corrupt, message):
        data_dir, out = tmp_path / "data", tmp_path / "out"
        assert run(["gen", "--scenes", 1, "--out", data_dir, "--seed", 11, "--config", small_config_file]) == 0
        corrupt(data_dir)
        capsys.readouterr()
        code = run(["train", "--data", data_dir, "--out", out, "--seed", 1, "--config", small_config_file, "--epochs", 1])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["train", "ablate"])
    def test_label_class_beyond_model_exits_2_naming_file(self, tmp_path, small_config_file, capsys, subcommand):
        # the small config's model has 2 classes; class 3 is a valid label for no logit
        data_dir, out = tmp_path / "data", tmp_path / "out"
        assert run(["gen", "--scenes", 2, "--out", data_dir, "--seed", 11, "--config", small_config_file]) == 0
        set_class_id(data_dir / "scene_0001.json", 3)
        capsys.readouterr()
        code = run([subcommand, "--data", data_dir, "--out", out, "--seed", 1, "--config", small_config_file, "--epochs", 1])
        assert code == 2
        assert "scene_0001.json: label 0 has class_id 3, but the model has 2 classes" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))  # neither --out nor its manifest

    @pytest.mark.parametrize("subcommand", ["train", "ablate", "probe", "bench"])
    def test_empty_dataset_exits_2_naming_directory(self, tmp_path, small_config_file, capsys, subcommand):
        empty = tmp_path / "empty"
        empty.mkdir()
        argv = [subcommand, "--data", empty, "--out", tmp_path / "out", "--seed", 1]
        if subcommand != "probe":
            argv += ["--config", small_config_file]
        else:
            model = cli.config_from_dict(D.ModelConfig, json.loads(Path(small_config_file).read_text())["model"])
            ckpt = tmp_path / "model.ckpt"
            meta = {"model_config": dataclasses.asdict(model)}
            T.save_checkpoint(ckpt, D.init_model_params(model, seed=0).named(), meta=meta)
            argv += ["--model", ckpt]
        capsys.readouterr()
        assert run(argv) == 2
        assert f"dataset directory {empty} holds no scene" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))  # neither --out nor its manifest
        assert list(empty.iterdir()) == []

    def test_config_naming_in_channels_exits_1(self, tmp_path, trained_model, small_config_file, capsys):
        # the cloud format fixes the input width, so no config names it
        data_dir, _ = trained_model
        config = json.loads(Path(small_config_file).read_text())
        config["model"]["in_channels"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        fresh = tmp_path / "fresh"
        capsys.readouterr()
        assert run(["bench", "--data", data_dir, "--out", fresh / "bench.csv", "--seed", 1, "--config", bad]) == 1
        assert "model.in_channels: unknown key" in capsys.readouterr().err
        assert not fresh.exists()

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda c: c["model"]["stage_ssa"][0].update(shift_ratio=2), "model.stage_ssa[0]: shift_ratio"),
            (lambda c: c["model"]["stage_ssa"][0]["scales"][1].update(k="4"), "model.stage_ssa[0].scales[1].k"),
            (lambda c: c["model"]["stage_ssa"][0].update(scales=[]), "model.stage_ssa[0]: at least one scale"),
            (lambda c: c["train"].update(epoch=3), "train.epoch: unknown key"),
            (lambda c: c["synth"]["classes"][0].update(mean_size=[1.0, 2.0]), "synth.classes[0].mean_size"),
            (lambda c: c.update(trian={}), "trian: unknown key"),
            (lambda c: c["train"].update(peak_lr=float("nan")), "train: peak_lr"),
            (lambda c: c["model"].update(score_threshold=float("nan")), "model: score_threshold"),
            (lambda c: c["model"].update(nms_iou=-1), "model: nms_iou must lie in [0, 1]"),
            (lambda c: c["model"].update(nms_iou=2.0), "model: nms_iou must lie in [0, 1]"),
            (lambda c: c["model"].update(score_threshold=5.0), "model: score_threshold must lie in [0, 1]"),
            (lambda c: c["model"].update(agg_k=0), "model: agg_k"),
            (lambda c: c["model"].update(agg_radius=-1), "model: agg_radius"),
            (lambda c: c["model"].update(agg_f=[]), "model: agg_f"),
            (lambda c: c["model"].update(agg_a=[16, 0]), "model: agg_a"),
            (lambda c: c["model"]["stage_ssa"][0]["scales"][0].update(mlp=[0]), "model.stage_ssa[0].scales[0]: scale mlp"),
            (lambda c: c["model"].update(stage_points=[24, 0]), "model: stage_points"),
            (lambda c: c["model"]["stage_ssa"][1]["scales"][0].update(radius=float("nan")),
             "model.stage_ssa[1].scales[0]: scale radius"),
            (lambda c: c["model"]["stage_ssa"][0].update(r_prime=float("nan")), "model.stage_ssa[0]: r_prime"),
            (lambda c: c["model"]["stage_ssa"][0]["scales"][1].update(radius=1e308), "model.stage_ssa[0]: r_prime"),
            (lambda c: c["model"]["stage_ssa"][0].update(candidate_k=0), "model.stage_ssa[0]: candidate_k"),
            (lambda c: c["model"]["stage_ssa"][1].update(aggregation=[0]), "model.stage_ssa[1]: aggregation"),
            (lambda c: c["synth"].update(point_jitter=-1), "synth.point_jitter: unknown key"),
            (lambda c: c["synth"]["classes"][1].update(mean_size=[0.6, 0.0, 1.6]), "synth.classes[1]: mean_size"),
            (lambda c: c["synth"]["classes"][0].update(size_jitter=[0.2, 1.5, 0.1]), "synth.classes[0]: size_jitter"),
            (lambda c: c["model"].update(in_channels=1), "model.in_channels: unknown key"),
            # the Adam, one-cycle, clutter-height, jitter and assignment-margin constants are no config keys
            (lambda c: c["train"].update(beta1=0.9), "train.beta1: unknown key"),
            (lambda c: c["train"].update(beta2=0.999), "train.beta2: unknown key"),
            (lambda c: c["train"].update(adam_eps=1e-8), "train.adam_eps: unknown key"),
            (lambda c: c["train"].update(warmup_frac=0.3), "train.warmup_frac: unknown key"),
            (lambda c: c["train"].update(div_factor=25.0), "train.div_factor: unknown key"),
            (lambda c: c["train"].update(final_div_factor=1e4), "train.final_div_factor: unknown key"),
            (lambda c: c["synth"].update(noise_height=2.0), "synth.noise_height: unknown key"),
            (lambda c: c["model"].update(assign_margin=float("nan")), "model.assign_margin: unknown key"),
            (lambda c: c["model"]["anchors"][1].__setitem__(0, 0.0), "model: anchor sizes"),
            (lambda c: c["synth"].update(extent=2.5), "synth: extent 2.5 is below the largest class's BEV diagonal"),
            (lambda c: c["synth"].update(extent=float("nan")), "synth: extent must be finite and positive"),
            (lambda c: c["synth"].update(points_per_scene=10), "synth: config cannot guarantee 8 surface points"),
            (lambda c: c["synth"].update(noise_points=-50), "synth: noise_points must be >= 0"),
            (lambda c: c["train"].update(peak_lr=10**400), "train.peak_lr: int too large to convert to float"),
            (lambda c: c["model"]["stage_ssa"][0]["scales"][0].update(radius=10**400),
             "model.stage_ssa[0].scales[0].radius: int too large to convert to float"),
        ],
        ids=[
            "rejected_value", "wrong_type", "empty_scales", "unknown_key", "tuple_length", "unknown_section",
            "nan_lr", "nan_score_threshold", "nms_iou_negative", "nms_iou_2", "score_threshold_5", "agg_k_0", "agg_radius_negative", "agg_f_empty",
            "agg_a_width_0", "scale_width_0", "stage_points_0", "scale_radius_nan", "r_prime_nan",
            "derived_r_prime_overflow", "candidate_k_0", "aggregation_width_0", "point_jitter_negative", "mean_size_0",
            "size_jitter_above_mean", "in_channels_unknown", "beta1_unknown", "beta2_unknown", "adam_eps_unknown",
            "warmup_frac_unknown", "div_factor_unknown", "final_div_factor_unknown", "noise_height_unknown",
            "assign_margin_nan", "anchor_size_0",
            "extent_below_diagonal", "extent_nan", "points_per_scene_10", "noise_points_negative",
            "peak_lr_beyond_float", "radius_beyond_float",
        ],
    )
    def test_malformed_config_exits_1(self, tmp_path, small_config_file, capsys, edit, where):
        config = json.loads(Path(small_config_file).read_text())
        edit(config)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "data"
        assert run(["gen", "--scenes", 1, "--out", out, "--seed", 1, "--config", bad]) == 1
        err = capsys.readouterr().err
        assert where in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("subcommand", ["train", "ablate"])
    def test_seed_in_config_exits_1(self, tmp_path, trained_model, small_config_file, capsys, subcommand):
        # --seed is the only seed; a config file's train.seed would be silently overridden
        data_dir, _ = trained_model
        config = json.loads(Path(small_config_file).read_text())
        config["train"]["seed"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        fresh = tmp_path / "fresh"
        out = fresh / ("run" if subcommand == "train" else "ablate.csv")
        capsys.readouterr()
        assert run([subcommand, "--data", data_dir, "--out", out, "--seed", 3, "--config", bad, "--epochs", 1]) == 1
        err = capsys.readouterr().err
        assert "train.seed" in err and "--seed" in err and "Traceback" not in err
        assert not fresh.exists()  # neither an output nor a manifest

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["train", "--data", "{data}", "--epochs", 0], "--epochs"),
            (["train", "--data", "{data}", "--lr", -0.5], "--lr"),
            (["train", "--data", "{data}", "--lr", "nan"], "--lr"),
            (["ablate", "--data", "{data}", "--epochs", 0], "--epochs"),
            (["gen", "--scenes", 0], "--scenes"),
            (["probe", "--model", "{ckpt}", "--data", "{data}", "--scenes", -1], "--scenes"),
            (["detect", "--model", "{ckpt}", "--in", "{scene}", "--score-threshold", "nan"], "--score-threshold"),
            (["detect", "--model", "{ckpt}", "--in", "{scene}", "--score-threshold", 5], "--score-threshold"),
            (["detect", "--model", "{ckpt}", "--in", "{scene}", "--score-threshold", -1], "--score-threshold"),
            (["bench", "--data", "{data}", "--reps", 5], "--reps"),
            # retired flags: their settings are constants or --config keys, and any value is refused
            (["gen", "--scenes", 1, "--points", 10], "unrecognized arguments: --points"),
            (["gen", "--scenes", 1, "--extent", "nan"], "unrecognized arguments: --extent"),
            (["gen", "--scenes", 1, "--noise", -50], "unrecognized arguments: --noise"),
            (["gen", "--scenes", 1, "--extent", 4.5], "unrecognized arguments: --extent"),
            (["gen", "--scenes", 1, "--objects-min", 1], "unrecognized arguments: --objects-min"),
            (["gen", "--scenes", 1, "--objects-max", 1], "unrecognized arguments: --objects-max"),
            (["detect", "--model", "{ckpt}", "--in", "{scene}", "--nms-iou", 0.25], "unrecognized arguments: --nms-iou"),
            (["probe", "--model", "{ckpt}", "--data", "{data}", "--eps", "inf"], "unrecognized arguments: --eps"),
            (["probe", "--model", "{ckpt}", "--data", "{data}", "--tol", "nan"], "unrecognized arguments: --tol"),
            (["gradcheck", "--eps", 0], "unrecognized arguments: --eps"),
            (["gradcheck", "--tol", "nan"], "unrecognized arguments: --tol"),
        ],
        ids=["train_epochs_0", "train_lr_negative", "train_lr_nan", "ablate_epochs_0",
             "gen_scenes_0", "probe_scenes_negative", "detect_score_threshold_nan",
             "detect_score_threshold_5", "detect_score_threshold_negative", "bench_reps_5",
             "gen_points_10", "gen_extent_nan", "gen_noise_negative", "gen_extent_below_diagonal",
             "gen_objects_min", "gen_objects_max", "detect_nms_iou", "probe_eps_inf", "probe_tol_nan",
             "gradcheck_eps_0", "gradcheck_tol_nan"],
    )
    def test_rejected_flag_exits_1(self, tmp_path, trained_model, capsys, argv, flag):
        data_dir, ckpt = trained_model
        paths = {"data": data_dir, "ckpt": ckpt, "scene": data_dir / "scene_0000.bin"}
        fresh = tmp_path / "fresh"
        out = ["--manifest", fresh / "gradcheck.json"] if argv[0] == "gradcheck" else ["--out", fresh / "out"]
        argv = [str(a).format(**paths) for a in argv] + out + ["--seed", 1]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and "--seed" not in err and "Traceback" not in err
        assert not fresh.exists()  # neither an output nor a manifest

    def test_two_rejected_flags_name_the_first(self, tmp_path, trained_model, capsys):
        # flags apply one at a time (--seed, --epochs, --lr), so the first rejected one is named alone
        data_dir, _ = trained_model
        fresh = tmp_path / "fresh"
        capsys.readouterr()
        assert run(["train", "--data", data_dir, "--out", fresh, "--seed", 1, "--epochs", 0, "--lr", "nan"]) == 1
        err = capsys.readouterr().err
        assert "usage error: --epochs: epochs must be >= 1" in err and "--lr" not in err
        assert not fresh.exists()  # neither an output nor a manifest

    @pytest.mark.parametrize("config", ["small", "missing"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--model", "{ckpt}", "--in", "{scene}"],
            ["probe", "--model", "{ckpt}", "--data", "{data}"],
            ["gradcheck"],
        ],
        ids=["detect", "probe", "gradcheck"],
    )
    def test_config_on_subcommand_that_reads_none_exits_1(
        self, tmp_path, trained_model, small_config_file, capsys, argv, config
    ):
        # these subcommands take their model from a checkpoint or build none
        data_dir, ckpt = trained_model
        paths = {"data": data_dir, "ckpt": ckpt, "scene": data_dir / "scene_0000.bin"}
        config_path = small_config_file if config == "small" else tmp_path / "nope.json"
        fresh = tmp_path / "fresh"
        out = ["--manifest", fresh / "gradcheck.json"] if argv[0] == "gradcheck" else ["--out", fresh / "out"]
        argv = [str(a).format(**paths) for a in argv] + out + ["--seed", 1, "--config", config_path]
        capsys.readouterr()
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --config" in captured.err and captured.out == ""
        assert not fresh.exists()  # neither an output nor a manifest


class TestGen:
    def test_scene_count_contract(self, tmp_path, small_config_file):
        out = tmp_path / "data"
        code = run(
            ["gen", "--scenes", 4, "--out", out, "--seed", 7, "--config", small_config_file]
        )
        assert code == 0
        assert len(list(out.glob("*.bin"))) == 4
        assert len(list(out.glob("*.json"))) == 4 + 1  # manifest.json included

    def test_manifest_contents(self, tmp_path, small_config_file):
        out = tmp_path / "data"
        run(["gen", "--scenes", 2, "--out", out, "--seed", 7, "--config", small_config_file])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "gen"
        assert manifest["seed"] == 7
        assert manifest["status"] == "ok"
        assert "wall_time_s" in manifest
        assert len(manifest["outputs"]) == 4
        assert manifest["cpu_count"] == os.cpu_count()
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__

    def test_manifest_records_blas_threads(self, tmp_path, small_config_file, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        run(["gen", "--scenes", 1, "--out", tmp_path / "data", "--seed", 7, "--config", small_config_file])
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        assert manifest["OPENBLAS_NUM_THREADS"] == "2"
        assert manifest["OMP_NUM_THREADS"] is None

    def test_manifest_git_is_the_package_revision(self, tmp_path, small_config_file, monkeypatch):
        # the revision of the checkout the code runs from, not of the cwd
        try:
            described = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=10, cwd=Path(cli.__file__).resolve().parent,
            ).stdout.strip()
        except OSError:
            described = ""
        monkeypatch.chdir(tmp_path)
        run(["gen", "--scenes", 1, "--out", "data", "--seed", 7, "--config", small_config_file])
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        assert manifest["git"] == (described or "unknown")

    def test_byte_identical_rerun(self, tmp_path, small_config_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run(["gen", "--scenes", 2, "--out", out, "--seed", 9, "--config", small_config_file])
        for name in ("scene_0000.bin", "scene_0000.json", "scene_0001.bin"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.fixture()
def trained_model(tmp_path, small_config_file):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    assert run(["gen", "--scenes", 2, "--out", data_dir, "--seed", 11, "--config", small_config_file]) == 0
    assert (
        run(
            [
                "train", "--data", data_dir, "--out", run_dir, "--seed", 11,
                "--config", small_config_file, "--epochs", 2,
            ]
        )
        == 0
    )
    return data_dir, run_dir / "model.ckpt"


def with_recorded_key(ckpt, path, key, value):
    """A copy of checkpoint ckpt at path whose model config records key: value."""
    header, blob = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["meta"]["model_config"][key] = value
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    return path


class TestTrainDetect:
    def test_train_outputs(self, trained_model):
        _, ckpt = trained_model
        assert ckpt.exists()
        lines = (ckpt.parent / "loss.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 1 + 2  # header + one row per epoch
        manifest = json.loads((ckpt.parent / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        _, meta = T.load_checkpoint(ckpt)
        assert meta == {"model_config": manifest["config"]["model"], "train_config": manifest["config"]["train"]}

    def test_flag_overrides_config_file(self, trained_model, small_config_file):
        # the fixture trains with --epochs 2 under a config file whose train.epochs is 3
        _, ckpt = trained_model
        assert json.loads(Path(small_config_file).read_text())["train"] == {"epochs": 3, "peak_lr": 0.005}
        manifest = json.loads((ckpt.parent / "manifest.json").read_text())
        assert manifest["config"]["train"]["epochs"] == 2
        assert manifest["config"]["train"]["peak_lr"] == 0.005
        assert len((ckpt.parent / "loss.csv").read_text().splitlines()) == 1 + 2

    def test_checkpoint_with_resolved_defaults_detects_the_same(self, tmp_path, trained_model):
        # older checkpoints record the derived r_prime and candidate_k explicitly
        data_dir, ckpt = trained_model
        header, blob = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        stages = header["meta"]["model_config"]["stage_ssa"]
        assert [(s["r_prime"], s["candidate_k"]) for s in stages] == [(None, None)] * len(stages)
        config = cli.config_from_dict(D.ModelConfig, header["meta"]["model_config"])
        header["meta"]["model_config"]["stage_ssa"] = [dataclasses.asdict(c.resolved()) for c in config.stage_ssa]
        assert [(s["r_prime"], s["candidate_k"]) for s in header["meta"]["model_config"]["stage_ssa"]] == [
            (4.0, 8), (8.0, 8)
        ]
        explicit = tmp_path / "explicit.ckpt"
        explicit.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        outs = []
        for model in (ckpt, explicit):
            out = tmp_path / f"{model.stem}.jsonl"
            assert run([
                "detect", "--model", model, "--in", data_dir / "scene_0000.bin",
                "--out", out, "--seed", 5, "--score-threshold", 0.0,
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] and outs[0] == outs[1]

    # older checkpoints record in_channels 1 (the cloud format's width) and assign_margin 0.9
    @pytest.mark.parametrize("key, value", [("in_channels", 1), ("assign_margin", 0.9)])
    def test_checkpoint_recording_retired_key_detects_the_same(self, tmp_path, trained_model, key, value):
        data_dir, ckpt = trained_model
        assert cli.RETIRED_MODEL_KEYS[key] == value
        assert key not in T.load_checkpoint(ckpt)[1]["model_config"]
        legacy = with_recorded_key(ckpt, tmp_path / "legacy.ckpt", key, value)
        assert cli._load_model(legacy)[0] == cli._load_model(ckpt)[0]
        outs = []
        for model in (ckpt, legacy):
            out = tmp_path / f"{model.stem}.jsonl"
            assert run([
                "detect", "--model", model, "--in", data_dir / "scene_0000.bin",
                "--out", out, "--seed", 5, "--score-threshold", 0.0,
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] and outs[0] == outs[1]

    @staticmethod
    def _assert_recorded_key_exits_2(tmp_path, trained_model, capsys, key, value):
        data_dir, ckpt = trained_model
        bad = with_recorded_key(ckpt, tmp_path / "bad.ckpt", key, value)
        out = tmp_path / "dets.jsonl"
        capsys.readouterr()
        assert run(["detect", "--model", bad, "--in", data_dir / "scene_0000.bin", "--out", out, "--seed", 5]) == 2
        assert f"{bad}: model_config.{key}: unknown key" in capsys.readouterr().err
        assert not list(tmp_path.glob("dets*"))  # neither --out nor its manifest

    @pytest.mark.parametrize("width", [2, 0, 1.0, True])
    def test_checkpoint_recording_other_in_channels_exits_2(self, tmp_path, trained_model, capsys, width):
        self._assert_recorded_key_exits_2(tmp_path, trained_model, capsys, "in_channels", width)

    def test_checkpoint_recording_other_assign_margin_exits_2(self, tmp_path, trained_model, capsys):
        self._assert_recorded_key_exits_2(tmp_path, trained_model, capsys, "assign_margin", 0.5)

    def test_checkpoint_with_extra_tensor_exits_2_naming_it(self, tmp_path, trained_model, capsys):
        data_dir, ckpt = trained_model
        arrays, meta = T.load_checkpoint(ckpt)
        named = [(name, T.Tensor(values)) for name, values in arrays.items()]
        bad = tmp_path / "extra.ckpt"
        T.save_checkpoint(bad, named + [("bogus.weight", T.Tensor(np.ones((2, 2))))], meta=meta)
        out = tmp_path / "dets.jsonl"
        capsys.readouterr()
        assert run(["detect", "--model", bad, "--in", data_dir / "scene_0000.bin", "--out", out, "--seed", 5]) == 2
        assert f"{bad}: checkpoint tensor bogus.weight is not in the model" in capsys.readouterr().err
        assert not list(tmp_path.glob("dets*"))  # neither --out nor its manifest

    @pytest.mark.parametrize("subcommand", ["detect", "probe"])
    def test_checkpoint_with_non_finite_weight_exits_2_naming_it(self, tmp_path, trained_model, capsys, subcommand):
        data_dir, ckpt = trained_model
        header, blob = ckpt.read_bytes().split(b"\n", 1)
        name = json.loads(header)["tensors"][0]["name"]
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(header + b"\n" + np.array([np.nan], dtype="<f8").tobytes() + blob[8:])
        source = ["--in", data_dir / "scene_0000.bin"] if subcommand == "detect" else ["--data", data_dir]
        fresh = tmp_path / "fresh"
        capsys.readouterr()
        assert run([subcommand, "--model", bad, *source, "--out", fresh / "out", "--seed", 5]) == 2
        assert f"{bad}: checkpoint tensor {name} holds non-finite values" in capsys.readouterr().err
        assert not fresh.exists()  # neither --out nor its manifest

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_divergence_writes_failure_dump(self, tmp_path, trained_model, small_config_file, capsys):
        data_dir, _ = trained_model
        run_dir = tmp_path / "diverged"
        code = run(
            [
                "train", "--data", data_dir, "--out", run_dir, "--seed", 11,
                "--config", small_config_file, "--epochs", 2, "--lr", 1e30,
            ]
        )
        assert code == 2
        assert "non-finite loss at epoch 0" in capsys.readouterr().err
        dump = json.loads((run_dir / "model.ckpt.failure.json").read_text())
        assert dump["epoch"] == 0 and dump["scene_id"].startswith("scene_")
        assert not (run_dir / "model.ckpt").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == [str(run_dir / "model.ckpt.failure.json")]

    def test_detect_jsonl_schema(self, tmp_path, trained_model):
        data_dir, ckpt = trained_model
        out = tmp_path / "dets.jsonl"
        code = run(
            [
                "detect", "--model", ckpt, "--in", data_dir / "scene_0000.bin",
                "--out", out, "--seed", 5, "--score-threshold", 0.0,
            ]
        )
        assert code == 0
        assert out.exists()
        for line in out.read_text().splitlines():
            entry = json.loads(line)
            assert set(entry) == {"scene_id", "class_id", "score", "center", "size", "yaw"}
            assert entry["scene_id"] == "scene_0000"
            assert len(entry["center"]) == 3 and len(entry["size"]) == 3

    def test_detect_deterministic(self, tmp_path, trained_model):
        data_dir, ckpt = trained_model
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            run(
                [
                    "detect", "--model", ckpt, "--in", data_dir / "scene_0000.bin",
                    "--out", out, "--seed", 5, "--score-threshold", 0.0,
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestProbeBenchAblate:
    def test_probe_csv(self, tmp_path, trained_model):
        data_dir, ckpt = trained_model
        out = tmp_path / "probe.csv"
        code = run(
            [
                "probe", "--model", ckpt, "--data", data_dir, "--out", out,
                "--seed", 3, "--scenes", 1,
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scene_id,cluster,radius_shift")
        assert len(lines) > 1

    def test_bench_csv(self, tmp_path, trained_model, small_config_file):
        data_dir, _ = trained_model
        out = tmp_path / "bench.csv"
        code = run(
            [
                "bench", "--data", data_dir, "--out", out, "--seed", 3,
                "--reps", 10, "--config", small_config_file,
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + cs + none

    def test_bench_default_model_takes_config_classes(self, tmp_path):
        # a config with no model section: train and bench both anchor the default model at the synth classes
        classes = [
            {"name": "crate", "mean_size": [2.0, 1.2, 1.0], "size_jitter": [0.2, 0.1, 0.1]},
            {"name": "post", "mean_size": [0.6, 0.6, 1.6], "size_jitter": [0.05, 0.05, 0.1]},
            {"name": "cube", "mean_size": [1.0, 1.0, 1.0], "size_jitter": [0.1, 0.1, 0.1]},
        ]
        config = tmp_path / "three.json"
        config.write_text(json.dumps({"synth": {"classes": classes}}))
        data_dir, run_dir, out = tmp_path / "data", tmp_path / "run", tmp_path / "bench.csv"
        assert run(["gen", "--scenes", 1, "--out", data_dir, "--seed", 1, "--config", config]) == 0
        assert run(["train", "--data", data_dir, "--out", run_dir, "--seed", 1, "--config", config, "--epochs", 1]) == 0
        assert run(["bench", "--data", data_dir, "--out", out, "--seed", 1, "--config", config, "--reps", 10]) == 0
        model, params = cli._load_model(run_dir / "model.ckpt")
        assert model.num_classes == 3
        with open(out, newline="") as fh:
            rows = {row["variant"]: row for row in csv.DictReader(fh)}
        assert int(rows["cs"]["param_count"]) == D.count_parameters(params)

    def test_ablate_axis_rows(self, tmp_path, trained_model, small_config_file):
        data_dir, _ = trained_model
        out = tmp_path / "ablation.csv"
        config = json.loads(Path(small_config_file).read_text())
        config["train"]["epochs"] = 1
        # shrink the sweep model to the test-sized one
        config_path = tmp_path / "ablate_config.json"
        config_path.write_text(json.dumps(config))
        code = run(
            [
                "ablate", "--data", data_dir, "--out", out, "--seed", 3,
                "--axis", "ratio", "--epochs", 1, "--config", config_path,
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            cells = list(csv.DictReader(fh))
        assert [c["value"] for c in cells] == ["0", "1/16", "1/8", "1/4", "1/2"]
        assert [c["status"] for c in cells] == ["ok"] * 5, [c["detail"] for c in cells]

    def test_ablate_cells_use_config_model(self, tmp_path, trained_model, small_config_file):
        # the config's model fits the 96-point scenes; the default one needs 512
        data_dir, _ = trained_model
        out = tmp_path / "ablation.csv"
        code = run(
            [
                "ablate", "--data", data_dir, "--out", out, "--seed", 3,
                "--epochs", 1, "--config", small_config_file,
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            cells = list(csv.DictReader(fh))
        assert len(cells) == 14
        assert [c["status"] for c in cells] == ["ok"] * 14, [c["detail"] for c in cells]
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        model = json.loads(Path(small_config_file).read_text())["model"]
        assert manifest["config"]["model"]["stage_points"] == model["stage_points"]


class TestGradcheckCommand:
    def test_exits_zero_and_prints_worst(self, tmp_path, capsys):
        code = run(["gradcheck", "--seed", 1, "--manifest", tmp_path / "m.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out
        assert (tmp_path / "m.json").exists()


class TestLogEnv:
    def test_info_level_logs_to_stderr(self, tmp_path, small_config_file, monkeypatch, capsys):
        monkeypatch.setenv("SHIFTSSD_LOG", "info")
        run(["gen", "--scenes", 1, "--out", tmp_path / "d", "--seed", 2, "--config", small_config_file])
        assert "wrote 1 scenes" in capsys.readouterr().err

    def test_default_is_quiet(self, tmp_path, small_config_file, monkeypatch, capsys):
        monkeypatch.delenv("SHIFTSSD_LOG", raising=False)
        run(["gen", "--scenes", 1, "--out", tmp_path / "d", "--seed", 2, "--config", small_config_file])
        assert "wrote" not in capsys.readouterr().err


class TestAtomicWrite:
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, small_config_file):
        path = tmp_path / "csv" / "out.csv"
        path.parent.mkdir()
        path.write_bytes(b"old contents\n")

        def write(tmp):
            with open(tmp, "w") as fh:
                fh.write("half a ")
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_write(path, write)
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.csv"]

        # gen: a rerun that fails mid-scene leaves the scene files as they were
        out = tmp_path / "scenes"
        argv = ["gen", "--scenes", 1, "--out", out, "--seed", 7, "--config", small_config_file]
        assert run(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        monkeypatch.setattr(DT, "write_labels", lambda tmp, objects: write(tmp))
        assert run(argv) == 2
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        assert after == before


class TestRunManifest:
    @pytest.mark.parametrize("subcommand", ["detect", "probe", "bench"])
    def test_runtime_failure_writes_failed_manifest(self, tmp_path, trained_model, small_config_file, capsys, subcommand):
        # the small config's stage 0 takes 24 points, so a 10-point scene fails inside the run
        data_dir, ckpt = trained_model
        cloud = data_dir / "scene_0000.bin"
        cloud.write_bytes(cloud.read_bytes()[: 10 * 16])
        argv = {
            "detect": ["detect", "--model", ckpt, "--in", cloud],
            "probe": ["probe", "--model", ckpt, "--data", data_dir],
            "bench": ["bench", "--config", small_config_file, "--data", data_dir],
        }[subcommand]
        out = tmp_path / "fresh" / "out"
        capsys.readouterr()
        assert run([*argv, "--out", out, "--seed", 3]) == 2
        cause = "insufficient points: cloud has 10, first stage needs 24"
        assert cause in capsys.readouterr().err
        manifest = json.loads(out.with_name("out.manifest.json").read_text())
        assert (manifest["subcommand"], manifest["status"], manifest["error"]) == (subcommand, "failed", cause)
        assert manifest["outputs"] == []
        assert [p.name for p in out.parent.iterdir()] == ["out.manifest.json"]
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("message", ["disk full", ""])
    def test_failed_write_is_not_listed(self, tmp_path, small_config_file, monkeypatch, message):
        def write_labels(tmp, objects):
            Path(tmp).write_text("half a ")
            raise OSError(message)

        monkeypatch.setattr(DT, "write_labels", write_labels)
        out = tmp_path / "scenes"
        assert run(["gen", "--scenes", 2, "--out", out, "--seed", 7, "--config", small_config_file]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest.get("error") == (message or None)  # an empty message records no error
        assert manifest["outputs"] == [str(out / "scene_0000.bin")]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "scene_0000.bin"]

    def test_interrupt_writes_no_manifest(self, tmp_path, small_config_file, monkeypatch):
        # only an Exception is a failed run; an interrupt propagates and records nothing
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(DT, "generate_scene", interrupt)
        out = tmp_path / "scenes"
        with pytest.raises(KeyboardInterrupt):
            run(["gen", "--scenes", 1, "--out", out, "--seed", 7, "--config", small_config_file])
        assert not out.exists()


# ---------------------------------------------------------------------------
# config codec round trip

_finite = dict(allow_nan=False, allow_infinity=False)
_widths = st.lists(st.integers(1, 64), min_size=1, max_size=3)
_triple = st.tuples(*[st.floats(0.01, 10.0, **_finite)] * 3)

scale_configs = st.builds(S.ScaleConfig, radius=st.floats(0.01, 100.0, **_finite), k=st.integers(1, 64), mlp=_widths)


@st.composite
def ssa_configs(draw):
    scales = draw(st.lists(scale_configs, min_size=1, max_size=3))
    max_radius = max(s.radius for s in scales)
    return S.SsaConfig(
        scales=scales,
        shift_ratio=draw(st.floats(0.0, 1.0, **_finite)),
        r_prime=draw(st.none() | st.floats(0.0, 50.0, **_finite).map(lambda extra: max_radius + extra)),
        candidate_k=draw(st.none() | st.integers(1, 64)),
        aggregation=draw(st.lists(st.integers(1, 64), max_size=2)),
        exchange_op=draw(st.sampled_from(S.EXCHANGE_OPS)),
        selection=draw(st.sampled_from(S.SELECTION_STRATEGIES)),
    )


@st.composite
def model_configs(draw):
    points = draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4, unique=True))
    classes = draw(st.integers(1, 3))
    return D.ModelConfig(
        stage_points=tuple(sorted(points, reverse=True)),
        stage_ssa=draw(st.lists(ssa_configs(), min_size=len(points), max_size=len(points))),
        num_classes=classes,
        anchors=draw(st.lists(_triple, min_size=classes, max_size=classes)),
        vote_hidden=draw(_widths),
        agg_radius=draw(st.floats(0.01, 10.0, **_finite)),
        agg_k=draw(st.integers(1, 32)),
        agg_f=draw(_widths),
        agg_a=draw(_widths),
        head_hidden=draw(_widths),
        angle_bins=draw(st.integers(2, 24)),
        nms_iou=draw(st.floats(0.0, 1.0, **_finite)),
        score_threshold=draw(st.floats(0.0, 1.0, **_finite)),
    )


@st.composite
def class_specs(draw):
    mean = draw(_triple)
    fractions = draw(st.tuples(*[st.floats(0.0, 0.99, **_finite)] * 3))
    jitter = tuple(m * f for m, f in zip(mean, fractions))
    return DT.ClassSpec(name=draw(st.text(max_size=8)), mean_size=mean, size_jitter=jitter)


@st.composite
def synth_configs(draw):
    objects_min = draw(st.integers(0, 4))
    objects_max = draw(st.integers(objects_min, 6))
    noise = draw(st.integers(0, 512))
    classes = draw(st.lists(class_specs(), min_size=1, max_size=3))
    # with objects, the scene must fit every class's largest BEV diagonal
    diagonal = max(math.hypot(*np.add(c.mean_size, c.size_jitter)[:2]) for c in classes) if objects_max else 0.1
    return DT.SynthConfig(
        extent=draw(st.floats(diagonal, 100.0, **_finite)),
        points_per_scene=noise + 8 * max(objects_max, 1) + draw(st.integers(0, 2048)),
        noise_points=noise,
        objects_min=objects_min,
        objects_max=objects_max,
        classes=classes,
    )


train_configs = st.builds(
    H.TrainConfig,
    epochs=st.integers(1, 1000),
    peak_lr=st.floats(0.0, 1.0, **_finite),
    seed=st.integers(0, 2**32),
)


@pytest.mark.parametrize(
    "cls, configs",
    [
        (S.ScaleConfig, scale_configs),
        (S.SsaConfig, ssa_configs()),
        (D.ModelConfig, model_configs()),
        (DT.ClassSpec, class_specs()),
        (DT.SynthConfig, synth_configs()),
        (H.TrainConfig, train_configs),
    ],
)
def test_config_round_trip(cls, configs):
    @settings(max_examples=40, deadline=None)
    @given(configs)
    def check(config):
        decoded = cli.config_from_dict(cls, json.loads(json.dumps(dataclasses.asdict(config))))
        assert decoded == config

    check()
