import json
from pathlib import Path

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

    def test_runtime_failure_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        code = run(["train", "--data", missing, "--out", tmp_path / "o", "--seed", 1])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda c: c["model"]["stage_ssa"][0].update(shift_ratio=2), "model.stage_ssa[0]: shift_ratio"),
            (lambda c: c["model"]["stage_ssa"][0]["scales"][1].update(k="4"), "model.stage_ssa[0].scales[1].k"),
            (lambda c: c["model"]["stage_ssa"][0].update(scales=[]), "model.stage_ssa[0]: at least one scale"),
            (lambda c: c["train"].update(epoch=3), "train.epoch: unknown key"),
            (lambda c: c["synth"]["classes"][0].update(mean_size=[1.0, 2.0]), "synth.classes[0].mean_size"),
            (lambda c: c.update(trian={}), "trian: unknown key"),
        ],
        ids=["rejected_value", "wrong_type", "empty_scales", "unknown_key", "tuple_length", "unknown_section"],
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

    def test_byte_identical_rerun(self, tmp_path, small_config_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run(["gen", "--scenes", 2, "--out", out, "--seed", 9, "--config", small_config_file])
        for name in ("scene_0000.bin", "scene_0000.json", "scene_0001.bin"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_flag_overrides_config_file(self, tmp_path, small_config_file):
        out = tmp_path / "data"
        run(
            [
                "gen", "--scenes", 1, "--out", out, "--seed", 3,
                "--config", small_config_file, "--points", 128,
            ]
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["synth"]["points_per_scene"] == 128
        cloud = DT.read_cloud(out / "scene_0000.bin")
        assert cloud.n == 128


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

    def test_assign_margin_survives_checkpoint(self, tmp_path, small_config_file):
        config = json.loads(Path(small_config_file).read_text())
        config["model"]["assign_margin"] = 0.5
        path = tmp_path / "margin.json"
        path.write_text(json.dumps(config))
        data_dir, run_dir = tmp_path / "data", tmp_path / "run"
        assert run(["gen", "--scenes", 1, "--out", data_dir, "--seed", 4, "--config", path]) == 0
        assert run(
            ["train", "--data", data_dir, "--out", run_dir, "--seed", 4, "--config", path, "--epochs", 1]
        ) == 0
        model, _ = cli._load_model(run_dir / "model.ckpt")
        assert model.assign_margin == 0.5

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
        assert json.loads((run_dir / "manifest.json").read_text())["status"] == "failed"

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
                "--seed", 3, "--scenes", 1, "--eps", 1e-3, "--tol", 1e-9,
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
        rows = out.read_text().strip().splitlines()[1:]
        values = [r.split(",")[1] for r in rows]
        assert values == ["0", "1/16", "1/8", "1/4", "1/2"]


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
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old contents\n")

        def write(tmp):
            with open(tmp, "w") as fh:
                fh.write("half a ")
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_write(path, write)
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


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
        in_channels=draw(st.integers(1, 4)),
        vote_hidden=draw(_widths),
        agg_radius=draw(st.floats(0.01, 10.0, **_finite)),
        agg_k=draw(st.integers(1, 32)),
        agg_f=draw(_widths),
        agg_a=draw(_widths),
        head_hidden=draw(_widths),
        angle_bins=draw(st.integers(2, 24)),
        nms_iou=draw(st.floats(0.0, 1.0, **_finite)),
        score_threshold=draw(st.floats(0.0, 1.0, **_finite)),
        assign_margin=draw(st.floats(0.0, 2.0, **_finite)),
    )


class_specs = st.builds(DT.ClassSpec, name=st.text(max_size=8), mean_size=_triple, size_jitter=_triple)


@st.composite
def synth_configs(draw):
    objects_min = draw(st.integers(0, 4))
    objects_max = draw(st.integers(objects_min, 6))
    noise = draw(st.integers(0, 512))
    return DT.SynthConfig(
        extent=draw(st.floats(0.1, 100.0, **_finite)),
        points_per_scene=noise + 8 * max(objects_max, 1) + draw(st.integers(0, 2048)),
        noise_points=noise,
        objects_min=objects_min,
        objects_max=objects_max,
        point_jitter=draw(st.floats(0.0, 1.0, **_finite)),
        noise_height=draw(st.floats(0.1, 10.0, **_finite)),
        classes=draw(st.lists(class_specs, min_size=1, max_size=3)),
    )


train_configs = st.builds(
    H.TrainConfig,
    epochs=st.integers(1, 1000),
    peak_lr=st.floats(0.0, 1.0, **_finite),
    beta1=st.floats(0.0, 1.0, **_finite),
    beta2=st.floats(0.0, 1.0, **_finite),
    adam_eps=st.floats(1e-12, 1e-3, **_finite),
    warmup_frac=st.floats(0.01, 0.99, **_finite),
    div_factor=st.floats(1.0, 1e3, **_finite),
    final_div_factor=st.floats(1.0, 1e6, **_finite),
    seed=st.integers(0, 2**32),
)


@pytest.mark.parametrize(
    "cls, configs",
    [
        (S.ScaleConfig, scale_configs),
        (S.SsaConfig, ssa_configs()),
        (D.ModelConfig, model_configs()),
        (DT.ClassSpec, class_specs),
        (DT.SynthConfig, synth_configs()),
        (H.TrainConfig, train_configs),
    ],
)
def test_config_round_trip(cls, configs):
    @settings(max_examples=40, deadline=None)
    @given(configs)
    def check(config):
        decoded = cli.config_from_dict(cls, json.loads(json.dumps(cli.config_to_dict(config))))
        assert decoded == config

    check()
