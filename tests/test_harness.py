import numpy as np
import pytest

from shiftssd import data as DT
from shiftssd import detector as D
from shiftssd import harness as H
from shiftssd import losses as L
from shiftssd import ssa as S
from shiftssd import tensor as T
from shiftssd.geometry import PointCloud


def tiny_synth():
    return DT.SynthConfig(
        extent=14.0,
        points_per_scene=96,
        noise_points=48,
        objects_min=1,
        objects_max=2,
        classes=[
            DT.ClassSpec("crate", (2.0, 1.2, 1.0), (0.2, 0.1, 0.1)),
            DT.ClassSpec("post", (0.6, 0.6, 1.6), (0.05, 0.05, 0.1)),
        ],
    )


def tiny_factory(ratio=1 / 8, selection="farthest", exchange="cs"):
    def stage(radii, width, agg):
        return S.SsaConfig(
            scales=[
                S.ScaleConfig(radius=radii[0], k=4, mlp=[width]),
                S.ScaleConfig(radius=radii[1], k=8, mlp=[width]),
            ],
            shift_ratio=ratio,
            aggregation=[agg],
            exchange_op=exchange,
            selection=selection,
        )

    return D.ModelConfig(
        stage_points=(24, 8),
        stage_ssa=[stage((1.0, 2.0), 8, 12), stage((2.0, 4.0), 12, 16)],
        num_classes=2,
        anchors=[(2.0, 1.2, 1.0), (0.6, 0.6, 1.6)],
        vote_hidden=[12],
        agg_radius=3.0,
        agg_k=8,
        agg_f=[16],
        agg_a=[16],
        head_hidden=[12],
        angle_bins=4,
        score_threshold=0.2,
    )


@pytest.fixture(scope="module")
def tiny_scenes():
    config = tiny_synth()
    return [(DT.generate_scene(config, seed=100 + i), f"scene_{i:04d}") for i in range(2)]


class TestOneCycle:
    def test_endpoints_and_peak(self):
        cfg = H.TrainConfig(epochs=1, peak_lr=0.01, seed=0)
        total = 101  # warmup boundary 0.3 * (total - 1) lands on step 30
        lrs = [H.one_cycle_lr(s, total, cfg) for s in range(total)]
        assert lrs[0] == pytest.approx(0.01 / 25.0)
        assert max(lrs) == pytest.approx(0.01, rel=1e-6)
        assert lrs[-1] == pytest.approx(0.01 / 1e4, rel=1e-6)
        assert int(np.argmax(lrs)) == 30

    def test_single_step(self):
        cfg = H.TrainConfig(epochs=1, peak_lr=0.02, seed=0)
        assert H.one_cycle_lr(0, 1, cfg) == 0.02


class TestTrainToy:
    def test_zero_lr_keeps_params_and_loss(self, tiny_scenes):
        config = tiny_factory()
        train_cfg = H.TrainConfig(epochs=3, peak_lr=0.0, seed=5)
        before = D.init_model_params(config, seed=5)
        snapshot = [t.values.copy() for t in before.tensors()]
        result = H.train_toy(tiny_scenes, config, train_cfg)
        for t, snap in zip(result.params.tensors(), snapshot):
            np.testing.assert_array_equal(t.values, snap)
        totals = [row["total"] for row in result.history]
        assert totals[0] == totals[1] == totals[2]

    def test_same_seed_identical_curves(self, tiny_scenes):
        config = tiny_factory()
        train_cfg = H.TrainConfig(epochs=4, peak_lr=0.005, seed=6)
        a = H.train_toy(tiny_scenes, config, train_cfg)
        b = H.train_toy(tiny_scenes, config, train_cfg)
        assert [r["total"] for r in a.history] == [r["total"] for r in b.history]

    def test_loss_decreases_on_overfit(self, tiny_scenes):
        config = tiny_factory()
        train_cfg = H.TrainConfig(epochs=40, peak_lr=0.01, seed=7)
        result = H.train_toy(tiny_scenes, config, train_cfg)
        assert result.final_loss < 0.8 * result.first_epoch_loss

    def test_single_scene_descends_in_most_windows(self, tiny_scenes):
        # seed chosen so the sampled final clusters include a positive
        config = tiny_factory()
        train_cfg = H.TrainConfig(epochs=50, peak_lr=0.01, seed=7)
        result = H.train_toy(tiny_scenes[:1], config, train_cfg)
        totals = [row["total"] for row in result.history]
        windows = [totals[i + 10] < totals[i] for i in range(len(totals) - 10)]
        assert np.mean(windows) >= 0.8

    def test_writes_checkpoint_and_csv(self, tiny_scenes, tmp_path):
        config = tiny_factory()
        ckpt = tmp_path / "model.ckpt"
        csv_path = tmp_path / "loss.csv"
        train_cfg = H.TrainConfig(epochs=2, peak_lr=0.005, seed=8)
        result = H.train_toy(tiny_scenes, config, train_cfg)
        T.save_checkpoint(ckpt, result.params.named())
        H.write_history_csv(csv_path, result.history)
        assert ckpt.exists()
        loaded, _ = T.load_checkpoint(ckpt)
        assert set(loaded) == {name for name, _ in result.params.named()}
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one scene"):
            H.train_toy([], tiny_factory(), H.TrainConfig(epochs=1, seed=0))


class TestEvaluate:
    def test_match_recall_counts(self):
        box = D.Box3D(center=[0, 0, 0], size=[2, 2, 2], yaw=0.0)
        far = D.Box3D(center=[50, 0, 0], size=[2, 2, 2], yaw=0.0)
        det = D.Detection(box=box, class_id=1, score=0.9)
        matched, total = H.match_recall([det], [(box, 1), (far, 1)])
        assert (matched, total) == (1, 2)

    def test_evaluate_runs(self, tiny_scenes):
        config = tiny_factory()
        params = D.init_model_params(config, seed=9)
        recall, mean_loss = H.evaluate(tiny_scenes, config, params, seed=9)
        assert 0.0 <= recall <= 1.0
        assert np.isfinite(mean_loss)

    def test_one_forward_per_scene_same_result(self, tiny_scenes, monkeypatch):
        # the reference recipe: detect for recall, a second forward for the loss
        config = tiny_factory()
        # briefly trained and unthresholded, so recall is not trivially 0
        params = H.train_toy(tiny_scenes, config, H.TrainConfig(epochs=40, peak_lr=0.01, seed=7)).params
        config.score_threshold = 0.0
        matched = total = 0
        losses = []
        for idx, (scene, _) in enumerate(tiny_scenes):
            fwd_seed = H.scene_seed(7, idx)
            m, t = H.match_recall(D.detect(scene.cloud, config, params, fwd_seed), scene.objects)
            matched += m
            total += t
            out = D.model_forward(scene.cloud, config, params, fwd_seed)
            breakdown, _, _ = L.compute_loss(
                out.raw, out.offsets, out.candidates, out.stages[-1].positions, scene.objects, config
            )
            losses.append(breakdown.total)
        expected = (matched / total, float(np.mean(losses)))
        assert 0 < matched

        calls = []
        forward = D.model_forward
        monkeypatch.setattr(D, "model_forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
        assert H.evaluate(tiny_scenes, config, params, seed=7) == expected
        assert len(calls) == len(tiny_scenes)


def probe_model():
    config = D.ModelConfig(
        stage_points=(2,),
        stage_ssa=[
            S.SsaConfig(
                scales=[S.ScaleConfig(radius=1.0, k=4, mlp=[8])],
                shift_ratio=0.25,
                r_prime=8.0,
                aggregation=[8],
                exchange_op="cs",
            )
        ],
        num_classes=1,
        anchors=[(1.0, 1.0, 1.0)],
    )
    params = D.init_model_params(config, seed=11)
    return config, params


def two_clique_cloud():
    positions = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.4, 0.0, 0.0],
            [0.2, 0.3, 0.0],
            [6.0, 0.0, 0.0],
            [6.4, 0.0, 0.0],
            [6.2, 0.3, 0.0],
        ]
    )
    feats = np.random.default_rng(12).uniform(0, 1, size=(6, 1))
    return PointCloud(positions=positions, features=feats)


class TestProbe:
    def test_eps_zero_no_influence(self):
        config, params = probe_model()
        report = H.receptive_field_probe(config, params, two_clique_cloud(), eps=0.0, tol=1e-9, seed=13)
        assert not report.influential_shift.any()
        assert not report.influential_plain.any()

    def test_plain_contained_and_shift_expands(self):
        config, params = probe_model()
        cloud = two_clique_cloud()
        report = H.receptive_field_probe(config, params, cloud, eps=1e-3, tol=1e-9, seed=13)
        assert report.plain_containment_violations(cloud.positions) == 0
        # both clusters pair across the cliques, so both qualify
        assert report.qualifying.any()
        expanded = report.expanded()
        assert (expanded[report.qualifying]).all()
        assert (report.radius_shift >= report.radius_plain - 1e-12).all()

    def test_rejects_negative_eps(self):
        config, params = probe_model()
        with pytest.raises(ValueError):
            H.receptive_field_probe(config, params, two_clique_cloud(), eps=-1.0, tol=1e-9, seed=0)


class TestBench:
    def test_param_delta_matches_closed_form(self, tiny_scenes):
        cfg_cs = tiny_factory(exchange="cs")
        cfg_none = tiny_factory(exchange="none")
        params_cs = D.init_model_params(cfg_cs, seed=14)
        params_none = D.init_model_params(cfg_none, seed=14)
        delta = D.count_parameters(params_cs) - D.count_parameters(params_none)
        assert delta == H.shift_mlp_param_count(cfg_cs)
        assert D.count_parameters(params_none) < D.count_parameters(params_cs)

    def test_bench_report(self, tiny_scenes):
        cfg_cs = tiny_factory(exchange="cs")
        cfg_none = tiny_factory(exchange="none")
        variants = [
            ("cs", cfg_cs, D.init_model_params(cfg_cs, seed=15)),
            ("none", cfg_none, D.init_model_params(cfg_none, seed=15)),
        ]
        clouds = [scene.cloud for scene, _ in tiny_scenes]
        report = H.latency_bench(variants, clouds, repetitions=10, seed=16)
        by_name = report.by_name()
        assert by_name["cs"].median_ms > 0
        assert by_name["none"].median_ms > 0
        assert by_name["cs"].param_count - by_name["none"].param_count == H.shift_mlp_param_count(cfg_cs)

    def test_too_few_reps(self):
        with pytest.raises(ValueError):
            H.latency_bench([], [], repetitions=3)


class TestAblation:
    def test_grid_axis_values(self):
        cells = H.ablation_grid()
        ratios = [v for a, v in cells if a == "ratio"]
        assert ratios == list(H.ABLATION_RATIOS)
        selections = [v for a, v in cells if a == "selection"]
        assert selections == list(H.ABLATION_SELECTIONS)
        exchanges = [v for a, v in cells if a == "exchange"]
        assert exchanges == list(H.ABLATION_EXCHANGES)

    def test_ratio_labels(self):
        assert [H.ratio_label(v) for v in H.ABLATION_RATIOS] == ["0", "1/16", "1/8", "1/4", "1/2"]

    def test_sweep_and_reproducibility(self, tiny_scenes):
        train_cfg = H.TrainConfig(epochs=2, peak_lr=0.005, seed=17)

        def factory(ratio, selection, exchange):
            return tiny_factory(ratio=ratio, selection=selection, exchange=exchange)

        a = H.run_ablation(tiny_scenes, factory, train_cfg, axes=["ratio"])
        b = H.run_ablation(tiny_scenes, factory, train_cfg, axes=["ratio"])
        assert a.axis_values("ratio") == ["0", "1/16", "1/8", "1/4", "1/2"]
        for ca, cb in zip(a.cells, b.cells):
            assert ca.status == "ok"
            assert ca.recall == cb.recall
            assert ca.mean_loss == cb.mean_loss

    def test_cell_failure_recorded(self, tiny_scenes):
        train_cfg = H.TrainConfig(epochs=1, peak_lr=0.005, seed=18)

        def factory(ratio, selection, exchange):
            if exchange == "attn":
                raise RuntimeError("synthetic failure")
            return tiny_factory(ratio=ratio, selection=selection, exchange=exchange)

        report = H.run_ablation(tiny_scenes, factory, train_cfg, axes=["exchange"])
        by_value = {c.value: c for c in report.cells}
        assert by_value["attn"].status == "failed"
        assert "synthetic failure" in by_value["attn"].detail
        assert by_value["cs"].status == "ok"

    def test_csv_output(self, tiny_scenes, tmp_path):
        train_cfg = H.TrainConfig(epochs=1, peak_lr=0.005, seed=19)

        def factory(ratio, selection, exchange):
            return tiny_factory(ratio=ratio, selection=selection, exchange=exchange)

        report = H.run_ablation(tiny_scenes, factory, train_cfg, axes=["selection"])
        path = tmp_path / "ablation.csv"
        H.write_ablation_csv(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("axis,value")
        assert len(lines) == 1 + 4
