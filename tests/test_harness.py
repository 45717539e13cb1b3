import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shiftssd
from shiftssd import data as DT
from shiftssd import detector as D
from shiftssd import geometry as G
from shiftssd import harness as H
from shiftssd import losses as L
from shiftssd import ssa as S
from shiftssd import tensor as T
from shiftssd.geometry import PointCloud
from test_acceptance import _probe_model


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


def tiny_config():
    def stage(radii, width, agg):
        return S.SsaConfig(
            scales=[
                S.ScaleConfig(radius=radii[0], k=4, mlp=[width]),
                S.ScaleConfig(radius=radii[1], k=8, mlp=[width]),
            ],
            aggregation=[agg],
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
        config = tiny_config()
        train_cfg = H.TrainConfig(epochs=3, peak_lr=0.0, seed=5)
        before = D.init_model_params(config, seed=5)
        snapshot = [t.values.copy() for t in before.tensors()]
        result = H.train_toy(tiny_scenes, config, train_cfg)
        for t, snap in zip(result.params.tensors(), snapshot):
            np.testing.assert_array_equal(t.values, snap)
        totals = [row["total"] for row in result.history]
        assert totals[0] == totals[1] == totals[2]

    def test_same_seed_identical_curves(self, tiny_scenes):
        config = tiny_config()
        train_cfg = H.TrainConfig(epochs=4, peak_lr=0.005, seed=6)
        a = H.train_toy(tiny_scenes, config, train_cfg)
        b = H.train_toy(tiny_scenes, config, train_cfg)
        assert [r["total"] for r in a.history] == [r["total"] for r in b.history]

    def test_loss_decreases_on_overfit(self, tiny_scenes):
        config = tiny_config()
        train_cfg = H.TrainConfig(epochs=40, peak_lr=0.01, seed=7)
        result = H.train_toy(tiny_scenes, config, train_cfg)
        assert result.final_loss < 0.8 * result.first_epoch_loss

    def test_single_scene_descends_in_most_windows(self, tiny_scenes):
        # seed chosen so the sampled final clusters include a positive
        config = tiny_config()
        train_cfg = H.TrainConfig(epochs=50, peak_lr=0.01, seed=7)
        result = H.train_toy(tiny_scenes[:1], config, train_cfg)
        totals = [row["total"] for row in result.history]
        windows = [totals[i + 10] < totals[i] for i in range(len(totals) - 10)]
        assert np.mean(windows) >= 0.8

    def test_failed_step_names_its_cause(self, tiny_scenes):
        # a finite failure is not worded as a non-finite loss
        config = dataclasses.replace(tiny_config(), stage_points=(200, 8))
        with pytest.raises(H.TrainingAborted) as caught:
            H.train_toy(tiny_scenes, config, H.TrainConfig(epochs=1, peak_lr=0.005, seed=9))
        assert str(caught.value).startswith("training step failed at epoch 0, scene scene_0000: ")
        assert "insufficient points" in str(caught.value)

    def test_writes_checkpoint_and_csv(self, tiny_scenes, tmp_path):
        config = tiny_config()
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
            H.train_toy([], tiny_config(), H.TrainConfig(epochs=1, seed=0))

    def test_label_class_beyond_model_rejected_before_any_step(self, tiny_scenes, monkeypatch):
        forwards = []
        monkeypatch.setattr(D, "model_forward", lambda *a, **k: forwards.append(a))
        (first, first_id), (second, second_id) = tiny_scenes
        box, _ = second.objects[0]
        edited = DT.Scene(cloud=second.cloud, objects=[(box, 3), *second.objects[1:]])
        with pytest.raises(ValueError, match=f"^scene {second_id}: label 0 has class_id 3, but the model has 2 classes$"):
            H.train_toy([(first, first_id), (edited, second_id)], tiny_config(), H.TrainConfig(epochs=1, seed=0))
        assert forwards == []


# Two default-model epochs on two 2048-point scenes; prints a digest of the
# trained parameter bytes.
_TRAIN_DIGEST = """
import hashlib
from shiftssd import data as DT, detector as D, geometry as G, harness as H
synth = DT.SynthConfig()
scenes = [(DT.generate_scene(synth, seed=G.derive_seed(3, 50, i)), f"scene_{i}") for i in range(2)]
model = D.default_model_config(anchors=[tuple(c.mean_size) for c in synth.classes])
result = H.train_toy(scenes, model, H.TrainConfig(epochs=2, peak_lr=0.01, seed=3))
print(hashlib.sha256(b"".join(t.values.tobytes() for t in result.params.tensors())).hexdigest())
"""


def test_trained_bytes_independent_of_blas_threads():
    src = str(Path(shiftssd.__file__).resolve().parents[1])

    def digest(threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _TRAIN_DIGEST], env=env, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()

    assert digest(1) == digest(2)


class TestEvaluate:
    def test_match_recall_counts(self):
        box = D.Box3D(center=[0, 0, 0], size=[2, 2, 2], yaw=0.0)
        far = D.Box3D(center=[50, 0, 0], size=[2, 2, 2], yaw=0.0)
        det = D.Detection(box=box, class_id=1, score=0.9)
        matched, total = H.match_recall([det], [(box, 1), (far, 1)])
        assert (matched, total) == (1, 2)

    def test_evaluate_runs(self, tiny_scenes):
        config = tiny_config()
        params = D.init_model_params(config, seed=9)
        recall, mean_loss = H.evaluate(tiny_scenes, config, params, seed=9)
        assert 0.0 <= recall <= 1.0
        assert np.isfinite(mean_loss)

    def test_one_forward_per_scene_same_result(self, tiny_scenes, monkeypatch):
        # the reference recipe: detect for recall, a second forward for the loss
        config = tiny_config()
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
            breakdown, _, _ = L.compute_loss(out, scene.objects, config)
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


def probe_oracle(config, params, cloud, eps, tol, seed) -> H.ProbeReport:
    """The probe as one frozen replay per perturbed coordinate, each on its
    own perturbed PointCloud: the reference the batched probe must equal."""
    base_stages, decisions = D.backbone_forward(cloud, config, params, seed)
    plain_config = D.with_stage_fields(config, exchange_op="none")

    def final_values(cfg, positions):
        moved = PointCloud(positions=positions, features=cloud.features)
        stages, _ = D.backbone_forward(moved, cfg, params, seed, frozen=decisions)
        return stages[-1].aggregated.values

    base_shift = final_values(config, cloud.positions)
    base_plain = final_values(plain_config, cloud.positions)
    m, n = base_shift.shape[0], cloud.n
    influential_shift = np.zeros((m, n), dtype=bool)
    influential_plain = np.zeros((m, n), dtype=bool)
    if eps > 0:
        for p in range(n):
            for axis in range(3):
                perturbed = cloud.positions.copy()
                perturbed[p, axis] += eps
                diff_s = np.abs(final_values(config, perturbed) - base_shift).max(axis=1)
                diff_p = np.abs(final_values(plain_config, perturbed) - base_plain).max(axis=1)
                influential_shift[:, p] |= diff_s > tol
                influential_plain[:, p] |= diff_p > tol

    cluster_positions = base_stages[-1].positions
    dists = np.sqrt(G.pairwise_sq_dist(cluster_positions, cloud.positions))
    radius_shift = np.where(influential_shift, dists, 0.0).max(axis=1)
    radius_plain = np.where(influential_plain, dists, 0.0).max(axis=1)
    pairing = decisions[-1].pairing
    qualifying = np.zeros(m, dtype=bool)
    for i in range(m):
        j = pairing[i]
        if j == i:
            continue
        partner_pts = influential_plain[j]
        if partner_pts.any() and dists[i, partner_pts].max() > radius_plain[i] + 1e-12:
            qualifying[i] = True
    return H.ProbeReport(
        cluster_positions=cluster_positions,
        radius_shift=radius_shift,
        radius_plain=radius_plain,
        influential_shift=influential_shift,
        influential_plain=influential_plain,
        composed_reach=float(sum(max(s.radius for s in c.scales) for c in config.stage_ssa)),
        pairing=pairing,
        qualifying=qualifying,
    )


def assert_reports_equal(batched: H.ProbeReport, oracle: H.ProbeReport):
    # every field is derived from the boolean influence matrices, so all
    # compare exactly; raw output diffs, which a batched matmul may round
    # differently in the last bit, are never compared
    for f in dataclasses.fields(H.ProbeReport):
        a, b = getattr(batched, f.name), getattr(oracle, f.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
        np.testing.assert_array_equal(a, b, err_msg=f.name)


def criterion4_synth(points=96):
    return DT.SynthConfig(
        extent=10.0,
        points_per_scene=points,
        noise_points=40,
        objects_min=1,
        objects_max=2,
        classes=[
            DT.ClassSpec("crate", (2.0, 1.2, 1.0), (0.2, 0.1, 0.1)),
            DT.ClassSpec("post", (0.8, 0.8, 1.6), (0.05, 0.05, 0.1)),
        ],
    )


@pytest.fixture(scope="module")
def criterion4_model():
    config = _probe_model()
    return config, D.init_model_params(config, seed=3)


# criterion 4's 20 scenes, then 10 fresh ones
PROBE_SCENES = [(4, i) for i in range(20)] + [(7, i) for i in range(10)]


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
        assert_reports_equal(report, probe_oracle(config, params, cloud, 1e-3, 1e-9, 13))
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

    @pytest.mark.parametrize("eps, tol, name", [
        (float("nan"), 1e-9, "eps"), (float("inf"), 1e-9, "eps"),
        (1e-3, float("nan"), "tol"), (1e-3, float("inf"), "tol"), (1e-3, -1e-9, "tol"),
    ])
    def test_rejects_non_finite_eps_or_tol(self, eps, tol, name):
        config, params = probe_model()
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            H.receptive_field_probe(config, params, two_clique_cloud(), eps=eps, tol=tol, seed=0)

    @pytest.mark.parametrize("base, i", PROBE_SCENES, ids=[f"seed{b}-{i}" for b, i in PROBE_SCENES])
    def test_equals_per_replay_oracle(self, criterion4_model, base, i):
        config, params = criterion4_model
        cloud = DT.generate_scene(criterion4_synth(), seed=G.derive_seed(base, 60, i)).cloud
        seed = G.derive_seed(base, 61, i)
        report = H.receptive_field_probe(config, params, cloud, eps=1e-3, tol=1e-9, seed=seed)
        assert_reports_equal(report, probe_oracle(config, params, cloud, 1e-3, 1e-9, seed))

    @pytest.mark.parametrize(
        "points, eps, rows",
        [
            # the configured variant replays 74 x copies in chunks of 69 and 5, then 112 y and z copies
            (95, 1e-3, H._PROBE_ROWS),  # in chunks of 86 and 26
            (96, 0.0, H._PROBE_ROWS),
            (96, 1e-3, 1),  # one copy per chunk, as on a cloud of _PROBE_ROWS points or more
        ],
    )
    def test_chunking_equals_oracle(self, criterion4_model, monkeypatch, points, eps, rows):
        config, params = criterion4_model
        cloud = DT.generate_scene(criterion4_synth(points), seed=G.derive_seed(9, 60, points)).cloud
        assert cloud.n == points
        monkeypatch.setattr(H, "_PROBE_ROWS", rows)
        report = H.receptive_field_probe(config, params, cloud, eps=eps, tol=1e-9, seed=5)
        assert_reports_equal(report, probe_oracle(config, params, cloud, eps, 1e-9, 5))

    def test_y_alone_moves_a_cluster(self, criterion4_model):
        # on scene seed4-8 only the y displacement of point 61 moves cluster 1 of the cs variant,
        # so the second pass's y and z copies of that point must not overwrite each other's verdict
        config, params = criterion4_model
        cloud = DT.generate_scene(criterion4_synth(), seed=G.derive_seed(4, 60, 8)).cloud
        seed = G.derive_seed(4, 61, 8)
        _, decisions = D.backbone_forward(cloud, config, params, seed)

        def cluster_1(positions):
            stages, _ = D.backbone_forward(PointCloud(positions, cloud.features), config, params, seed, frozen=decisions)
            return stages[-1].aggregated.values[1]

        base = cluster_1(cloud.positions)
        moved = []
        for axis in range(3):
            positions = cloud.positions.copy()
            positions[61, axis] += 1e-3
            moved.append(bool(np.abs(cluster_1(positions) - base).max() > 1e-9))
        assert moved == [False, True, False]
        report = H.receptive_field_probe(config, params, cloud, eps=1e-3, tol=1e-9, seed=seed)
        assert report.influential_shift[1, 61]


def three_stage_model(exchange_op, shift_ratio):
    def stage(radii, width):
        return S.SsaConfig(
            scales=[
                S.ScaleConfig(radius=radii[0], k=4, mlp=[width]),
                S.ScaleConfig(radius=radii[1], k=8, mlp=[width]),
            ],
            shift_ratio=shift_ratio,
            aggregation=[width],
            exchange_op=exchange_op,
        )

    return D.ModelConfig(
        stage_points=(24, 12, 6),
        stage_ssa=[stage((1.2, 2.4), 8), stage((2.0, 4.0), 8), stage((3.0, 6.0), 8)],
        num_classes=1,
        anchors=[(1.0, 1.0, 1.0)],
    )


def jittered_copies(cloud, copies, points, seed):
    """copies x n bool (each copy moves `points` random input points) and
    the moved points' new positions, in np.nonzero order."""
    rng = np.random.default_rng(seed)
    changed = np.zeros((copies, cloud.n), dtype=bool)
    for c in range(copies):
        changed[c, rng.choice(cloud.n, size=points, replace=False)] = True
    copy, row = np.nonzero(changed)
    return changed, cloud.positions[row] + rng.normal(scale=0.05, size=(len(row), 3))


def replay_jittered(config, params, cloud, seed, decisions, changed, positions):
    """The reach replay of jittered copies: the final-stage rows each copy
    can move, in np.nonzero order of the copies' final reach."""
    stages, _ = D.backbone_forward(cloud, config, params, seed, frozen=decisions)
    inputs = [S.ClusterFeatures(cloud.positions, T.Tensor(cloud.features)), *stages[:-1]]
    reach = [changed @ r for r in H.structural_reach(config, decisions, cloud.n)]
    return reach[-1], H.replay_reached(config, params, inputs, decisions, reach, changed, positions)


class TestReach:
    @pytest.mark.parametrize("rows", [H._PROBE_ROWS, 1])
    @pytest.mark.parametrize(
        "exchange_op, shift_ratio",
        [(op, 1.0 / 8.0) for op in S.EXCHANGE_OPS] + [("cs", 1.0 / 64.0)],  # 1/64 of 8 channels donates none
    )
    def test_three_stage_probe_equals_oracle(self, monkeypatch, exchange_op, shift_ratio, rows):
        config = three_stage_model(exchange_op, shift_ratio)
        params = D.init_model_params(config, seed=17)
        cloud = DT.generate_scene(criterion4_synth(64), seed=18).cloud
        assert cloud.n == 64
        monkeypatch.setattr(H, "_PROBE_ROWS", rows)
        report = H.receptive_field_probe(config, params, cloud, eps=1e-3, tol=1e-9, seed=19)
        assert_reports_equal(report, probe_oracle(config, params, cloud, 1e-3, 1e-9, 19))

    @pytest.mark.parametrize("base, i", PROBE_SCENES, ids=[f"seed{b}-{i}" for b, i in PROBE_SCENES])
    def test_measured_influence_within_reach(self, criterion4_model, base, i):
        config, params = criterion4_model
        cloud = DT.generate_scene(criterion4_synth(), seed=G.derive_seed(base, 60, i)).cloud
        seed = G.derive_seed(base, 61, i)
        oracle = probe_oracle(config, params, cloud, 1e-3, 1e-9, seed)
        _, decisions = D.backbone_forward(cloud, config, params, seed)
        plain = D.with_stage_fields(config, exchange_op="none")
        for influential, variant in ((oracle.influential_shift, config), (oracle.influential_plain, plain)):
            reach = H.structural_reach(variant, decisions, cloud.n)[-1].T
            assert not (influential & ~reach).any()
        assert oracle.influential_shift.any()

    def test_shift_reach_holds_partner_reach(self, criterion4_model):
        # structural reach only, on 80 fresh scenes: no replay, so no dead ReLU channel can hide a path
        config, params = criterion4_model
        plain = D.with_stage_fields(config, exchange_op="none")
        wider_pairs = 0
        for i in range(80):
            cloud = DT.generate_scene(criterion4_synth(), seed=G.derive_seed(10, 60, i)).cloud
            _, decisions = D.backbone_forward(cloud, config, params, seed=G.derive_seed(10, 61, i))
            shift = H.structural_reach(config, decisions, cloud.n)[-1]
            none = H.structural_reach(plain, decisions, cloud.n)[-1]
            pairing = decisions[-1].pairing
            paired = np.flatnonzero(pairing != np.arange(len(pairing)))
            own, partner, shift = none[:, paired], none[:, pairing[paired]], shift[:, paired]
            assert not ((own | partner) & ~shift).any(), f"scene {i}"
            # strictly larger than the cluster's own plain reach wherever the partner's is not inside it
            wider = (partner & ~own).any(axis=0)
            assert (shift & ~own).any(axis=0)[wider].all(), f"scene {i}"
            wider_pairs += int(wider.sum())
        assert wider_pairs > 0

    def test_cs_donating_nothing_has_plain_reach(self):
        # 1/64 of 8 channels rounds to 0 at every scale, so no stage reads its partner
        config = three_stage_model("cs", 1.0 / 64.0)
        cloud = DT.generate_scene(criterion4_synth(64), seed=18).cloud
        _, decisions = D.backbone_forward(cloud, config, D.init_model_params(config, seed=17), seed=19)
        assert all((d.pairing != np.arange(len(d.pairing))).any() for d in decisions)
        none = H.structural_reach(three_stage_model("none", 1.0 / 64.0), decisions, cloud.n)
        for cs, plain in zip(H.structural_reach(config, decisions, cloud.n), none):
            np.testing.assert_array_equal(cs, plain)
        donating = H.structural_reach(three_stage_model("cs", 1.0 / 8.0), decisions, cloud.n)
        assert (donating[-1] & ~none[-1]).any()

    def test_cluster_reading_256_changed_rows_is_reached(self):
        # point 0 is a valid slot of all 256 stage-0 clusters, and the one
        # stage-1 cluster reads all of them: 256 paths, which a uint8 count wraps to 0
        stage0 = S.SsaDecisions(
            np.arange(1, 257),
            [G.NeighborTable(np.stack([np.arange(1, 257), np.zeros(256, int)], axis=1), np.ones((256, 2), bool))],
            np.arange(256),
        )
        stage1 = S.SsaDecisions(np.array([0]), [G.NeighborTable(np.arange(256)[None], np.ones((1, 256), bool))], np.array([0]))
        config = D.with_stage_fields(three_stage_model("none", 0.0), exchange_op="none")
        config = dataclasses.replace(config, stage_points=(256, 1), stage_ssa=config.stage_ssa[:2])
        first, second = H.structural_reach(config, [stage0, stage1], 257)
        assert first[0].all() and second[0, 0]
        assert (first.astype(np.uint8) @ stage1.reads(256, config.stage_ssa[1]).astype(np.uint8))[0, 0] == 0


class TestReplayReached:
    @pytest.mark.parametrize("copies", [1, 3, 16])
    def test_reached_rows_equal_full_replays(self, criterion4_model, copies):
        config, params = criterion4_model
        cloud = DT.generate_scene(criterion4_synth(), seed=G.derive_seed(4, 60, 0)).cloud
        _, decisions = D.backbone_forward(cloud, config, params, seed=21)
        changed, positions = jittered_copies(cloud, copies, 1, seed=copies)
        copy, row = np.nonzero(changed)
        for variant in (config, D.with_stage_fields(config, exchange_op="none")):
            base = D.backbone_forward(cloud, variant, params, seed=21, frozen=decisions)[0][-1].aggregated.values
            reach, values = replay_jittered(variant, params, cloud, 21, decisions, changed, positions)
            assert reach.any() and not reach.all()
            rows = [np.flatnonzero(r) for r in reach]
            for c in range(copies):
                moved = cloud.positions.copy()
                moved[row[copy == c]] = positions[copy == c]
                full = D.backbone_forward(PointCloud(moved, cloud.features), variant, params, 21, frozen=decisions)
                full = full[0][-1].aggregated.values
                # a replay of fewer rows may round differently in the last bits (OpenBLAS picks
                # its kernel by matrix size); the rows outside the reach equal the base exactly
                np.testing.assert_allclose(values[np.nonzero(reach)[0] == c], full[rows[c]], rtol=1e-12, atol=1e-12)
                outside = ~reach[c]
                assert full[outside].tobytes() == base[outside].tobytes()

    @pytest.mark.parametrize("exchange_op", ["cs", "none"])
    def test_remap_by_hand(self, exchange_op):
        # 5 input rows, 3 clusters; copy 0 moves input row 1 (replay row 5), copy 1 row 4 (replay row 6)
        table = G.NeighborTable(np.array([[0, 1], [2, 3], [4, 4]]), np.array([[True, True], [True, True], [True, False]]))
        d = S.SsaDecisions(np.array([0, 2, 4]), [table], np.array([1, 0, 0]))
        where = np.array([[0, 5, 2, 3, 4], [0, 1, 2, 3, 6]])
        reached = np.array([[True, False, False], [False, False, True]])
        frozen, keep = H.remap_decisions(d, where, reached, three_stage_model(exchange_op, 1.0 / 8.0).stage_ssa[0])
        if exchange_op == "none":  # no partners: copy 0's cluster 0, copy 1's cluster 2
            np.testing.assert_array_equal(keep, [True, True])
            np.testing.assert_array_equal(frozen.cluster_indices, [0, 6])
            np.testing.assert_array_equal(frozen.tables[0].indices, [[0, 5], [6, 6]])
            np.testing.assert_array_equal(frozen.pairing, [0, 1])
            return
        # copy 0 computes cluster 0 and its partner 1; copy 1 cluster 2 and its partner 0
        np.testing.assert_array_equal(keep, [True, False, False, True])
        np.testing.assert_array_equal(frozen.cluster_indices, [0, 2, 0, 6])
        np.testing.assert_array_equal(frozen.tables[0].indices, [[0, 5], [2, 3], [0, 1], [6, 6]])
        np.testing.assert_array_equal(frozen.tables[0].valid, table.valid[[0, 1, 0, 2]])
        # a reached row pairs with its copy's partner row; a partner-only row with itself
        np.testing.assert_array_equal(frozen.pairing, [1, 1, 2, 2])


def stage_bytes(stages: list[S.ClusterFeatures]) -> list[bytes]:
    return [s.positions.tobytes() for s in stages] + [s.aggregated.values.tobytes() for s in stages]


def detection_bytes(dets: list[D.Detection]) -> list[bytes]:
    return [
        d.box.center.tobytes() + d.box.size.tobytes() + np.float64([d.box.yaw, d.score, d.class_id]).tobytes()
        for d in dets
    ]


def no_grad_case(name):
    """(config, params, cloud, seed): the default model on a default
    2048-point scene, or criterion 4's probe model on one of its scenes."""
    if name == "default":
        config = D.default_model_config()
        cloud = DT.generate_scene(DT.SynthConfig(), seed=62).cloud
        return config, D.init_model_params(config, seed=61), cloud, 63
    config = _probe_model()
    cloud = DT.generate_scene(criterion4_synth(), seed=G.derive_seed(4, 60, 3)).cloud
    return config, D.init_model_params(config, seed=3), cloud, G.derive_seed(4, 61, 3)


@pytest.mark.parametrize("name", ["default", "probe"])
class TestNoGradForwards:
    """A forward under no_grad() gives the bytes of a recording forward
    (the masked max in reduce_max included) and keeps no graph."""

    def test_detect_equals_recording_pipeline(self, name, monkeypatch):
        config, params, cloud, seed = no_grad_case(name)
        config = dataclasses.replace(config, score_threshold=0.0)
        recorded = D.model_forward(cloud, config, params, seed)
        assert recorded.raw.cls_logits._parents
        seen = []
        postprocess = D.postprocess
        monkeypatch.setattr(D, "postprocess", lambda out, cfg: seen.append(out) or postprocess(out, cfg))
        dets = D.detect(cloud, config, params, seed)
        assert dets
        assert detection_bytes(dets) == detection_bytes(postprocess(recorded, config))
        assert [out.raw.cls_logits._parents for out in seen] == [()]

    def test_backbone_and_frozen_replay_equal_recording(self, name):
        config, params, cloud, seed = no_grad_case(name)
        recorded, decisions = D.backbone_forward(cloud, config, params, seed)
        with T.no_grad():
            free, free_decisions = D.backbone_forward(cloud, config, params, seed)
        assert stage_bytes(free) == stage_bytes(recorded)
        assert free[-1].aggregated._parents == ()
        np.testing.assert_array_equal(free_decisions[-1].pairing, decisions[-1].pairing)
        # the probe's replay: three jittered copies over their reach
        changed, positions = jittered_copies(cloud, 3, 2, seed=64)
        for variant in (config, D.with_stage_fields(config, exchange_op="none")):
            _, replay = replay_jittered(variant, params, cloud, seed, decisions, changed, positions)
            with T.no_grad():
                _, free_replay = replay_jittered(variant, params, cloud, seed, decisions, changed, positions)
            assert replay.size and free_replay.tobytes() == replay.tobytes()


class TestBench:
    def test_param_delta_matches_closed_form(self, tiny_scenes):
        cfg_cs = tiny_config()
        cfg_none = D.with_stage_fields(cfg_cs, exchange_op="none")
        params_cs = D.init_model_params(cfg_cs, seed=14)
        params_none = D.init_model_params(cfg_none, seed=14)
        delta = D.count_parameters(params_cs) - D.count_parameters(params_none)
        assert delta == H.shift_mlp_param_count(cfg_cs)
        assert D.count_parameters(params_none) < D.count_parameters(params_cs)

    def test_bench_report(self, tiny_scenes):
        cfg_cs = tiny_config()
        cfg_none = D.with_stage_fields(cfg_cs, exchange_op="none")
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

    def test_variants_alternate_within_each_repetition(self, monkeypatch):
        # a fake clock that each detect advances by its variant's cost
        calls, clock = [], [0.0]
        cost = {"a": 0.003, "b": 0.001}

        def detect(cloud, config, params, seed):
            calls.append((config, cloud, seed))
            clock[0] += cost[config]
            return []

        monkeypatch.setattr(D, "detect", detect)
        monkeypatch.setattr(D, "count_parameters", lambda params: params)
        monkeypatch.setattr(H.time, "perf_counter", lambda: clock[0])
        report = H.latency_bench([("a", "a", 1), ("b", "b", 2)], ["x", "y"], repetitions=10, seed=5)
        warmups = [("a", "x", 5)] * 2 + [("b", "x", 5)] * 2
        timed = [(v, c, 5 + rep) for rep in range(10) for v in ("ab" if rep % 2 == 0 else "ba") for c in "xy"]
        assert calls == warmups + timed
        rows = report.by_name()
        assert (rows["a"].median_ms, rows["b"].median_ms) == pytest.approx((3.0, 1.0))
        assert (rows["a"].mean_ms, rows["b"].mean_ms) == pytest.approx((3.0, 1.0))
        assert (rows["a"].param_count, rows["b"].param_count) == (1, 2)

    def test_ratio_median_pairs_times_by_repetition(self, monkeypatch, tmp_path):
        # the host slows steadily (b's cost is 1, 2, ... 10 ms); a costs 1.2x b
        # on even repetitions and 1x on odd ones, so the median of the paired
        # ratios is 1.1 while the ratio of the medians is 6 / 5.5
        clock = [0.0]

        def detect(cloud, config, params, seed):
            rep = seed - 5
            clock[0] += (rep + 1) * 1e-3 * (1.2 if config == "a" and rep % 2 == 0 else 1.0)
            return []

        monkeypatch.setattr(D, "detect", detect)
        monkeypatch.setattr(D, "count_parameters", lambda params: params)
        monkeypatch.setattr(H.time, "perf_counter", lambda: clock[0])
        report = H.latency_bench([("a", "a", 1), ("b", "b", 2)], ["x"], repetitions=10, seed=5)
        rows = report.by_name()
        assert rows["a"].median_ms / rows["b"].median_ms == pytest.approx(6 / 5.5)
        assert (rows["a"].ratio_median, rows["b"].ratio_median) == pytest.approx((1.1, 1.0))
        H.write_bench_csv(tmp_path / "bench.csv", report)
        header, row_a, row_b = (tmp_path / "bench.csv").read_text().splitlines()
        assert header == "variant,mean_ms,median_ms,ratio_median,param_count,repetitions"
        assert row_a.split(",")[3] == "1.1000" and row_b.split(",")[3] == "1.0000"


class TestAblation:
    def test_cells_edit_the_base_config(self, tiny_scenes, monkeypatch):
        # each cell trains base with its axis's field set on every stage, in sweep order
        trained = []

        def record(scenes, config, train_config):
            trained.append(config)
            raise RuntimeError("recorded")

        monkeypatch.setattr(H, "train_toy", record)
        train_cfg = H.TrainConfig(epochs=1, seed=17)
        base = tiny_config()
        report = H.run_ablation(tiny_scenes, base, train_cfg)
        expected = [
            D.with_stage_fields(base, shift_ratio=v) for v in H.ABLATION_RATIOS
        ] + [
            D.with_stage_fields(base, selection=v) for v in ("farthest", "nearest", "feats_scale", "points_num")
        ] + [
            D.with_stage_fields(base, exchange_op=v) for v in ("none", "concat", "avg", "attn", "cs")
        ]
        assert trained == expected
        assert [(c.axis, c.value) for c in report.cells] == (
            [("ratio", v) for v in ["0", "1/16", "1/8", "1/4", "1/2"]]
            + [("selection", v) for v in ["farthest", "nearest", "feats_scale", "points_num"]]
            + [("exchange", v) for v in ["none", "concat", "avg", "attn", "cs"]]
        )

        # the axes a sweep leaves alone keep the base's values
        trained.clear()
        avg_base = D.with_stage_fields(base, exchange_op="avg")
        H.run_ablation(tiny_scenes, avg_base, train_cfg, axes=["ratio"])
        assert [[cfg.exchange_op for cfg in c.stage_ssa] for c in trained] == [["avg", "avg"]] * 5
        assert [c.stage_ssa[0].shift_ratio for c in trained] == list(H.ABLATION_RATIOS)

    def test_unknown_axis(self, tiny_scenes):
        with pytest.raises(ValueError, match="unknown ablation axis 'size'"):
            H.run_ablation(tiny_scenes, tiny_config(), H.TrainConfig(epochs=1), axes=["size"])

    def test_ratio_labels(self):
        assert [H.ratio_label(v) for v in H.ABLATION_RATIOS] == ["0", "1/16", "1/8", "1/4", "1/2"]

    def test_sweep_and_reproducibility(self, tiny_scenes):
        train_cfg = H.TrainConfig(epochs=2, peak_lr=0.005, seed=17)
        a = H.run_ablation(tiny_scenes, tiny_config(), train_cfg, axes=["ratio"])
        b = H.run_ablation(tiny_scenes, tiny_config(), train_cfg, axes=["ratio"])
        assert a.axis_values("ratio") == ["0", "1/16", "1/8", "1/4", "1/2"]
        for ca, cb in zip(a.cells, b.cells):
            assert ca.status == "ok"
            assert ca.recall == cb.recall
            assert ca.mean_loss == cb.mean_loss

    def test_cell_failure_recorded(self, tiny_scenes, monkeypatch):
        train_cfg = H.TrainConfig(epochs=1, peak_lr=0.005, seed=18)
        train_toy = H.train_toy

        def failing_attn(scenes, config, train_config):
            if config.stage_ssa[0].exchange_op == "attn":
                raise RuntimeError("synthetic failure")
            return train_toy(scenes, config, train_config)

        monkeypatch.setattr(H, "train_toy", failing_attn)
        report = H.run_ablation(tiny_scenes, tiny_config(), train_cfg, axes=["exchange"])
        by_value = {c.value: c for c in report.cells}
        assert by_value["attn"].status == "failed"
        assert "synthetic failure" in by_value["attn"].detail
        assert by_value["cs"].status == "ok"

    def test_csv_output(self, tiny_scenes, tmp_path):
        train_cfg = H.TrainConfig(epochs=1, peak_lr=0.005, seed=19)
        report = H.run_ablation(tiny_scenes, tiny_config(), train_cfg, axes=["selection"])
        path = tmp_path / "ablation.csv"
        H.write_ablation_csv(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("axis,value")
        assert len(lines) == 1 + 4
