"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from shiftssd import data as DT
from shiftssd import detector as D
from shiftssd import geometry as G
from shiftssd import harness as H
from shiftssd import losses as L
from shiftssd import ssa as S
from shiftssd import tensor as T

SEED_FAMILY = 2  # fixed seed family for the trained-model criteria


@contextmanager
def criterion(num, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"[criterion {num}] {name}: PASS ({time.monotonic() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 1. sampling oracle equivalence


def test_criterion_1_sampling_oracles():
    with criterion(1, "sampling oracle equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for trial in range(200):
            n = int(rng.integers(2, 65))
            cloud = G.PointCloud(positions=rng.uniform(-5, 5, size=(n, 3)))
            pos = cloud.positions
            d2 = G.pairwise_sq_dist(pos, pos)

            # dfps: per-step greedy max-min against exhaustive search
            m = int(rng.integers(1, n + 1))
            sel = G.dfps(cloud, m, seed=trial)
            for t in range(1, m):
                chosen = sel[:t]
                remaining = np.setdiff1d(np.arange(n), chosen)
                min_d2 = d2[np.ix_(remaining, chosen)].min(axis=1)
                best = min_d2.max()
                assert min_d2[remaining == sel[t]][0] == best
                assert sel[t] == remaining[min_d2 == best].min()

            # ball_query with k = all: valid sets equal the naive scan
            radius = float(rng.uniform(0.5, 6.0))
            table = G.ball_query(cloud, pos, radius=radius, k=n, seed=trial)
            for i in range(n):
                got = set(table.indices[i][table.valid[i]].tolist())
                expected = set(np.flatnonzero(d2[i] <= radius * radius).tolist())
                assert got == expected

            # farthest pairing with k = all: exhaustive argmax
            pairing = S.selection_variant(cloud, "farthest", r_prime=radius, k=n, seed=trial)
            for i in range(n):
                in_r = np.flatnonzero((d2[i] <= radius * radius) & (np.arange(n) != i))
                if in_r.size == 0:
                    assert pairing[i] == i
                else:
                    best = d2[i, in_r].max()
                    assert pairing[i] == in_r[d2[i, in_r] == best].min()

        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"sampling oracle run took {elapsed:.1f}s (budget 10s)"


# ---------------------------------------------------------------------------
# 2. gradient integrity


def test_criterion_2_gradient_integrity():
    with criterion(2, "end-to-end gradient integrity"):
        start = time.monotonic()
        worst = H.gradcheck_detector(seed=1, eps=1e-5)
        elapsed = time.monotonic() - start
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s (budget 60s)"


# ---------------------------------------------------------------------------
# 3. shifting semantics, bit-exact


def test_criterion_3_shifting_semantics():
    with criterion(3, "shifting semantics bit-exact"):
        rng = np.random.default_rng(103)
        for trial in range(50):
            m = int(rng.integers(2, 10))
            c = int(rng.integers(2, 12))
            s = int(rng.integers(0, c + 1))
            x_np = rng.normal(size=(m, c))
            mlp2 = T.init_mlp([c, c, c], rng, final_relu=False)

            # self-pairing collapse equals explicit substitution, bitwise
            self_pairing = np.arange(m)
            out = S.cross_cluster_shift(T.Tensor(x_np), self_pairing, s, mlp2)
            direct = T.relu(T.avg2(T.mlp_forward(T.Tensor(x_np), mlp2), T.Tensor(x_np)))
            assert out.values.tobytes() == direct.values.tobytes()

            # perturbing any other row leaves row i bit-identical
            i = int(rng.integers(m))
            j = (i + 1) % m
            perturbed = x_np.copy()
            perturbed[j] += rng.normal() * 5.0
            out_p = S.cross_cluster_shift(T.Tensor(perturbed), self_pairing, s, mlp2)
            assert out.values[i].tobytes() == out_p.values[i].tobytes()

            # channel-splice locality through an identity mix
            pairing = rng.integers(0, m, size=m)
            ident = T.MlpParams(
                layers=[T.LinearParams(T.Tensor(np.eye(c)), T.Tensor(np.zeros((1, c))))],
                final_relu=False,
            )
            shifted = S.cross_cluster_shift(T.Tensor(x_np), pairing, s, ident)
            spliced = np.concatenate(
                [x_np[pairing][:, :s], x_np[:, s:]], axis=1
            )
            expected = np.maximum(0.0, 0.5 * (spliced + x_np))
            assert shifted.values.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# 4. receptive-field expansion


def _probe_model(exchange="cs"):
    def stage(radii, width, agg):
        return S.SsaConfig(
            scales=[
                S.ScaleConfig(radius=radii[0], k=4, mlp=[width]),
                S.ScaleConfig(radius=radii[1], k=8, mlp=[width]),
            ],
            shift_ratio=1.0 / 8.0,
            aggregation=[agg],
            exchange_op=exchange,
        )

    return D.ModelConfig(
        stage_points=(24, 8),
        stage_ssa=[stage((1.2, 2.4), 16, 16), stage((2.0, 4.0), 16, 16)],
        num_classes=2,
        anchors=[(2.0, 1.2, 1.0), (0.8, 0.8, 1.6)],
        vote_hidden=[12],
        agg_radius=3.0,
        agg_k=8,
        agg_f=[16],
        agg_a=[16],
        head_hidden=[12],
        angle_bins=4,
    )


def test_criterion_4_receptive_field_expansion():
    with criterion(4, "receptive-field expansion"):
        start = time.monotonic()
        synth = DT.SynthConfig(
            extent=10.0,
            points_per_scene=96,
            noise_points=40,
            objects_min=1,
            objects_max=2,
            classes=[
                DT.ClassSpec("crate", (2.0, 1.2, 1.0), (0.2, 0.1, 0.1)),
                DT.ClassSpec("post", (0.8, 0.8, 1.6), (0.05, 0.05, 0.1)),
            ],
        )
        config = _probe_model()
        params = D.init_model_params(config, seed=3)
        total_violations = 0
        total_qualifying = 0
        for i in range(20):
            scene = DT.generate_scene(synth, seed=G.derive_seed(4, 60, i))
            report = H.receptive_field_probe(
                config, params, scene.cloud, eps=1e-3, tol=1e-9,
                seed=G.derive_seed(4, 61, i),
            )
            total_violations += report.plain_containment_violations(scene.cloud.positions)
            qualifying = report.qualifying
            total_qualifying += int(qualifying.sum())
            expanded = report.expanded()
            # strict expansion for every cluster with a qualifying pairing
            assert expanded[qualifying].all(), f"scene {i}: non-expanded qualifying cluster"
        assert total_violations == 0, f"{total_violations} containment violations with no shifting"
        assert total_qualifying > 0, "probe found no qualifying clusters at all"
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"probe took {elapsed:.1f}s (budget 5min)"


# ---------------------------------------------------------------------------
# 5. negligible overhead


def test_criterion_5_negligible_overhead():
    with criterion(5, "negligible shifting overhead"):
        start = time.monotonic()
        synth = DT.SynthConfig()
        anchors = [tuple(c.mean_size) for c in synth.classes]
        cfg_cs = D.default_model_config(anchors=anchors)
        cfg_none = D.with_stage_fields(cfg_cs, exchange_op="none")
        clouds = [
            DT.generate_scene(synth, seed=G.derive_seed(SEED_FAMILY, 50, i)).cloud
            for i in range(2)
        ]
        variants = [
            ("cs", cfg_cs, D.init_model_params(cfg_cs, seed=5)),
            ("none", cfg_none, D.init_model_params(cfg_none, seed=5)),
        ]
        report = H.latency_bench(variants, clouds, repetitions=12, seed=6)
        by = report.by_name()
        ratio = by["cs"].median_ms / by["none"].median_ms
        assert ratio <= 1.5, f"cs/none median latency ratio {ratio:.3f} exceeds 1.5"
        delta = by["cs"].param_count - by["none"].param_count
        assert delta == H.shift_mlp_param_count(cfg_cs), (
            f"parameter delta {delta} != closed form {H.shift_mlp_param_count(cfg_cs)}"
        )
        assert by["none"].param_count < by["cs"].param_count
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"benchmark took {elapsed:.1f}s (budget 2min)"


# ---------------------------------------------------------------------------
# 6. overfit detection


def test_criterion_6_overfit_detection():
    with criterion(6, "overfit training reaches recall 0.9"):
        start = time.monotonic()
        synth = DT.SynthConfig()
        scenes = [
            (DT.generate_scene(synth, seed=G.derive_seed(SEED_FAMILY, 50, i)), f"scene_{i:04d}")
            for i in range(8)
        ]
        model = D.default_model_config(anchors=[tuple(c.mean_size) for c in synth.classes])
        train = H.TrainConfig(epochs=300, peak_lr=0.01, seed=SEED_FAMILY)
        result = H.train_toy(scenes, model, train)

        assert result.final_loss < 0.5 * result.first_epoch_loss, (
            f"final loss {result.final_loss:.4f} vs first {result.first_epoch_loss:.4f}"
        )
        totals = [row["total"] for row in result.history]
        descending = sum(
            1 for i in range(len(totals) - 10) if totals[i + 10] < totals[i]
        ) / (len(totals) - 10)
        assert descending >= 0.8, f"only {descending:.2f} of 10-epoch windows descend"

        recall, _ = H.evaluate(scenes, model, result.params, seed=SEED_FAMILY)
        assert recall >= 0.9, f"recall {recall:.3f} below 0.9"

        # trained votes move candidates toward instance centers
        improvements = []
        for idx, (scene, _) in enumerate(scenes):
            out = D.model_forward(scene.cloud, model, result.params, H.scene_seed(SEED_FAMILY, idx))
            centers = np.array([box.center for box, _ in scene.objects])
            clusters = out.stages[-1].positions
            candidates = out.candidates.values
            d_cluster = np.sqrt(G.pairwise_sq_dist(clusters, centers)).min(axis=1)
            d_candidate = np.sqrt(G.pairwise_sq_dist(candidates, centers)).min(axis=1)
            improvements.append(d_candidate.mean() - d_cluster.mean())
        assert np.mean(improvements) < 0, "votes do not move candidates toward centers"

        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"overfit run took {elapsed:.1f}s (budget 10min)"


# ---------------------------------------------------------------------------
# 7. geometry oracles


def _mc_corners(box):
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    out = []
    for sx in (-0.5, 0.5):
        for sy in (-0.5, 0.5):
            for sz in (-0.5, 0.5):
                lx, ly, lz = sx * box.size[0], sy * box.size[1], sz * box.size[2]
                out.append(box.center + np.array([c * lx - s * ly, s * lx + c * ly, lz]))
    return np.array(out)


def _contains3(pts, box):
    d = pts - box.center
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    return (
        (np.abs(lx) <= box.size[0] / 2)
        & (np.abs(ly) <= box.size[1] / 2)
        & (np.abs(d[:, 2]) <= box.size[2] / 2)
    )


def _contains_bev(pts, box):
    d = pts - box.center[:2]
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    return (np.abs(lx) <= box.size[0] / 2) & (np.abs(ly) <= box.size[1] / 2)


def test_criterion_7_geometry_oracles():
    with criterion(7, "IoU Monte-Carlo and NMS reference"):
        rng = np.random.default_rng(107)
        n_samples = 100_000
        for trial in range(100):
            a = D.Box3D(
                center=rng.uniform(-1.5, 1.5, size=3),
                size=rng.uniform(0.5, 3.0, size=3),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            b = D.Box3D(
                center=rng.uniform(-1.5, 1.5, size=3),
                size=rng.uniform(0.5, 3.0, size=3),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            corners = np.vstack([_mc_corners(a), _mc_corners(b)])
            lo, hi = corners.min(axis=0), corners.max(axis=0)

            pts3 = rng.uniform(lo, hi, size=(n_samples, 3))
            in_a, in_b = _contains3(pts3, a), _contains3(pts3, b)
            union = (in_a | in_b).sum()
            mc3 = (in_a & in_b).sum() / union if union else 0.0
            assert abs(D.iou3d(a, b) - mc3) < 0.02

            pts2 = rng.uniform(lo[:2], hi[:2], size=(n_samples, 2))
            in_a2, in_b2 = _contains_bev(pts2, a), _contains_bev(pts2, b)
            union2 = (in_a2 | in_b2).sum()
            mc2 = (in_a2 & in_b2).sum() / union2 if union2 else 0.0
            assert abs(D.bev_rotated_iou(a, b) - mc2) < 0.02

        # nms3d equals the quadratic reference on 100 random detection sets
        for trial in range(100):
            dets = [
                D.Detection(
                    box=D.Box3D(
                        center=rng.uniform(-4, 4, size=3),
                        size=rng.uniform(0.5, 2.5, size=3),
                        yaw=rng.uniform(-np.pi, np.pi),
                    ),
                    class_id=1,
                    score=float(rng.uniform(0, 1)),
                )
                for _ in range(int(rng.integers(1, 12)))
            ]
            thr = float(rng.uniform(0.1, 0.6))
            got = D.nms3d(dets, thr)
            order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
            keep = []
            for i in order:
                if all(D.iou3d(dets[i].box, dets[j].box) <= thr for j in keep):
                    keep.append(i)
            ref = [dets[i] for i in keep]
            assert [d.score for d in got] == [d.score for d in ref]
            for x in range(len(got)):
                for y in range(x + 1, len(got)):
                    assert D.iou3d(got[x].box, got[y].box) <= thr


# ---------------------------------------------------------------------------
# 8. ablation scaffold fidelity


def test_criterion_8_ablation_scaffold():
    with criterion(8, "ablation grid axes and reproducibility"):
        synth = DT.SynthConfig(
            extent=10.0,
            points_per_scene=96,
            noise_points=40,
            objects_min=1,
            objects_max=2,
            classes=[
                DT.ClassSpec("crate", (2.0, 1.2, 1.0), (0.2, 0.1, 0.1)),
                DT.ClassSpec("post", (0.8, 0.8, 1.6), (0.05, 0.05, 0.1)),
            ],
        )
        scenes = [
            (DT.generate_scene(synth, seed=G.derive_seed(8, 70, i)), f"s{i}")
            for i in range(2)
        ]

        def stage(radii, width, agg):
            return S.SsaConfig(
                scales=[
                    S.ScaleConfig(radius=radii[0], k=4, mlp=[width]),
                    S.ScaleConfig(radius=radii[1], k=8, mlp=[width]),
                ],
                shift_ratio=1.0 / 8.0,
                aggregation=[agg],
                exchange_op="cs",
                selection="farthest",
            )

        base = D.ModelConfig(
            stage_points=(24, 8),
            stage_ssa=[stage((1.2, 2.4), 8, 12), stage((2.0, 4.0), 12, 16)],
            num_classes=2,
            anchors=[(2.0, 1.2, 1.0), (0.8, 0.8, 1.6)],
            vote_hidden=[12],
            agg_radius=3.0,
            agg_k=8,
            agg_f=[16],
            agg_a=[16],
            head_hidden=[12],
            angle_bins=4,
            score_threshold=0.2,
        )

        train = H.TrainConfig(epochs=2, peak_lr=0.005, seed=8)
        first = H.run_ablation(scenes, base, train)
        second = H.run_ablation(scenes, base, train)

        assert first.axis_values("ratio") == ["0", "1/16", "1/8", "1/4", "1/2"]
        assert first.axis_values("selection") == [
            "farthest", "nearest", "feats_scale", "points_num",
        ]
        assert first.axis_values("exchange") == ["none", "concat", "avg", "attn", "cs"]
        for ca, cb in zip(first.cells, second.cells):
            assert ca.status == "ok", f"{ca.axis}={ca.value} failed: {ca.detail}"
            assert ca.recall == cb.recall
            assert ca.mean_loss == cb.mean_loss


# ---------------------------------------------------------------------------
# 9. round-trips


def test_criterion_9_round_trips(tmp_path):
    with criterion(9, "file formats and box codec round-trip"):
        rng = np.random.default_rng(109)

        # box encode/decode on 1000 random instances
        for _ in range(1000):
            box = D.Box3D(
                center=rng.uniform(-20, 20, size=3),
                size=rng.uniform(0.2, 6.0, size=3),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            candidate = rng.uniform(-20, 20, size=3)
            anchor = rng.uniform(0.3, 5.0, size=3)
            center_res, size_res = D.encode_box(box, candidate, anchor)
            bin_id, bin_res = D.encode_angle(box.yaw, 12)
            back = D.decode_box(center_res, size_res, bin_id, bin_res, candidate, anchor, 12)
            np.testing.assert_allclose(back.center, box.center, atol=1e-9)
            np.testing.assert_allclose(back.size, box.size, rtol=1e-9)
            assert abs(D.normalize_yaw(back.yaw - box.yaw)) < 1e-9

        # cloud file: 1000 points, float32 exact
        pos = rng.uniform(-50, 50, size=(1000, 3)).astype(np.float32).astype(np.float64)
        inten = rng.uniform(0, 1, size=(1000, 1)).astype(np.float32).astype(np.float64)
        cloud_path = tmp_path / "cloud.bin"
        DT.write_cloud(cloud_path, G.PointCloud(positions=pos, features=inten))
        back_cloud = DT.read_cloud(cloud_path)
        assert back_cloud.positions.tobytes() == pos.tobytes()
        assert back_cloud.features.tobytes() == inten.tobytes()

        # labels: 1000 boxes, lossless JSON
        objects = [
            (
                D.Box3D(
                    center=rng.uniform(-30, 30, size=3),
                    size=rng.uniform(0.2, 8.0, size=3),
                    yaw=rng.uniform(-np.pi, np.pi),
                ),
                int(rng.integers(1, 5)),
            )
            for _ in range(1000)
        ]
        label_path = tmp_path / "labels.json"
        DT.write_labels(label_path, objects)
        back_labels = DT.read_labels(label_path)
        assert len(back_labels) == 1000
        for (box, cls), (box2, cls2) in zip(objects, back_labels):
            assert cls == cls2 and box.yaw == box2.yaw
            assert box.center.tobytes() == box2.center.tobytes()
            assert box.size.tobytes() == box2.size.tobytes()

        # detections: 1000 lines, lossless JSONL
        dets = [
            D.Detection(
                box=D.Box3D(
                    center=rng.uniform(-30, 30, size=3),
                    size=rng.uniform(0.2, 8.0, size=3),
                    yaw=rng.uniform(-np.pi, np.pi),
                ),
                class_id=int(rng.integers(1, 5)),
                score=float(rng.uniform(0, 1)),
            )
            for _ in range(1000)
        ]
        det_path = tmp_path / "dets.jsonl"
        DT.write_detections(det_path, "scene", dets)
        back_dets = DT.read_detections(det_path)
        assert len(back_dets) == 1000
        for (sid, det2), det in zip(back_dets, dets):
            assert sid == "scene" and det2.score == det.score
            assert det2.box.center.tobytes() == det.box.center.tobytes()
            assert det2.box.yaw == det.box.yaw
