import dataclasses

import numpy as np
import pytest

from shiftssd import detector as D
from shiftssd import geometry as G
from shiftssd import ssa as S
from shiftssd import tensor as T


def tiny_config(exchange="cs", stages=((12, (1.5, 3.0)), (6, (2.5, 5.0)))):
    ssa_cfgs = [
        S.SsaConfig(
            scales=[
                S.ScaleConfig(radius=radii[0], k=4, mlp=[6]),
                S.ScaleConfig(radius=radii[1], k=6, mlp=[6]),
            ],
            shift_ratio=0.25,
            aggregation=[8],
            exchange_op=exchange,
        )
        for _, radii in stages
    ]
    return D.ModelConfig(
        stage_points=tuple(m for m, _ in stages),
        stage_ssa=ssa_cfgs,
        num_classes=2,
        anchors=[(2.0, 1.0, 1.0), (0.8, 0.8, 1.6)],
        vote_hidden=[8],
        agg_radius=3.0,
        agg_k=6,
        agg_f=[10],
        agg_a=[10],
        head_hidden=[8],
        angle_bins=4,
        score_threshold=0.3,
    )


def tiny_cloud(rng, n=24):
    return G.PointCloud(
        positions=rng.uniform(-4, 4, size=(n, 3)),
        features=rng.uniform(0, 1, size=(n, 1)),
    )


def random_box(rng, center_span=2.0):
    return D.Box3D(
        center=rng.uniform(-center_span, center_span, size=3),
        size=rng.uniform(0.5, 3.0, size=3),
        yaw=rng.uniform(-np.pi, np.pi),
    )


def mc_iou3d(a, b, n_samples=100_000, seed=0):
    """Monte-Carlo IoU oracle: uniform samples over the joint bounding box."""
    corners = np.vstack([_corners(a), _corners(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    in_a = _contains(pts, a)
    in_b = _contains(pts, b)
    union = (in_a | in_b).sum()
    return (in_a & in_b).sum() / union if union else 0.0


def _corners(box):
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    out = []
    for sx in (-0.5, 0.5):
        for sy in (-0.5, 0.5):
            for sz in (-0.5, 0.5):
                lx, ly, lz = sx * box.size[0], sy * box.size[1], sz * box.size[2]
                out.append(box.center + np.array([c * lx - s * ly, s * lx + c * ly, lz]))
    return np.array(out)


def _contains(pts, box):
    d = pts - box.center
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    lx = c * d[:, 0] + s * d[:, 1]
    ly = -s * d[:, 0] + c * d[:, 1]
    return (
        (np.abs(lx) <= box.size[0] / 2)
        & (np.abs(ly) <= box.size[1] / 2)
        & (np.abs(d[:, 2]) <= box.size[2] / 2)
    )


class TestBox3D:
    def test_yaw_normalized(self):
        box = D.Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=3 * np.pi)
        assert -np.pi <= box.yaw < np.pi

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="positive"):
            D.Box3D(center=[0, 0, 0], size=[0.0, 1, 1], yaw=0.0)

    def test_footprint_cannot_go_stale(self):
        center, size = np.array([1.0, 2.0, 0.5]), np.array([4.0, 2.0, 1.5])
        box = D.Box3D(center=center, size=size, yaw=0.3)
        assert box.footprint == D.box_corners(center, size, box.yaw)[0, :4, :2].tolist()
        for field in (box.center, box.size):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 9.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.yaw = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.center = np.zeros(3)
        center[0] = size[0] = 9.0  # the caller's arrays stay writable and are not the box's
        assert box.center[0] == 1.0 and box.size[0] == 4.0


class TestBackbone:
    def test_single_stage_full_count_is_permutation(self):
        rng = np.random.default_rng(0)
        cloud = tiny_cloud(rng, 12)
        config = tiny_config(stages=((12, (1.5, 3.0)),))
        params = D.init_model_params(config, seed=1)
        _, decisions = D.backbone_forward(cloud, config, params, seed=2)
        assert sorted(decisions[0].cluster_indices.tolist()) == list(range(12))

    def test_stage_shapes_chain(self):
        rng = np.random.default_rng(1)
        cloud = tiny_cloud(rng, 24)
        config = tiny_config()
        params = D.init_model_params(config, seed=3)
        stages, _ = D.backbone_forward(cloud, config, params, seed=4)
        assert stages[0].aggregated.shape == (12, 8)
        assert stages[1].aggregated.shape == (6, 8)
        assert stages[1].positions.shape == (6, 3)

    def test_default_model_with_new_scales_runs(self):
        # the stages' partner radius and candidate count follow the new scales
        config = D.with_stage_fields(D.default_model_config(), scales=[S.ScaleConfig(radius=5.0, k=8, mlp=[16])])
        assert all(cfg.resolved().r_prime == 10.0 for cfg in config.stage_ssa)
        cloud = tiny_cloud(np.random.default_rng(4), 600)
        params = D.init_model_params(config, seed=1)
        out = D.model_forward(cloud, config, params, seed=2)
        assert out.stages[-1].aggregated.shape == (32, config.stage_ssa[-1].out_channels)

    def test_default_model_has_one_class_per_anchor(self):
        config = D.default_model_config()
        assert config.anchors == [(4.2, 1.9, 1.6), (0.8, 0.8, 1.7)] and config.num_classes == 2
        anchors = [(1.0, 1.0, 1.0)] * 3
        config = D.default_model_config(anchors)
        assert config.anchors == anchors and config.num_classes == 3

    def test_first_stage_takes_the_cloud_format_width(self):
        params = D.init_model_params(tiny_config(), seed=0)
        assert {mlp.layers[0].in_width for mlp in params.backbone[0].f_mlps} == {3 + D.CLOUD_CHANNELS}
        assert tiny_cloud(np.random.default_rng(0)).channels == D.CLOUD_CHANNELS

    def test_insufficient_points(self):
        rng = np.random.default_rng(2)
        cloud = tiny_cloud(rng, 8)
        config = tiny_config()
        params = D.init_model_params(config, seed=5)
        with pytest.raises(ValueError, match="insufficient points"):
            D.backbone_forward(cloud, config, params, seed=6)

    def test_two_stage_gradient(self):
        rng = np.random.default_rng(3)
        cloud = tiny_cloud(rng, 20)
        config = tiny_config()
        params = D.init_model_params(config, seed=7)
        out0 = D.model_forward(cloud, config, params, seed=8)
        frozen = out0.decisions
        probe = T.Tensor(np.random.default_rng(9).normal(size=out0.stages[-1].aggregated.shape))

        def f():
            stages, _ = D.backbone_forward(cloud, config, params, seed=8, frozen=frozen.stages)
            return T.mean_all(T.mul(stages[-1].aggregated, probe))

        tensors = [t for p in params.backbone for t in p.tensors()]
        assert T.grad_check(f, tensors, eps=1e-5) < 1e-4


class TestDecisionReplay:
    def test_frozen_decisions_reproduce_forward(self):
        rng = np.random.default_rng(10)
        cloud = tiny_cloud(rng, 24)
        # 10 candidates with k = 6 and a radius that takes in every cluster:
        # each aggregation row subsamples, so its table depends on the seed
        config = dataclasses.replace(tiny_config(stages=((16, (1.5, 3.0)), (10, (2.5, 5.0)))), agg_radius=20.0)
        params = D.init_model_params(config, seed=11)
        out = D.model_forward(cloud, config, params, seed=12)
        stages_only = D.DetectorDecisions(stages=out.decisions.stages)
        other = D.model_forward(cloud, config, params, seed=99, frozen=stages_only)
        assert (other.decisions.agg_table.indices != out.decisions.agg_table.indices).any()
        # a full replay draws nothing, so its seed does not matter
        replay = D.model_forward(cloud, config, params, seed=99, frozen=out.decisions)
        for field in dataclasses.fields(D.RawPrediction):
            got, want = getattr(replay.raw, field.name), getattr(out.raw, field.name)
            assert got.values.tobytes() == want.values.tobytes(), field.name
        assert replay.candidates.values.tobytes() == out.candidates.values.tobytes()

        # train_toy's cache keeps only the stages; the same seed redraws the same table
        redrawn = D.model_forward(cloud, config, params, seed=12, frozen=stages_only)
        np.testing.assert_array_equal(redrawn.decisions.agg_table.indices, out.decisions.agg_table.indices)
        np.testing.assert_array_equal(redrawn.decisions.agg_table.valid, out.decisions.agg_table.valid)


class TestVoteLayer:
    def test_zero_weights_keep_clusters(self):
        rng = np.random.default_rng(4)
        final = S.ClusterFeatures(
            positions=rng.uniform(-1, 1, size=(5, 3)),
            aggregated=T.Tensor(rng.normal(size=(5, 4))),
        )
        vote = T.MlpParams(
            layers=[T.LinearParams(T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((1, 3))))],
            final_relu=False,
        )
        candidates, offsets = D.vote_layer(final, vote)
        np.testing.assert_array_equal(offsets.values, np.zeros((5, 3)))
        np.testing.assert_array_equal(candidates.values, final.positions)

    def test_forced_unit_offset(self):
        rng = np.random.default_rng(5)
        final = S.ClusterFeatures(
            positions=rng.uniform(-1, 1, size=(4, 3)),
            aggregated=T.Tensor(rng.normal(size=(4, 2))),
        )
        vote = T.MlpParams(
            layers=[
                T.LinearParams(
                    T.Tensor(np.zeros((3, 2))), T.Tensor(np.array([[1.0, 0.0, 0.0]]))
                )
            ],
            final_relu=False,
        )
        candidates, _ = D.vote_layer(final, vote)
        np.testing.assert_allclose(candidates.values, final.positions + [1.0, 0.0, 0.0])


def candidate_table(candidates, src_pos, radius, k, seed):
    """The aggregation table model_forward draws: candidate i anchored to source row i."""
    cloud = G.PointCloud(positions=src_pos)
    return G.ball_query(cloud, candidates.values, radius, k, seed, self_indices=np.arange(candidates.shape[0]))


class TestCandidateAggregation:
    def test_isolated_candidate_anchors_to_origin_cluster(self):
        src_pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        src_feat = T.Tensor(np.array([[1.0], [2.0]]))
        candidates = T.Tensor(np.array([[40.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
        f_mlp = T.MlpParams(
            layers=[T.LinearParams(T.Tensor(np.eye(4)), T.Tensor(np.zeros((1, 4))))],
            final_relu=False,
        )
        a_mlp = T.MlpParams(
            layers=[T.LinearParams(T.Tensor(np.eye(4)), T.Tensor(np.zeros((1, 4))))],
            final_relu=False,
        )
        table = candidate_table(candidates, src_pos, radius=1.0, k=3, seed=0)
        out = D.candidate_aggregation(candidates, src_pos, src_feat, table, f_mlp, a_mlp)
        assert table.indices[0, 0] == 0
        assert table.valid[0].sum() == 1
        # the isolated candidate still summarizes its origin cluster
        np.testing.assert_allclose(out.values[0, 0], 1.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        src_pos = rng.uniform(-2, 2, size=(10, 3))
        src_feat_np = rng.normal(size=(10, 2))
        cand_np = src_pos[:4] + rng.normal(scale=0.2, size=(4, 3))
        f_mlp = T.init_mlp([5, 6], rng, final_relu=True)
        a_mlp = T.init_mlp([6, 4], rng, final_relu=True)
        table = candidate_table(T.Tensor(cand_np), src_pos, radius=2.0, k=5, seed=1)
        out = D.candidate_aggregation(T.Tensor(cand_np), src_pos, T.Tensor(src_feat_np), table, f_mlp, a_mlp)
        for i in range(4):
            best = np.full(6, -np.inf)
            for slot in range(5):
                if not table.valid[i, slot]:
                    continue
                j = table.indices[i, slot]
                row = np.concatenate([src_feat_np[j], src_pos[j] - cand_np[i]])
                h = np.maximum(0.0, f_mlp.layers[0].weight.values @ row + f_mlp.layers[0].bias.values[0])
                best = np.maximum(best, h)
            expected = np.maximum(0.0, a_mlp.layers[0].weight.values @ best + a_mlp.layers[0].bias.values[0])
            np.testing.assert_allclose(out.values[i], expected, atol=1e-12)

    def test_gradient_flows_into_candidates(self):
        rng = np.random.default_rng(7)
        src_pos = rng.uniform(-1, 1, size=(6, 3))
        src_feat = T.Tensor(rng.normal(size=(6, 1)))
        cand = T.Tensor(src_pos[:3] + rng.normal(scale=0.05, size=(3, 3)))
        f_mlp = T.init_mlp([4, 5], rng)
        a_mlp = T.init_mlp([5, 3], rng)
        table = candidate_table(cand, src_pos, radius=1.5, k=4, seed=2)

        def f():
            out = D.candidate_aggregation(cand, src_pos, src_feat, table, f_mlp, a_mlp)
            return T.mean_all(T.mul(out, out))

        assert T.grad_check(f, [cand] + f_mlp.tensors(), eps=1e-5) < 1e-4


class TestBoxCodec:
    def test_zero_residuals_bin_zero(self):
        box = D.decode_box(
            np.zeros(3), np.zeros(3), 0, 0.0, candidate=[1.0, 2.0, 3.0],
            anchor=[4.0, 2.0, 1.5], bins=12,
        )
        np.testing.assert_array_equal(box.center, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(box.size, [4.0, 2.0, 1.5])
        assert box.yaw == D.bin_center(0, 12) == 0.0

    def test_log2_size_residual_doubles(self):
        box = D.decode_box(
            np.zeros(3), np.full(3, np.log(2.0)), 0, 0.0,
            candidate=np.zeros(3), anchor=[1.0, 2.0, 3.0], bins=12,
        )
        np.testing.assert_allclose(box.size, [2.0, 4.0, 6.0])

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            box = random_box(rng)
            candidate = rng.uniform(-2, 2, size=3)
            anchor = rng.uniform(0.5, 3.0, size=3)
            center_res, size_res = D.encode_box(box, candidate, anchor)
            bin_id, bin_res = D.encode_angle(box.yaw, 12)
            back = D.decode_box(center_res, size_res, bin_id, bin_res, candidate, anchor, 12)
            np.testing.assert_allclose(back.center, box.center, atol=1e-9)
            np.testing.assert_allclose(back.size, box.size, rtol=1e-9)
            assert abs(D.normalize_yaw(back.yaw - box.yaw)) < 1e-9

    def test_angle_residual_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            _, res = D.encode_angle(rng.uniform(-np.pi, np.pi), 12)
            assert abs(res) <= 1.0 + 1e-12


class TestRotatedIoU:
    def test_identical_boxes(self):
        box = random_box(np.random.default_rng(10))
        assert D.bev_rotated_iou(box, box) == pytest.approx(1.0, abs=1e-12)
        assert D.iou3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_boxes(self):
        a = D.Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=0.3)
        b = D.Box3D(center=[100, 0, 0], size=[1, 1, 1], yaw=-0.7)
        assert D.bev_rotated_iou(a, b) == 0.0
        assert D.iou3d(a, b) == 0.0

    def test_axis_aligned_offset_squares(self):
        a = D.Box3D(center=[0, 0, 0], size=[2, 2, 1], yaw=0.0)
        b = D.Box3D(center=[1, 0, 0], size=[2, 2, 1], yaw=0.0)
        assert D.bev_rotated_iou(a, b) == pytest.approx(2.0 / 6.0, abs=1e-12)

    def test_same_footprint_disjoint_heights(self):
        a = D.Box3D(center=[0, 0, 0], size=[2, 2, 1], yaw=0.5)
        b = D.Box3D(center=[0, 0, 5], size=[2, 2, 1], yaw=0.5)
        assert D.iou3d(a, b) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            iou_ab = D.bev_rotated_iou(a, b)
            iou_ba = D.bev_rotated_iou(b, a)
            assert iou_ab == pytest.approx(iou_ba, abs=1e-9)
            assert 0.0 <= iou_ab <= 1.0

    def test_float_clip_equals_numpy_clip_oracle(self):
        rng = np.random.default_rng(26)
        touching = 0
        for a, b in overlap_pairs(rng, 2500):
            for x, y in ((a, b), (b, a)):
                got, expected = D.bev_intersection_area(x, y), numpy_clip_area(x, y)
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()
            touching += (a.yaw == b.yaw == 0.0) and got == 0.0
        assert touching > 0  # boxes sharing only an edge have no overlap

    def test_near_coincident_boxes_give_finite_symmetric_iou(self):
        # a crossing found by rounding alone has a zero denominator; it must not turn into nan
        center = np.array([2.06274337421236, -0.45536108733592284, 2.878132251057939])
        size = [3.903742297953714, 2.1636048230421423, 3.087752192760449]
        a = D.Box3D(center=center, size=size, yaw=-2.972483965794283)
        b = D.Box3D(center=[center[0], np.nextafter(center[1], -np.inf), center[2]], size=size, yaw=a.yaw)
        for iou in (D.iou3d, D.bev_rotated_iou):
            ab, ba = iou(a, b), iou(b, a)
            assert np.isfinite([ab, ba]).all() and abs(ab - ba) < 1e-12
            assert ab == pytest.approx(1.0, abs=1e-6)
        rng = np.random.default_rng(27)
        for _ in range(4000):
            a = random_box(rng)
            eps = 10.0 ** -rng.uniform(9, 17)
            b = D.Box3D(center=a.center + rng.normal(size=3) * eps, size=a.size, yaw=a.yaw + rng.normal() * eps)
            assert D.iou3d(a, b) == pytest.approx(1.0, abs=1e-6)
            assert D.iou3d(b, a) == pytest.approx(1.0, abs=1e-6)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            a, b = random_box(rng), random_box(rng)
            got = D.iou3d(a, b)
            est = mc_iou3d(a, b, n_samples=100_000, seed=trial)
            assert abs(got - est) < 0.02

    def test_yaw_periodicity(self):
        a = D.Box3D(center=[0, 0, 0], size=[3, 1, 1], yaw=0.4)
        b = D.Box3D(center=[0, 0, 0], size=[3, 1, 1], yaw=0.4 + np.pi)
        assert D.bev_rotated_iou(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_quarter_turn_not_identical_unless_square(self):
        long_box = D.Box3D(center=[0, 0, 0], size=[3, 1, 1], yaw=0.0)
        turned = D.Box3D(center=[0, 0, 0], size=[3, 1, 1], yaw=np.pi / 2)
        assert D.bev_rotated_iou(long_box, turned) < 0.5
        square = D.Box3D(center=[0, 0, 0], size=[2, 2, 1], yaw=0.0)
        square_turned = D.Box3D(center=[0, 0, 0], size=[2, 2, 1], yaw=np.pi / 2)
        assert D.bev_rotated_iou(square, square_turned) == pytest.approx(1.0, abs=1e-9)


def numpy_clip_area(a, b):
    """BEV overlap by the Sutherland-Hodgman clip on numpy vertices, both
    footprints from one two-box box_corners call."""
    subject, clip = D.box_corners([a.center, b.center], [a.size, b.size], [a.yaw, b.yaw])[:, :4, :2]
    output = list(subject)
    for i in range(4):
        if not output:
            break
        p, q = clip[i], clip[(i + 1) % 4]
        edge = q - p
        inputs, output = output, []
        prev = inputs[-1]
        prev_in = edge[0] * (prev[1] - p[1]) - edge[1] * (prev[0] - p[0]) >= 0
        for cur in inputs:
            cur_in = edge[0] * (cur[1] - p[1]) - edge[1] * (cur[0] - p[0]) >= 0
            if cur_in != prev_in:
                d = cur - prev
                denom = edge[0] * d[1] - edge[1] * d[0]
                t = (edge[0] * (p[1] - prev[1]) - edge[1] * (p[0] - prev[0])) / denom if denom else 0.0
                output.append(prev + t * d)
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    if len(output) < 3:
        return 0.0
    area = 0.0
    for i in range(len(output)):
        v, w = output[i], output[(i + 1) % len(output)]
        area += v[0] * w[1] - w[0] * v[1]
    return abs(area) / 2.0


def overlap_pairs(rng, count):
    """Random box pairs: identical, equal yaws, edges touching on a lattice,
    near-coincident (where the clip meets zero denominators), general."""
    for trial in range(count):
        a = random_box(rng)
        kind = trial % 5
        if kind == 0:
            b = D.Box3D(center=a.center, size=a.size, yaw=a.yaw)
        elif kind == 1:
            b = D.Box3D(center=a.center + rng.uniform(-1.5, 1.5, size=3), size=rng.uniform(0.5, 3.0, size=3),
                        yaw=a.yaw + np.pi / 2 * int(rng.integers(4)))
        elif kind == 2:
            size = np.round(rng.uniform(1.0, 4.0, size=3))
            a = D.Box3D(center=np.round(a.center), size=size, yaw=0.0)
            b = D.Box3D(center=a.center + [size[0], float(rng.integers(-1, 2)), 0.0], size=size, yaw=0.0)
        elif kind == 3:
            eps = 10.0 ** -int(rng.integers(9, 18))
            b = D.Box3D(center=a.center + rng.normal(size=3) * eps, size=a.size, yaw=a.yaw + rng.normal() * eps)
        else:
            b = random_box(rng)
        yield a, b


def nms_reference(dets, thr):
    """Quadratic reference: independently re-derives the keep set."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    keep = []
    for i in order:
        ok = True
        for j in keep:
            if D.iou3d(dets[i].box, dets[j].box) > thr:
                ok = False
                break
        if ok:
            keep.append(i)
    return [dets[i] for i in keep]


class TestNms:
    def test_single_detection(self):
        det = D.Detection(box=random_box(np.random.default_rng(13)), class_id=1, score=0.5)
        assert D.nms3d([det], 0.25) == [det]

    def test_duplicate_keeps_higher_score(self):
        box = random_box(np.random.default_rng(14))
        lo = D.Detection(box=box, class_id=1, score=0.8)
        hi = D.Detection(box=box, class_id=1, score=0.9)
        out = D.nms3d([lo, hi], 0.25)
        assert len(out) == 1 and out[0].score == 0.9

    def test_matches_reference_and_survivor_property(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            dets = [
                D.Detection(box=random_box(rng, center_span=3.0), class_id=1,
                            score=float(rng.uniform(0, 1)))
                for _ in range(12)
            ]
            got = D.nms3d(dets, 0.3)
            ref = nms_reference(dets, 0.3)
            assert [d.score for d in got] == [d.score for d in ref]
            scores = [d.score for d in got]
            assert scores == sorted(scores, reverse=True)
            for i in range(len(got)):
                for j in range(i + 1, len(got)):
                    assert D.iou3d(got[i].box, got[j].box) <= 0.3

    @pytest.mark.parametrize("thr", [0.0, -0.1])
    def test_far_apart_boxes_match_reference(self, thr, monkeypatch):
        # clusters 20 m apart: pairs across clusters have IoU exactly 0
        rng = np.random.default_rng(16)
        dets = [
            D.Detection(
                box=D.Box3D(
                    center=np.array([20.0 * (i % 3), 0.0, 0.0]) + rng.uniform(-1, 1, size=3),
                    size=rng.uniform(0.5, 3.0, size=3),
                    yaw=rng.uniform(-np.pi, np.pi),
                ),
                class_id=1,
                score=float(rng.uniform(0, 1)),
            )
            for i in range(12)
        ]
        ref = nms_reference(dets, thr)
        calls = []
        pair_iou = D.iou3d
        monkeypatch.setattr(D, "iou3d", lambda *args: calls.append(1) or pair_iou(*args))
        got = D.nms3d(dets, thr)
        assert [d.score for d in got] == [d.score for d in ref]
        if thr >= 0:
            assert len(ref) > 3  # every cluster keeps several boxes
            assert len(calls) < len(ref) * (len(ref) - 1) // 2  # far pairs skipped
        else:
            assert len(ref) == 1  # IoU 0 exceeds a negative threshold

    def test_overlapping_pairs_go_through_iou3d(self, monkeypatch):
        # a trace of detect counts NMS pair overlaps by wrapping iou3d
        dets = [
            D.Detection(box=D.Box3D(center=[0.1 * i, 0.0, 0.0], size=[2.0, 1.0, 1.0], yaw=0.2 * i),
                        class_id=1, score=0.9 - 0.1 * i)
            for i in range(4)
        ]
        calls = []
        pair_iou = D.iou3d
        monkeypatch.setattr(D, "iou3d", lambda a, b: calls.append(1) or pair_iou(a, b))
        assert len(D.nms3d(dets, 0.99)) == 4
        assert len(calls) == 6  # every pair of kept boxes


class TestPostprocess:
    def test_sub_threshold_candidate_is_never_decoded(self):
        # candidate 1 is background with a size residual whose exp overflows
        config = tiny_config()
        logits = np.array([[0.0, 5.0, 0.0], [5.0, 0.0, 0.0]])
        reg = np.zeros((2, 6 + 2 * config.angle_bins))
        reg[1, 3:6] = 800.0
        raw = D.RawPrediction(
            cls_logits=T.Tensor(logits), center=T.Tensor(reg[:, :3]), size=T.Tensor(reg[:, 3:6]),
            bin_logits=T.Tensor(reg[:, 6:10]), bin_res=T.Tensor(reg[:, 10:]),
        )
        out = D.ForwardOutput(stages=[], offsets=T.Tensor(np.zeros((2, 3))),
                              candidates=T.Tensor(np.zeros((2, 3))), raw=raw, decisions=None)
        dets = D.postprocess(out, config)
        assert [d.class_id for d in dets] == [1]
        np.testing.assert_array_equal(dets[0].box.size, config.anchors[0])


class TestDetect:
    def test_untrained_contract(self):
        rng = np.random.default_rng(16)
        cloud = tiny_cloud(rng, 24)
        config = tiny_config()
        params = D.init_model_params(config, seed=17)
        dets = D.detect(cloud, config, params, seed=18)
        assert isinstance(dets, list)
        for det in dets:
            assert 0.0 <= det.score <= 1.0
            assert 1 <= det.class_id <= config.num_classes

    def test_impossible_threshold_yields_empty(self):
        rng = np.random.default_rng(19)
        cloud = tiny_cloud(rng, 24)
        config = tiny_config()
        config.score_threshold = 2.0
        params = D.init_model_params(config, seed=20)
        assert D.detect(cloud, config, params, seed=21) == []

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        cloud = tiny_cloud(rng, 24)
        config = tiny_config()
        config.score_threshold = 0.0
        params = D.init_model_params(config, seed=23)
        a = D.detect(cloud, config, params, seed=24)
        b = D.detect(cloud, config, params, seed=24)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.score == db.score
            np.testing.assert_array_equal(da.box.center, db.box.center)

    def test_parameter_count_exact(self):
        config = tiny_config()
        params = D.init_model_params(config, seed=25)
        total = D.count_parameters(params)
        by_hand = sum(t.values.size for _, t in params.named())
        assert total == by_hand > 0
