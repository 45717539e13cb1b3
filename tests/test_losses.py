import dataclasses

import numpy as np
import pytest

from shiftssd import detector as D
from shiftssd import losses as L
from shiftssd import ssa as S
from shiftssd import tensor as T
from shiftssd.detector import Box3D


def small_config():
    return D.ModelConfig(
        stage_points=(4,),
        stage_ssa=[S.SsaConfig(scales=[S.ScaleConfig(radius=1.0, k=2, mlp=[4])])],
        num_classes=2,
        anchors=[(2.0, 1.0, 1.0), (1.0, 1.0, 2.0)],
        angle_bins=4,
    )


class TestSmoothL1:
    def test_zero(self):
        assert L.smooth_l1(np.array([0.0])).item() == 0.0

    def test_boundary_continuity(self):
        beta = 1.0
        assert L.smooth_l1(np.array([beta]), beta=beta).item() == pytest.approx(0.5 * beta)
        beta = 0.5
        assert L.smooth_l1(np.array([beta]), beta=beta).item() == pytest.approx(0.5 * beta)

    def test_piecewise_values(self):
        # below beta: quadratic; above: linear minus half beta
        assert L.smooth_l1(np.array([0.5]), beta=1.0).item() == pytest.approx(0.125)
        assert L.smooth_l1(np.array([3.0]), beta=1.0).item() == pytest.approx(2.5)

    def test_gradient_away_from_boundary(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(3, 4))
        vals[np.abs(np.abs(vals) - 1.0) < 0.05] = 0.5  # stay off |x| = beta
        x = T.Tensor(vals)

        def f():
            return L.smooth_l1(x)

        assert T.grad_check(f, [x], eps=1e-5) < 1e-6

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            L.smooth_l1(np.array([1.0]), beta=0.0)


class TestClsLoss:
    def test_uniform_logits_three_classes(self):
        logits = T.Tensor(np.zeros((5, 3)))
        out = L.cls_loss(logits, np.array([0, 1, 2, 0, 1]))
        assert out.item() == pytest.approx(np.log(3.0))

    def test_saturated_correct_logits(self):
        logits_np = np.full((4, 3), -1000.0)
        labels = np.array([0, 2, 1, 0])
        logits_np[np.arange(4), labels] = 1000.0
        out = L.cls_loss(T.Tensor(logits_np), labels)
        assert out.item() == pytest.approx(0.0, abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        logits = T.Tensor(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 4, size=6)

        def f():
            return L.cls_loss(logits, labels)

        assert T.grad_check(f, [logits], eps=1e-5) < 1e-5

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            L.cls_loss(T.Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestAssignTargets:
    def test_cluster_inside_box_is_positive(self):
        box = Box3D(center=[0, 0, 0], size=[2, 2, 2], yaw=0.3)
        # cluster 0 sits inside the box, wherever its vote lands
        targets = L.assign_targets(
            cluster_positions=np.array([[0.5, 0.0, 0.0], [5.0, 5.0, 5.0]]),
            objects=[(box, 1)],
        )
        assert targets.positive.tolist() == [True, False]
        assert targets.class_ids.tolist() == [1, 0]
        np.testing.assert_allclose(targets.vote_targets[0], box.center - [0.5, 0.0, 0.0])

    def test_rotated_containment(self):
        box = Box3D(center=[0, 0, 0], size=[4, 0.5, 1], yaw=np.pi / 2)
        # the long axis now points along +y
        assert L.point_in_box(np.array([0.0, 1.8, 0.0]), box)
        assert not L.point_in_box(np.array([1.8, 0.0, 0.0]), box)

    def test_containment_keeps_the_point_shape(self):
        box = Box3D(center=[0, 0, 0], size=[4, 0.5, 1], yaw=np.pi / 2)
        points = np.random.default_rng(11).uniform(-2.5, 2.5, size=(4, 5, 3))
        inside = L.point_in_box(points, box)
        assert inside.shape == (4, 5)
        assert inside.tolist() == [[bool(L.point_in_box(p, box)) for p in row] for row in points]

    @staticmethod
    def pair_oracle(clusters, objects, margin):
        """The first box in label order whose inflated copy holds each cluster."""
        owner = []
        for point in clusters:
            hit = None
            for j, (box, _) in enumerate(objects):
                if L.point_in_box(point, Box3D(center=box.center, size=box.size + margin, yaw=box.yaw)):
                    hit = j
                    break
            owner.append(hit)
        return owner

    def assert_matches_oracle(self, clusters, objects, margin):
        targets = L.assign_targets(clusters, objects, margin=margin)
        owner = self.pair_oracle(clusters, objects, margin)
        assert targets.positive.tolist() == [j is not None for j in owner]
        assert targets.class_ids.tolist() == [0 if j is None else objects[j][1] for j in owner]
        assert [b is None for b in targets.boxes] == [j is None for j in owner]
        for i, j in enumerate(owner):
            if j is None:
                assert not targets.vote_targets[i].any()
            else:
                assert targets.boxes[i] is objects[j][0]
                assert targets.vote_targets[i].tobytes() == (objects[j][0].center - clusters[i]).tobytes()
        return targets

    def test_overlapping_inflated_boxes_take_the_first_label(self):
        rng = np.random.default_rng(12)
        objects = [
            (Box3D(center=[0.0, 0.0, 0.5], size=[2.0, 1.0, 1.0], yaw=0.3), 2),
            (Box3D(center=[1.2, 0.4, 0.5], size=[1.5, 1.5, 1.0], yaw=-0.8), 1),
            (Box3D(center=[-1.0, 0.8, 0.6], size=[1.0, 2.0, 1.2], yaw=1.9), 2),
        ]
        clusters = rng.uniform(-3, 3, size=(400, 3))
        targets = self.assert_matches_oracle(clusters, objects, margin=0.9)
        owners = {id(b) for b in targets.boxes if b is not None}
        assert len(owners) == 3
        # some cluster lies in two inflated boxes and went to the first
        second = Box3D(center=objects[1][0].center, size=objects[1][0].size + 0.9, yaw=objects[1][0].yaw)
        both = np.flatnonzero(L.point_in_box(clusters, second) & (targets.class_ids == 2))
        assert both.size > 0

    def test_no_objects_and_no_clusters(self):
        box = (Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=0.0), 1)
        empty = self.assert_matches_oracle(np.random.default_rng(13).normal(size=(5, 3)), [], margin=0.5)
        assert not empty.positive.any()
        none = self.assert_matches_oracle(np.zeros((0, 3)), [box], margin=0.5)
        assert none.positive.shape == (0,) and none.vote_targets.shape == (0, 3)


class TestOffsetLoss:
    def test_perfect_votes(self):
        targets = L.TargetSet(
            positive=np.array([True, True]),
            class_ids=np.array([1, 1]),
            boxes=[None, None],
            vote_targets=np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
        )
        offsets = T.Tensor(targets.vote_targets.copy())
        assert L.offset_loss(offsets, targets).item() == 0.0

    def test_no_positives_is_zero(self):
        targets = L.TargetSet(
            positive=np.array([False, False]),
            class_ids=np.zeros(2, dtype=int),
            boxes=[None, None],
            vote_targets=np.zeros((2, 3)),
        )
        assert L.offset_loss(T.Tensor(np.ones((2, 3))), targets).item() == 0.0

    def test_hand_built_two_candidate_case(self):
        # candidate 0: error (0.5, 0, 0); candidate 1: error (2, 0, 0)
        targets = L.TargetSet(
            positive=np.array([True, True]),
            class_ids=np.array([1, 1]),
            boxes=[None, None],
            vote_targets=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )
        offsets = T.Tensor(np.array([[1.5, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        # oracle: mean over 6 elements of huber(diff, beta=1)
        diffs = offsets.values - targets.vote_targets
        expected = np.where(
            np.abs(diffs) < 1.0, 0.5 * diffs**2, np.abs(diffs) - 0.5
        ).mean()
        assert L.offset_loss(offsets, targets).item() == pytest.approx(expected)
        assert expected == pytest.approx((0.125 + 1.5) / 6.0)


def corners_oracle(box):
    """8x3 corners enumerated one at a time: bottom face then top, each
    CCW in BEV from (+l/2, +w/2)."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    out = np.empty((8, 3), dtype=np.float64)
    i = 0
    for sz in (-1.0, 1.0):
        for sx, sy in [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]:
            lx, ly = sx * box.size[0] / 2.0, sy * box.size[1] / 2.0
            out[i] = box.center + np.array([c * lx - s * ly, s * lx + c * ly, sz * box.size[2] / 2.0])
            i += 1
    return out


def random_boxes(rng, n):
    yaws = list(rng.uniform(-np.pi, np.pi, size=n - 3)) + [np.pi, -np.pi, np.nextafter(np.pi, 0.0)]
    return [Box3D(center=rng.uniform(-50, 50, size=3), size=rng.uniform(0.1, 8, size=3), yaw=y) for y in yaws]


def corners_of(boxes):
    return D.box_corners([b.center for b in boxes], [b.size for b in boxes], [b.yaw for b in boxes])


class TestCorners:
    def test_unit_cube(self):
        corners = D.box_corners([0, 0, 0], [1, 1, 1], 0.0)[0]
        assert corners.shape == (8, 3)
        np.testing.assert_allclose(np.abs(corners), 0.5)
        # bottom face first
        assert (corners[:4, 2] == -0.5).all() and (corners[4:, 2] == 0.5).all()
        np.testing.assert_allclose(corners[0], [0.5, 0.5, -0.5])

    def test_quarter_turn_swaps_extents(self):
        corners = D.box_corners([0, 0, 0], [4, 2, 1], np.pi / 2)[0]
        assert corners[:, 0].max() == pytest.approx(1.0)
        assert corners[:, 1].max() == pytest.approx(2.0)

    def test_centroid_equals_center(self):
        boxes = random_boxes(np.random.default_rng(2), 50)
        np.testing.assert_allclose(corners_of(boxes).mean(axis=1), [b.center for b in boxes], atol=1e-12)

    def test_bytes_equal_per_box_oracle(self):
        boxes = random_boxes(np.random.default_rng(6), 500)
        expected = np.stack([corners_oracle(b) for b in boxes])
        assert corners_of(boxes).tobytes() == expected.tobytes()
        # one box at a time gives the same bits as the batch
        one_by_one = np.concatenate([corners_of([b]) for b in boxes])
        assert one_by_one.tobytes() == expected.tobytes()

    def test_flip_reindexing_matches_half_turn(self):
        boxes = random_boxes(np.random.default_rng(7), 200)
        turned = [Box3D(center=b.center, size=b.size, yaw=b.yaw + np.pi) for b in boxes]
        np.testing.assert_allclose(corners_of(boxes)[:, D.FLIPPED_CORNERS], corners_of(turned), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 9])
    def test_corner_node_gradient(self, p):
        rng = np.random.default_rng(8 + p)
        center = T.Tensor(rng.normal(size=(p, 3)))
        size = T.Tensor(rng.uniform(0.5, 3.0, size=(p, 3)))
        yaw = T.Tensor(rng.uniform(-np.pi, np.pi, size=(p, 1)))
        weights = T.Tensor(rng.normal(size=(p, 24)))

        def f():
            return T.sum_all(T.mul(L.corners_in_graph(center, size, yaw), weights))

        assert T.grad_check(f, [center, size, yaw], eps=1e-5) < 1e-4

    def test_corner_node_forward_is_box_corners(self):
        boxes = random_boxes(np.random.default_rng(10), 20)
        node = L.corners_in_graph(
            T.Tensor([b.center for b in boxes]), T.Tensor([b.size for b in boxes]), T.Tensor([[b.yaw] for b in boxes])
        )
        assert node.values.tobytes() == corners_of(boxes).reshape(-1, 24).tobytes()


def perfect_raw(candidates, targets, config):
    """Head outputs that exactly reproduce the assigned boxes."""
    m = candidates.shape[0]
    bins = config.angle_bins
    center = np.zeros((m, 3))
    size = np.zeros((m, 3))
    bin_logits = np.zeros((m, bins))
    bin_res = np.zeros((m, bins))
    cls_logits = np.full((m, config.num_classes + 1), -1000.0)
    for i in range(m):
        if not targets.positive[i]:
            cls_logits[i, 0] = 1000.0
            continue
        box = targets.boxes[i]
        anchor = np.array(config.anchors[targets.class_ids[i] - 1])
        center[i], size[i] = D.encode_box(box, candidates[i], anchor)
        b, r = D.encode_angle(box.yaw, bins)
        bin_logits[i] = -1000.0
        bin_logits[i, b] = 1000.0
        bin_res[i, b] = r
        cls_logits[i, targets.class_ids[i]] = 1000.0
    return D.RawPrediction(
        cls_logits=T.Tensor(cls_logits),
        center=T.Tensor(center),
        size=T.Tensor(size),
        bin_logits=T.Tensor(bin_logits),
        bin_res=T.Tensor(bin_res),
    )


class TestBoxLoss:
    def setup_method(self):
        self.config = small_config()
        self.box = Box3D(center=[1.0, 0.5, 0.2], size=[2.0, 1.2, 1.0], yaw=0.4)
        self.candidates = np.array([[1.1, 0.4, 0.1], [8.0, 8.0, 8.0]])
        self.clusters = np.array([[1.2, 0.3, 0.1], [8.0, 8.0, 8.0]])
        self.targets = L.assign_targets(self.clusters, [(self.box, 1)])
        assert self.targets.positive.tolist() == [True, False]

    def test_perfect_prediction_all_zero(self):
        raw = perfect_raw(self.candidates, self.targets, self.config)
        loc, size, angle, corner = L.box_loss(
            raw, T.Tensor(self.candidates), self.targets, self.config
        )
        assert loc.item() == 0.0
        assert size.item() == 0.0
        assert angle.item() == pytest.approx(0.0, abs=1e-12)
        assert corner.item() == pytest.approx(0.0, abs=1e-9)

    def test_yaw_flip_zero_corner_positive_angle(self):
        flipped = Box3D(
            center=self.box.center,
            size=self.box.size,
            yaw=D.normalize_yaw(self.box.yaw + np.pi),
        )
        fake_targets = L.TargetSet(
            positive=self.targets.positive,
            class_ids=self.targets.class_ids,
            boxes=[flipped if b is not None else None for b in self.targets.boxes],
            vote_targets=self.targets.vote_targets,
        )
        # prediction is perfect for the flipped box, targets hold the original
        raw = perfect_raw(self.candidates, fake_targets, self.config)
        loc, size, angle, corner = L.box_loss(
            raw, T.Tensor(self.candidates), self.targets, self.config
        )
        assert corner.item() == pytest.approx(0.0, abs=1e-9)
        assert angle.item() > 1.0
        assert loc.item() == 0.0 and size.item() == 0.0

    def test_no_positives_all_zero(self):
        empty = L.TargetSet(
            positive=np.array([False, False]),
            class_ids=np.zeros(2, dtype=int),
            boxes=[None, None],
            vote_targets=np.zeros((2, 3)),
        )
        raw = perfect_raw(self.candidates, empty, self.config)
        parts = L.box_loss(raw, T.Tensor(self.candidates), empty, self.config)
        assert all(p.item() == 0.0 for p in parts)

    def test_corner_term_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        raw = D.RawPrediction(
            cls_logits=T.Tensor(rng.normal(size=(2, 3))),
            center=T.Tensor(rng.normal(scale=0.3, size=(2, 3))),
            size=T.Tensor(rng.normal(scale=0.2, size=(2, 3))),
            bin_logits=T.Tensor(rng.normal(size=(2, 4))),
            bin_res=T.Tensor(rng.normal(scale=0.3, size=(2, 4))),
        )
        _, _, _, corner = L.box_loss(raw, T.Tensor(self.candidates), self.targets, self.config)

        # oracle: decode the predicted box at its argmax bin, enumerate corners
        i = 0  # the only positive
        anchor = np.array(self.config.anchors[0])
        gt = self.targets.boxes[i]
        pred_bin = int(raw.bin_logits.values[i].argmax())
        pred_center = self.candidates[i] + raw.center.values[i]
        pred_size = anchor * np.exp(raw.size.values[i])
        pred_yaw = D.bin_center(pred_bin, 4) + raw.bin_res.values[i, pred_bin] * (np.pi / 4)
        pred_box = Box3D(center=pred_center, size=pred_size, yaw=pred_yaw)
        pred_corners = corners_oracle(pred_box)

        def corner_dist(gt_box):
            gtc = corners_oracle(gt_box)
            return np.abs(pred_corners - gtc).sum(axis=1).mean()

        flipped = Box3D(center=gt.center, size=gt.size, yaw=D.normalize_yaw(gt.yaw + np.pi))
        expected = min(corner_dist(gt), corner_dist(flipped))
        assert corner.item() == pytest.approx(expected, abs=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        raw = D.RawPrediction(
            cls_logits=T.Tensor(rng.normal(size=(2, 3))),
            center=T.Tensor(rng.normal(scale=0.3, size=(2, 3))),
            size=T.Tensor(rng.normal(scale=0.2, size=(2, 3))),
            bin_logits=T.Tensor(rng.normal(size=(2, 4))),
            bin_res=T.Tensor(rng.normal(scale=0.3, size=(2, 4))),
        )
        cand = T.Tensor(self.candidates)

        def f():
            loc, size, angle, corner = L.box_loss(raw, cand, self.targets, self.config)
            return T.add(T.add(loc, size), T.add(angle, corner))

        tensors = [raw.center, raw.size, raw.bin_logits, raw.bin_res, cand]
        assert T.grad_check(f, tensors, eps=1e-5) < 1e-4


class TestTotalLoss:
    def test_all_zero(self):
        zeros = [T.Tensor([[0.0]]) for _ in range(6)]
        breakdown, total = L.total_loss(*zeros)
        assert breakdown.total == 0.0 and total.item() == 0.0

    def test_unit_weights_exact_sum(self):
        vals = [1.0, 2.0, 0.5, 0.75, 1.25, 0.5]
        parts = [T.Tensor([[v]]) for v in vals]
        breakdown, total = L.total_loss(*parts)
        assert total.item() == sum(vals)
        assert breakdown.total == breakdown.offset + breakdown.cls + (
            breakdown.loc + breakdown.size + breakdown.angle + breakdown.corner
        )

    def test_non_negative_components(self):
        rng = np.random.default_rng(5)
        config = small_config()
        box = Box3D(center=[0, 0, 0.2], size=[2, 1, 1], yaw=0.7)
        candidates = np.array([[0.1, 0.0, 0.1], [4.0, 4.0, 4.0]])
        clusters = candidates + rng.normal(scale=0.1, size=(2, 3))
        raw = D.RawPrediction(
            cls_logits=T.Tensor(rng.normal(size=(2, 3))),
            center=T.Tensor(rng.normal(size=(2, 3))),
            size=T.Tensor(rng.normal(size=(2, 3))),
            bin_logits=T.Tensor(rng.normal(size=(2, 4))),
            bin_res=T.Tensor(rng.normal(size=(2, 4))),
        )
        out = D.ForwardOutput(
            stages=[S.ClusterFeatures(positions=clusters, aggregated=T.Tensor(np.zeros((2, 1))))],
            offsets=T.Tensor(rng.normal(size=(2, 3))),
            candidates=T.Tensor(candidates),
            raw=raw,
            decisions=D.DetectorDecisions(stages=[]),
        )
        breakdown, _, _ = L.compute_loss(out, [(box, 1)], config)
        for value in dataclasses.asdict(breakdown).values():
            assert value >= 0.0
