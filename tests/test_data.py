import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftssd import data as DT
from shiftssd import tensor as T
from shiftssd.detector import Box3D, Detection, iou3d, normalize_yaw
from shiftssd.geometry import PointCloud
from shiftssd.losses import point_in_box


def small_config(**overrides):
    base = dict(
        extent=20.0,
        points_per_scene=256,
        noise_points=128,
        objects_min=1,
        objects_max=3,
    )
    base.update(overrides)
    return DT.SynthConfig(**base)


class TestGenerateScene:
    def test_exact_point_count(self):
        config = small_config()
        scene = DT.generate_scene(config, seed=0)
        assert scene.cloud.n == config.points_per_scene
        assert scene.cloud.channels == 1

    def test_zero_objects_pure_noise(self):
        config = small_config(objects_min=0, objects_max=0)
        scene = DT.generate_scene(config, seed=1)
        assert scene.objects == []
        assert scene.cloud.n == config.points_per_scene

    def test_deterministic_bit_identical(self):
        config = small_config()
        a = DT.generate_scene(config, seed=7)
        b = DT.generate_scene(config, seed=7)
        assert a.cloud.positions.tobytes() == b.cloud.positions.tobytes()
        assert a.cloud.features.tobytes() == b.cloud.features.tobytes()
        assert len(a.objects) == len(b.objects)
        for (box_a, cls_a), (box_b, cls_b) in zip(a.objects, b.objects):
            assert cls_a == cls_b and box_a.yaw == box_b.yaw
            np.testing.assert_array_equal(box_a.center, box_b.center)

    def test_boxes_pairwise_non_overlapping(self):
        config = small_config(objects_min=3, objects_max=3)
        for seed in range(10):
            scene = DT.generate_scene(config, seed=seed)
            for i in range(len(scene.objects)):
                for j in range(i + 1, len(scene.objects)):
                    assert iou3d(scene.objects[i][0], scene.objects[j][0]) == 0.0

    def test_objects_have_enough_surface_points(self):
        config = small_config(objects_min=2, objects_max=3)
        for seed in range(5):
            scene = DT.generate_scene(config, seed=seed)
            for box, _ in scene.objects:
                inflated = Box3D(
                    center=box.center,
                    size=box.size + 2 * DT.POINT_JITTER + 1e-9,
                    yaw=box.yaw,
                )
                count = sum(
                    point_in_box(p, inflated) for p in scene.cloud.positions
                )
                assert count >= 8

    def test_containment_within_jitter_inflated_box(self):
        config = small_config(objects_min=1, objects_max=1)
        scene = DT.generate_scene(config, seed=3)
        box, _ = scene.objects[0]
        # the jitter stays below the shell inset, so surface samples lie inside the box itself
        assert DT.POINT_JITTER < DT._SHELL_INSET and (box.size > 4 * DT.POINT_JITTER).all()
        inside = sum(point_in_box(p, box) for p in scene.cloud.positions)
        per_object = (config.points_per_scene - config.noise_points) // 1
        assert inside >= per_object

    def test_placement_failure(self):
        config = small_config(
            extent=20.0,
            objects_min=3,
            objects_max=3,
            classes=[DT.ClassSpec("huge", (9.0, 9.0, 2.0), (0.0, 0.0, 0.0))],
        )
        with pytest.raises(RuntimeError, match="placement failure"):
            DT.generate_scene(config, seed=0)

    def test_config_validates_surface_budget(self):
        with pytest.raises(ValueError, match="8 surface points"):
            small_config(points_per_scene=140, noise_points=128, objects_max=3)


class TestCloudIO:
    def test_single_point_round_trip(self, tmp_path):
        cloud = PointCloud(positions=[[1.0, -2.0, 3.5]], features=[[0.25]])
        path = tmp_path / "one.bin"
        DT.write_cloud(path, cloud)
        back = DT.read_cloud(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        np.testing.assert_array_equal(back.features, cloud.features)

    def test_large_round_trip_exact_at_float32(self, tmp_path):
        rng = np.random.default_rng(4)
        pos = rng.uniform(-50, 50, size=(10_000, 3)).astype(np.float32).astype(np.float64)
        inten = rng.uniform(0, 1, size=(10_000, 1)).astype(np.float32).astype(np.float64)
        cloud = PointCloud(positions=pos, features=inten)
        path = tmp_path / "big.bin"
        DT.write_cloud(path, cloud)
        back = DT.read_cloud(path)
        np.testing.assert_array_equal(back.positions, pos)
        np.testing.assert_array_equal(back.features, inten)

    def test_write_rejects_other_channel_counts(self, tmp_path):
        cloud = PointCloud(positions=[[0.0, 0.0, 0.0]], features=[[0.1, 0.2]])
        with pytest.raises(ValueError, match="1 feature channel per point, got 2"):
            DT.write_cloud(tmp_path / "two.bin", cloud)
        assert not (tmp_path / "two.bin").exists()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="byte count"):
            DT.read_cloud(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(b"\x00" * 23)
        with pytest.raises(ValueError, match="byte count"):
            DT.read_cloud(path)

    def test_non_finite_point_names_file(self, tmp_path):
        path = tmp_path / "nan.bin"
        np.array([[0.0, 0.0, 0.0, 0.5], [np.nan, 1.0, 1.0, 0.5]], dtype="<f4").tofile(path)
        with pytest.raises(ValueError, match=r"nan\.bin: non-finite positions"):
            DT.read_cloud(path)


# values a JSON class_id may not take: background, negative, non-integral,
# an integral float, a bool and a string
_BAD_CLASS_IDS = pytest.mark.parametrize("class_id", [0, -1, 1.9, 1.0, True, "1"], ids=repr)


class TestLabelIO:
    @_BAD_CLASS_IDS
    def test_class_id_not_a_class_rejected(self, tmp_path, class_id):
        path = tmp_path / "bad.json"
        good = {"class_id": 2, "center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0}
        path.write_text(json.dumps([good, {**good, "class_id": class_id}]))
        with pytest.raises(ValueError, match=r"bad\.json: label 1 malformed: class_id"):
            DT.read_labels(path)

    def test_empty_list_round_trip(self, tmp_path):
        path = tmp_path / "labels.json"
        DT.write_labels(path, [])
        assert DT.read_labels(path) == []

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        objects = [
            (
                Box3D(
                    center=rng.uniform(-10, 10, size=3),
                    size=rng.uniform(0.5, 5, size=3),
                    yaw=rng.uniform(-np.pi, np.pi),
                ),
                int(rng.integers(1, 3)),
            )
            for _ in range(20)
        ]
        path = tmp_path / "labels.json"
        DT.write_labels(path, objects)
        back = DT.read_labels(path)
        for (box, cls), (box2, cls2) in zip(objects, back):
            assert cls == cls2
            np.testing.assert_array_equal(box.center, box2.center)
            np.testing.assert_array_equal(box.size, box2.size)
            assert box.yaw == box2.yaw

    def test_out_of_range_yaw_normalized_with_warning(self, tmp_path, caplog):
        path = tmp_path / "labels.json"
        path.write_text(
            json.dumps(
                [{"class_id": 1, "center": [0, 0, 0], "size": [1, 1, 1], "yaw": 7.0}]
            )
        )
        with caplog.at_level("WARNING", logger="shiftssd"):
            out = DT.read_labels(path)
        assert out[0][0].yaw == pytest.approx(normalize_yaw(7.0))
        assert any("normalized" in rec.message for rec in caplog.records)

    def test_yaw_warning_only_outside_range(self, tmp_path, caplog):
        # normalize_yaw moves some in-range yaws by one ulp; only a yaw outside [-pi, pi) warns
        path = tmp_path / "labels.json"
        label = {"class_id": 1, "center": [0, 0, 0], "size": [1, 1, 1]}
        path.write_text(json.dumps([{**label, "yaw": 0.3}, {**label, "yaw": 4.0}]))
        with caplog.at_level("WARNING", logger="shiftssd"):
            DT.read_labels(path)
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{path}: label 1 yaw 4.000000 outside [-pi, pi), normalized to {normalize_yaw(4.0):.6f}"
        ]

    def test_yaw_one_ulp_below_minus_pi_wraps_to_minus_pi(self, tmp_path):
        below = -3.1415926535897936  # np.nextafter(-np.pi, -np.inf)
        assert normalize_yaw(below) == -np.pi
        for edge in (np.pi, -np.pi, 3 * np.pi, -3 * np.pi):
            bits = np.array(edge).view(np.int64) + np.arange(-2000, 2001)
            for yaw in bits.view(np.float64).tolist():
                wrapped = normalize_yaw(yaw)
                assert -np.pi <= wrapped < np.pi, yaw
                assert normalize_yaw(wrapped) == wrapped, yaw
        path = tmp_path / "labels.json"
        path.write_text(json.dumps([{"class_id": 1, "center": [0, 0, 0], "size": [1, 1, 1], "yaw": below}]))
        (box, _), = DT.read_labels(path)
        direct = Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=below)
        assert (box.center.tobytes(), box.size.tobytes()) == (direct.center.tobytes(), direct.size.tobytes())
        assert np.float64(box.yaw).tobytes() == np.float64(direct.yaw).tobytes()

    @pytest.mark.parametrize(
        "field, value",
        [("center", ["1", "2", "0.5"]), ("size", [True, "2", 1]), ("yaw", "0.3")],
        ids=["center", "size", "yaw"],
    )
    def test_non_number_rejected(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        good = {"class_id": 1, "center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0}
        path.write_text(json.dumps([good, {**good, field: value}]))
        with pytest.raises(ValueError, match=rf"bad\.json: label 1 malformed: {field} must be"):
            DT.read_labels(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed label JSON"):
            DT.read_labels(path)

    def test_non_positive_size_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps([{"class_id": 1, "center": [0, 0, 0], "size": [0, 1, 1], "yaw": 0}])
        )
        with pytest.raises(ValueError, match="non-positive size"):
            DT.read_labels(path)

    @pytest.mark.parametrize(
        "center,size",
        [
            ([0, 0], [1, 1, 1]),
            ([0, 0, 0], [1, 1]),
            ([0, float("nan"), 0], [1, 1, 1]),
            ([0, 0, float("inf")], [1, 1, 1]),
        ],
        ids=["short-center", "short-size", "nan-center", "inf-center"],
    )
    def test_bad_box_names_file_and_label(self, tmp_path, center, size):
        path = tmp_path / "bad.json"
        good = {"class_id": 1, "center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0}
        path.write_text(json.dumps([good, {"class_id": 1, "center": center, "size": size, "yaw": 0}]))
        with pytest.raises(ValueError, match=r"bad\.json: label 1 malformed"):
            DT.read_labels(path)

    @settings(max_examples=50, deadline=None)
    @given(
        yaw=st.floats(min_value=-3.14159, max_value=3.14, allow_nan=False),
        cx=st.floats(min_value=-100, max_value=100),
        l=st.floats(min_value=0.01, max_value=50),
    )
    def test_round_trip_property(self, tmp_path_factory, yaw, cx, l):
        path = tmp_path_factory.mktemp("labels") / "prop.json"
        box = Box3D(center=[cx, 0.0, 1.0], size=[l, 1.0, 1.0], yaw=yaw)
        DT.write_labels(path, [(box, 1)])
        (back, cls), = DT.read_labels(path)
        assert cls == 1
        np.testing.assert_array_equal(back.center, box.center)
        assert back.yaw == box.yaw


class TestDetectionIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        dets = [
            Detection(
                box=Box3D(
                    center=rng.uniform(-5, 5, size=3),
                    size=rng.uniform(0.5, 3, size=3),
                    yaw=rng.uniform(-np.pi, np.pi),
                ),
                class_id=int(rng.integers(1, 3)),
                score=float(rng.uniform(0, 1)),
            )
            for _ in range(10)
        ]
        path = tmp_path / "dets.jsonl"
        DT.write_detections(path, "scene_0001", dets)
        back = DT.read_detections(path)
        assert len(back) == 10
        for (sid, det2), det in zip(back, dets):
            assert sid == "scene_0001"
            assert det2.class_id == det.class_id
            assert det2.score == det.score
            np.testing.assert_array_equal(det2.box.center, det.box.center)

    @_BAD_CLASS_IDS
    def test_class_id_not_a_class_rejected(self, tmp_path, class_id):
        entry = {"scene_id": "a", "class_id": 1, "score": 0.5, "center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0.0}
        path = tmp_path / "dets.jsonl"
        path.write_text(json.dumps(entry) + "\n" + json.dumps({**entry, "class_id": class_id}) + "\n")
        with pytest.raises(ValueError, match=r"dets\.jsonl: bad detection on line 2: class_id"):
            DT.read_detections(path)

    @pytest.mark.parametrize(
        "field, value", [("score", "0.5"), ("yaw", False), ("scene_id", 5)], ids=["score", "yaw", "scene_id"]
    )
    def test_wrong_type_rejected(self, tmp_path, field, value):
        entry = {"scene_id": "a", "class_id": 1, "score": 0.5, "center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0.0}
        path = tmp_path / "dets.jsonl"
        path.write_text(json.dumps(entry) + "\n" + json.dumps({**entry, field: value}) + "\n")
        with pytest.raises(ValueError, match=rf"dets\.jsonl: bad detection on line 2: {field} must be"):
            DT.read_detections(path)

    def test_missing_scene_id_names_line(self, tmp_path):
        entry = {"class_id": 1, "score": 0.5, "center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0.0}
        path = tmp_path / "dets.jsonl"
        path.write_text(json.dumps({**entry, "scene_id": "a"}) + "\n" + json.dumps(entry) + "\n")
        with pytest.raises(ValueError, match="line 2.*scene_id"):
            DT.read_detections(path)


_KEYS = ["center", "size", "yaw", "class_id", "score", "scene_id", "tensors", "name", "shape", "meta"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=16,
)
_json_lines = st.lists(_json_values.map(json.dumps), min_size=1, max_size=3).map(lambda ls: "\n".join(ls).encode())


@pytest.mark.parametrize(
    "field, value",
    [("center", [10**400, 0, 0]), ("yaw", 10**400), ("class_id", float("inf"))],
    ids=["center", "yaw", "class_id"],
)
def test_numbers_out_of_float_range_rejected(tmp_path, field, value):
    label = {"class_id": 1, "center": [0, 0, 0], "size": [1, 1, 1], "yaw": 0.0}
    labels, dets = tmp_path / "labels.json", tmp_path / "dets.jsonl"
    labels.write_text(json.dumps([{**label, field: value}]))
    dets.write_text(json.dumps({**label, "scene_id": "a", "score": 0.5, field: value}))
    with pytest.raises(ValueError, match="label 0"):
        DT.read_labels(labels)
    with pytest.raises(ValueError, match="line 1"):
        DT.read_detections(dets)


@settings(max_examples=200, deadline=None)
@given(blob=st.binary(max_size=96) | _json_lines | st.tuples(_json_lines, st.binary(max_size=32)).map(b"\n".join))
def test_readers_fail_only_with_value_error(tmp_path_factory, blob):
    """Any bytes make each reader return an object or raise ValueError."""
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(blob)
    for read in (DT.read_cloud, DT.read_labels, DT.read_detections, T.load_checkpoint):
        try:
            read(path)
        except ValueError:
            pass


def write_scene(directory, scene_id, scene):
    DT.write_cloud(directory / f"{scene_id}.bin", scene.cloud)
    DT.write_labels(directory / f"{scene_id}.json", scene.objects)


class TestDataset:
    def test_three_pairs_in_name_order(self, tmp_path):
        config = small_config()
        ids = ["scene_0002", "scene_0000", "scene_0001"]
        for i, sid in enumerate(ids):
            write_scene(tmp_path, sid, DT.generate_scene(config, seed=i))
        loaded = DT.dataset(tmp_path)
        assert [sid for _, sid in loaded] == sorted(ids)

    def test_orphan_bin_rejected(self, tmp_path):
        config = small_config()
        write_scene(tmp_path, "scene_0000", DT.generate_scene(config, seed=0))
        (tmp_path / "scene_0001.bin").write_bytes((tmp_path / "scene_0000.bin").read_bytes())
        with pytest.raises(ValueError, match="scene_0001.json"):
            DT.dataset(tmp_path)

    def test_orphan_json_rejected(self, tmp_path):
        config = small_config()
        write_scene(tmp_path, "scene_0000", DT.generate_scene(config, seed=0))
        (tmp_path / "scene_0001.json").write_text("[]")
        with pytest.raises(ValueError, match="scene_0001.bin"):
            DT.dataset(tmp_path)

    def test_generated_then_loaded_matches_memory(self, tmp_path):
        config = small_config()
        scene = DT.generate_scene(config, seed=9)
        write_scene(tmp_path, "s", scene)
        (loaded, sid), = DT.dataset(tmp_path)
        assert sid == "s"
        np.testing.assert_allclose(
            loaded.cloud.positions, scene.cloud.positions, atol=1e-5
        )
        assert len(loaded.objects) == len(scene.objects)
        for (box, cls), (box2, cls2) in zip(scene.objects, loaded.objects):
            assert cls == cls2
            np.testing.assert_array_equal(box.center, box2.center)

    def test_run_manifests_skipped(self, tmp_path):
        # `bench --out <dataset>/bench.csv` leaves its manifest beside the scenes
        write_scene(tmp_path, "scene_0000", DT.generate_scene(small_config(), seed=0))
        (tmp_path / "manifest.json").write_text("{}")
        (tmp_path / "bench.csv.manifest.json").write_text("{}")
        assert [sid for _, sid in DT.dataset(tmp_path)] == ["scene_0000"]

    def test_directory_without_scenes_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{}")  # a run manifest is not a scene
        with pytest.raises(ValueError) as caught:
            DT.dataset(tmp_path)
        assert str(caught.value).startswith(f"dataset directory {tmp_path} holds no scene")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DT.dataset(tmp_path / "nope")
