"""Synthetic LiDAR-like scenes and the on-disk formats that carry them.

Scenes hold non-overlapping oriented boxes whose surfaces are sampled
with bounded jitter, plus uniform clutter, all deterministic per seed.
Point clouds travel as raw little-endian float32 x/y/z/intensity
records; labels and detections travel as JSON.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detector import CLOUD_CHANNELS, Box3D, Detection, bev_intersection_area
from .geometry import PointCloud

log = logging.getLogger("shiftssd")

_RECORD_FLOATS = 3 + CLOUD_CHANNELS  # x, y, z, then the feature channels
_RECORD_BYTES = 4 * _RECORD_FLOATS  # little-endian float32
NOISE_HEIGHT = 2.0  # clutter points lie at heights in [0, NOISE_HEIGHT)
POINT_JITTER = 0.02  # uniform surface jitter bound, meters


@dataclass
class ClassSpec:
    """Mean object dimensions plus a uniform half-range size jitter."""

    name: str
    mean_size: tuple[float, float, float]
    size_jitter: tuple[float, float, float]

    def __post_init__(self):
        mean, jitter = np.asarray(self.mean_size, dtype=float), np.asarray(self.size_jitter, dtype=float)
        if not (np.isfinite(mean).all() and (mean > 0).all()):
            raise ValueError("mean_size must be finite and positive on each axis")
        if not (np.isfinite(jitter).all() and (jitter >= 0).all() and (jitter < mean).all()):
            raise ValueError("size_jitter must be finite, non-negative and below mean_size on each axis")


@dataclass
class SynthConfig:
    extent: float = 12.0  # scene spans [-extent/2, extent/2] in x and y
    points_per_scene: int = 2048
    noise_points: int = 384
    objects_min: int = 2
    objects_max: int = 4
    classes: list[ClassSpec] = field(
        default_factory=lambda: [
            ClassSpec("vehicle", (4.2, 1.9, 1.6), (0.3, 0.1, 0.1)),
            ClassSpec("cabinet", (1.4, 1.4, 1.8), (0.15, 0.15, 0.1)),
        ]
    )

    def __post_init__(self):
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValueError("extent must be finite and positive")
        if self.noise_points < 0:
            raise ValueError("noise_points must be >= 0")
        if not self.classes:
            raise ValueError("at least one class spec required")
        if not 0 <= self.objects_min <= self.objects_max:
            raise ValueError("invalid objects-per-scene range")
        if self.points_per_scene < 1:
            raise ValueError("points_per_scene must be >= 1")
        if self.objects_max > 0:
            diagonal = max(math.hypot(*np.add(c.mean_size, c.size_jitter)[:2]) for c in self.classes)
            if self.extent < diagonal:
                raise ValueError(f"extent {self.extent} is below the largest class's BEV diagonal {diagonal:.6g}")
            per_object = (self.points_per_scene - self.noise_points) // self.objects_max
            if per_object < 8:
                raise ValueError(
                    "config cannot guarantee 8 surface points per object; "
                    "raise points_per_scene or lower noise_points/objects_max"
                )


@dataclass
class Scene:
    cloud: PointCloud
    objects: list[tuple[Box3D, int]]  # class ids are 1-based; 0 is background


def _boxes_disjoint(a: Box3D, b: Box3D) -> bool:
    z_gap = abs(a.center[2] - b.center[2]) >= (a.size[2] + b.size[2]) / 2.0
    return z_gap or bev_intersection_area(a, b) == 0.0


_SHELL_INSET = 0.06  # sampled shell sits this far inside the labeled box


def _sample_surface_points(box: Box3D, count: int, rng: np.random.Generator) -> np.ndarray:
    """Area-weighted samples on the six faces of a slightly shrunk shell,
    jittered within +-POINT_JITTER. The shell sits min(_SHELL_INSET, size / 4)
    inside each face, more than the jitter on every axis longer than
    4 * POINT_JITTER, so object points stay strictly inside such a labeled box."""
    l, w, h = np.maximum(box.size - 2.0 * _SHELL_INSET, 0.5 * box.size)
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    faces = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(-0.5, 0.5, size=count)
    # face 2a (2a+1) lies at +0.5 (-0.5) on axis a; u and v span the other
    # two axes in x, y, z order
    side = np.where(faces % 2 == 0, 0.5, -0.5)
    axis = faces // 2
    x = np.where(axis == 0, side, u)
    y = np.where(axis == 0, u, np.where(axis == 1, side, v))
    z = np.where(axis == 2, side, v)
    local = np.column_stack([x, y, z]) * np.array([l, w, h])
    local += rng.uniform(-POINT_JITTER, POINT_JITTER, size=local.shape)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ rot.T + box.center


def generate_scene(config: SynthConfig, seed: int) -> Scene:
    """Place non-overlapping boxes, scatter their surfaces, add clutter.

    Fully deterministic per (config, seed). Raises when the requested
    object count cannot be placed without overlap after bounded retries.
    """
    rng = np.random.default_rng(seed)
    n_objects = int(rng.integers(config.objects_min, config.objects_max + 1))
    half = config.extent / 2.0

    objects: list[tuple[Box3D, int]] = []
    for _ in range(n_objects):
        placed = False
        for _attempt in range(200):
            cls = int(rng.integers(len(config.classes)))
            spec = config.classes[cls]
            size = np.array(spec.mean_size) + rng.uniform(-1, 1, size=3) * np.array(spec.size_jitter)
            margin = 0.5 * float(np.hypot(size[0], size[1]))  # BEV half-diagonal
            center_xy = rng.uniform(-half + margin, half - margin, size=2)
            box = Box3D(
                center=np.array([center_xy[0], center_xy[1], size[2] / 2.0]),
                size=size,
                yaw=float(rng.uniform(-np.pi, np.pi)),
            )
            if all(_boxes_disjoint(box, other) for other, _ in objects):
                objects.append((box, cls + 1))
                placed = True
                break
        if not placed:
            raise RuntimeError("placement failure: could not fit requested objects")

    points: list[np.ndarray] = []
    per_object = (
        (config.points_per_scene - config.noise_points) // n_objects if n_objects else 0
    )
    for box, _ in objects:
        points.append(_sample_surface_points(box, per_object, rng))
    n_noise = config.points_per_scene - per_object * n_objects
    noise = np.column_stack(
        [
            rng.uniform(-half, half, size=n_noise),
            rng.uniform(-half, half, size=n_noise),
            rng.uniform(0.0, NOISE_HEIGHT, size=n_noise),
        ]
    )
    points.append(noise)
    positions = np.vstack(points)
    order = rng.permutation(positions.shape[0])
    positions = positions[order]
    intensity = rng.uniform(0.0, 1.0, size=(positions.shape[0], 1))
    return Scene(cloud=PointCloud(positions=positions, features=intensity), objects=objects)


# ---------------------------------------------------------------------------
# point cloud files: N x (x, y, z, intensity) little-endian float32


def write_cloud(path, cloud: PointCloud) -> None:
    if cloud.channels != CLOUD_CHANNELS:
        raise ValueError(f"cloud files carry {CLOUD_CHANNELS} feature channel per point, got {cloud.channels}")
    rows = np.hstack([cloud.positions, cloud.features]).astype("<f4")
    Path(path).write_bytes(rows.tobytes())


def read_cloud(path) -> PointCloud:
    blob = Path(path).read_bytes()
    if len(blob) == 0 or len(blob) % _RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: byte count {len(blob)} is not a positive multiple of {_RECORD_BYTES}"
        )
    rows = np.frombuffer(blob, dtype="<f4").reshape(-1, _RECORD_FLOATS).astype(np.float64)
    try:
        return PointCloud(positions=rows[:, :3], features=rows[:, 3:])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# label files: JSON list of {class_id, center, size, yaw}


def _class_id(value) -> int:
    """A label or detection class id: a JSON integer of at least 1 (0 is background)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"class_id must be an integer >= 1, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """A JSON number (not a string or a boolean) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _vector(value, key: str) -> list[float]:
    """A JSON list of three numbers as floats."""
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError(f"{key} must be a list of 3 numbers, got {value!r}")
    return [_number(v, key) for v in value]


def _box_fields(box: Box3D) -> dict:
    """A box as the center, size and yaw fields of a label or detection record."""
    return {"center": [float(v) for v in box.center], "size": [float(v) for v in box.size], "yaw": float(box.yaw)}


def _read_box(entry) -> Box3D:
    """The box held in a record's center, size and yaw fields."""
    return Box3D(_vector(entry["center"], "center"), _vector(entry["size"], "size"), _number(entry["yaw"], "yaw"))


def write_labels(path, objects: list[tuple[Box3D, int]]) -> None:
    payload = [{"class_id": int(cls), **_box_fields(box)} for box, cls in objects]
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def read_labels(path) -> list[tuple[Box3D, int]]:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: malformed label JSON: {err}") from err
    if not isinstance(payload, list):
        raise ValueError(f"{path}: label file must hold a JSON list")
    out = []
    for i, entry in enumerate(payload):
        try:
            box = _read_box(entry)
            cls = _class_id(entry["class_id"])
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"{path}: label {i} malformed: {err}") from err
        yaw = float(entry["yaw"])
        if not -math.pi <= yaw < math.pi:
            log.warning("%s: label %d yaw %.6f outside [-pi, pi), normalized to %.6f", path, i, yaw, box.yaw)
        out.append((box, cls))
    return out


# ---------------------------------------------------------------------------
# detection files: one JSON object per line


def write_detections(path, scene_id: str, detections: list[Detection]) -> None:
    with open(path, "w") as fh:
        for det in detections:
            record = {"scene_id": scene_id, "class_id": int(det.class_id), "score": float(det.score)}
            fh.write(json.dumps({**record, **_box_fields(det.box)}) + "\n")


def read_detections(path) -> list[tuple[str, Detection]]:
    out = []
    for line_no, line in enumerate(Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            det = Detection(
                box=_read_box(entry),
                class_id=_class_id(entry["class_id"]),
                score=_number(entry["score"], "score"),
            )
            scene_id = entry["scene_id"]
            if not isinstance(scene_id, str):
                raise ValueError(f"scene_id must be a string, got {scene_id!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"{path}: bad detection on line {line_no + 1}: {err}") from err
        out.append((scene_id, det))
    return out


# ---------------------------------------------------------------------------
# datasets: paired <id>.bin / <id>.json files in one directory


def dataset(directory) -> list[tuple[Scene, str]]:
    """Load every paired scene, in lexicographic id order.

    A .bin without its .json (or the reverse) is an error naming the
    orphan, and so is a directory with no scene pair. Run manifests
    (manifest.json and <out>.manifest.json) are not scene files and are
    skipped.
    """
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset directory {root} does not exist")
    bins = {p.stem for p in root.glob("*.bin")}
    jsons = {p.stem for p in root.glob("*.json") if p.stem.rsplit(".", 1)[-1] != "manifest"}
    orphans = sorted(bins.symmetric_difference(jsons))
    if orphans:
        missing = [
            f"{name}.json" if name in bins else f"{name}.bin" for name in orphans
        ]
        raise ValueError(f"unpaired dataset files in {root}: {', '.join(missing)}")
    if not bins:
        raise ValueError(f"dataset directory {root} holds no scene (<id>.bin with <id>.json)")
    scenes = []
    for stem in sorted(bins):
        cloud = read_cloud(root / f"{stem}.bin")
        objects = read_labels(root / f"{stem}.json")
        scenes.append((Scene(cloud=cloud, objects=objects), stem))
    return scenes
