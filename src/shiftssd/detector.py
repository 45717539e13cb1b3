"""Toy single-stage detector: stacked shift set-abstraction backbone,
vote layer, candidate aggregation, prediction heads, box codecs, and
rotated-box IoU / NMS post-processing.

All learnable compute runs through the autodiff tensors so the training
objective can differentiate end to end; decoding and suppression work
on plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import geometry as G
from . import ssa as S
from . import tensor as T

TWO_PI = 2.0 * np.pi
CLOUD_CHANNELS = 1  # feature channels per point in the cloud format: intensity


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi), idempotently. A shifted angle that rounds
    up to 2 pi (one ulp below -pi does) wraps to -pi; an angle in range may
    still move by a few ulps (0.3 gives 0.2999999999999998)."""
    wrapped = (yaw + np.pi) % TWO_PI
    return -np.pi if wrapped == TWO_PI else float(wrapped - np.pi)


@dataclass(frozen=True)
class Box3D:
    """Oriented box: center (m), size l/w/h (m), yaw about +z (rad); frozen, with
    read-only copies of center and size, so the cached footprint cannot go stale."""

    center: np.ndarray
    size: np.ndarray
    yaw: float

    def __post_init__(self):
        center = np.array(self.center, dtype=np.float64).reshape(3)
        size = np.array(self.size, dtype=np.float64).reshape(3)
        if not (np.isfinite(center).all() and np.isfinite(size).all() and np.isfinite(self.yaw)):
            raise ValueError("non-finite box")
        if (size <= 0).any():
            raise ValueError("non-positive size")
        center.flags.writeable = size.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    def volume(self) -> float:
        return float(self.size.prod())

    @cached_property
    def footprint(self) -> list[list[float]]:
        """The BEV rectangle, its bottom face's corners as [x, y] floats, CCW."""
        return box_corners(self.center, self.size, self.yaw)[0, :4, :2].tolist()


@dataclass
class Detection:
    box: Box3D
    class_id: int
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score out of range: {self.score}")


@dataclass
class ModelConfig:
    """Toy detector layout mirroring a 4-stage downsampling schedule."""

    stage_points: tuple[int, ...]
    stage_ssa: list[S.SsaConfig]
    num_classes: int
    anchors: list[tuple[float, float, float]]
    vote_hidden: list[int] = field(default_factory=lambda: [64])
    agg_radius: float = 4.0
    agg_k: int = 16
    agg_f: list[int] = field(default_factory=lambda: [128, 128])
    agg_a: list[int] = field(default_factory=lambda: [128])
    head_hidden: list[int] = field(default_factory=lambda: [64])
    angle_bins: int = 12
    nms_iou: float = 0.25
    score_threshold: float = 0.3

    def __post_init__(self):
        if len(self.stage_points) != len(self.stage_ssa):
            raise ValueError("one SSA config per stage required")
        if not all(a > b for a, b in zip(self.stage_points, self.stage_points[1:])):
            raise ValueError("stage point counts must be strictly decreasing")
        if not self.stage_points or min(self.stage_points) < 1:
            raise ValueError("stage_points must be non-empty and each >= 1")
        if not (np.isfinite(self.agg_radius) and self.agg_radius > 0):
            raise ValueError("agg_radius must be finite and positive")
        if self.agg_k < 1:
            raise ValueError("agg_k must be >= 1")
        if not (self.agg_f and self.agg_a):
            raise ValueError("agg_f and agg_a must be non-empty")
        for name in ("vote_hidden", "agg_f", "agg_a", "head_hidden"):
            if min(getattr(self, name), default=1) < 1:
                raise ValueError(f"{name} widths must each be >= 1")
        if self.angle_bins < 2:
            raise ValueError("need at least 2 angle bins")
        if self.num_classes < 1 or len(self.anchors) != self.num_classes:
            raise ValueError("one anchor size per foreground class required")
        anchors = np.asarray(self.anchors, dtype=np.float64)
        if not (np.isfinite(anchors).all() and (anchors > 0).all()):
            raise ValueError("anchor sizes must be finite and positive on each axis")
        for name in ("score_threshold", "nms_iou"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def with_stage_fields(config: ModelConfig, **fields) -> ModelConfig:
    """A copy of config with these SsaConfig fields replaced on every stage.
    Every variant model (the plain baseline, each ablation cell) is a base
    config edited this way."""
    return replace(config, stage_ssa=[replace(cfg, **fields) for cfg in config.stage_ssa])


def default_model_config(anchors: list[tuple[float, float, float]] | None = None) -> ModelConfig:
    """The 512->128->64->32 toy schedule with two grouping scales per stage,
    one class per anchor size. Stages keep the SsaConfig defaults: shift
    ratio 1/8, farthest partner selection and the cs exchange."""
    if anchors is None:
        anchors = [(4.2, 1.9, 1.6), (0.8, 0.8, 1.7)]

    def stage(radii, widths):
        return S.SsaConfig(
            scales=[
                S.ScaleConfig(radius=radii[0], k=8, mlp=widths),
                S.ScaleConfig(radius=radii[1], k=16, mlp=widths),
            ],
            aggregation=[2 * widths[-1]],
        )

    return ModelConfig(
        stage_points=(512, 128, 64, 32),
        stage_ssa=[
            stage((1.0, 2.0), [16, 24]),
            stage((2.0, 4.0), [32, 32]),
            stage((3.0, 6.0), [48, 48]),
            stage((4.0, 8.0), [64, 64]),
        ],
        num_classes=len(anchors),
        anchors=anchors,
    )


@dataclass
class ModelParams:
    backbone: list[S.SsaParams]
    vote: T.MlpParams
    agg_f: T.MlpParams
    agg_a: T.MlpParams
    cls_head: T.MlpParams
    reg_head: T.MlpParams

    def named(self) -> list[tuple[str, T.Tensor]]:
        out = []
        for t, ssa_params in enumerate(self.backbone):
            out.extend(ssa_params.named(f"backbone.{t}"))
        for prefix, mlp in (
            ("vote", self.vote),
            ("agg.f", self.agg_f),
            ("agg.a", self.agg_a),
            ("head.cls", self.cls_head),
            ("head.reg", self.reg_head),
        ):
            out.extend(S._named_mlp(prefix, mlp))
        return out

    def tensors(self) -> list[T.Tensor]:
        return [t for _, t in self.named()]


def count_parameters(params: ModelParams) -> int:
    return int(sum(t.values.size for _, t in params.named()))


def init_model_params(config: ModelConfig, seed: int) -> ModelParams:
    rng = np.random.default_rng(G.derive_seed(seed, 777))
    backbone = []
    channels = CLOUD_CHANNELS
    for ssa_cfg in config.stage_ssa:
        backbone.append(S.init_ssa_params(ssa_cfg, channels, rng))
        channels = ssa_cfg.out_channels
    vote = T.init_mlp([channels, *config.vote_hidden, 3], rng, final_relu=False)
    agg_f = T.init_mlp([channels + 3, *config.agg_f], rng, final_relu=True)
    agg_a = T.init_mlp([config.agg_f[-1], *config.agg_a], rng, final_relu=True)
    inst = config.agg_a[-1]
    cls_head = T.init_mlp([inst, *config.head_hidden, config.num_classes + 1], rng, final_relu=False)
    reg_out = 3 + 3 + 2 * config.angle_bins
    reg_head = T.init_mlp([inst, *config.head_hidden, reg_out], rng, final_relu=False)
    return ModelParams(
        backbone=backbone, vote=vote, agg_f=agg_f, agg_a=agg_a,
        cls_head=cls_head, reg_head=reg_head,
    )


@dataclass
class RawPrediction:
    """Per-candidate head outputs, all autodiff tensors."""

    cls_logits: T.Tensor  # Mx(classes+1), column 0 is background
    center: T.Tensor  # Mx3 residual from the candidate position
    size: T.Tensor  # Mx3 log-space residual from the class anchor
    bin_logits: T.Tensor  # MxB
    bin_res: T.Tensor  # MxB, one residual per bin in half-width units


@dataclass
class DetectorDecisions:
    """Frozen sampling choices for exact replay of a forward pass."""

    stages: list[S.SsaDecisions]
    agg_table: G.NeighborTable | None = None


@dataclass
class ForwardOutput:
    stages: list[S.ClusterFeatures]
    offsets: T.Tensor
    candidates: T.Tensor
    raw: RawPrediction
    decisions: DetectorDecisions


def backbone_forward(
    cloud: G.PointCloud,
    config: ModelConfig,
    params: ModelParams,
    seed: int,
    frozen: list[S.SsaDecisions] | None = None,
) -> tuple[list[S.ClusterFeatures], list[S.SsaDecisions]]:
    """Chain the SSA stages; stage t samples from stage t-1's clusters."""
    if cloud.n < config.stage_points[0]:
        raise ValueError(
            f"insufficient points: cloud has {cloud.n}, first stage needs {config.stage_points[0]}"
        )
    positions = cloud.positions
    features = T.Tensor(cloud.features)
    outputs: list[S.ClusterFeatures] = []
    decisions: list[S.SsaDecisions] = []
    for t, (m_out, ssa_cfg, ssa_params) in enumerate(
        zip(config.stage_points, config.stage_ssa, params.backbone)
    ):
        out, used = S.ssa_forward(
            positions,
            features,
            m_out,
            ssa_cfg,
            ssa_params,
            seed=G.derive_seed(seed, 10, t),
            frozen=frozen[t] if frozen is not None else None,
        )
        outputs.append(out)
        decisions.append(used)
        positions = out.positions
        features = out.aggregated
    return outputs, decisions


def vote_layer(final: S.ClusterFeatures, vote_mlp: T.MlpParams) -> tuple[T.Tensor, T.Tensor]:
    """Predict per-cluster offsets toward object centers; candidates = position + offset."""
    offsets = T.mlp_forward(final.aggregated, vote_mlp)
    if offsets.shape[1] != 3:
        raise ValueError("vote MLP must output 3 offset channels")
    candidates = T.add(T.Tensor(final.positions), offsets)
    return candidates, offsets


def candidate_aggregation(
    candidates: T.Tensor,
    src_positions: np.ndarray,
    src_features: T.Tensor,
    table: G.NeighborTable,
    f_mlp: T.MlpParams,
    a_mlp: T.MlpParams,
) -> T.Tensor:
    """Plain single-scale set abstraction at the vote candidates, then the
    aggregation MLP. `table` row i groups source rows around candidate i;
    the offsets are built through the graph, letting gradients flow back
    into the vote offsets.
    """
    k = table.indices.shape[1]
    rel = T.sub(T.Tensor(src_positions[table.indices.reshape(-1)]), T.repeat_rows(candidates, k))
    return T.mlp_forward(S.set_feature_abstraction(src_features, rel, table, f_mlp), a_mlp)


def prediction_heads(instance: T.Tensor, config: ModelConfig, params: ModelParams) -> RawPrediction:
    cls_logits = T.mlp_forward(instance, params.cls_head)
    reg = T.mlp_forward(instance, params.reg_head)
    b = config.angle_bins
    return RawPrediction(
        cls_logits=cls_logits,
        center=T.slice_cols(reg, 0, 3),
        size=T.slice_cols(reg, 3, 6),
        bin_logits=T.slice_cols(reg, 6, 6 + b),
        bin_res=T.slice_cols(reg, 6 + b, 6 + 2 * b),
    )


def model_forward(
    cloud: G.PointCloud,
    config: ModelConfig,
    params: ModelParams,
    seed: int,
    frozen: DetectorDecisions | None = None,
) -> ForwardOutput:
    """The full detector pass. With `ssa_forward`, the only place sampling
    decisions are drawn or replayed: the aggregation table comes from
    `frozen` when it holds one, and is otherwise drawn around the vote
    candidates, candidate i anchored to its originating cluster i so
    that no group is empty."""
    stages, stage_decisions = backbone_forward(
        cloud, config, params, seed,
        frozen=frozen.stages if frozen is not None else None,
    )
    final = stages[-1]
    candidates, offsets = vote_layer(final, params.vote)
    agg_table = frozen.agg_table if frozen is not None else None
    if agg_table is None:
        agg_table = G.ball_query(
            G.PointCloud(positions=final.positions),
            candidates.values,
            radius=config.agg_radius,
            k=config.agg_k,
            seed=G.derive_seed(seed, 20),
            self_indices=np.arange(candidates.shape[0]),
        )
    instance = candidate_aggregation(
        candidates, final.positions, final.aggregated, agg_table, params.agg_f, params.agg_a
    )
    raw = prediction_heads(instance, config, params)
    return ForwardOutput(
        stages=stages,
        offsets=offsets,
        candidates=candidates,
        raw=raw,
        decisions=DetectorDecisions(stages=stage_decisions, agg_table=agg_table),
    )


# ---------------------------------------------------------------------------
# box geometry and encoding

# Corner k of a box is center + R(yaw) (CORNER_SIGNS[k] * size / 2): the bottom
# face first, then the top, each counterclockwise in BEV from (+l/2, +w/2).
# A box turned by pi has the same corners in the order FLIPPED_CORNERS.
CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sz in (-1.0, 1.0) for sx, sy in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))]
)
FLIPPED_CORNERS = [2, 3, 0, 1, 6, 7, 4, 5]


def box_corners(centers, sizes, yaws) -> np.ndarray:
    """P×8×3 corners of P boxes from P×3 centers, P×3 sizes and P yaws."""
    cx, cy, cz = np.asarray(centers, dtype=np.float64).reshape(-1, 3).T[:, :, None]
    lx, ly, lz = np.moveaxis(CORNER_SIGNS * (np.asarray(sizes, dtype=np.float64).reshape(-1, 1, 3) / 2.0), -1, 0)
    yaws = np.asarray(yaws, dtype=np.float64).reshape(-1, 1)
    c, s = np.cos(yaws), np.sin(yaws)
    return np.stack([cx + (c * lx - s * ly), cy + (s * lx + c * ly), cz + lz], axis=-1)


def bin_center(bin_id: int, bins: int) -> float:
    return normalize_yaw(bin_id * TWO_PI / bins)


def encode_angle(yaw: float, bins: int) -> tuple[int, float]:
    """Nearest-bin id plus a residual in units of the bin half-width."""
    half_width = np.pi / bins
    diffs = np.array([abs(normalize_yaw(yaw - bin_center(b, bins))) for b in range(bins)])
    bin_id = int(diffs.argmin())
    res = normalize_yaw(yaw - bin_center(bin_id, bins)) / half_width
    return bin_id, float(res)


def encode_box(box: Box3D, candidate: np.ndarray, anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center residual and log-space size residual relative to a candidate/anchor."""
    anchor = np.asarray(anchor, dtype=np.float64)
    return box.center - np.asarray(candidate, dtype=np.float64), np.log(box.size / anchor)


def decode_box(
    center_res: np.ndarray,
    size_res: np.ndarray,
    bin_id: int,
    bin_res: float,
    candidate: np.ndarray,
    anchor: np.ndarray,
    bins: int,
) -> Box3D:
    return Box3D(
        center=np.asarray(candidate, dtype=np.float64) + np.asarray(center_res, dtype=np.float64),
        size=np.asarray(anchor, dtype=np.float64) * np.exp(np.asarray(size_res, dtype=np.float64)),
        yaw=bin_center(bin_id, bins) + bin_res * (np.pi / bins),
    )


def decode_boxes(
    raw: RawPrediction, candidates: np.ndarray, class_ids: np.ndarray, config: ModelConfig, rows: np.ndarray
) -> list[Box3D]:
    """Decode the boxes of candidates `rows`, each with its class anchor and argmax angle bin."""
    boxes = []
    bin_ids = raw.bin_logits.values.argmax(axis=1)
    for i in rows:
        anchor = np.array(config.anchors[int(class_ids[i]) - 1])
        b = int(bin_ids[i])
        boxes.append(
            decode_box(
                raw.center.values[i],
                raw.size.values[i],
                b,
                float(raw.bin_res.values[i, b]),
                candidates[i],
                anchor,
                config.angle_bins,
            )
        )
    return boxes


# ---------------------------------------------------------------------------
# rotated IoU and suppression


def _polygon_area(poly: list) -> float:
    if len(poly) < 3:
        return 0.0
    area = 0.0
    for (px, py), (qx, qy) in zip(poly, poly[1:] + poly[:1]):
        area += px * qy - qx * py
    return abs(area) / 2.0


def _clip_polygon(subject: list, clip: list) -> list:
    """Sutherland-Hodgman clip of a convex subject by a CCW convex polygon, as [x, y] floats."""
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            break
        (ax, ay), (bx, by) = clip[i], clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inputs, output = output, []
        px, py = inputs[-1]
        prev_in = ex * (py - ay) - ey * (px - ax) >= 0
        for cur in inputs:
            cx, cy = cur
            cur_in = ex * (cy - ay) - ey * (cx - ax) >= 0
            if cur_in != prev_in:
                # segment crosses the clip line; add the intersection
                dx, dy = cx - px, cy - py
                denom = ex * dy - ey * dx
                num = ex * (ay - py) - ey * (ax - px)
                t = num / denom if denom else 0.0  # a crossing by rounding alone: the previous vertex
                output.append((px + t * dx, py + t * dy))
            if cur_in:
                output.append(cur)
            px, py, prev_in = cx, cy, cur_in
    return output


def bev_intersection_area(a: Box3D, b: Box3D) -> float:
    """Area shared by the two boxes' BEV rectangles (their bottom faces)."""
    return _polygon_area(_clip_polygon(a.footprint, b.footprint))


def bev_rotated_iou(a: Box3D, b: Box3D) -> float:
    """Exact IoU of the two yaw-rotated BEV rectangles."""
    area_a = float(a.size[0] * a.size[1])
    area_b = float(b.size[0] * b.size[1])
    if area_a <= 0 or area_b <= 0:
        raise ValueError("degenerate zero-area box")
    inter = bev_intersection_area(a, b)
    union = area_a + area_b - inter
    return float(min(max(inter / union, 0.0), 1.0))


def iou3d(a: Box3D, b: Box3D) -> float:
    """BEV intersection times vertical overlap, over the volume union."""
    if a.volume() <= 0 or b.volume() <= 0:
        raise ValueError("degenerate zero-volume box")
    inter_area = bev_intersection_area(a, b)
    z_lo = max(a.center[2] - a.size[2] / 2.0, b.center[2] - b.size[2] / 2.0)
    z_hi = min(a.center[2] + a.size[2] / 2.0, b.center[2] + b.size[2] / 2.0)
    inter = inter_area * max(0.0, z_hi - z_lo)
    union = a.volume() + b.volume() - inter
    return float(min(max(inter / union, 0.0), 1.0))


def nms3d(detections: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy suppression: keep a detection iff its IoU3D with every
    higher-scored kept detection stays at or below the threshold. Boxes
    whose BEV circumscribed circles lie apart (by more than rounding) have
    IoU exactly 0, so under a non-negative threshold the IoU is skipped."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    xy = np.array([det.box.center[:2] for det in detections]).reshape(-1, 2)
    reach = np.array([np.hypot(*det.box.size[:2]) / 2.0 for det in detections])
    gap = np.sqrt(((xy[:, None] - xy) ** 2).sum(axis=2)) - (reach[:, None] + reach)
    slack = 1e-9 * (1.0 + np.abs(xy).max(initial=0.0) + reach.max(initial=0.0))
    apart = (gap > slack) & (iou_threshold >= 0)
    kept: list[int] = []
    for i in order:
        if all(apart[i, j] or iou3d(detections[i].box, detections[j].box) <= iou_threshold for j in kept):
            kept.append(i)
    return [detections[i] for i in kept]


def postprocess(out: ForwardOutput, config: ModelConfig) -> list[Detection]:
    """Score threshold, box decoding and NMS over one forward's head outputs;
    background is never emitted."""
    logits = out.raw.cls_logits.values
    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    probs = ez / ez.sum(axis=1, keepdims=True)
    fg = probs[:, 1:]
    class_ids = fg.argmax(axis=1) + 1
    scores = fg[np.arange(fg.shape[0]), class_ids - 1]
    keep = np.flatnonzero(scores >= config.score_threshold)
    if keep.size == 0:
        return []
    boxes = decode_boxes(out.raw, out.candidates.values, class_ids, config, keep)
    dets = [
        Detection(box=box, class_id=int(class_ids[i]), score=float(scores[i]))
        for box, i in zip(boxes, keep)
    ]
    return nms3d(dets, config.nms_iou)


@T.no_grad()
def detect(cloud: G.PointCloud, config: ModelConfig, params: ModelParams, seed: int) -> list[Detection]:
    """Full pipeline on one scene."""
    return postprocess(model_forward(cloud, config, params, seed), config)
