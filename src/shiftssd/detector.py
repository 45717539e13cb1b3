"""Toy single-stage detector: stacked shift set-abstraction backbone,
vote layer, candidate aggregation, prediction heads, box codecs, and
rotated-box IoU / NMS post-processing.

All learnable compute runs through the autodiff tensors so the training
objective can differentiate end to end; decoding and suppression work
on plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as G
from . import ssa as S
from . import tensor as T

TWO_PI = 2.0 * np.pi


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float((yaw + np.pi) % TWO_PI - np.pi)


@dataclass
class Box3D:
    """Oriented box: center (m), size l/w/h (m), yaw about +z (rad)."""

    center: np.ndarray
    size: np.ndarray
    yaw: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.size = np.asarray(self.size, dtype=np.float64).reshape(3)
        if not (np.isfinite(self.center).all() and np.isfinite(self.size).all() and np.isfinite(self.yaw)):
            raise ValueError("non-finite box")
        if (self.size <= 0).any():
            raise ValueError("box dimensions must be positive")
        self.yaw = normalize_yaw(float(self.yaw))

    def volume(self) -> float:
        return float(self.size.prod())


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
    in_channels: int = 1
    vote_hidden: list[int] = field(default_factory=lambda: [64])
    agg_radius: float = 4.0
    agg_k: int = 16
    agg_f: list[int] = field(default_factory=lambda: [128, 128])
    agg_a: list[int] = field(default_factory=lambda: [128])
    head_hidden: list[int] = field(default_factory=lambda: [64])
    angle_bins: int = 12
    nms_iou: float = 0.25
    score_threshold: float = 0.3
    assign_margin: float = 0.9  # meters added to box sizes for target assignment

    def __post_init__(self):
        if len(self.stage_points) != len(self.stage_ssa):
            raise ValueError("one SSA config per stage required")
        if not all(a > b for a, b in zip(self.stage_points, self.stage_points[1:])):
            raise ValueError("stage point counts must be strictly decreasing")
        if self.angle_bins < 2:
            raise ValueError("need at least 2 angle bins")
        if self.num_classes < 1 or len(self.anchors) != self.num_classes:
            raise ValueError("one anchor size per foreground class required")

    @property
    def final_channels(self) -> int:
        return self.stage_ssa[-1].out_channels


def default_model_config(
    num_classes: int = 2,
    anchors: list[tuple[float, float, float]] | None = None,
    exchange_op: str = "cs",
    selection: str = "farthest",
    shift_ratio: float = 1.0 / 8.0,
) -> ModelConfig:
    """The 512->128->64->32 toy schedule with two grouping scales per stage."""
    if anchors is None:
        anchors = [(4.2, 1.9, 1.6), (0.8, 0.8, 1.7)][:num_classes]
        while len(anchors) < num_classes:
            anchors.append((2.0, 2.0, 2.0))

    def stage(radii, widths):
        return S.SsaConfig(
            scales=[
                S.ScaleConfig(radius=radii[0], k=8, mlp=widths),
                S.ScaleConfig(radius=radii[1], k=16, mlp=widths),
            ],
            shift_ratio=shift_ratio,
            aggregation=[2 * widths[-1]],
            exchange_op=exchange_op,
            selection=selection,
        )

    return ModelConfig(
        stage_points=(512, 128, 64, 32),
        stage_ssa=[
            stage((1.0, 2.0), [16, 24]),
            stage((2.0, 4.0), [32, 32]),
            stage((3.0, 6.0), [48, 48]),
            stage((4.0, 8.0), [64, 64]),
        ],
        num_classes=num_classes,
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
    channels = config.in_channels
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
    instance: T.Tensor
    raw: RawPrediction
    decisions: DetectorDecisions


def backbone_forward(
    cloud: G.PointCloud,
    config: ModelConfig,
    params: ModelParams,
    seed: int,
    frozen: list[S.SsaDecisions] | None = None,
    positions_override: np.ndarray | None = None,
) -> tuple[list[S.ClusterFeatures], list[S.SsaDecisions]]:
    """Chain the SSA stages; stage t samples from stage t-1's clusters."""
    if cloud.n < config.stage_points[0]:
        raise ValueError(
            f"insufficient points: cloud has {cloud.n}, first stage needs {config.stage_points[0]}"
        )
    positions = positions_override if positions_override is not None else cloud.positions
    features = T.Tensor(cloud.features)
    outputs: list[S.ClusterFeatures] = []
    decisions: list[S.SsaDecisions] = []
    for t, (m_out, ssa_cfg, ssa_params) in enumerate(
        zip(config.stage_points, config.stage_ssa, params.backbone)
    ):
        out, _, used = S.ssa_forward(
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
    radius: float,
    k: int,
    f_mlp: T.MlpParams,
    a_mlp: T.MlpParams,
    seed: int,
    frozen_table: G.NeighborTable | None = None,
) -> tuple[T.Tensor, G.NeighborTable]:
    """Plain single-scale set abstraction centered at the vote candidates.

    Candidate i anchors to source row i (its originating cluster), so
    every group stays non-empty even when the vote pushes a candidate
    into empty space. Relative coordinates are built through the graph,
    letting gradients flow back into the vote offsets.
    """
    m = candidates.shape[0]
    if frozen_table is None:
        table = G.ball_query(
            G.PointCloud(positions=src_positions),
            candidates.values,
            radius=radius,
            k=k,
            seed=seed,
            self_indices=np.arange(m),
        )
    else:
        table = frozen_table
    flat = table.indices.reshape(-1)
    gathered = T.gather_rows(src_features, flat)
    rel = T.sub(T.Tensor(src_positions[flat]), T.repeat_rows(candidates, k))
    per_neighbor = T.mlp_forward(T.concat_cols([gathered, rel]), f_mlp)
    pooled = T.reduce_max(per_neighbor, k, table.valid)
    return T.mlp_forward(pooled, a_mlp), table


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
    positions_override: np.ndarray | None = None,
) -> ForwardOutput:
    stages, stage_decisions = backbone_forward(
        cloud, config, params, seed,
        frozen=frozen.stages if frozen is not None else None,
        positions_override=positions_override,
    )
    final = stages[-1]
    candidates, offsets = vote_layer(final, params.vote)
    instance, agg_table = candidate_aggregation(
        candidates,
        final.positions,
        final.aggregated,
        radius=config.agg_radius,
        k=config.agg_k,
        f_mlp=params.agg_f,
        a_mlp=params.agg_a,
        seed=G.derive_seed(seed, 20),
        frozen_table=frozen.agg_table if frozen is not None else None,
    )
    raw = prediction_heads(instance, config, params)
    return ForwardOutput(
        stages=stages,
        offsets=offsets,
        candidates=candidates,
        instance=instance,
        raw=raw,
        decisions=DetectorDecisions(stages=stage_decisions, agg_table=agg_table),
    )


# ---------------------------------------------------------------------------
# box encoding


def bin_center(bin_id: int, bins: int) -> float:
    return normalize_yaw(bin_id * TWO_PI / bins)


def encode_angle(yaw: float, bins: int) -> tuple[int, float]:
    """Nearest-bin id plus a residual in units of the bin half-width."""
    half_width = np.pi / bins
    diffs = np.array([abs(normalize_yaw(yaw - bin_center(b, bins))) for b in range(bins)])
    bin_id = int(diffs.argmin())
    res = normalize_yaw(yaw - bin_center(bin_id, bins)) / half_width
    return bin_id, float(res)


def decode_angle(bin_id: int, res: float, bins: int) -> float:
    return normalize_yaw(bin_center(bin_id, bins) + res * (np.pi / bins))


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
    anchor = np.asarray(anchor, dtype=np.float64)
    if not (np.isfinite(center_res).all() and np.isfinite(size_res).all() and np.isfinite(bin_res)):
        raise ValueError("non-finite box prediction")
    return Box3D(
        center=np.asarray(candidate, dtype=np.float64) + np.asarray(center_res, dtype=np.float64),
        size=anchor * np.exp(np.asarray(size_res, dtype=np.float64)),
        yaw=decode_angle(bin_id, bin_res, bins),
    )


def decode_boxes(raw: RawPrediction, candidates: np.ndarray, class_ids: np.ndarray, config: ModelConfig) -> list[Box3D]:
    """Decode every candidate's box using its class anchor and argmax angle bin."""
    boxes = []
    bin_ids = raw.bin_logits.values.argmax(axis=1)
    for i, cls in enumerate(class_ids):
        anchor = np.array(config.anchors[int(cls) - 1])
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


def bev_corners(box: Box3D) -> np.ndarray:
    """4x2 bird's-eye-view corners, counterclockwise from (+l/2, +w/2)."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    half_l, half_w = box.size[0] / 2.0, box.size[1] / 2.0
    local = np.array(
        [[half_l, half_w], [-half_l, half_w], [-half_l, -half_w], [half_l, -half_w]]
    )
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + box.center[:2]


def _polygon_area(poly: list[np.ndarray]) -> float:
    if len(poly) < 3:
        return 0.0
    area = 0.0
    for i in range(len(poly)):
        p, q = poly[i], poly[(i + 1) % len(poly)]
        area += p[0] * q[1] - q[0] * p[1]
    return abs(area) / 2.0


def _clip_polygon(subject: list[np.ndarray], clip: np.ndarray) -> list[np.ndarray]:
    """Sutherland-Hodgman clip of a convex subject by a CCW convex polygon."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            break
        a, b = clip[i], clip[(i + 1) % n]
        edge = b - a
        inputs = output
        output = []
        prev = inputs[-1]
        prev_in = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0]) >= 0
        for cur in inputs:
            cur_in = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0]) >= 0
            if cur_in != prev_in:
                # segment crosses the clip line; add the intersection
                d = cur - prev
                denom = edge[0] * d[1] - edge[1] * d[0]
                t = (edge[0] * (a[1] - prev[1]) - edge[1] * (a[0] - prev[0])) / denom
                output.append(prev + t * d)
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return output


def bev_intersection_area(a: Box3D, b: Box3D) -> float:
    return _polygon_area(_clip_polygon(list(bev_corners(a)), bev_corners(b)))


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
    higher-scored kept detection stays at or below the threshold."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    kept: list[int] = []
    for i in order:
        if all(iou3d(detections[i].box, detections[j].box) <= iou_threshold for j in kept):
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
    boxes = decode_boxes(out.raw, out.candidates.values, class_ids, config)
    dets = [
        Detection(box=boxes[i], class_id=int(class_ids[i]), score=float(scores[i]))
        for i in keep
    ]
    return nms3d(dets, config.nms_iou)


def detect(cloud: G.PointCloud, config: ModelConfig, params: ModelParams, seed: int) -> list[Detection]:
    """Full pipeline on one scene."""
    return postprocess(model_forward(cloud, config, params, seed), config)
