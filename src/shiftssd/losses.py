"""Training objective: vote offset loss, classification cross-entropy,
and the box regression stack (location, size, angle, corner distance),
combined with unit weights.

Positives are candidates lying inside a ground-truth box; all box terms
average over positives only, while classification averages over every
candidate including background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .detector import CORNER_SIGNS, FLIPPED_CORNERS, box_corners
from .detector import Box3D, ForwardOutput, ModelConfig, RawPrediction, decode_rows, encode_angle

ASSIGN_MARGIN = 0.9  # meters added to each box dimension when training assigns targets


@dataclass
class LossBreakdown:
    offset: float
    cls: float
    loc: float
    size: float
    angle: float
    corner: float
    total: float


@dataclass
class TargetSet:
    """Per-candidate assignment: positives carry a box, class, and vote target."""

    positive: np.ndarray  # M bool
    class_ids: np.ndarray  # M int, 0 = background
    boxes: list[Box3D | None]
    vote_targets: np.ndarray  # Mx3, GT center - cluster position (zeros for negatives)


def point_in_box(points: np.ndarray, box: Box3D) -> np.ndarray:
    """Rotated-frame containment test (BEV rectangle plus z extent) of
    (..., 3) points; a bool array of shape (...)."""
    d = np.asarray(points, dtype=np.float64) - box.center
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    local_x = c * d[..., 0] + s * d[..., 1]
    local_y = -s * d[..., 0] + c * d[..., 1]
    return (
        (np.abs(local_x) <= box.size[0] / 2.0)
        & (np.abs(local_y) <= box.size[1] / 2.0)
        & (np.abs(d[..., 2]) <= box.size[2] / 2.0)
    )


def assign_targets(
    cluster_positions: np.ndarray,
    objects: list[tuple[Box3D, int]],
    margin: float = 0.0,
) -> TargetSet:
    """A candidate is positive iff its originating cluster lies inside a
    ground-truth box inflated by `margin` meters per dimension; inside
    several, it takes the first in label order.

    Anchoring positivity to the fixed cluster position keeps the vote
    supervision alive no matter where the votes currently land; tying it
    to the (movable) candidate lets training collapse into an all-
    background zero of the loss by voting every candidate out of every
    box. The margin catches clusters the farthest-point sampler parked
    just beside a sparse object. The vote target points from the cluster
    to the box center; box regression applies at the candidate.
    """
    m = cluster_positions.shape[0]
    owner = np.full(m, -1)
    for j, (box, _) in enumerate(objects):
        inflated = Box3D(center=box.center, size=box.size + margin, yaw=box.yaw)
        owner[(owner < 0) & point_in_box(cluster_positions, inflated)] = j
    positive = owner >= 0
    class_ids = np.zeros(m, dtype=np.int64)
    vote_targets = np.zeros((m, 3), dtype=np.float64)
    boxes: list[Box3D | None] = [None] * m
    for i in np.flatnonzero(positive):
        box, class_ids[i] = objects[owner[i]]
        boxes[i] = box
        vote_targets[i] = box.center - cluster_positions[i]
    return TargetSet(positive=positive, class_ids=class_ids, boxes=boxes, vote_targets=vote_targets)


def smooth_l1(x, beta: float = 1.0) -> T.Tensor:
    """Mean elementwise Huber: 0.5 x^2/beta inside |x| < beta, |x| - beta/2 outside."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    xt = x if isinstance(x, T.Tensor) else T.Tensor(np.asarray(x, dtype=np.float64))
    v = xt.values
    if v.size == 0:
        raise ValueError("smooth_l1 on empty input")
    a = np.abs(v)
    quad = a < beta
    per = np.where(quad, 0.5 * v * v / beta, a - 0.5 * beta)

    def _bp(g):
        xt.add_grad(g[0, 0] / v.size * np.where(quad, v / beta, np.sign(v)))

    return T.Tensor([[per.mean()]], parents=(xt,), backprop=_bp)


def cls_loss(logits: T.Tensor, labels) -> T.Tensor:
    """Mean softmax cross-entropy over all candidates, background included."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, c = logits.shape
    if labels.shape[0] != n:
        raise ValueError("one label per logit row required")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError("label outside logit range")
    z = logits.values - logits.values.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    log_p = z - np.log(ez.sum(axis=1, keepdims=True))
    val = float(-log_p[np.arange(n), labels].mean())

    def _bp(g):
        onehot = np.zeros_like(p)
        onehot[np.arange(n), labels] = 1.0
        logits.add_grad(g[0, 0] * (p - onehot) / n)

    return T.Tensor([[val]], parents=(logits,), backprop=_bp)


def _zero() -> T.Tensor:
    return T.Tensor([[0.0]])


def offset_loss(offsets: T.Tensor, targets: TargetSet) -> T.Tensor:
    """Smooth-L1 between predicted vote offsets and center offsets, positives only."""
    pos = np.flatnonzero(targets.positive)
    if pos.size == 0:
        return _zero()
    pred = T.gather_rows(offsets, pos)
    diff = T.sub(pred, T.Tensor(targets.vote_targets[pos]))
    return smooth_l1(diff)


def corners_in_graph(center: T.Tensor, size: T.Tensor, yaw: T.Tensor) -> T.Tensor:
    """P×24 corner matrix (box_corners, row-flattened) of P boxes given as
    P×3 centers, P×3 sizes and P×1 yaws, differentiable in all three."""
    corners = box_corners(center.values, size.values, yaw.values)
    offset = corners - center.values[:, None, :]
    c, s = np.cos(yaw.values[:, 0]), np.sin(yaw.values[:, 0])

    def _bp(g):
        g = g.reshape(corners.shape)
        center.add_grad(g.sum(axis=1))
        # per axis, the corner gradients summed against the corner signs
        gx, gy, gz = (g[..., k] @ CORNER_SIGNS for k in range(3))
        size.add_grad(0.5 * np.column_stack([c * gx[:, 0] + s * gy[:, 0], c * gy[:, 1] - s * gx[:, 1], gz[:, 2]]))
        # turning a corner's offset (x, y) by d yaw moves it by (-y, x) d yaw
        yaw.add_grad((g[..., 1] * offset[..., 0] - g[..., 0] * offset[..., 1]).sum(axis=1, keepdims=True))

    return T.Tensor(corners.reshape(-1, 24), parents=(center, size, yaw), backprop=_bp)


def _select_bin_column(matrix: T.Tensor, bin_ids: np.ndarray) -> T.Tensor:
    """Pick column bin_ids[i] of row i, keeping the graph differentiable."""
    onehot = np.zeros(matrix.shape, dtype=np.float64)
    onehot[np.arange(matrix.shape[0]), bin_ids] = 1.0
    return T.row_sum(T.mul(matrix, T.Tensor(onehot)))


def box_loss(
    raw: RawPrediction,
    candidates: T.Tensor,
    targets: TargetSet,
    config: ModelConfig,
) -> tuple[T.Tensor, T.Tensor, T.Tensor, T.Tensor]:
    """Location, size, angle (bin CE + residual), and flip-min corner terms.

    The angle residual is supervised at the ground-truth bin; the corner
    term decodes the prediction's own yaw (argmax bin plus that bin's
    residual), so a box that is perfect up to a pi flip costs nothing.
    """
    pos = np.flatnonzero(targets.positive)
    if pos.size == 0:
        return _zero(), _zero(), _zero(), _zero()

    gt_boxes = [targets.boxes[i] for i in pos]
    anchors = np.array([config.anchors[targets.class_ids[i] - 1] for i in pos], dtype=np.float64)
    gt_centers = np.array([b.center for b in gt_boxes])
    gt_sizes = np.array([b.size for b in gt_boxes])
    bins = config.angle_bins
    encoded = [encode_angle(b.yaw, bins) for b in gt_boxes]
    gt_bins = np.array([e[0] for e in encoded], dtype=np.int64)
    gt_res = np.array([[e[1]] for e in encoded], dtype=np.float64)

    size_res = T.gather_rows(raw.size, pos)
    bin_logits = T.gather_rows(raw.bin_logits, pos)
    bin_res = T.gather_rows(raw.bin_res, pos)
    pred_bins = bin_logits.values.argmax(axis=1)
    pred_center, pred_size, pred_yaw = decode_rows(
        T.gather_rows(candidates, pos), T.gather_rows(raw.center, pos), size_res,
        pred_bins, _select_bin_column(bin_res, pred_bins), anchors, bins,
    )
    loc = smooth_l1(T.sub(pred_center, T.Tensor(gt_centers)))
    size = smooth_l1(T.sub(size_res, T.Tensor(np.log(gt_sizes / anchors))))
    res_sel = _select_bin_column(bin_res, gt_bins)
    angle = T.add(cls_loss(bin_logits, gt_bins), smooth_l1(T.sub(res_sel, T.Tensor(gt_res))))
    pred_corners = corners_in_graph(pred_center, pred_size, pred_yaw)

    gt = box_corners(gt_centers, gt_sizes, [b.yaw for b in gt_boxes])
    dist, dist_flip = (
        T.scale(T.row_sum(T.absolute(T.sub(pred_corners, T.Tensor(target.reshape(-1, 24))))), 1.0 / 8.0)
        for target in (gt, gt[:, FLIPPED_CORNERS])
    )
    corner = T.mean_all(T.min2(dist, dist_flip))
    return loc, size, angle, corner


def total_loss(
    offset: T.Tensor,
    cls: T.Tensor,
    loc: T.Tensor,
    size: T.Tensor,
    angle: T.Tensor,
    corner: T.Tensor,
) -> tuple[LossBreakdown, T.Tensor]:
    """Unit-weighted sum: (offset + cls) + ((loc + size) + (angle + corner))."""
    box = T.add(T.add(loc, size), T.add(angle, corner))
    total = T.add(T.add(offset, cls), box)
    breakdown = LossBreakdown(
        offset=offset.item(),
        cls=cls.item(),
        loc=loc.item(),
        size=size.item(),
        angle=angle.item(),
        corner=corner.item(),
        total=total.item(),
    )
    return breakdown, total


def compute_loss(
    out: ForwardOutput,
    objects: list[tuple[Box3D, int]],
    config: ModelConfig,
) -> tuple[LossBreakdown, T.Tensor, TargetSet]:
    """Assemble the full objective for one scene's forward pass; targets
    are assigned at the last stage's cluster positions."""
    targets = assign_targets(out.stages[-1].positions, objects, margin=ASSIGN_MARGIN)
    off = offset_loss(out.offsets, targets)
    cls = cls_loss(out.raw.cls_logits, targets.class_ids)
    loc, size, angle, corner = box_loss(out.raw, out.candidates, targets, config)
    breakdown, total = total_loss(off, cls, loc, size, angle, corner)
    return breakdown, total, targets
