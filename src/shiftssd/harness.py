"""Experiment harness: toy overfit training, a perturbation probe that
measures each cluster's receptive radius, a forward-latency benchmark,
and one-axis-at-a-time ablation sweeps.

Training uses Adam under a one-cycle learning-rate schedule, both with
the fixed constants below; a run sets only epochs, peak_lr and seed. The
probe freezes every stochastic sampling decision and re-runs the forward
pass with single input points displaced, so the measured influence
reflects feature flow rather than sampling jitter. The frozen decisions
also give each input point's structural reach, the clusters whose output
it can move (`structural_reach`), and a displaced copy recomputes only
those rows.

Every variant model here is a base config edited by
`detector.with_stage_fields`: the probe's and the bench's plain variant
sets `exchange_op="none"` on every stage, and each ablation cell sets the
one `SsaConfig` field its axis sweeps, leaving the others as in the base.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from . import data as DT
from . import detector as D
from . import geometry as G
from . import losses as L
from . import ssa as S
from . import tensor as T

log = logging.getLogger("shiftssd")

ABLATION_RATIOS = (0.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0)
# ablation axis -> (the SsaConfig field it sets on every stage, its values in sweep order)
ABLATION_AXES = {
    "ratio": ("shift_ratio", ABLATION_RATIOS),
    "selection": ("selection", S.SELECTION_STRATEGIES),
    "exchange": ("exchange_op", S.EXCHANGE_OPS),
}
# a ground-truth box counts as recalled by a detection at this IoU3D or above
RECALL_IOU = 0.5
# Adam's constants, then the one-cycle schedule's: a linear warmup over WARMUP_FRAC of
# the steps from peak_lr / DIV_FACTOR, then cosine annealing down to peak_lr / FINAL_DIV_FACTOR
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WARMUP_FRAC = 0.3
DIV_FACTOR = 25.0
FINAL_DIV_FACTOR = 1e4
PROBE_EPS = 1e-3  # the probe's displacement of each input point, meters
PROBE_TOL = 1e-9  # an output change above this counts as influence
GRADCHECK_EPS = 1e-5  # gradcheck's central-difference step
GRADCHECK_TOL = 1e-4  # gradcheck passes when its worst relative error is below this


@dataclass
class TrainConfig:
    epochs: int = 300
    peak_lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (np.isfinite(self.peak_lr) and self.peak_lr >= 0):
            raise ValueError("peak_lr must be finite and non-negative")


class Adam:
    """Standard Adam with bias correction over a fixed tensor list."""

    def __init__(self, tensors: list[T.Tensor]):
        self.tensors = tensors
        self.m = [np.zeros_like(t.values) for t in tensors]
        self.v = [np.zeros_like(t.values) for t in tensors]
        self.t = 0

    def zero_grad(self):
        T.zero_grads(self.tensors)

    def step(self, lr: float):
        self.t += 1
        for p, m, v in zip(self.tensors, self.m, self.v):
            g = p.grad
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1**self.t)
            v_hat = v / (1 - ADAM_BETA2**self.t)
            p.values -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def one_cycle_lr(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear warmup to the peak, then cosine annealing down."""
    peak = config.peak_lr
    if total_steps <= 1:
        return peak
    pct = step / (total_steps - 1)
    start = peak / DIV_FACTOR
    floor = peak / FINAL_DIV_FACTOR
    if pct <= WARMUP_FRAC:
        return start + (peak - start) * (pct / WARMUP_FRAC)
    t = (pct - WARMUP_FRAC) / (1.0 - WARMUP_FRAC)
    return floor + (peak - floor) * 0.5 * (1.0 + np.cos(np.pi * t))


def scene_seed(train_seed: int, scene_index: int) -> int:
    """Per-scene forward seed, constant across epochs so sampling is stable."""
    return G.derive_seed(train_seed, 30, scene_index)


@dataclass
class TrainResult:
    params: D.ModelParams
    history: list[dict]  # one row per epoch: mean LossBreakdown fields + lr
    first_epoch_loss: float
    final_loss: float


class TrainingAborted(RuntimeError):
    """A training step failed, usually on a non-finite loss. Carries where it
    happened and the last epochs' history rows for a diagnostic dump."""

    def __init__(self, epoch: int, scene_id: str, last_rows: list[dict], cause: ValueError):
        what = "non-finite loss" if isinstance(cause, T.NonFiniteError) else "training step failed"
        super().__init__(f"{what} at epoch {epoch}, scene {scene_id}: {cause}")
        self.epoch = epoch
        self.scene_id = scene_id
        self.last_rows = last_rows
        self.reason = str(cause)


def check_label_classes(objects: list[tuple[D.Box3D, int]], num_classes: int) -> None:
    """Reject the first label whose class_id the model has no logit for.
    Training would otherwise take such a label silently whenever no
    cluster lands in its box."""
    for i, (_, cls) in enumerate(objects):
        if cls > num_classes:
            raise ValueError(f"label {i} has class_id {cls}, but the model has {num_classes} classes")


def train_toy(
    scenes: list[tuple[DT.Scene, str]],
    model_config: D.ModelConfig,
    train_config: TrainConfig,
) -> TrainResult:
    """Overfit the toy detector on a handful of scenes, one scene per step.

    Backbone sampling decisions are cached per scene when no stage ranks
    partners by learned features (`ssa.FEATURE_SELECTIONS`), since fixed
    positions plus a fixed seed reproduce them identically every epoch.
    Aggregation around the moving vote candidates is re-sampled every step. A
    failed step, such as one with a non-finite loss, raises TrainingAborted.
    A label whose class_id exceeds model_config.num_classes is a ValueError
    naming its scene, raised before any step.
    """
    if not scenes:
        raise ValueError("training needs at least one scene")
    for scene, sid in scenes:
        try:
            check_label_classes(scene.objects, model_config.num_classes)
        except ValueError as err:
            raise ValueError(f"scene {sid}: {err}") from err
    params = D.init_model_params(model_config, seed=train_config.seed)
    opt = Adam(params.tensors())
    cacheable = all(cfg.selection not in S.FEATURE_SELECTIONS for cfg in model_config.stage_ssa)
    decision_cache: dict[int, list[S.SsaDecisions]] = {}

    total_steps = train_config.epochs * len(scenes)
    history: list[dict] = []
    step = 0
    for epoch in range(train_config.epochs):
        epoch_sums: dict[str, float] = {}
        lr = 0.0
        for idx, (scene, sid) in enumerate(scenes):
            lr = one_cycle_lr(step, total_steps, train_config)
            fwd_seed = scene_seed(train_config.seed, idx)
            frozen = None
            if cacheable and idx in decision_cache:
                frozen = D.DetectorDecisions(stages=decision_cache[idx])
            try:
                # Rebinding out/total frees the previous step's graph only
                # after this forward has allocated its own; deleting it first
                # lets the allocator hand the memory back to the OS, and each
                # step then page-faults its whole graph in again.
                out = D.model_forward(scene.cloud, model_config, params, fwd_seed, frozen=frozen)
                breakdown, total, _ = L.compute_loss(out, scene.objects, model_config)
                opt.zero_grad()
                total.backward()
                opt.step(lr)
            except ValueError as err:
                raise TrainingAborted(epoch, sid, history[-3:], err) from err
            if cacheable and idx not in decision_cache:
                decision_cache[idx] = out.decisions.stages
            for key, value in asdict(breakdown).items():
                epoch_sums[key] = epoch_sums.get(key, 0.0) + value
            step += 1
        row = {k: v / len(scenes) for k, v in epoch_sums.items()}
        row["epoch"] = epoch
        row["lr"] = lr
        history.append(row)
        log.info("epoch %d total %.6f lr %.5f", epoch, row["total"], lr)

    return TrainResult(
        params=params,
        history=history,
        first_epoch_loss=history[0]["total"],
        final_loss=history[-1]["total"],
    )


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_history_csv(path, history: list[dict]) -> None:
    header = ["epoch", *(f.name for f in fields(L.LossBreakdown)), "lr"]
    write_csv(path, header, [[row[k] for k in header] for row in history])


# ---------------------------------------------------------------------------
# evaluation


def match_recall(detections: list[D.Detection], objects: list[tuple[D.Box3D, int]]) -> tuple[int, int]:
    """Matched / total ground-truth count at IoU3D >= RECALL_IOU."""
    matched = 0
    for box, _ in objects:
        if any(D.iou3d(det.box, box) >= RECALL_IOU for det in detections):
            matched += 1
    return matched, len(objects)


@T.no_grad()
def evaluate(
    scenes: list[tuple[DT.Scene, str]],
    model_config: D.ModelConfig,
    params: D.ModelParams,
    seed: int,
) -> tuple[float, float]:
    """(recall at IoU3D >= RECALL_IOU, mean total loss) over the scenes."""
    matched = total = 0
    losses = []
    for idx, (scene, _) in enumerate(scenes):
        out = D.model_forward(scene.cloud, model_config, params, scene_seed(seed, idx))
        m, t = match_recall(D.postprocess(out, model_config), scene.objects)
        matched += m
        total += t
        breakdown, _, _ = L.compute_loss(out, scene.objects, model_config)
        losses.append(breakdown.total)
    recall = matched / total if total else 1.0
    return recall, float(np.mean(losses))


# ---------------------------------------------------------------------------
# receptive-field probe


@dataclass
class ProbeReport:
    """Per-cluster receptive radii measured by input perturbation."""

    cluster_positions: np.ndarray  # Mx3 final-stage cluster positions
    radius_shift: np.ndarray  # M receptive radius with the configured exchange
    radius_plain: np.ndarray  # M receptive radius with exchange disabled
    influential_shift: np.ndarray  # MxN bool
    influential_plain: np.ndarray  # MxN bool
    composed_reach: float  # sum over stages of the largest ball radius
    pairing: np.ndarray  # final-stage pairing indices
    qualifying: np.ndarray  # M bool: a partner whose plain reach extends past the cluster's own

    def plain_containment_violations(self, input_positions: np.ndarray) -> int:
        """Influential (cluster, point) pairs beyond the composed reach, no-shift run."""
        dists = np.sqrt(G.pairwise_sq_dist(self.cluster_positions, input_positions))
        return int(((dists > self.composed_reach + 1e-9) & self.influential_plain).sum())

    def expanded(self) -> np.ndarray:
        return self.radius_shift > self.radius_plain

    def summary(self) -> dict:
        return {
            "clusters": int(self.cluster_positions.shape[0]),
            "mean_radius_shift": float(self.radius_shift.mean()),
            "mean_radius_plain": float(self.radius_plain.mean()),
            "qualifying": int(self.qualifying.sum()),
            "expanded_qualifying": int((self.expanded() & self.qualifying).sum()),
        }


# Budget of one chunk of probe replays, in stage-0 grouped rows: a displaced
# copy costs the stage-0 clusters it replays plus their partners, times the
# sum of the scales' k. 4,608 holds 16 whole copies of criterion 4's model
# (24 clusters of 4 + 8 slots); 1 replays one copy per chunk.
_PROBE_ROWS = 4608


def structural_reach(config: D.ModelConfig, decisions: list[S.SsaDecisions], n: int) -> list[np.ndarray]:
    """Per stage, an n x M bool matrix: a change to input point p can move
    cluster i's output under the frozen decisions. Each stage's
    `SsaDecisions.reads` is chained by a boolean matrix product, which no
    path count can overflow."""
    reach: list[np.ndarray] = []
    for d, cfg in zip(decisions, config.stage_ssa):
        reads = d.reads(reach[-1].shape[1] if reach else n, cfg)
        reach.append(reach[-1] @ reads if reach else reads)
    return reach


def _needed(
    config: D.ModelConfig, decisions: list[S.SsaDecisions], reach: list[np.ndarray], wanted: np.ndarray
) -> list[np.ndarray]:
    """The reach pruned backward from the final clusters `wanted` (C x M,
    within reach[-1]): per stage, the reached rows that the next stage's
    needed rows read. `SsaDecisions.reads` counts a partner's reads, so
    a partner that a replay computes only for its exchange reads nothing
    more."""
    need = [wanted]
    for t in range(len(reach) - 1, 0, -1):
        reads = decisions[t].reads(reach[t - 1].shape[1], config.stage_ssa[t])
        need.insert(0, reach[t - 1] & (need[0] @ reads.T))
    return need


def _replayed(reached: np.ndarray, d: S.SsaDecisions, config: S.SsaConfig) -> np.ndarray:
    """The clusters a replay computes: the reached ones and, when the
    exchange reads partners, their partners."""
    computed = reached.copy()
    if config.reads_partner:
        copy, cluster = np.nonzero(reached)
        computed[copy, d.pairing[cluster]] = True
    return computed


def remap_decisions(
    d: S.SsaDecisions, where: np.ndarray, reached: np.ndarray, config: S.SsaConfig
) -> tuple[S.SsaDecisions, np.ndarray]:
    """Frozen decisions for one replay of some clusters of several copies.

    where[c, j] is the replay input row holding copy c's input row j, and
    reached[c, i] marks the clusters of copy c to recompute. The replay
    computes those and their partners (`_replayed`) in (copy, cluster)
    order; a partner-only row, and every row of a stage that reads no
    partner, pairs with itself. Returns the decisions and which computed
    rows were reached."""
    computed = _replayed(reached, d, config)
    copy, cluster = np.nonzero(computed)
    keep = reached[copy, cluster]
    rows = np.arange(len(cluster))
    pairing = rows
    if config.reads_partner:
        slot = np.zeros(computed.shape, dtype=np.int64)
        slot[copy, cluster] = rows
        pairing = np.where(keep, slot[copy, d.pairing[cluster]], rows)
    tables = [G.NeighborTable(where[copy[:, None], t.indices[cluster]], t.valid[cluster]) for t in d.tables]
    return S.SsaDecisions(where[copy, d.cluster_indices[cluster]], tables, pairing), keep


def replay_reached(
    config: D.ModelConfig,
    params: D.ModelParams,
    inputs: list[S.ClusterFeatures],
    decisions: list[S.SsaDecisions],
    reach: list[np.ndarray],
    changed: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """Final-stage features of C changed copies of a frozen forward, only
    at the clusters each copy can move.

    inputs[t] is stage t's unchanged input; copy c changes the input rows
    changed[c] (C x N bool) to `positions`, in np.nonzero(changed) order,
    and reach[t] (C x M_t bool) holds the clusters it may move at stage t.
    Each stage is one frozen `ssa_forward` over the unchanged rows followed
    by the copies' changed ones. Returns the rows np.nonzero(reach[-1])
    lists, in that order."""
    if not reach[-1].any():  # no cluster to recompute, and a cloud of no rows is rejected
        return np.zeros((0, config.stage_ssa[-1].out_channels))
    copy, row = np.nonzero(changed)
    features = inputs[0].aggregated.values[row]
    for base, d, cfg, p, reached in zip(inputs, decisions, config.stage_ssa, params.backbone, reach):
        where = np.tile(np.arange(base.positions.shape[0]), (reached.shape[0], 1))
        where[copy, row] = base.positions.shape[0] + np.arange(len(row))
        frozen, keep = remap_decisions(d, where, reached, cfg)
        stacked = T.Tensor(np.concatenate([base.aggregated.values, features]))
        out, _ = S.ssa_forward(
            np.concatenate([base.positions, positions]), stacked, keep.size, cfg, p, seed=0, frozen=frozen
        )
        copy, row = np.nonzero(reached)
        positions, features = out.positions[keep], out.aggregated.values[keep]
    return features


def _chunks(costs: np.ndarray, budget: int):
    """Consecutive index ranges whose costs sum to at most budget, each
    holding at least one index."""
    start, total = 0, 0
    for i, cost in enumerate(costs.tolist()):
        if i > start and total + cost > budget:
            yield np.arange(start, i)
            start, total = i, 0
        total += cost
    yield np.arange(start, len(costs))


def _probe_pass(
    config: D.ModelConfig,
    params: D.ModelParams,
    base: list[S.ClusterFeatures],
    decisions: list[S.SsaDecisions],
    reach: list[np.ndarray],
    axes: tuple[int, ...],
    eps: float,
    tol: float,
    influence: np.ndarray,
) -> None:
    """One probe pass over the frozen forward `base` (its input, then each
    stage's output). Every input point p whose reach holds a final cluster
    i with influence[p, i] still False is displaced by eps along each of
    `axes`, one copy per axis; each copy replays the rows those clusters
    need (`_needed`), and influence[p, i] becomes True where a copy moves
    cluster i by more than tol. Copies are replayed in chunks of
    `_PROBE_ROWS` stage-0 grouped rows (at least one copy each)."""
    wanted = reach[-1] & ~influence
    points = np.flatnonzero(wanted.any(axis=1))
    need = _needed(config, decisions, [r[points] for r in reach], wanted[points])
    need = [np.repeat(r, len(axes), axis=0) for r in need]
    points, axes = np.repeat(points, len(axes)), np.tile(axes, len(points))
    stage0 = config.stage_ssa[0]
    costs = _replayed(need[0], decisions[0], stage0).sum(axis=1) * sum(s.k for s in stage0.scales)
    for chunk in _chunks(costs, _PROBE_ROWS):
        changed = np.zeros((len(chunk), base[0].positions.shape[0]), dtype=bool)
        changed[np.arange(len(chunk)), points[chunk]] = True
        positions = base[0].positions[points[chunk]]
        positions[np.arange(len(chunk)), axes[chunk]] += eps
        reach = [r[chunk] for r in need]
        values = replay_reached(config, params, base[:-1], decisions, reach, changed, positions)
        copy, cluster = np.nonzero(reach[-1])
        moved = np.abs(values - base[-1].aggregated.values[cluster]).max(axis=1) > tol
        # one point's y and z copies may share a chunk: a plain |= keeps only the last write
        np.logical_or.at(influence, (points[chunk][copy], cluster), moved)


@T.no_grad()
def receptive_field_probe(
    model_config: D.ModelConfig,
    params: D.ModelParams,
    cloud: G.PointCloud,
    eps: float,
    tol: float,
    seed: int,
) -> ProbeReport:
    """Displace every input point by eps along each axis and replay the
    backbone with frozen sampling; a point is influential for a cluster
    when any final-stage output channel moves by more than tol.

    A displaced point can move only the clusters in its `structural_reach`,
    and every other row counts as unmoved. Each variant makes two passes
    (`_probe_pass`): the first displaces every point along x, the second
    along y and along z, and the second replays only the pairs (point,
    final cluster) that are reached and that x left unmoved. Each copy
    replays only the reached rows its wanted final clusters depend on,
    the reach pruned backward stage by stage (`_needed`)."""
    for name, value in (("eps", eps), ("tol", tol)):
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")
    fresh, decisions = D.backbone_forward(cloud, model_config, params, seed)
    cluster_positions = fresh[-1].positions
    variants = (model_config, D.with_stage_fields(model_config, exchange_op="none"))
    n = cloud.n
    # the fresh forward already holds the configured variant's unperturbed stages
    plain, _ = D.backbone_forward(cloud, variants[1], params, seed, frozen=decisions)
    source = S.ClusterFeatures(cloud.positions, T.Tensor(cloud.features))
    m = cluster_positions.shape[0]
    # influence[v, p, i]: displacing point p along some axis moves cluster i
    influence = np.zeros((2, n, m), dtype=bool)
    if eps > 0:
        for v, (config, stages) in enumerate(zip(variants, (fresh, plain))):
            reach = structural_reach(config, decisions, n)
            # x for every reached cluster, then y and z only for those x left unmoved
            for axes in ((0,), (1, 2)):
                _probe_pass(config, params, [source, *stages], decisions, reach, axes, eps, tol, influence[v])
    influence = influence.transpose(0, 2, 1).copy()
    influential_shift, influential_plain = influence

    dists = np.sqrt(G.pairwise_sq_dist(cluster_positions, cloud.positions))
    radius_shift = np.where(influential_shift, dists, 0.0).max(axis=1)
    radius_plain = np.where(influential_plain, dists, 0.0).max(axis=1)
    composed_reach = sum(max(s.radius for s in cfg.scales) for cfg in model_config.stage_ssa)

    # i qualifies when its partner's plain features feel a point beyond i's own plain reach
    pairing = decisions[-1].pairing
    partner_reach = np.where(influential_plain[pairing], dists, -np.inf).max(axis=1)
    qualifying = (pairing != np.arange(m)) & (partner_reach > radius_plain + 1e-12)

    return ProbeReport(
        cluster_positions=cluster_positions,
        radius_shift=radius_shift,
        radius_plain=radius_plain,
        influential_shift=influential_shift,
        influential_plain=influential_plain,
        composed_reach=float(composed_reach),
        pairing=pairing,
        qualifying=qualifying,
    )


# ---------------------------------------------------------------------------
# latency benchmark

# fewer timed repetitions than this give no usable median
MIN_REPETITIONS = 10


@dataclass
class BenchRow:
    name: str
    mean_ms: float
    median_ms: float
    ratio_median: float  # median over repetitions of this variant's time / the last variant's
    param_count: int


@dataclass
class BenchReport:
    rows: list[BenchRow]
    repetitions: int

    def by_name(self) -> dict[str, BenchRow]:
        return {r.name: r for r in self.rows}


def latency_bench(
    variants: list[tuple[str, D.ModelConfig, D.ModelParams]],
    clouds: list[G.PointCloud],
    repetitions: int,
    seed: int = 0,
) -> BenchReport:
    """Wall-clock full-pipeline forward timing with two discarded warmups.

    Every repetition times every variant, in list order on even
    repetitions and reversed on odd ones, so the variants share one
    time window and neither always runs first. Each row's ratio_median
    pairs its times with the last variant's by repetition, so host drift
    between repetitions cancels out of the ratio."""
    if repetitions < MIN_REPETITIONS:
        raise ValueError(f"repetitions must be >= {MIN_REPETITIONS}")
    for _, config, params in variants:
        for cloud in clouds[:1]:  # warmup
            D.detect(cloud, config, params, seed)
            D.detect(cloud, config, params, seed)
    samples: list[list[float]] = [[] for _ in variants]
    indexed = list(enumerate(variants))
    for rep in range(repetitions):
        for v, (_, config, params) in indexed if rep % 2 == 0 else indexed[::-1]:
            start = time.perf_counter()
            for cloud in clouds:
                D.detect(cloud, config, params, seed + rep)
            samples[v].append((time.perf_counter() - start) / max(len(clouds), 1) * 1000.0)
    rows = [
        BenchRow(
            name=name,
            mean_ms=float(np.mean(times)),
            median_ms=float(np.median(times)),
            ratio_median=float(np.median(np.asarray(times) / samples[-1])),
            param_count=D.count_parameters(params),
        )
        for (name, _, params), times in zip(variants, samples)
    ]
    return BenchReport(rows=rows, repetitions=repetitions)


def shift_mlp_param_count(config: D.ModelConfig) -> int:
    """Closed-form parameter total of all shift MLPs: 2C^2 + 2C per scale per stage."""
    total = 0
    for cfg in config.stage_ssa:
        for scale in cfg.scales:
            c = scale.out_channels
            total += 2 * c * c + 2 * c
    return total


def write_bench_csv(path, report: BenchReport) -> None:
    rows = [
        [r.name, f"{r.mean_ms:.4f}", f"{r.median_ms:.4f}", f"{r.ratio_median:.4f}", r.param_count, report.repetitions]
        for r in report.rows
    ]
    write_csv(path, ["variant", "mean_ms", "median_ms", "ratio_median", "param_count", "repetitions"], rows)


# ---------------------------------------------------------------------------
# ablation sweep


@dataclass
class AblationCell:
    axis: str
    value: str
    recall: float | None
    mean_loss: float | None
    status: str  # "ok" or "failed"
    detail: str = ""


@dataclass
class AblationReport:
    cells: list[AblationCell]

    def axis_values(self, axis: str) -> list[str]:
        return [c.value for c in self.cells if c.axis == axis]


def ratio_label(value: float) -> str:
    """A shift ratio as an exact fraction: "0", "1/16", ..., "1/2"."""
    return str(Fraction(value))


def _run_ablation_cell(scenes, base, train_config, axis, value) -> AblationCell:
    name = ABLATION_AXES[axis][0]
    label = ratio_label(value) if name == "shift_ratio" else value
    try:
        config = D.with_stage_fields(base, **{name: value})
        result = train_toy(scenes, config, train_config)
        recall, mean_loss = evaluate(scenes, config, result.params, train_config.seed)
        log.info("ablation %s=%s recall %.3f loss %.4f", axis, label, recall, mean_loss)
        return AblationCell(axis=axis, value=label, recall=recall, mean_loss=mean_loss, status="ok")
    except Exception as err:  # cell isolation: record and continue
        log.error("ablation cell %s=%s failed: %s", axis, label, err)
        return AblationCell(
            axis=axis, value=label, recall=None, mean_loss=None, status="failed", detail=str(err)
        )


def run_ablation(
    scenes: list[tuple[DT.Scene, str]],
    base: D.ModelConfig,
    train_config: TrainConfig,
    axes: list[str] | None = None,
) -> AblationReport:
    """Train one cell per value of each axis in ABLATION_AXES (default: all),
    with identical seed and budget. A cell's model is base with the axis's
    SsaConfig field set to the value on every stage; the other fields keep
    base's values. Cell failures are recorded and the sweep continues.
    """
    axes = axes or list(ABLATION_AXES)
    for axis in axes:
        if axis not in ABLATION_AXES:
            raise ValueError(f"unknown ablation axis {axis!r}")
    cells = [
        _run_ablation_cell(scenes, base, train_config, axis, value)
        for axis in axes
        for value in ABLATION_AXES[axis][1]
    ]
    return AblationReport(cells=cells)


# ---------------------------------------------------------------------------
# finite-difference verification suite


def gradcheck_config() -> tuple[D.ModelConfig, DT.SynthConfig]:
    """A deliberately small two-stage pipeline sized for exhaustive
    central-difference checking."""
    def stage(radii, width, agg):
        return S.SsaConfig(
            scales=[
                S.ScaleConfig(radius=radii[0], k=3, mlp=[width]),
                S.ScaleConfig(radius=radii[1], k=5, mlp=[width]),
            ],
            shift_ratio=0.25,
            aggregation=[agg],
            exchange_op="cs",
        )

    model = D.ModelConfig(
        stage_points=(16, 8),
        stage_ssa=[stage((1.5, 3.0), 6, 10), stage((2.5, 5.0), 8, 12)],
        num_classes=1,
        anchors=[(1.6, 1.1, 1.0)],
        vote_hidden=[8],
        agg_radius=3.0,
        agg_k=5,
        agg_f=[12],
        agg_a=[12],
        head_hidden=[10],
        angle_bins=4,
    )
    synth = DT.SynthConfig(
        extent=8.0,
        points_per_scene=48,
        noise_points=16,
        objects_min=1,
        objects_max=1,
        classes=[DT.ClassSpec("crate", (1.6, 1.1, 1.0), (0.1, 0.05, 0.05))],
    )
    return model, synth


def gradcheck_suite(seed: int) -> dict[str, float]:
    """Worst relative finite-difference error per pipeline slice, at step GRADCHECK_EPS.

    The detector entry freezes all sampling decisions and requires at
    least one positive candidate so every loss term is exercised.
    """
    rng = np.random.default_rng(G.derive_seed(seed, 40))
    errors: dict[str, float] = {}

    p = T.init_linear(3, 2, rng)
    x = T.Tensor(rng.normal(size=(4, 3)))
    errors["linear"] = T.grad_check(
        lambda: T.mean_all(T.mul(T.linear(x, p), T.linear(x, p))), p.tensors() + [x], eps=GRADCHECK_EPS
    )

    mlp = T.init_mlp([3, 6, 4], rng, final_relu=False)
    errors["mlp"] = T.grad_check(
        lambda: T.mean_all(T.mul(T.mlp_forward(x, mlp), T.mlp_forward(x, mlp))),
        mlp.tensors(),
        eps=GRADCHECK_EPS,
    )

    vals = T.Tensor(rng.normal(size=(8, 3)))
    valid = np.ones((2, 4), dtype=bool)
    valid[:, 3] = False
    errors["reduce_max"] = T.grad_check(
        lambda: T.sum_all(T.reduce_max(vals, 4, valid)), [vals], eps=GRADCHECK_EPS
    )

    ssa_cfg = S.SsaConfig(
        scales=[S.ScaleConfig(radius=1.5, k=4, mlp=[5])],
        shift_ratio=0.25,
        aggregation=[6],
    )
    positions = rng.uniform(-2, 2, size=(12, 3))
    feats = T.Tensor(rng.normal(size=(12, 2)))
    ssa_params = S.init_ssa_params(ssa_cfg, 2, rng)
    _, frozen_ssa = S.ssa_forward(positions, feats, 5, ssa_cfg, ssa_params, seed=seed)
    probe = T.Tensor(rng.normal(size=(5, 6)))

    def ssa_loss():
        out, _ = S.ssa_forward(
            positions, feats, 5, ssa_cfg, ssa_params, seed=seed, frozen=frozen_ssa
        )
        return T.mean_all(T.mul(out.aggregated, probe))

    errors["ssa"] = T.grad_check(ssa_loss, ssa_params.tensors() + [feats], eps=GRADCHECK_EPS)
    errors["detector"] = gradcheck_detector(seed)
    return errors


def gradcheck_detector(seed: int, eps: float = GRADCHECK_EPS) -> float:
    """End-to-end check: two-stage backbone, vote, heads, and the full loss."""
    model, synth = gradcheck_config()
    for offset in range(16):
        scene = DT.generate_scene(synth, seed=G.derive_seed(seed, 41, offset))
        params = D.init_model_params(model, seed=G.derive_seed(seed, 42, offset))
        fwd_seed = G.derive_seed(seed, 43, offset)
        out = D.model_forward(scene.cloud, model, params, fwd_seed)
        _, _, targets = L.compute_loss(out, scene.objects, model)
        if targets.positive.any():
            break
    else:
        raise RuntimeError("no positive candidates in any probe scene")
    frozen = out.decisions

    def f():
        fwd = D.model_forward(scene.cloud, model, params, fwd_seed, frozen=frozen)
        _, total, _ = L.compute_loss(fwd, scene.objects, model)
        return total

    return T.grad_check(f, params.tensors(), eps=eps)


def write_ablation_csv(path, report: AblationReport) -> None:
    def fixed(x):
        return "" if x is None else f"{x:.6f}"

    rows = [[c.axis, c.value, fixed(c.recall), fixed(c.mean_loss), c.status, c.detail] for c in report.cells]
    write_csv(path, ["axis", "value", "recall_iou50", "mean_loss", "status", "detail"], rows)
