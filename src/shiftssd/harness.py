"""Experiment harness: toy overfit training, a perturbation probe that
measures each cluster's receptive radius, a forward-latency benchmark,
and one-axis-at-a-time ablation sweeps.

Training uses Adam under a one-cycle learning-rate schedule. The probe
freezes every stochastic sampling decision and re-runs the forward pass
with single input points displaced, so the measured influence reflects
feature flow rather than sampling jitter.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as DT
from . import detector as D
from . import geometry as G
from . import losses as L
from . import ssa as S
from . import tensor as T

log = logging.getLogger("shiftssd")

ABLATION_RATIOS = (0.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0)
ABLATION_SELECTIONS = ("farthest", "nearest", "feats_scale", "points_num")
ABLATION_EXCHANGES = ("none", "concat", "avg", "attn", "cs")


@dataclass
class TrainConfig:
    epochs: int = 300
    peak_lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    warmup_frac: float = 0.3
    div_factor: float = 25.0
    final_div_factor: float = 1e4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.peak_lr < 0:
            raise ValueError("peak learning rate must be non-negative")


class Adam:
    """Standard Adam with bias correction over a fixed tensor list."""

    def __init__(self, tensors: list[T.Tensor], beta1=0.9, beta2=0.999, eps=1e-8):
        self.tensors = tensors
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(t.values) for t in tensors]
        self.v = [np.zeros_like(t.values) for t in tensors]
        self.t = 0

    def zero_grad(self):
        T.zero_grads(self.tensors)

    def step(self, lr: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.tensors, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p.values -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def one_cycle_lr(step: int, total_steps: int, config: TrainConfig) -> float:
    """Linear warmup to the peak, then cosine annealing down."""
    peak = config.peak_lr
    if total_steps <= 1:
        return peak
    pct = step / (total_steps - 1)
    start = peak / config.div_factor
    floor = peak / config.final_div_factor
    if pct <= config.warmup_frac:
        t = pct / config.warmup_frac
        return start + (peak - start) * t
    t = (pct - config.warmup_frac) / (1.0 - config.warmup_frac)
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

    def __init__(self, epoch: int, scene_id: str, last_rows: list[dict], reason: str):
        super().__init__(f"non-finite loss at epoch {epoch}, scene {scene_id}: {reason}")
        self.epoch = epoch
        self.scene_id = scene_id
        self.last_rows = last_rows
        self.reason = reason


def train_toy(
    scenes: list[tuple[DT.Scene, str]],
    model_config: D.ModelConfig,
    train_config: TrainConfig,
) -> TrainResult:
    """Overfit the toy detector on a handful of scenes, one scene per step.

    Backbone sampling decisions are cached per scene when the pairing
    strategy depends only on geometry, since fixed positions plus a
    fixed seed reproduce them identically every epoch. Aggregation
    around the moving vote candidates is re-sampled every step. A
    non-finite loss raises TrainingAborted.
    """
    if not scenes:
        raise ValueError("training needs at least one scene")
    params = D.init_model_params(model_config, seed=train_config.seed)
    opt = Adam(
        params.tensors(),
        beta1=train_config.beta1,
        beta2=train_config.beta2,
        eps=train_config.adam_eps,
    )
    cacheable = all(cfg.selection != "feats_scale" for cfg in model_config.stage_ssa)
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
                frozen = D.DetectorDecisions(stages=decision_cache[idx], agg_table=None)
            try:
                out = D.model_forward(scene.cloud, model_config, params, fwd_seed, frozen=frozen)
                breakdown, total, _ = L.compute_loss(
                    out.raw,
                    out.offsets,
                    out.candidates,
                    out.stages[-1].positions,
                    scene.objects,
                    model_config,
                )
                if not np.isfinite(breakdown.total):
                    raise ValueError(f"loss is {breakdown.total}")
                opt.zero_grad()
                total.backward()
                opt.step(lr)
            except ValueError as err:
                raise TrainingAborted(epoch, sid, history[-3:], str(err)) from err
            if cacheable and idx not in decision_cache:
                decision_cache[idx] = out.decisions.stages
            for key, value in breakdown.as_dict().items():
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


def write_history_csv(path, history: list[dict]) -> None:
    fields = ["epoch", "offset", "cls", "loc", "size", "angle", "corner", "total", "lr"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in history:
            writer.writerow({k: row[k] for k in fields})


# ---------------------------------------------------------------------------
# evaluation


def match_recall(
    detections: list[D.Detection], objects: list[tuple[D.Box3D, int]], iou_threshold: float = 0.5
) -> tuple[int, int]:
    """Matched / total ground-truth count at the given IoU3D threshold."""
    matched = 0
    for box, _ in objects:
        if any(D.iou3d(det.box, box) >= iou_threshold for det in detections):
            matched += 1
    return matched, len(objects)


def evaluate(
    scenes: list[tuple[DT.Scene, str]],
    model_config: D.ModelConfig,
    params: D.ModelParams,
    seed: int,
    iou_threshold: float = 0.5,
) -> tuple[float, float]:
    """(recall at IoU3D >= threshold, mean total loss) over the scenes."""
    matched = total = 0
    losses = []
    for idx, (scene, _) in enumerate(scenes):
        out = D.model_forward(scene.cloud, model_config, params, scene_seed(seed, idx))
        m, t = match_recall(D.postprocess(out, model_config), scene.objects, iou_threshold)
        matched += m
        total += t
        breakdown, _, _ = L.compute_loss(
            out.raw, out.offsets, out.candidates, out.stages[-1].positions,
            scene.objects, model_config,
        )
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
    qualifying: np.ndarray  # M bool, see qualifying_clusters

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


def _strip_exchange(config: D.ModelConfig) -> D.ModelConfig:
    stages = [replace(cfg, exchange_op="none") for cfg in config.stage_ssa]
    return replace(config, stage_ssa=stages)


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
    when any final-stage output channel moves by more than tol."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    base_stages, decisions = D.backbone_forward(cloud, model_config, params, seed)
    plain_config = _strip_exchange(model_config)

    def final_values(config, positions):
        stages, _ = D.backbone_forward(
            cloud, config, params, seed, frozen=decisions, positions_override=positions
        )
        return stages[-1].aggregated.values

    base_shift = final_values(model_config, cloud.positions)
    base_plain = final_values(plain_config, cloud.positions)

    m = base_shift.shape[0]
    n = cloud.n
    influential_shift = np.zeros((m, n), dtype=bool)
    influential_plain = np.zeros((m, n), dtype=bool)
    if eps > 0:
        for p in range(n):
            for axis in range(3):
                perturbed = cloud.positions.copy()
                perturbed[p, axis] += eps
                diff_s = np.abs(final_values(model_config, perturbed) - base_shift).max(axis=1)
                diff_p = np.abs(final_values(plain_config, perturbed) - base_plain).max(axis=1)
                influential_shift[:, p] |= diff_s > tol
                influential_plain[:, p] |= diff_p > tol

    cluster_positions = base_stages[-1].positions
    dists = np.sqrt(G.pairwise_sq_dist(cluster_positions, cloud.positions))
    radius_shift = np.where(influential_shift, dists, 0.0).max(axis=1)
    radius_plain = np.where(influential_plain, dists, 0.0).max(axis=1)
    composed_reach = sum(max(s.radius for s in cfg.scales) for cfg in model_config.stage_ssa)

    pairing = decisions[-1].pairing.farthest
    qualifying = np.zeros(m, dtype=bool)
    for i in range(m):
        j = pairing[i]
        if j == i:
            continue
        partner_pts = influential_plain[j]
        if partner_pts.any() and dists[i, partner_pts].max() > radius_plain[i] + 1e-12:
            qualifying[i] = True

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


@dataclass
class BenchRow:
    name: str
    mean_ms: float
    median_ms: float
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
    """Wall-clock full-pipeline forward timing with two discarded warmups."""
    if repetitions < 10:
        raise ValueError("repetitions must be >= 10")
    rows = []
    for name, config, params in variants:
        for cloud in clouds[:1]:  # warmup
            D.detect(cloud, config, params, seed)
            D.detect(cloud, config, params, seed)
        samples = []
        for rep in range(repetitions):
            start = time.perf_counter()
            for cloud in clouds:
                D.detect(cloud, config, params, seed + rep)
            elapsed = (time.perf_counter() - start) / max(len(clouds), 1)
            samples.append(elapsed * 1000.0)
        rows.append(
            BenchRow(
                name=name,
                mean_ms=float(np.mean(samples)),
                median_ms=float(np.median(samples)),
                param_count=D.count_parameters(params),
            )
        )
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "mean_ms", "median_ms", "param_count", "repetitions"])
        for row in report.rows:
            writer.writerow([row.name, f"{row.mean_ms:.4f}", f"{row.median_ms:.4f}", row.param_count, report.repetitions])


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


def ablation_grid(axes: list[str] | None = None) -> list[tuple[str, object]]:
    """(axis, value) cells; one axis varies while the others sit at the
    defaults of ratio 1/8, farthest selection, cs exchange."""
    axes = axes or ["ratio", "selection", "exchange"]
    cells: list[tuple[str, object]] = []
    for axis in axes:
        if axis == "ratio":
            cells.extend(("ratio", v) for v in ABLATION_RATIOS)
        elif axis == "selection":
            cells.extend(("selection", v) for v in ABLATION_SELECTIONS)
        elif axis == "exchange":
            cells.extend(("exchange", v) for v in ABLATION_EXCHANGES)
        else:
            raise ValueError(f"unknown ablation axis {axis!r}")
    return cells


def ratio_label(value: float) -> str:
    for num, den in ((0, 1), (1, 16), (1, 8), (1, 4), (1, 2)):
        if abs(value - num / den) < 1e-12:
            return "0" if num == 0 else f"{num}/{den}"
    return f"{value:g}"


def _run_ablation_cell(scenes, config_factory, train_config, axis, value) -> AblationCell:
    ratio, selection, exchange = 1.0 / 8.0, "farthest", "cs"
    if axis == "ratio":
        ratio = float(value)
        label = ratio_label(ratio)
    elif axis == "selection":
        selection = str(value)
        label = selection
    else:
        exchange = str(value)
        label = exchange
    try:
        config = config_factory(ratio, selection, exchange)
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
    config_factory,
    train_config: TrainConfig,
    axes: list[str] | None = None,
) -> AblationReport:
    """Train one cell per grid entry with identical seed and budget.

    config_factory(shift_ratio, selection, exchange_op) must return a
    ModelConfig. Cell failures are recorded and the sweep continues.
    """
    cells = [
        _run_ablation_cell(scenes, config_factory, train_config, axis, value)
        for axis, value in ablation_grid(axes)
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


def gradcheck_suite(seed: int, eps: float = 1e-5) -> dict[str, float]:
    """Worst relative finite-difference error per pipeline slice.

    The detector entry freezes all sampling decisions and requires at
    least one positive candidate so every loss term is exercised.
    """
    rng = np.random.default_rng(G.derive_seed(seed, 40))
    errors: dict[str, float] = {}

    p = T.init_linear(3, 2, rng)
    x = T.Tensor(rng.normal(size=(4, 3)))
    errors["linear"] = T.grad_check(
        lambda: T.mean_all(T.mul(T.linear(x, p), T.linear(x, p))), p.tensors() + [x], eps=eps
    )

    mlp = T.init_mlp([3, 6, 4], rng, final_relu=False)
    errors["mlp"] = T.grad_check(
        lambda: T.mean_all(T.mul(T.mlp_forward(x, mlp), T.mlp_forward(x, mlp))),
        mlp.tensors(),
        eps=eps,
    )

    vals = T.Tensor(rng.normal(size=(8, 3)))
    valid = np.ones((2, 4), dtype=bool)
    valid[:, 3] = False
    errors["reduce_max"] = T.grad_check(
        lambda: T.sum_all(T.reduce_max(vals, 4, valid)), [vals], eps=eps
    )

    ssa_cfg = S.SsaConfig(
        scales=[S.ScaleConfig(radius=1.5, k=4, mlp=[5])],
        shift_ratio=0.25,
        aggregation=[6],
    )
    positions = rng.uniform(-2, 2, size=(12, 3))
    feats = T.Tensor(rng.normal(size=(12, 2)))
    ssa_params = S.init_ssa_params(ssa_cfg, 2, rng)
    _, _, frozen_ssa = S.ssa_forward(positions, feats, 5, ssa_cfg, ssa_params, seed=seed)
    probe = T.Tensor(rng.normal(size=(5, 6)))

    def ssa_loss():
        out, _, _ = S.ssa_forward(
            positions, feats, 5, ssa_cfg, ssa_params, seed=seed, frozen=frozen_ssa
        )
        return T.mean_all(T.mul(out.aggregated, probe))

    errors["ssa"] = T.grad_check(ssa_loss, ssa_params.tensors() + [feats], eps=eps)
    errors["detector"] = gradcheck_detector(seed, eps=eps)
    return errors


def gradcheck_detector(seed: int, eps: float = 1e-5) -> float:
    """End-to-end check: two-stage backbone, vote, heads, and the full loss."""
    model, synth = gradcheck_config()
    for offset in range(16):
        scene = DT.generate_scene(synth, seed=G.derive_seed(seed, 41, offset))
        params = D.init_model_params(model, seed=G.derive_seed(seed, 42, offset))
        fwd_seed = G.derive_seed(seed, 43, offset)
        out = D.model_forward(scene.cloud, model, params, fwd_seed)
        targets = L.assign_targets(
            out.candidates.values, out.stages[-1].positions, scene.objects
        )
        if targets.positive.any():
            break
    else:
        raise RuntimeError("no positive candidates in any probe scene")
    frozen = out.decisions

    def f():
        fwd = D.model_forward(scene.cloud, model, params, fwd_seed, frozen=frozen)
        _, total, _ = L.compute_loss(
            fwd.raw, fwd.offsets, fwd.candidates, fwd.stages[-1].positions,
            scene.objects, model,
        )
        return total

    return T.grad_check(f, params.tensors(), eps=eps)


def write_ablation_csv(path, report: AblationReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "recall_iou50", "mean_loss", "status", "detail"])
        for c in report.cells:
            writer.writerow(
                [
                    c.axis,
                    c.value,
                    "" if c.recall is None else f"{c.recall:.6f}",
                    "" if c.mean_loss is None else f"{c.mean_loss:.6f}",
                    c.status,
                    c.detail,
                ]
            )
