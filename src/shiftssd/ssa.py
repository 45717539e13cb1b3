"""Shift set abstraction: multi-scale local feature summaries whose
clusters exchange partial feature channels with a distant partner.

The layer runs in four steps: cluster selection by farthest point
sampling, per-scale ball grouping with a shared MLP and masked
max-pool, partner selection, and a per-scale exchange operation
followed by scale aggregation. Partner selection (`selection_variant`)
ranks one table of candidates sampled within r' of each cluster, and
its partner index array is shared by all scales. The default exchange
splices the first `s` channels of the partner's features into the
cluster's own, mixes them with a two-layer MLP on a residual branch,
averages with the untouched input, and applies ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry as G
from . import tensor as T

EXCHANGE_OPS = ("none", "concat", "avg", "attn", "cs")
SELECTION_STRATEGIES = ("farthest", "nearest", "feats_scale", "points_num")
# the strategies that rank partners by learned features, so their pairing changes as the weights train
FEATURE_SELECTIONS = ("feats_scale",)


@dataclass
class ScaleConfig:
    """One grouping scale: ball radius, neighbor budget, and MLP widths."""

    radius: float
    k: int
    mlp: list[int]

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("scale radius must be finite and positive")
        if self.k < 1:
            raise ValueError("scale k must be >= 1")
        if not self.mlp or min(self.mlp) < 1:
            raise ValueError("scale mlp widths must be non-empty and each >= 1")

    @property
    def out_channels(self) -> int:
        return self.mlp[-1]


@dataclass
class SsaConfig:
    scales: list[ScaleConfig]
    shift_ratio: float = 1.0 / 8.0
    r_prime: float | None = None  # None: 2x the largest scale radius
    candidate_k: int | None = None  # None: the largest scale's k
    aggregation: list[int] = field(default_factory=list)  # []: one layer, the scales' concat width
    exchange_op: str = "cs"
    selection: str = "farthest"

    def __post_init__(self):
        if not self.scales:
            raise ValueError("at least one scale required")
        if not 0.0 <= self.shift_ratio <= 1.0:
            raise ValueError("shift_ratio must lie in [0, 1]")
        if self.exchange_op not in EXCHANGE_OPS:
            raise ValueError(f"unknown exchange op {self.exchange_op!r}")
        if self.selection not in SELECTION_STRATEGIES:
            raise ValueError(f"unknown selection strategy {self.selection!r}")
        max_radius = max(s.radius for s in self.scales)
        if self.r_prime is not None and not (np.isfinite(self.r_prime) and self.r_prime >= max_radius):
            raise ValueError("r_prime must be finite and at least the largest scale radius")
        if self.candidate_k is not None and self.candidate_k < 1:
            raise ValueError("candidate_k must be >= 1")
        if min(self.aggregation, default=1) < 1:
            raise ValueError("aggregation widths must each be >= 1")
        if self.r_prime is None:
            self.resolved()  # the derived r_prime must pass the same check (it can overflow)

    def resolved(self) -> SsaConfig:
        """A copy with every unset (None / []) derived field filled in from the scales."""
        return replace(
            self,
            r_prime=2.0 * max(s.radius for s in self.scales) if self.r_prime is None else self.r_prime,
            candidate_k=max(s.k for s in self.scales) if self.candidate_k is None else self.candidate_k,
            aggregation=self.aggregation or [sum(s.out_channels for s in self.scales)],
        )

    @property
    def out_channels(self) -> int:
        return self.resolved().aggregation[-1]

    @property
    def reads_partner(self) -> bool:
        """Whether the exchange reads the partner cluster's row: every op
        but "none", and "cs" only when it donates a channel at some scale."""
        if self.exchange_op == "cs":
            return any(shift_channels(self.shift_ratio, s.out_channels) for s in self.scales)
        return self.exchange_op != "none"


def shift_channels(ratio: float, channels: int) -> int:
    """Donated channel count: round(ratio * C) with half-up rounding, clamped."""
    s = int(np.floor(ratio * channels + 0.5))
    return min(max(s, 0), channels)


@dataclass
class SsaParams:
    """Learnable state for one layer: per-scale feature MLPs, per-scale
    exchange parameters, and one aggregation MLP."""

    f_mlps: list[T.MlpParams]
    exchange: list[object]  # per scale: MlpParams, AttnParams, or None
    aggregate: T.MlpParams

    def named(self, prefix: str) -> list[tuple[str, T.Tensor]]:
        out = []
        for s, mlp in enumerate(self.f_mlps):
            out.extend(_named_mlp(f"{prefix}.scale{s}.f", mlp))
        for s, ex in enumerate(self.exchange):
            if isinstance(ex, T.MlpParams):
                out.extend(_named_mlp(f"{prefix}.scale{s}.shift", ex))
            elif isinstance(ex, AttnParams):
                out.extend(ex.named(f"{prefix}.scale{s}.attn"))
        out.extend(_named_mlp(f"{prefix}.aggregate", self.aggregate))
        return out

    def tensors(self) -> list[T.Tensor]:
        return [t for _, t in self.named("ssa")]


@dataclass
class AttnParams:
    """Single-pair attention: query/key/value linear maps of width C."""

    q: T.LinearParams
    k: T.LinearParams
    v: T.LinearParams

    def named(self, prefix: str) -> list[tuple[str, T.Tensor]]:
        out = []
        for tag, lin in (("q", self.q), ("k", self.k), ("v", self.v)):
            out.append((f"{prefix}.{tag}.weight", lin.weight))
            out.append((f"{prefix}.{tag}.bias", lin.bias))
        return out


def _named_mlp(prefix: str, mlp: T.MlpParams) -> list[tuple[str, T.Tensor]]:
    out = []
    for i, layer in enumerate(mlp.layers):
        out.append((f"{prefix}.{i}.weight", layer.weight))
        out.append((f"{prefix}.{i}.bias", layer.bias))
    return out


def init_ssa_params(config: SsaConfig, in_channels: int, rng: np.random.Generator) -> SsaParams:
    f_mlps = []
    exchange: list[object] = []
    for scale in config.scales:
        widths = [in_channels + 3, *scale.mlp]
        f_mlps.append(T.init_mlp(widths, rng, final_relu=True))
        c = scale.out_channels
        if config.exchange_op in ("cs", "avg"):
            exchange.append(T.init_mlp([c, c, c], rng, final_relu=False))
        elif config.exchange_op == "concat":
            exchange.append(T.init_mlp([2 * c, c, c], rng, final_relu=False))
        elif config.exchange_op == "attn":
            exchange.append(
                AttnParams(
                    q=T.init_linear(c, c, rng),
                    k=T.init_linear(c, c, rng),
                    v=T.init_linear(c, c, rng),
                )
            )
        else:
            exchange.append(None)
    concat_width = sum(s.out_channels for s in config.scales)
    aggregate = T.init_mlp([concat_width, *config.resolved().aggregation], rng, final_relu=True)
    return SsaParams(f_mlps=f_mlps, exchange=exchange, aggregate=aggregate)


@dataclass
class ClusterFeatures:
    """Output of one layer: cluster positions and the aggregated feature
    matrix that feeds the next stage."""

    positions: np.ndarray  # Mx3
    aggregated: T.Tensor  # MxC_a


@dataclass
class SsaDecisions:
    """Frozen stochastic choices of one forward pass, for exact replay."""

    cluster_indices: np.ndarray
    tables: list[G.NeighborTable]
    pairing: np.ndarray  # M int64 partner index per cluster; pairing[i] == i means isolated

    def reads(self, rows: int, config: SsaConfig) -> np.ndarray:
        """rows x M bool: which of the layer's `rows` input rows each
        cluster's output reads under these decisions. A cluster reads every
        valid table slot at each scale and its own center, which `rel`
        subtracts; when `config.reads_partner` it also reads the partner's
        row, and so whatever the partner reads."""
        m = self.cluster_indices.shape[0]
        touched = np.zeros((rows, m), dtype=bool)
        touched[self.cluster_indices, np.arange(m)] = True
        for table in self.tables:
            cluster, slot = np.nonzero(table.valid)
            touched[table.indices[cluster, slot], cluster] = True
        if config.reads_partner:
            touched |= touched[:, self.pairing]
        return touched


def set_feature_abstraction(
    features: T.Tensor, rel: T.Tensor, table: G.NeighborTable, f_mlp: T.MlpParams
) -> T.Tensor:
    """The one grouping body: pool each group of `table` into one row.

    Slot j's MLP input is [x_j, rel_j], `rel` being the (M*K)x3 offsets of
    the slots from their group centers in slot order: a constant at a
    backbone scale, a graph node at the vote candidates. A masked max over
    the K slots reduces each group, so padded slots never contribute.
    """
    neighbor_feats = T.gather_rows(features, table.indices)  # the stored array keys its scatter plan
    per_slot = T.mlp_forward(T.concat_cols([neighbor_feats, rel]), f_mlp)
    return T.reduce_max(per_slot, table.indices.shape[1], table.valid)


def cross_cluster_shift(
    x: T.Tensor, pairing: np.ndarray, s: int, mlp2: T.MlpParams
) -> T.Tensor:
    """Splice s partner channels into each row, mix, residual-average, ReLU.

    Row i becomes relu(avg2(mlp2([x[f(i)][:s], x[i][s:]]), x[i])); the
    partner's remaining channels are never read.
    """
    m, c = x.shape
    if not 0 <= s <= c:
        raise ValueError(f"shift channel count {s} outside [0, {c}]")
    if pairing.shape[0] != m:
        raise ValueError("pairing length must match row count")
    donated = T.gather_rows(T.slice_cols(x, 0, s), pairing)
    kept = T.slice_cols(x, s, c)
    spliced = T.concat_cols([donated, kept])
    mixed = T.mlp_forward(spliced, mlp2)
    return T.relu(T.avg2(mixed, x))


def exchange_variant(
    x: T.Tensor, pairing: np.ndarray, variant: str, params, s: int
) -> T.Tensor:
    """Apply one of the exchange operations from the ablation grid."""
    if variant == "none":
        return x
    if variant == "cs":
        return cross_cluster_shift(x, pairing, s, params)
    foreign = T.gather_rows(x, pairing)
    if variant == "concat":
        mixed = T.mlp_forward(T.concat_cols([foreign, x]), params)
        return T.relu(T.avg2(mixed, x))
    if variant == "avg":
        mixed = T.mlp_forward(T.avg2(foreign, x), params)
        return T.relu(T.avg2(mixed, x))
    if variant == "attn":
        c = x.shape[1]
        q = T.linear(x, params.q)
        k_f = T.linear(foreign, params.k)
        v_self = T.linear(x, params.v)
        v_foreign = T.linear(foreign, params.v)
        logits = T.scale(T.row_sum(T.mul(q, k_f)), 1.0 / np.sqrt(c))
        alpha = T.sigmoid(logits)
        ones = T.Tensor(np.ones((x.shape[0], 1)))
        blend = T.add(
            T.scale_rows(v_foreign, alpha),
            T.scale_rows(v_self, T.sub(ones, alpha)),
        )
        return T.relu(T.avg2(blend, x))
    raise ValueError(f"unknown exchange variant {variant!r}")


def selection_variant(
    clusters: G.PointCloud,
    strategy: str,
    r_prime: float,
    k: int,
    seed: int,
    features: np.ndarray | None = None,
    valid_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Each cluster's exchange partner index (M int64) by one of the
    ablation strategies; a cluster with no other candidate pairs with
    itself.

    Every strategy keys the same table, up to k - 1 candidates sampled
    within r_prime of each cluster, and `geometry.pairing_from_table` takes
    the largest key: farthest and nearest key on plus and minus squared
    distance; feats_scale on the candidate's channel-mean feature value;
    points_num on how many valid neighbors the candidate's own grouping
    found. Ties break to the smallest candidate index.
    """
    if strategy not in SELECTION_STRATEGIES:
        raise ValueError(f"unknown selection strategy {strategy!r}")
    if strategy == "feats_scale" and features is None:
        raise ValueError("feats_scale selection needs cluster features")
    if strategy == "points_num" and valid_counts is None:
        raise ValueError("points_num selection needs per-cluster valid neighbor counts")
    table = G.ball_query(clusters, clusters.positions, r_prime, k, seed, self_indices=np.arange(clusters.n))
    positions, cand = clusters.positions, table.indices[:, 1:]
    if strategy in ("farthest", "nearest"):
        key = ((positions[cand] - positions[table.indices[:, 0]][:, None, :]) ** 2).sum(axis=2)
        key = -key if strategy == "nearest" else key
    elif strategy == "feats_scale":
        key = np.asarray(features, dtype=np.float64).mean(axis=1)[cand]
    else:
        key = np.asarray(valid_counts, dtype=np.float64)[cand]
    return G.pairing_from_table(table, key)


def aggregate_scales(per_scale: list[T.Tensor], a_mlp: T.MlpParams) -> T.Tensor:
    """Concatenate scale outputs in order and fuse them with the aggregation MLP."""
    return T.mlp_forward(T.concat_cols(per_scale), a_mlp)


def ssa_forward(
    positions: np.ndarray,
    features: T.Tensor,
    m_out: int,
    config: SsaConfig,
    params: SsaParams,
    seed: int,
    frozen: SsaDecisions | None = None,
) -> tuple[ClusterFeatures, SsaDecisions]:
    """One full layer pass: sample, abstract per scale, pair, exchange, aggregate.

    This is the only place a layer's sampling decisions are made. With
    `frozen` the pass replays recorded decisions (cluster indices,
    neighbor tables, pairing) on possibly perturbed inputs; otherwise it
    draws fresh seeded ones, every scale's table from the scan dfps takes
    at the largest radius, and returns them for later replay.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if frozen is None:
        cloud = G.PointCloud(positions=positions)
        radius = max(scale.radius for scale in config.scales)
        cluster_indices, scan = G.dfps(cloud, m_out, seed=G.derive_seed(seed, 0), radius=radius)
        centers = positions[cluster_indices]
        tables = [
            G.ball_query(
                cloud, centers, scale.radius, scale.k, seed=G.derive_seed(seed, 1, si),
                self_indices=cluster_indices, scan=scan,
            )
            for si, scale in enumerate(config.scales)
        ]
    else:
        cluster_indices, tables = frozen.cluster_indices, frozen.tables
        centers = positions[cluster_indices]

    per_scale = [
        set_feature_abstraction(features, T.Tensor((positions[t.indices] - centers[:, None]).reshape(-1, 3)), t, mlp)
        for t, mlp in zip(tables, params.f_mlps)
    ]

    clusters = G.PointCloud(positions=centers)
    if frozen is not None:
        pairing = frozen.pairing
    else:
        resolved = config.resolved()
        pairing = selection_variant(
            clusters,
            config.selection,
            r_prime=resolved.r_prime,
            k=resolved.candidate_k,
            seed=G.derive_seed(seed, 2),
            features=per_scale[0].values,
            valid_counts=tables[0].valid_counts(),
        )

    exchanged = []
    for si, scale in enumerate(config.scales):
        s = shift_channels(config.shift_ratio, scale.out_channels)
        exchanged.append(
            exchange_variant(per_scale[si], pairing, config.exchange_op, params.exchange[si], s)
        )

    aggregated = aggregate_scales(exchanged, params.aggregate)
    out = ClusterFeatures(positions=clusters.positions, aggregated=aggregated)
    decisions = SsaDecisions(cluster_indices=cluster_indices, tables=tables, pairing=pairing)
    return out, decisions
