"""Deterministic spatial kernels for point clouds.

Distances are compared in squared form throughout; square roots only
appear in reported radii. Every stochastic choice is driven by an
explicit integer seed, and ties always break toward the smallest index,
so results are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The radius scan handles centers in blocks of about this many
# center-point pairs, so each float64 temporary stays near 256 KB and
# in cache (measured fastest at 512 centers on 2048 points).
_SCAN_PAIRS = 1 << 15


@dataclass
class PointCloud:
    """N positions (meters) with an NxC feature matrix (C may be 0)."""

    positions: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be Nx3, got {self.positions.shape}")
        n = self.positions.shape[0]
        if n < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.isfinite(self.positions).all():
            raise ValueError("non-finite positions")
        if self.features is None:
            self.features = np.zeros((n, 0), dtype=np.float64)
        else:
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.ndim != 2 or self.features.shape[0] != n:
                raise ValueError(
                    f"features must have {n} rows, got shape {self.features.shape}"
                )
            if not np.isfinite(self.features).all():
                raise ValueError("non-finite features")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def channels(self) -> int:
        return self.features.shape[1]


@dataclass
class NeighborTable:
    """Fixed-K neighbor indices per center with a validity mask.

    Slot 0 is always the center's own anchor point. Rows with fewer than
    K in-radius points are padded by duplicating slot 0 with valid
    False.
    """

    indices: np.ndarray  # MxK int64
    valid: np.ndarray  # MxK bool

    def valid_counts(self) -> np.ndarray:
        return self.valid.sum(axis=1)


@dataclass
class RadiusScan:
    """The (center, point) pairs of one radius scan as ascending keys
    `center * points + point`, so each center's points are ascending,
    with their squared distances."""

    keys: np.ndarray  # H int64
    d2: np.ndarray  # H float64
    centers: int  # M, the number of centers scanned
    points: int  # N, the size of the scanned cloud
    radius: float

    @property
    def row(self) -> np.ndarray:
        return self.keys // self.points

    @property
    def point(self) -> np.ndarray:
        return self.keys % self.points


def pairwise_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between two position sets, MxN."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("non-finite positions")
    diff = a[:, None, :] - b[None, :, :]
    return (diff * diff).sum(axis=2)


def derive_seed(seed: int, *salts: int) -> int:
    """A child seed that is a pure function of (seed, salts)."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *[int(s) for s in salts]])
    return int(ss.generate_state(1)[0])


def _sq_dist(cols: np.ndarray, center, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Squared distances, into `out`, from `center` (three scalars, or three
    columns for a block of centers) to the points in the x/y/z rows of
    `cols`; (dx*dx + dy*dy) + dz*dz gives the bits of ((p - c) ** 2).sum(axis=1)."""
    np.subtract(cols[0], center[0], out=out)
    out *= out
    for axis in (1, 2):
        np.subtract(cols[axis], center[axis], out=tmp)
        tmp *= tmp
        out += tmp
    return out


def _keep_hits(d2: np.ndarray, lo: int, r2: float, keys: list, dists: list) -> None:
    """Append the in-radius keys and distances of distance rows lo, lo + 1, ..."""
    flat = d2.reshape(-1)
    inside = np.flatnonzero(flat <= r2)
    keys.append(lo * d2.shape[1] + inside)
    dists.append(flat[inside])


def dfps(cloud: PointCloud, m: int, seed: int, radius: float | None = None):
    """Distance-based farthest point sampling.

    The first index is a seeded uniform draw; each following index
    maximizes the minimum squared distance to everything already
    selected, ties broken by smallest index. Duplicated positions are
    selected at most as often as they occur, never re-selected.

    With a `radius` it returns `(selected, scan)`: the radius_scan of the
    picks at that radius, kept from the distance rows the sampling computes.
    """
    n = cloud.n
    if m == 0:
        raise ValueError("empty request")
    if m > n:
        raise ValueError("insufficient points")
    if radius is not None and radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    selected = np.empty(m, dtype=np.int64)
    selected[0] = first
    cols = np.ascontiguousarray(cloud.positions.T)
    centers = cloud.positions.tolist()
    # distance rows go to a block buffer whose in-radius hits are kept per block
    step = 1 if radius is None else max(1, _SCAN_PAIRS // n)
    rows, tmp = np.empty((min(step, m), n)), np.empty(n)
    keys, dists = [], []
    min_d2 = _sq_dist(cols, centers[first], np.empty(n), tmp)
    rows[0] = min_d2
    min_d2[first] = -1.0  # mark selected so it can never win again
    for t in range(1, m):
        if radius is not None and t % step == 0:
            _keep_hits(rows, t - step, radius * radius, keys, dists)
        nxt = int(min_d2.argmax())
        selected[t] = nxt
        np.minimum(min_d2, _sq_dist(cols, centers[nxt], rows[t % step], tmp), out=min_d2)
        min_d2[nxt] = -1.0
    if radius is None:
        return selected
    _keep_hits(rows[: (m - 1) % step + 1], (m - 1) // step * step, radius * radius, keys, dists)
    return selected, RadiusScan(np.concatenate(keys), np.concatenate(dists), m, n, float(radius))


def radius_scan(cloud: PointCloud, centers: np.ndarray, radius: float) -> RadiusScan:
    """Exact inclusive in-radius search by one blocked scan over all points."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(centers).all():
        raise ValueError("non-finite positions")
    cols = np.ascontiguousarray(cloud.positions.T)
    m, n = centers.shape[0], cloud.n
    step = max(1, _SCAN_PAIRS // n)
    out, tmp = np.empty((min(step, m), n)), np.empty((min(step, m), n))
    keys, dists = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for lo in range(0, m, step):
        block = centers[lo : lo + step]
        d2 = _sq_dist(cols, block.T[:, :, None], out[: len(block)], tmp[: len(block)])
        _keep_hits(d2, lo, radius * radius, keys, dists)
    return RadiusScan(np.concatenate(keys), np.concatenate(dists), m, n, float(radius))


def _floyd_subsets(counts: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform `size`-subset of range(count) per row (every count above
    `size`) by Floyd's algorithm, run on all rows at once from one array
    draw. Step t draws from [0, j], j = count - size + t, and the row
    keeps the draw, or j if it already holds the draw."""
    bound = counts[:, None] - size + np.arange(size)
    draws = rng.integers(0, bound + 1)
    picked = np.empty_like(draws)
    for t in range(size):
        held = (picked[:, :t] == draws[:, t, None]).any(axis=1)
        picked[:, t] = np.where(held, bound[:, t], draws[:, t])
    return picked


def ball_query(
    cloud: PointCloud,
    centers: np.ndarray,
    radius: float,
    k: int,
    seed: int,
    self_indices: np.ndarray | None = None,
    scan: RadiusScan | None = None,
) -> NeighborTable:
    """Radius-bounded neighbor sampling with a fixed budget of K slots.

    Slot 0 always holds the anchor point. When `self_indices` is None
    each center must coincide exactly with a cloud point, which becomes
    the anchor; otherwise the given indices are used (the anchor is then
    exempt from the radius bound, which supports querying around shifted
    candidate positions). The remaining slots are a seeded uniform
    sample without replacement of the other in-radius points; short rows
    are padded by duplicating slot 0 with valid False. Only rows with
    more than K-1 other points sample, all of them from one seeded
    array draw (`_floyd_subsets`).

    `scan`, a scan of the same cloud and centers (by radius_scan, or by
    dfps for its picks) at a radius at least this one, replaces this
    call's own scan; its hits within this radius are exactly the ones a
    scan at this radius finds.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    m, n = np.asarray(centers).reshape(-1, 3).shape[0], cloud.n
    if scan is None:
        scan = radius_scan(cloud, centers, radius)
    elif scan.centers != m or scan.points != n or scan.radius < radius:
        raise ValueError("scan must cover these centers in this cloud at a radius of at least this one")
    keys = scan.keys
    if scan.radius > radius:
        keys = keys[scan.d2 <= radius * radius]
    base = np.arange(m) * n
    if self_indices is None:
        # each center's anchor is its first point at exactly zero distance
        zero = np.append(scan.keys[scan.d2 == 0.0], m * n)
        anchors = zero[np.searchsorted(zero, base)] - base
        missing = np.flatnonzero(anchors >= n)
        if missing.size:
            raise ValueError(f"center {missing[0]} does not coincide with any cloud point")
    else:
        anchors = np.asarray(self_indices, dtype=np.int64).reshape(-1)
        if anchors.shape[0] != m:
            raise ValueError("self_indices length must match center count")
        if anchors.size and (anchors.min() < 0 or anchors.max() >= n):
            raise ValueError("self index out of range")

    # row i's hits are keys[starts[i]:starts[i + 1]]; the anchor's own hit,
    # when in radius, is keys[own[i]], and ranks at or past it skip it
    starts = np.searchsorted(keys, np.append(base, m * n))
    own = np.searchsorted(keys, base + anchors)
    found = own < starts[1:]
    found[found] = keys[own[found]] == (base + anchors)[found]
    counts = np.diff(starts) - found

    def others(rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        at = starts[rows] + ranks
        return keys[at + (found[rows] & (at >= own[rows]))] - base[rows]

    indices = np.repeat(anchors[:, None], k, axis=1)
    valid = np.zeros((m, k), dtype=bool)
    valid[:, 0] = True
    full = counts > k - 1
    short = np.flatnonzero(~full)
    rows = np.repeat(short, counts[short])
    ranks = np.arange(rows.size) - np.repeat(np.cumsum(counts[short]) - counts[short], counts[short])
    indices[rows, ranks + 1] = others(rows, ranks)
    valid[rows, ranks + 1] = True
    rows = np.flatnonzero(full)
    if rows.size:
        picked = _floyd_subsets(counts[rows], k - 1, np.random.default_rng(seed))
        indices[rows, 1:] = others(rows[:, None], picked)
        valid[rows] = True
    return NeighborTable(indices=indices, valid=valid)


def pairing_from_table(table: NeighborTable, key: np.ndarray) -> np.ndarray:
    """Each row's partner index (M int64): its valid candidate in slots 1..K-1
    with the largest key (M×(K-1), one per slot), the smallest index on ties,
    or its anchor when the row has no valid candidate."""
    anchor, cand = table.indices[:, 0], table.indices[:, 1:]
    usable = table.valid[:, 1:]
    none = np.iinfo(np.int64).max
    key = np.where(usable, key, -np.inf)
    best = key.max(axis=1, keepdims=True, initial=-np.inf)
    winner = np.where(usable & (key == best), cand, none).min(axis=1, initial=none)
    return np.where(usable.any(axis=1), winner, anchor)
