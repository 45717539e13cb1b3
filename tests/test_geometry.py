import numpy as np
import pytest

from shiftssd import geometry as G


def random_cloud(rng, n, channels=0, extent=10.0):
    pos = rng.uniform(-extent, extent, size=(n, 3))
    feats = rng.normal(size=(n, channels)) if channels else None
    return G.PointCloud(positions=pos, features=feats)


class TestPairwiseSqDist:
    def test_zero_to_self(self):
        out = G.pairwise_sq_dist([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(out, [[0.0]])

    def test_3_4_5_triangle(self):
        out = G.pairwise_sq_dist([[0.0, 0.0, 0.0]], [[3.0, 4.0, 0.0]])
        np.testing.assert_array_equal(out, [[25.0]])

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 3))
        b = rng.normal(size=(8, 3))
        out = G.pairwise_sq_dist(a, b)
        naive = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                d = a[i] - b[j]
                naive[i, j] = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        np.testing.assert_array_equal(out, naive)

    def test_symmetric_on_same_set(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3))
        out = G.pairwise_sq_dist(a, a)
        np.testing.assert_array_equal(out, out.T)


class TestDfps:
    def test_m_equals_n_is_permutation(self):
        cloud = random_cloud(np.random.default_rng(2), 20)
        sel = G.dfps(cloud, 20, seed=7)
        assert sorted(sel.tolist()) == list(range(20))

    def test_collinear_extremes(self):
        pos = np.array([[float(i), 0.0, 0.0] for i in range(11)])
        cloud = G.PointCloud(positions=pos)
        # find a seed whose first uniform draw lands on x=0
        seed = next(s for s in range(1000) if np.random.default_rng(s).integers(11) == 0)
        sel = G.dfps(cloud, 2, seed=seed)
        assert sel.tolist() == [0, 10]

    def test_greedy_max_min_property(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 64)
        sel = G.dfps(cloud, 16, seed=11)
        pos = cloud.positions
        for t in range(1, 16):
            chosen = sel[:t]
            remaining = np.setdiff1d(np.arange(64), chosen)
            min_d2 = G.pairwise_sq_dist(pos[remaining], pos[chosen]).min(axis=1)
            # exhaustive per-step check: the picked point attains the max
            best = min_d2.max()
            picked = min_d2[remaining == sel[t]][0]
            assert picked == best
            # tie-break: smallest index among maximizers
            assert sel[t] == remaining[min_d2 == best].min()

    def test_errors(self):
        cloud = random_cloud(np.random.default_rng(4), 5)
        with pytest.raises(ValueError, match="insufficient points"):
            G.dfps(cloud, 6, seed=0)
        with pytest.raises(ValueError, match="empty request"):
            G.dfps(cloud, 0, seed=0)

    def test_deterministic(self):
        cloud = random_cloud(np.random.default_rng(5), 30)
        a = G.dfps(cloud, 10, seed=42)
        b = G.dfps(cloud, 10, seed=42)
        np.testing.assert_array_equal(a, b)


class TestBallQuery:
    def test_isolated_center(self):
        pos = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        cloud = G.PointCloud(positions=pos)
        table = G.ball_query(cloud, pos[:1], radius=1.0, k=4, seed=0)
        np.testing.assert_array_equal(table.indices[0], [0, 0, 0, 0])
        np.testing.assert_array_equal(table.valid[0], [True, False, False, False])

    def test_self_always_slot_zero(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 40, extent=2.0)
        table = G.ball_query(cloud, cloud.positions, radius=1.5, k=8, seed=1)
        np.testing.assert_array_equal(table.indices[:, 0], np.arange(40))
        assert table.valid[:, 0].all()

    def test_k_at_least_count_equals_naive_scan(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 30, extent=2.0)
        radius = 1.8
        table = G.ball_query(cloud, cloud.positions, radius=radius, k=30, seed=2)
        d2 = G.pairwise_sq_dist(cloud.positions, cloud.positions)
        for i in range(30):
            expected = set(np.flatnonzero(d2[i] <= radius * radius).tolist())
            got = set(table.indices[i][table.valid[i]].tolist())
            assert got == expected

    def test_valid_entries_within_radius_on_random_clouds(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(2, 40))
            cloud = random_cloud(rng, n, extent=3.0)
            radius = float(rng.uniform(0.5, 4.0))
            k = int(rng.integers(1, 10))
            table = G.ball_query(cloud, cloud.positions, radius=radius, k=k, seed=trial)
            d2 = G.pairwise_sq_dist(cloud.positions, cloud.positions)
            for i in range(n):
                row = table.indices[i][table.valid[i]]
                assert (d2[i, row] <= radius * radius).all()
                assert table.valid[i].sum() >= 1

    def test_sampling_without_replacement(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, 50, extent=1.0)
        table = G.ball_query(cloud, cloud.positions, radius=5.0, k=10, seed=3)
        for i in range(50):
            row = table.indices[i][table.valid[i]]
            assert len(set(row.tolist())) == row.size

    def test_non_positive_radius(self):
        cloud = random_cloud(np.random.default_rng(10), 5)
        with pytest.raises(ValueError, match="radius"):
            G.ball_query(cloud, cloud.positions, radius=0.0, k=4, seed=0)

    def test_center_off_cloud_needs_explicit_anchor(self):
        cloud = G.PointCloud(positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="center 1 does not coincide"):
            G.ball_query(cloud, [[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]], radius=2.0, k=2, seed=0)

    def test_explicit_anchor_outside_radius(self):
        # anchors support centers that are not cloud points
        pos = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        cloud = G.PointCloud(positions=pos)
        centers = np.array([[5.0, 0.0, 0.0]])
        table = G.ball_query(cloud, centers, radius=1.0, k=2, seed=0, self_indices=[1])
        assert table.indices[0, 0] == 1
        assert table.valid[0, 0]
        assert table.valid[0].sum() == 1


def scan_rows(cloud, centers, radius):
    """The radius scan's hits as one ascending index array per center."""
    scan = G.radius_scan(cloud, centers, radius)
    return [scan.point[scan.row == i] for i in range(len(centers))]


def naive_rows(cloud, centers, radius):
    return [
        np.flatnonzero(((cloud.positions - c) ** 2).sum(axis=1) <= radius * radius)
        for c in np.asarray(centers, dtype=np.float64)
    ]


class TestRadiusScan:
    def test_single_point(self):
        # the radius is inclusive: a center exactly 1.0 away still finds it
        cloud = G.PointCloud(positions=[[0.25, 0.5, 0.5]])
        got = scan_rows(cloud, [[0.25, 0.5, 0.5], [0.25, 0.5, 1.5], [0.25, 0.5, 1.51]], 1.0)
        assert [r.tolist() for r in got] == [[0], [0], []]

    def test_radius_covering_cloud_returns_every_point(self):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, 60)
        for row in scan_rows(cloud, cloud.positions[:5], 100.0):
            np.testing.assert_array_equal(row, np.arange(60))

    @pytest.mark.parametrize("radius", [0.8, 3.0])
    def test_equals_naive(self, radius):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 80, extent=5.0)
        centers = cloud.positions[:20]
        for got, expected in zip(scan_rows(cloud, centers, radius), naive_rows(cloud, centers, radius)):
            np.testing.assert_array_equal(got, expected)

    def test_hundred_random_cases_equal(self):
        rng = np.random.default_rng(14)
        for trial in range(100):
            n = int(rng.integers(1, 70))
            cloud = random_cloud(rng, n, extent=4.0)
            radius = float(rng.uniform(0.3, 5.0))
            centers = rng.uniform(-4, 4, size=(int(rng.integers(1, 5)), 3))
            for got, expected in zip(scan_rows(cloud, centers, radius), naive_rows(cloud, centers, radius)):
                np.testing.assert_array_equal(got, expected)

    def test_large_cloud_equals_naive(self):
        # several blocks of centers, on a cloud the size of a default scene
        rng = np.random.default_rng(16)
        cloud = random_cloud(rng, 2048, extent=8.0)
        centers = np.concatenate([cloud.positions[:40], rng.uniform(-8, 8, size=(8, 3))])
        assert len(centers) * cloud.n > G._SCAN_PAIRS
        for radius in (1.0, 4.0):
            for got, expected in zip(scan_rows(cloud, centers, radius), naive_rows(cloud, centers, radius)):
                np.testing.assert_array_equal(got, expected)


def dfps_scan_cases():
    rng = np.random.default_rng(23)
    spread = rng.uniform(-8, 8, size=(2048, 3))
    yield "blocks_with_a_partial_last", spread, 37, 2.0  # 16 rows per block at 2048 points
    yield "one_center", spread, 1, 2.0
    yield "every_point", spread[:300], 300, 4.0
    repeated = np.round(rng.uniform(-2, 2, size=(400, 3)))  # 125 lattice sites, each repeated
    yield "duplicated_points", repeated, 180, 1.0
    yield "radius_catching_no_other_point", spread, 100, 1e-6


class TestDfpsScan:
    @pytest.mark.parametrize("case", list(dfps_scan_cases()), ids=lambda case: case[0])
    def test_equals_radius_scan(self, case):
        name, positions, m, radius = case
        cloud = G.PointCloud(positions=positions)
        selected, scan = G.dfps(cloud, m, seed=5, radius=radius)
        np.testing.assert_array_equal(selected, G.dfps(cloud, m, seed=5))
        expected = G.radius_scan(cloud, positions[selected], radius)
        assert scan.keys.tobytes() == expected.keys.tobytes()
        assert scan.d2.tobytes() == expected.d2.tobytes()
        assert (scan.centers, scan.points, scan.radius) == (m, cloud.n, radius)
        if name == "radius_catching_no_other_point":
            np.testing.assert_array_equal(scan.point, selected)

    def test_rejects_non_positive_radius(self):
        cloud = G.PointCloud(positions=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="radius"):
            G.dfps(cloud, 2, seed=0, radius=0.0)


class TestDeterminism:
    def test_ball_query_same_seed(self):
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, 25, extent=1.0)
        a = G.ball_query(cloud, cloud.positions, radius=2.0, k=5, seed=9)
        b = G.ball_query(cloud, cloud.positions, radius=2.0, k=5, seed=9)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_derive_seed_stable(self):
        assert G.derive_seed(123, 4, 5) == G.derive_seed(123, 4, 5)
        assert G.derive_seed(123, 4, 5) != G.derive_seed(123, 4, 6)

    def test_cloud_invariants(self):
        with pytest.raises(ValueError, match="at least one point"):
            G.PointCloud(positions=np.zeros((0, 3)))
        with pytest.raises(ValueError, match="rows"):
            G.PointCloud(positions=np.zeros((2, 3)), features=np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# oracles: per-row references the array code must match exactly; the ball
# query reference resolves the same seeded draw row by row


def reference_ball_query(cloud, centers, radius, k, seed, self_indices=None):
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    m = centers.shape[0]
    d2 = [((cloud.positions - center) ** 2).sum(axis=1) for center in centers]
    if self_indices is None:
        anchors = np.array([np.flatnonzero(row == 0.0)[0] for row in d2], dtype=np.int64)
    else:
        anchors = np.asarray(self_indices, dtype=np.int64)
    others = []
    for i in range(m):
        in_radius = np.flatnonzero(d2[i] <= radius * radius)
        others.append(in_radius[in_radius != anchors[i]])
    # the one draw: row f of the over-full rows, step t, uniform in [0, j]
    # with j = count - (k - 1) + t
    full = [i for i in range(m) if others[i].size > k - 1]
    counts = np.array([others[i].size for i in full], dtype=np.int64)
    draws = np.random.default_rng(seed).integers(0, counts[:, None] - (k - 1) + np.arange(k - 1) + 1)
    for f, i in enumerate(full):
        picks = []
        for t in range(k - 1):
            j = int(counts[f]) - (k - 1) + t
            v = int(draws[f, t])
            picks.append(j if v in picks else v)
        others[i] = others[i][picks]
    indices = np.empty((m, k), dtype=np.int64)
    valid = np.zeros((m, k), dtype=bool)
    for i in range(m):
        row = np.concatenate(([anchors[i]], others[i]))
        indices[i] = anchors[i]
        indices[i, : row.size] = row
        valid[i, : row.size] = True
    return indices, valid


def reference_pairing(positions, table, mode, scores=None):
    out = np.empty(table.indices.shape[0], dtype=np.int64)
    for i in range(out.size):
        cand = table.indices[i][table.valid[i]][1:]
        if cand.size == 0:
            out[i] = table.indices[i, 0]
            continue
        if mode == "score":
            key = scores[cand]
        else:
            key = ((positions[cand] - positions[table.indices[i, 0]]) ** 2).sum(axis=1)
            if mode == "nearest":
                key = -key
        out[i] = cand[key == key.max()].min()
    return out


def per_hit_ball_query(cloud, radius, k, seed, self_indices, scan):
    """The per-hit ball query: each step is a pass over every (row, point) hit of `scan`."""
    m = scan.centers
    row, point = scan.row, scan.point
    if scan.radius > radius:
        inside = scan.d2 <= radius * radius
        row, point = row[inside], point[inside]
    if self_indices is None:
        zero = np.flatnonzero(scan.d2 == 0.0)
        anchors = scan.point[zero[np.searchsorted(scan.row[zero], np.arange(m))]]
    else:
        anchors = np.asarray(self_indices, dtype=np.int64)
    others = point != anchors[row]
    point, row = point[others], row[others]
    starts = np.searchsorted(row, np.arange(m + 1))
    indices = np.repeat(anchors[:, None], k, axis=1)
    valid = np.zeros((m, k), dtype=bool)
    valid[:, 0] = True
    counts = np.diff(starts)
    full = counts > k - 1
    short = ~full[row]
    slot = np.arange(row.size) - starts[row] + 1
    indices[row[short], slot[short]] = point[short]
    valid[row[short], slot[short]] = True
    rows = np.flatnonzero(full)
    if rows.size:
        picked = G._floyd_subsets(counts[rows], k - 1, np.random.default_rng(seed))
        indices[rows, 1:] = point[starts[rows, None] + picked]
        valid[rows] = True
    return indices, valid


def oracle_cases(rng, sizes):
    """Clouds on a half-meter lattice, so distances tie, points repeat and
    some lie exactly on the radius; centers sit on cloud points or, for
    explicit anchors, are jittered off them."""
    for n in sizes:
        pos = np.round(rng.uniform(-4.0, 4.0, size=(n, 3)) * 2.0) / 2.0
        cloud = G.PointCloud(positions=pos)
        sel = rng.choice(n, size=int(rng.integers(1, min(n, 300) + 1)))
        radius = float(rng.choice([0.5, 1.0, 1.5, 2.5, 4.0]))
        k = int(rng.integers(1, 24))
        seed = int(rng.integers(1 << 31))
        yield cloud, pos[sel], None, radius, k, seed
        jitter = rng.normal(scale=0.3, size=(sel.size, 3))
        yield cloud, pos[sel] + jitter, sel, radius, k, seed


class TestOracles:
    SIZES = [*range(2, 65, 3), 1100, 1500, 2048]

    def test_ball_query_matches_reference(self):
        rng = np.random.default_rng(17)
        over_full = 0
        for cloud, centers, anchors, radius, k, seed in oracle_cases(rng, self.SIZES):
            table = G.ball_query(cloud, centers, radius=radius, k=k, seed=seed, self_indices=anchors)
            indices, valid = reference_ball_query(cloud, centers, radius, k, seed, anchors)
            np.testing.assert_array_equal(table.indices, indices)
            np.testing.assert_array_equal(table.valid, valid)
            over_full += int(valid.all(axis=1).sum())
        assert over_full > 0  # the seeded subsampling ran

    def test_subsets_uniform_without_repeats(self):
        # one row with 6 candidates and k - 1 = 3 slots, over 2000 seeds:
        # each of the C(6, 3) = 20 subsets is expected 100 times
        pos = np.array([[0.0, 0.0, 0.0]] + [[0.1 * (p + 1), 0.0, 0.0] for p in range(6)])
        cloud = G.PointCloud(positions=pos)
        counts = {}
        for seed in range(2000):
            row = G.ball_query(cloud, pos[:1], radius=1.0, k=4, seed=seed).indices[0, 1:]
            assert len(set(row.tolist())) == 3 and 0 not in row
            key = tuple(sorted(row.tolist()))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 20
        chi2 = sum((c - 100) ** 2 / 100 for c in counts.values())
        assert chi2 < 43.82  # the 0.999 quantile of chi-square with 19 degrees of freedom

    def test_shared_scan_equals_standalone_queries(self):
        # lattice clouds put points exactly on both radii, so the inclusive
        # boundary of the filtered scan is exercised at each
        rng = np.random.default_rng(20)
        on_radius = {0: 0, 1: 0}
        for cloud, centers, anchors, radius, k, seed in oracle_cases(rng, self.SIZES):
            radii = (radius, float(rng.choice([0.5, 1.0, 1.5, 2.5, 4.0])))
            scan = G.radius_scan(cloud, centers, max(radii))
            for si, r in enumerate(radii):
                shared = G.ball_query(cloud, centers, r, k, seed, self_indices=anchors, scan=scan)
                alone = G.ball_query(cloud, centers, r, k, seed, self_indices=anchors)
                np.testing.assert_array_equal(shared.indices, alone.indices)
                np.testing.assert_array_equal(shared.valid, alone.valid)
                on_radius[si] += int((scan.d2 == r * r).sum())
        assert min(on_radius.values()) > 0

    def test_ball_query_matches_per_hit_oracle(self):
        # scans at the query radius and at twice it, coincident and explicit
        # anchors (some out of radius), on lattice clouds with repeated points
        rng = np.random.default_rng(21)
        for cloud, centers, anchors, radius, k, seed in oracle_cases(rng, self.SIZES):
            for scan_radius in (radius, 2.0 * radius):
                scan = G.radius_scan(cloud, centers, scan_radius)
                got = G.ball_query(cloud, centers, radius, k, seed, self_indices=anchors, scan=scan)
                indices, valid = per_hit_ball_query(cloud, radius, k, seed, anchors, scan)
                assert got.indices.tobytes() == indices.tobytes()
                assert got.valid.tobytes() == valid.tobytes()

    def test_scan_must_cover_the_query(self):
        cloud = G.PointCloud(positions=np.zeros((3, 3)))
        scan = G.radius_scan(cloud, cloud.positions, 1.0)
        with pytest.raises(ValueError, match="scan"):
            G.ball_query(cloud, cloud.positions, 2.0, 2, 0, scan=scan)
        with pytest.raises(ValueError, match="scan"):
            G.ball_query(cloud, cloud.positions[:2], 0.5, 2, 0, scan=scan)

    def test_scan_over_another_cloud_rejected(self):
        # keys encode the cloud size, so a scan of another cloud would give wrong rows
        cloud = G.PointCloud(positions=np.zeros((3, 3)))
        other = G.PointCloud(positions=np.zeros((4, 3)))
        scan = G.radius_scan(other, cloud.positions, 1.0)
        with pytest.raises(ValueError, match="scan must cover these centers in this cloud"):
            G.ball_query(cloud, cloud.positions, 1.0, 2, 0, scan=scan)

    def test_pairing_matches_reference_with_ties(self):
        rng = np.random.default_rng(18)
        ties = 0
        for cloud, centers, anchors, radius, k, seed in oracle_cases(rng, self.SIZES):
            table = G.ball_query(cloud, centers, radius=radius, k=k, seed=seed, self_indices=anchors)
            scores = rng.integers(0, 3, size=cloud.n).astype(np.float64)
            cand = table.indices[:, 1:]
            d2 = ((cloud.positions[cand] - cloud.positions[table.indices[:, :1]]) ** 2).sum(axis=2)
            for mode, key in (("farthest", d2), ("nearest", -d2), ("score", scores[cand])):
                got = G.pairing_from_table(table, key)
                expected = reference_pairing(cloud.positions, table, mode, scores=scores)
                np.testing.assert_array_equal(got, expected)
            usable = table.valid[:, 1:]
            key = np.where(usable, scores[table.indices[:, 1:]], -1.0)
            shared = (key == key.max(axis=1, keepdims=True, initial=-1.0)) & usable
            ties += int((shared.sum(axis=1) > 1).sum())
        assert ties > 0  # rows whose best score is held by several candidates

    def test_tie_goes_to_smallest_index_not_first_slot(self):
        table = G.NeighborTable(indices=np.array([[0, 3, 2]]), valid=np.ones((1, 3), dtype=bool))
        for value in (-1.0, 0.0, 5.0):
            assert G.pairing_from_table(table, np.full((1, 2), value)).tolist() == [2]

    def test_invalid_slot_never_wins(self):
        # row 0's invalid slot holds the largest key; row 1 has no valid candidate
        table = G.NeighborTable(
            indices=np.array([[0, 1, 2, 3], [4, 5, 6, 7]]),
            valid=np.array([[True, True, False, True], [True, False, False, False]]),
        )
        key = np.array([[1.0, np.inf, 2.0], [9.0, 8.0, 7.0]])
        assert G.pairing_from_table(table, key).tolist() == [3, 4]

    def test_dfps_matches_reference(self):
        rng = np.random.default_rng(19)
        for n in (2, 17, 64, 1100):
            cloud = G.PointCloud(positions=np.round(rng.uniform(-3, 3, size=(n, 3))))
            m = int(rng.integers(1, n + 1))
            pos = cloud.positions
            first = int(np.random.default_rng(n).integers(n))
            expected = [first]
            min_d2 = ((pos - pos[first]) ** 2).sum(axis=1)
            min_d2[first] = -1.0
            for _ in range(1, m):
                nxt = int(np.argmax(min_d2))
                expected.append(nxt)
                np.minimum(min_d2, ((pos - pos[nxt]) ** 2).sum(axis=1), out=min_d2)
                min_d2[nxt] = -1.0
            assert G.dfps(cloud, m, seed=n).tolist() == expected
