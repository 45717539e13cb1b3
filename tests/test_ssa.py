from dataclasses import replace

import numpy as np
import pytest

from shiftssd import detector as D
from shiftssd import geometry as G
from shiftssd import ssa as S
from shiftssd import tensor as T
from test_geometry import reference_pairing


def identity_mlp(c):
    layer = T.LinearParams(T.Tensor(np.eye(c)), T.Tensor(np.zeros((1, c))))
    return T.MlpParams(layers=[layer], final_relu=False)


def naive_mlp(x_row, mlp):
    h = x_row.copy()
    last = len(mlp.layers) - 1
    for li, layer in enumerate(mlp.layers):
        h = layer.weight.values @ h + layer.bias.values[0]
        if li < last or mlp.final_relu:
            h = np.maximum(h, 0.0)
    return h


def naive_sfa(positions, feats, cluster_indices, table, mlp):
    """Loop-nest reference for per-cluster grouped abstraction."""
    m, k = table.indices.shape
    c_out = mlp.layers[-1].weight.shape[0]
    out = np.full((m, c_out), -np.inf)
    for i in range(m):
        center = positions[cluster_indices[i]]
        for slot in range(k):
            if not table.valid[i, slot]:
                continue
            j = table.indices[i, slot]
            row = np.concatenate([feats[j], positions[j] - center])
            out[i] = np.maximum(out[i], naive_mlp(row, mlp))
    return out


def ball_table(positions, cluster_indices, radius, k, seed):
    """The neighbor table ssa_forward draws for one scale."""
    cloud = G.PointCloud(positions=positions)
    return G.ball_query(cloud, positions[cluster_indices], radius, k, seed, self_indices=cluster_indices)


def slot_offsets(positions, cluster_indices, table):
    """The constant (M*K)x3 offsets of one scale's slots from their cluster centers."""
    k = table.indices.shape[1]
    return T.Tensor(positions[table.indices.reshape(-1)] - np.repeat(positions[cluster_indices], k, axis=0))


class TestSetFeatureAbstraction:
    def test_identity_on_coords_hand_case(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        feats = T.Tensor(np.zeros((3, 0)))
        # single linear layer that passes the relative coordinates through
        f_mlp = identity_mlp(3)
        table = ball_table(positions, np.array([0]), radius=5.0, k=3, seed=0)
        pooled = S.set_feature_abstraction(feats, slot_offsets(positions, np.array([0]), table), table, f_mlp)
        assert table.valid[0].all()
        np.testing.assert_array_equal(pooled.values, [[1.0, 2.0, 0.0]])

    def test_isolated_cluster_reduces_to_self(self):
        positions = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        feats = T.Tensor(np.array([[3.0], [7.0]]))
        f_mlp = identity_mlp(4)
        table = ball_table(positions, np.array([0]), radius=1.0, k=4, seed=0)
        pooled = S.set_feature_abstraction(feats, slot_offsets(positions, np.array([0]), table), table, f_mlp)
        assert table.valid[0].sum() == 1
        np.testing.assert_array_equal(pooled.values, [[3.0, 0.0, 0.0, 0.0]])

    def test_matches_loop_nest_oracle(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(-2, 2, size=(16, 3))
        feats_np = rng.normal(size=(16, 2))
        cluster_indices = np.array([1, 5, 9, 14])
        f_mlp = T.init_mlp([5, 6, 4], rng, final_relu=True)
        table = ball_table(positions, cluster_indices, radius=2.0, k=5, seed=3)
        rel = slot_offsets(positions, cluster_indices, table)
        pooled = S.set_feature_abstraction(T.Tensor(feats_np), rel, table, f_mlp)
        expected = naive_sfa(positions, feats_np, cluster_indices, table, f_mlp)
        np.testing.assert_allclose(pooled.values, expected, rtol=0, atol=1e-12)


def reference_constant_sfa(positions, features, cluster_indices, table, f_mlp):
    """The backbone grouping body as it was written before it took its
    offsets as an argument: constant offsets built inside."""
    k = table.indices.shape[1]
    flat = table.indices.reshape(-1)
    rel = positions[flat] - np.repeat(positions[cluster_indices], k, axis=0)
    neighbor_feats = T.gather_rows(features, table.indices)
    per_neighbor = T.mlp_forward(T.concat_cols([neighbor_feats, T.Tensor(rel)]), f_mlp)
    return T.reduce_max(per_neighbor, k, table.valid)


def reference_candidate_aggregation(candidates, src_positions, src_features, table, f_mlp, a_mlp):
    """The candidate grouping body as it was written with its own gather,
    in-graph offsets, MLP and masked max."""
    k = table.indices.shape[1]
    flat = table.indices.reshape(-1)
    gathered = T.gather_rows(src_features, flat)
    rel = T.sub(T.Tensor(src_positions[flat]), T.repeat_rows(candidates, k))
    per_neighbor = T.mlp_forward(T.concat_cols([gathered, rel]), f_mlp)
    return T.mlp_forward(T.reduce_max(per_neighbor, k, table.valid), a_mlp)


def random_groups(rng, n, anchors, k):
    """A table over n rows anchored at `anchors`: random slots, about a
    third of them invalid, and the last slot repeating slot 0 so that the
    two tie on every channel whenever both are valid."""
    indices = rng.integers(0, n, size=(anchors.shape[0], k))
    indices[:, 0] = anchors
    indices[:, -1] = anchors
    valid = rng.random(indices.shape) < 0.65
    valid[:, 0] = True
    return G.NeighborTable(indices=indices, valid=valid)


def forward_and_grads(forward, leaves, params):
    """Bytes of one forward and of the gradients a random upstream gradient
    gives every leaf and parameter."""
    T.zero_grads(params)
    out = forward(*leaves)
    out.backward(np.random.default_rng(0).normal(size=out.shape))
    return [out.values.tobytes()] + [t.grad.tobytes() for t in [*leaves, *params]]


class TestOneGroupingBody:
    """Both grouping sites pool through set_feature_abstraction; each must
    give the bytes, forward and backward, of its former own body."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ssa_site_equals_constant_offset_body(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 30, 8
        positions = rng.uniform(-2, 2, size=(n, 3))
        feats = rng.normal(size=(n, 3))
        cluster_indices = rng.choice(n, size=m, replace=False)
        config = S.SsaConfig(
            scales=[S.ScaleConfig(radius=1.0, k=4, mlp=[6]), S.ScaleConfig(radius=2.0, k=7, mlp=[5, 4])],
            exchange_op="none",
        )
        params = S.init_ssa_params(config, in_channels=3, rng=rng)
        tables = [random_groups(rng, n, cluster_indices, scale.k) for scale in config.scales]
        frozen = S.SsaDecisions(cluster_indices=cluster_indices, tables=tables, pairing=np.arange(m))

        def through_ssa_forward(features):
            return S.ssa_forward(positions, features, m, config, params, seed=0, frozen=frozen)[0].aggregated

        def through_reference(features):
            per_scale = [
                reference_constant_sfa(positions, features, cluster_indices, table, f_mlp)
                for table, f_mlp in zip(tables, params.f_mlps)
            ]
            return S.aggregate_scales(per_scale, params.aggregate)

        got, want = (
            forward_and_grads(forward, [T.Tensor(feats)], params.tensors())
            for forward in (through_ssa_forward, through_reference)
        )
        assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_candidate_site_equals_in_graph_offset_body(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, m, k = 12, 12, 6
        src_pos = rng.uniform(-2, 2, size=(n, 3))
        src_feats = rng.normal(size=(n, 4))
        cand = src_pos + rng.normal(scale=0.3, size=(m, 3))
        f_mlp = T.init_mlp([7, 8, 6], rng, final_relu=True)
        a_mlp = T.init_mlp([6, 5], rng, final_relu=True)
        table = random_groups(rng, n, np.arange(m), k)
        params = f_mlp.tensors() + a_mlp.tensors()

        got, want = (
            forward_and_grads(
                lambda candidates, features: aggregation(candidates, src_pos, features, table, f_mlp, a_mlp),
                [T.Tensor(cand), T.Tensor(src_feats)],
                params,
            )
            for aggregation in (D.candidate_aggregation, reference_candidate_aggregation)
        )
        assert got == want


class TestCrossClusterShift:
    def test_self_pairing_collapse_bit_exact(self):
        rng = np.random.default_rng(1)
        x_np = rng.normal(size=(6, 8))
        mlp2 = T.init_mlp([8, 8, 8], rng, final_relu=False)
        pairing = np.arange(6)
        out = S.cross_cluster_shift(T.Tensor(x_np), pairing, s=2, mlp2=mlp2)
        # explicit substitution x_f := x_i gives the same splice input
        direct = T.relu(T.avg2(T.mlp_forward(T.Tensor(x_np), mlp2), T.Tensor(x_np)))
        assert out.values.tobytes() == direct.values.tobytes()

    def test_self_pairing_independent_of_other_rows(self):
        rng = np.random.default_rng(2)
        x_np = rng.normal(size=(5, 6))
        mlp2 = T.init_mlp([6, 6, 6], rng, final_relu=False)
        pairing = np.arange(5)
        base = S.cross_cluster_shift(T.Tensor(x_np), pairing, s=1, mlp2=mlp2).values
        perturbed = x_np.copy()
        perturbed[3] += 10.0
        after = S.cross_cluster_shift(T.Tensor(perturbed), pairing, s=1, mlp2=mlp2).values
        assert base[0].tobytes() == after[0].tobytes()
        assert base[1].tobytes() == after[1].tobytes()

    def test_identity_mlp_full_shift_averages(self):
        rng = np.random.default_rng(3)
        x_np = np.abs(rng.normal(size=(4, 3)))  # non-negative keeps ReLU inert
        pairing = np.array([1, 2, 3, 0])
        out = S.cross_cluster_shift(T.Tensor(x_np), pairing, s=3, mlp2=identity_mlp(3))
        expected = 0.5 * (x_np[pairing] + x_np)
        np.testing.assert_allclose(out.values, expected, atol=1e-15)

    def test_channel_splice_locality(self):
        rng = np.random.default_rng(4)
        x_np = rng.normal(size=(5, 6))
        pairing = np.array([2, 0, 4, 1, 3])
        s = 2
        donated = T.gather_rows(T.slice_cols(T.Tensor(x_np), 0, s), pairing)
        kept = T.slice_cols(T.Tensor(x_np), s, 6)
        spliced = T.concat_cols([donated, kept]).values
        for i in range(5):
            for c in range(6):
                if c < s:
                    assert spliced[i, c] == x_np[pairing[i], c]
                else:
                    assert spliced[i, c] == x_np[i, c]

    def test_matches_per_row_loop_oracle(self):
        rng = np.random.default_rng(5)
        x_np = rng.normal(size=(7, 5))
        mlp2 = T.init_mlp([5, 5, 5], rng, final_relu=False)
        pairing = rng.integers(0, 7, size=7)
        s = 2
        out = S.cross_cluster_shift(T.Tensor(x_np), pairing, s=s, mlp2=mlp2).values
        for i in range(7):
            spliced = np.concatenate([x_np[pairing[i], :s], x_np[i, s:]])
            mixed = naive_mlp(spliced, mlp2)
            expected = np.maximum(0.0, 0.5 * (mixed + x_np[i]))
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_s_out_of_range(self):
        x = T.Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="shift channel count"):
            S.cross_cluster_shift(x, np.zeros(2, dtype=int), 4, identity_mlp(3))

    def test_shift_channels_rounding(self):
        assert S.shift_channels(1 / 8, 16) == 2
        assert S.shift_channels(1 / 8, 4) == 1  # half rounds up
        assert S.shift_channels(0.0, 16) == 0
        assert S.shift_channels(1.0, 16) == 16


class TestAggregateScales:
    def test_single_scale_identity(self):
        x = T.Tensor(np.random.default_rng(6).normal(size=(4, 3)))
        out = S.aggregate_scales([x], identity_mlp(3))
        np.testing.assert_array_equal(out.values, x.values)

    def test_width_contract(self):
        rng = np.random.default_rng(7)
        a = T.Tensor(rng.normal(size=(4, 2)))
        b = T.Tensor(rng.normal(size=(4, 3)))
        mlp = T.init_mlp([5, 4], rng)
        out = S.aggregate_scales([a, b], mlp)
        assert out.shape == (4, 4)
        with pytest.raises(ValueError, match="row-count"):
            S.aggregate_scales([a, T.Tensor(np.zeros((3, 3)))], mlp)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        a = T.Tensor(rng.normal(size=(3, 2)))
        b = T.Tensor(rng.normal(size=(3, 3)))
        mlp = T.init_mlp([5, 4], rng)

        def f():
            out = S.aggregate_scales([a, b], mlp)
            return T.mean_all(T.mul(out, out))

        assert T.grad_check(f, mlp.tensors() + [a, b], eps=1e-5) < 1e-4


class TestSsaConfigDefaults:
    def test_unset_fields_stay_unset(self):
        config = S.SsaConfig(scales=[S.ScaleConfig(1.0, 4, [8]), S.ScaleConfig(2.0, 6, [5])])
        assert (config.r_prime, config.candidate_k, config.aggregation) == (None, None, [])
        resolved = config.resolved()
        assert (resolved.r_prime, resolved.candidate_k, resolved.aggregation) == (4.0, 6, [13])
        assert config.out_channels == 13

    def test_replace_scales_resolves_from_new_scales(self):
        config = S.SsaConfig(scales=[S.ScaleConfig(1.0, 4, [8])])
        grown = replace(config, scales=[S.ScaleConfig(3.0, 4, [8])])
        assert grown.resolved().r_prime == 6.0
        shrunk = replace(config, scales=[S.ScaleConfig(0.5, 16, [32])]).resolved()
        assert (shrunk.r_prime, shrunk.candidate_k, shrunk.aggregation) == (1.0, 16, [32])

    def test_explicit_values_survive_replace(self):
        config = S.SsaConfig(
            scales=[S.ScaleConfig(1.0, 4, [8])], r_prime=2.5, candidate_k=3, aggregation=[7, 5]
        )
        edited = replace(config, scales=[S.ScaleConfig(0.5, 16, [32])]).resolved()
        assert (edited.r_prime, edited.candidate_k, edited.aggregation) == (2.5, 3, [7, 5])
        assert edited.out_channels == 5


def toy_config(exchange="cs", selection="farthest", ratio=0.25):
    return S.SsaConfig(
        scales=[
            S.ScaleConfig(radius=1.5, k=4, mlp=[5]),
            S.ScaleConfig(radius=2.5, k=6, mlp=[4]),
        ],
        shift_ratio=ratio,
        aggregation=[6],
        exchange_op=exchange,
        selection=selection,
    )


class TestDecisionReads:
    def test_hand_built(self):
        # cluster 0 centers on row 0, cluster 1 on row 3; padded slots and row 5 (invalid) are not read
        tables = [
            G.NeighborTable(np.array([[0, 1, 0], [3, 4, 3]]), np.array([[True, True, False], [True, True, False]])),
            G.NeighborTable(np.array([[0, 2, 5], [3, 3, 3]]), np.array([[True, True, False], [True, False, False]])),
        ]
        d = S.SsaDecisions(np.array([0, 3]), tables, np.array([1, 1]))
        plain = d.reads(6, toy_config(exchange="none"))
        np.testing.assert_array_equal(plain.T, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0]])
        # cluster 0 reads its partner 1's row, and so its inputs; cluster 1 is its own partner
        for op in ("cs", "concat", "avg", "attn"):
            np.testing.assert_array_equal(d.reads(6, toy_config(exchange=op)).T, [[1, 1, 1, 1, 1, 0], [0, 0, 0, 1, 1, 0]])

    def test_reads_partner(self):
        # toy_config's scales are 5 and 4 channels wide: cs at 1/16 or 0 donates none at either
        for op in S.EXCHANGE_OPS:
            assert toy_config(exchange=op).reads_partner == (op != "none")
            for ratio in (1 / 16, 0.0):
                assert toy_config(exchange=op, ratio=ratio).reads_partner == (op not in ("none", "cs"))
        assert toy_config(exchange="cs", ratio=1 / 8).reads_partner  # 0.5 of a channel rounds up

    @pytest.mark.parametrize("exchange", S.EXCHANGE_OPS)
    def test_unread_rows_leave_output_unchanged(self, exchange):
        rng = np.random.default_rng(31)
        positions = rng.uniform(-3, 3, size=(20, 3))
        feats = T.Tensor(rng.normal(size=(20, 2)))
        config = toy_config(exchange=exchange)
        params = S.init_ssa_params(config, 2, rng)
        base, decisions = S.ssa_forward(positions, feats, 6, config, params, seed=32)
        reads = decisions.reads(20, config)
        assert not reads.all()
        for j in range(20):
            moved = positions.copy()
            moved[j] += 1e-3
            out, _ = S.ssa_forward(moved, feats, 6, config, params, seed=32, frozen=decisions)
            unread = ~reads[j]
            assert out.aggregated.values[unread].tobytes() == base.aggregated.values[unread].tobytes()


class TestSsaForward:
    def test_none_exchange_is_plain_set_abstraction(self):
        rng = np.random.default_rng(9)
        positions = rng.uniform(-3, 3, size=(20, 3))
        feats = rng.normal(size=(20, 2))
        config = toy_config(exchange="none")
        params = S.init_ssa_params(config, in_channels=2, rng=np.random.default_rng(10))
        out, decisions = S.ssa_forward(positions, T.Tensor(feats), 6, config, params, seed=1)

        # manual abstract-then-aggregate pipeline on the same frozen decisions
        per_scale = [
            S.set_feature_abstraction(
                T.Tensor(feats), slot_offsets(positions, decisions.cluster_indices, table), table, f_mlp
            )
            for table, f_mlp in zip(decisions.tables, params.f_mlps)
        ]
        expected = S.aggregate_scales(per_scale, params.aggregate)
        np.testing.assert_array_equal(out.aggregated.values, expected.values)

    def test_mutually_isolated_clusters_collapse_to_self_pairing(self):
        rng = np.random.default_rng(11)
        # clusters spread far beyond r_prime of the config
        positions = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        feats = rng.normal(size=(3, 1))
        config = S.SsaConfig(
            scales=[S.ScaleConfig(radius=1.0, k=2, mlp=[4])],
            shift_ratio=0.5,
            aggregation=[4],
        )
        params = S.init_ssa_params(config, in_channels=1, rng=np.random.default_rng(12))
        out, decisions = S.ssa_forward(positions, T.Tensor(feats), 3, config, params, seed=2)
        np.testing.assert_array_equal(np.sort(decisions.pairing), np.arange(3))
        table = decisions.tables[0]
        scale0 = S.set_feature_abstraction(
            T.Tensor(feats), slot_offsets(positions, decisions.cluster_indices, table), table, params.f_mlps[0]
        )
        collapsed = S.cross_cluster_shift(
            scale0,
            np.arange(3),
            S.shift_channels(0.5, 4),
            params.exchange[0],
        )
        expected = S.aggregate_scales([collapsed], params.aggregate)
        np.testing.assert_array_equal(out.aggregated.values, expected.values)

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(13)
        positions = rng.uniform(-2.5, 2.5, size=(16, 3))
        feats = T.Tensor(rng.normal(size=(16, 2)))
        config = toy_config()
        params = S.init_ssa_params(config, in_channels=2, rng=np.random.default_rng(14))
        probe = T.Tensor(np.random.default_rng(15).normal(size=(6, config.out_channels)))

        out0, decisions = S.ssa_forward(positions, feats, 6, config, params, seed=3)

        def f():
            out, _ = S.ssa_forward(
                positions, feats, 6, config, params, seed=3, frozen=decisions
            )
            return T.mean_all(T.mul(out.aggregated, probe))

        err = T.grad_check(f, params.tensors() + [feats], eps=1e-5)
        assert err < 1e-4

    def test_tables_equal_standalone_queries(self):
        # both scales' fresh tables come from one scan at the larger radius;
        # on a half-meter lattice points lie exactly on both radii
        rng = np.random.default_rng(18)
        positions = np.round(rng.uniform(-3, 3, size=(60, 3)) * 2.0) / 2.0
        config = toy_config()
        params = S.init_ssa_params(config, in_channels=1, rng=np.random.default_rng(19))
        feats = T.Tensor(rng.normal(size=(60, 1)))
        _, decisions = S.ssa_forward(positions, feats, 16, config, params, seed=6)
        cloud = G.PointCloud(positions=positions)
        centers = positions[decisions.cluster_indices]
        for si, scale in enumerate(config.scales):
            d2 = G.pairwise_sq_dist(centers, positions)
            assert (d2 == scale.radius ** 2).any()
            alone = G.ball_query(
                cloud, centers, scale.radius, scale.k, G.derive_seed(6, 1, si),
                self_indices=decisions.cluster_indices,
            )
            np.testing.assert_array_equal(decisions.tables[si].indices, alone.indices)
            np.testing.assert_array_equal(decisions.tables[si].valid, alone.valid)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        positions = rng.uniform(-3, 3, size=(18, 3))
        feats = rng.normal(size=(18, 1))
        config = toy_config()
        params = S.init_ssa_params(config, in_channels=1, rng=np.random.default_rng(17))
        a, _ = S.ssa_forward(positions, T.Tensor(feats), 5, config, params, seed=4)
        b, _ = S.ssa_forward(positions, T.Tensor(feats), 5, config, params, seed=4)
        assert a.aggregated.values.tobytes() == b.aggregated.values.tobytes()

    def test_parent_permutation_with_remapped_selections(self):
        # permuting parent rows while remapping the frozen index decisions
        # must reproduce the cluster features bit for bit
        rng = np.random.default_rng(30)
        positions = rng.uniform(-3, 3, size=(15, 3))
        feats = rng.normal(size=(15, 2))
        config = toy_config()
        params = S.init_ssa_params(config, in_channels=2, rng=np.random.default_rng(31))
        base, decisions = S.ssa_forward(positions, T.Tensor(feats), 5, config, params, seed=6)

        perm = rng.permutation(15)
        inv = np.argsort(perm)
        remapped = S.SsaDecisions(
            cluster_indices=inv[decisions.cluster_indices],
            tables=[
                type(t)(indices=inv[t.indices], valid=t.valid.copy())
                for t in decisions.tables
            ],
            pairing=decisions.pairing,  # pairing indexes clusters, not parents
        )
        permuted, _ = S.ssa_forward(
            positions[perm], T.Tensor(feats[perm]), 5, config, params, seed=6, frozen=remapped
        )
        assert base.aggregated.values.tobytes() == permuted.aggregated.values.tobytes()
        np.testing.assert_array_equal(base.positions, permuted.positions)

    def test_receptive_field_expansion_vs_none(self):
        # two tight cliques far apart; satellite of clique B is outside
        # clique A's ball but inside the pairing range
        positions = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.3, 0.0, 0.0],  # satellite of A
                [4.0, 0.0, 0.0],
                [4.3, 0.0, 0.0],  # satellite of B
            ]
        )
        feats_np = np.random.default_rng(18).normal(size=(4, 2))
        base_cfg = dict(
            scales=[S.ScaleConfig(radius=1.0, k=4, mlp=[6])],
            shift_ratio=0.5,
            r_prime=10.0,
            aggregation=[6],
        )
        rng_p = np.random.default_rng(19)
        cfg_cs = S.SsaConfig(exchange_op="cs", **base_cfg)
        params = S.init_ssa_params(cfg_cs, in_channels=2, rng=rng_p)
        _, decisions = S.ssa_forward(positions, T.Tensor(feats_np), 2, cfg_cs, params, seed=5)
        # identify which cluster is in clique A
        a_row = int(np.flatnonzero(np.isin(decisions.cluster_indices, [0, 1]))[0])
        sat_b = 3 if decisions.cluster_indices[1 - a_row] != 3 else 2

        def run(cfg, pos):
            out, _ = S.ssa_forward(pos, T.Tensor(feats_np), 2, cfg, params, seed=5, frozen=decisions)
            return out.aggregated.values

        perturbed = positions.copy()
        perturbed[sat_b, 0] += 1e-3

        cfg_none = S.SsaConfig(exchange_op="none", **base_cfg)
        delta_none = np.abs(run(cfg_none, perturbed) - run(cfg_none, positions))[a_row].max()
        delta_cs = np.abs(run(cfg_cs, perturbed) - run(cfg_cs, positions))[a_row].max()
        assert delta_none <= 1e-9
        assert delta_cs > 1e-9


class TestExchangeVariants:
    def test_avg_with_self_pairing_equals_cs_collapse(self):
        rng = np.random.default_rng(20)
        x_np = rng.normal(size=(4, 6))
        mlp2 = T.init_mlp([6, 6, 6], rng, final_relu=False)
        pairing = np.arange(4)
        avg_out = S.exchange_variant(T.Tensor(x_np), pairing, "avg", mlp2, s=2)
        cs_out = S.exchange_variant(T.Tensor(x_np), pairing, "cs", mlp2, s=2)
        np.testing.assert_allclose(avg_out.values, cs_out.values, atol=1e-15)

    def test_attn_zero_qk_blends_half(self):
        rng = np.random.default_rng(21)
        c = 4
        x_np = rng.normal(size=(3, c))
        pairing = np.array([1, 2, 0])
        attn = S.AttnParams(
            q=T.LinearParams(T.Tensor(np.zeros((c, c))), T.Tensor(np.zeros((1, c)))),
            k=T.LinearParams(T.Tensor(np.zeros((c, c))), T.Tensor(np.zeros((1, c)))),
            v=T.LinearParams(T.Tensor(np.eye(c)), T.Tensor(np.zeros((1, c)))),
        )
        out = S.exchange_variant(T.Tensor(x_np), pairing, "attn", attn, s=0)
        blend = 0.5 * x_np[pairing] + 0.5 * x_np
        expected = np.maximum(0.0, 0.5 * (blend + x_np))
        np.testing.assert_allclose(out.values, expected, atol=1e-15)

    @pytest.mark.parametrize("variant", ["cs", "concat", "avg", "attn"])
    def test_gradients(self, variant):
        rng = np.random.default_rng(22)
        c = 4
        x = T.Tensor(rng.normal(size=(5, c)))
        pairing = rng.integers(0, 5, size=5)
        if variant == "attn":
            params = S.AttnParams(
                q=T.init_linear(c, c, rng), k=T.init_linear(c, c, rng), v=T.init_linear(c, c, rng)
            )
            tensors = [t for _, t in params.named("a")]
        elif variant == "concat":
            params = T.init_mlp([2 * c, c, c], rng, final_relu=False)
            tensors = params.tensors()
        else:
            params = T.init_mlp([c, c, c], rng, final_relu=False)
            tensors = params.tensors()

        def f():
            out = S.exchange_variant(x, pairing, variant, params, s=1)
            return T.mean_all(T.mul(out, out))

        assert T.grad_check(f, tensors + [x], eps=1e-5) < 1e-4

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown exchange"):
            S.exchange_variant(T.Tensor(np.zeros((1, 1))), np.zeros(1, dtype=int), "bogus", None, 0)

    def test_variants_preserve_shape_and_finiteness(self):
        rng = np.random.default_rng(23)
        c = 6
        x = T.Tensor(rng.normal(size=(7, c)))
        pairing = rng.integers(0, 7, size=7)
        for variant in S.EXCHANGE_OPS:
            if variant == "attn":
                params = S.AttnParams(
                    q=T.init_linear(c, c, rng), k=T.init_linear(c, c, rng), v=T.init_linear(c, c, rng)
                )
            elif variant == "concat":
                params = T.init_mlp([2 * c, c, c], rng, final_relu=False)
            elif variant == "none":
                params = None
            else:
                params = T.init_mlp([c, c, c], rng, final_relu=False)
            out = S.exchange_variant(x, pairing, variant, params, s=2)
            assert out.shape == (7, c)
            assert np.isfinite(out.values).all()


def exhaustive_farthest(positions, r_prime):
    """Each point's farthest other point within r_prime, smallest index on
    ties, itself when none lies in range."""
    d2 = G.pairwise_sq_dist(positions, positions)
    n = len(positions)
    out = np.arange(n)
    for i in range(n):
        in_r = np.flatnonzero((d2[i] <= r_prime * r_prime) & (np.arange(n) != i))
        if in_r.size:
            out[i] = in_r[d2[i, in_r] == d2[i, in_r].max()].min()
    return out


class TestSelectionVariants:
    def test_two_clusters_farthest_equals_nearest(self):
        cloud = G.PointCloud(positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        far = S.selection_variant(cloud, "farthest", r_prime=5.0, k=2, seed=0)
        near = S.selection_variant(cloud, "nearest", r_prime=5.0, k=2, seed=0)
        np.testing.assert_array_equal(far, near)
        np.testing.assert_array_equal(far, [1, 0])

    def test_feats_scale_prefers_larger_mean(self):
        cloud = G.PointCloud(positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        feats = np.array([[0.0, 0.0], [10.0, 10.0], [1.0, 1.0]])
        pairing = S.selection_variant(cloud, "feats_scale", r_prime=5.0, k=3, seed=0, features=feats)
        assert pairing[0] == 1
        assert pairing[2] == 1

    def test_points_num_prefers_denser_cluster(self):
        cloud = G.PointCloud(positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        counts = np.array([1, 9, 2])
        pairing = S.selection_variant(cloud, "points_num", r_prime=5.0, k=3, seed=0, valid_counts=counts)
        assert pairing[0] == 1
        assert pairing[2] == 1

    def test_farthest_matches_exhaustive(self):
        rng = np.random.default_rng(24)
        cloud = G.PointCloud(positions=rng.uniform(-3, 3, size=(20, 3)))
        pairing = S.selection_variant(cloud, "farthest", r_prime=4.0, k=20, seed=1)
        np.testing.assert_array_equal(pairing, exhaustive_farthest(cloud.positions, 4.0))

    def test_single_cluster_self(self):
        cloud = G.PointCloud(positions=[[0.0, 0.0, 0.0]])
        pairing = S.selection_variant(cloud, "farthest", r_prime=1.0, k=4, seed=0)
        assert pairing.tolist() == [0]

    def test_three_collinear(self):
        cloud = G.PointCloud(positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        pairing = S.selection_variant(cloud, "farthest", r_prime=3.0, k=3, seed=0)
        assert pairing[0] == 2
        assert pairing[2] == 0

    def test_k_all_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(11)
        cloud = G.PointCloud(positions=rng.uniform(-4.0, 4.0, size=(32, 3)))
        pairing = S.selection_variant(cloud, "farthest", r_prime=5.0, k=32, seed=4)
        np.testing.assert_array_equal(pairing, exhaustive_farthest(cloud.positions, 5.0))

    def test_out_of_range_isolation(self):
        cloud = G.PointCloud(positions=[[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        pairing = S.selection_variant(cloud, "farthest", r_prime=1.0, k=2, seed=0)
        assert pairing.tolist() == [0, 1]

    def test_all_strategies_rank_one_table(self, monkeypatch):
        rng = np.random.default_rng(25)
        cloud = G.PointCloud(positions=rng.uniform(-3, 3, size=(40, 3)))
        features = rng.normal(size=(40, 5))
        counts = rng.integers(1, 6, size=40)
        scores = {"feats_scale": features.mean(axis=1), "points_num": counts.astype(np.float64)}
        tables = []
        ball_query = G.ball_query

        def recording(*args, **kwargs):
            tables.append(ball_query(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(G, "ball_query", recording)
        for strategy in S.SELECTION_STRATEGIES:
            pairing = S.selection_variant(
                cloud, strategy, r_prime=2.5, k=6, seed=3, features=features, valid_counts=counts
            )
            table = tables[-1]
            assert pairing.dtype == np.int64
            mode = "score" if strategy in scores else strategy
            expected = reference_pairing(cloud.positions, table, mode, scores=scores.get(strategy))
            np.testing.assert_array_equal(pairing, expected)
        assert len(tables) == len(S.SELECTION_STRATEGIES)
        for table in tables[1:]:
            assert table.indices.tobytes() == tables[0].indices.tobytes()
            assert table.valid.tobytes() == tables[0].valid.tobytes()
        assert (tables[0].valid[:, 1:].sum(axis=1) < 5).any()  # some rows are short
        assert tables[0].valid.all(axis=1).any()  # and some sampled a full row

    def test_unknown_strategy(self):
        cloud = G.PointCloud(positions=[[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="unknown selection"):
            S.selection_variant(cloud, "bogus", r_prime=1.0, k=1, seed=0)
