import contextlib
import gc
import inspect
import json
import threading
import weakref

import numpy as np
import pytest

from shiftssd import data as DT
from shiftssd import detector as D
from shiftssd import harness as H
from shiftssd import losses as L
from shiftssd import tensor as T


def rng(seed=0):
    return np.random.default_rng(seed)


class TestLinear:
    def test_identity_map(self):
        p = T.LinearParams(weight=T.Tensor(np.eye(3)), bias=T.Tensor(np.zeros((1, 3))))
        x = T.Tensor(rng().normal(size=(4, 3)))
        out = T.linear(x, p)
        np.testing.assert_array_equal(out.values, x.values)

    def test_zero_input_broadcasts_bias(self):
        p = T.init_linear(3, 2, rng(1))
        x = T.Tensor(np.zeros((5, 3)))
        out = T.linear(x, p)
        np.testing.assert_allclose(out.values, np.tile(p.bias.values, (5, 1)))

    def test_shape_mismatch(self):
        p = T.init_linear(3, 2, rng(1))
        with pytest.raises(ValueError, match="width"):
            T.linear(T.Tensor(np.zeros((4, 4))), p)

    def test_gradient_matches_central_differences(self):
        r = rng(2)
        p = T.init_linear(3, 2, r)
        x = T.Tensor(r.normal(size=(4, 3)))

        def f():
            return T.sum_all(T.mul(T.linear(x, p), T.linear(x, p)))

        err = T.grad_check(f, [p.weight, p.bias, x], eps=1e-5)
        assert err < 1e-6


class TestRelu:
    def test_basic(self):
        out = T.relu(T.Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.values, [[0.0, 0.0, 2.0]])

    def test_all_negative_blocks_gradient(self):
        x = T.Tensor([[-1.0, -2.0], [-3.0, -0.5]])
        out = T.sum_all(T.relu(x))
        out.backward()
        assert out.values[0, 0] == 0.0
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))

    def test_gradient_away_from_kink(self):
        r = rng(3)
        vals = r.normal(size=(3, 4))
        vals[np.abs(vals) < 1e-2] = 0.5  # keep clear of the kink
        x = T.Tensor(vals)

        def f():
            return T.sum_all(T.mul(T.relu(x), T.relu(x)))

        assert T.grad_check(f, [x], eps=1e-5) < 1e-6


class TestMlp:
    def test_single_identity_layer(self):
        p = T.MlpParams(
            layers=[T.LinearParams(T.Tensor(np.eye(2)), T.Tensor(np.zeros((1, 2))))],
            final_relu=False,
        )
        x = T.Tensor([[-1.0, 3.0]])
        np.testing.assert_array_equal(T.mlp_forward(x, p).values, x.values)

    def test_two_layer_scalar_arithmetic(self):
        # 1x1 input 2.0 -> layer1: 3*2+1 = 7 -> relu 7 -> layer2: -2*7+5 = -9
        l1 = T.LinearParams(T.Tensor([[3.0]]), T.Tensor([[1.0]]))
        l2 = T.LinearParams(T.Tensor([[-2.0]]), T.Tensor([[5.0]]))
        p = T.MlpParams(layers=[l1, l2], final_relu=False)
        out = T.mlp_forward(T.Tensor([[2.0]]), p)
        assert out.item() == -9.0

    def test_width_chain_violation(self):
        l1 = T.init_linear(2, 3, rng(0))
        l2 = T.init_linear(4, 2, rng(0))
        with pytest.raises(ValueError, match="chain"):
            T.MlpParams(layers=[l1, l2])

    def test_two_layer_gradient(self):
        r = rng(4)
        p = T.init_mlp([3, 5, 2], r, final_relu=False)
        x = T.Tensor(r.normal(size=(4, 3)))

        def f():
            return T.mean_all(T.mul(T.mlp_forward(x, p), T.mlp_forward(x, p)))

        assert T.grad_check(f, p.tensors() + [x], eps=1e-5) < 1e-5


class TestReduceMax:
    def test_k1_identity(self):
        x = T.Tensor(rng(5).normal(size=(4, 3)))
        out = T.reduce_max(x, 1, np.ones((4, 1), dtype=bool))
        np.testing.assert_array_equal(out.values, x.values)

    def test_grad_routes_to_argmax_row(self):
        x = T.Tensor([[1.0], [5.0], [3.0]])
        out = T.reduce_max(x, 3, np.ones((1, 3), dtype=bool))
        assert out.values[0, 0] == 5.0
        out.backward()
        np.testing.assert_array_equal(x.grad, [[0.0], [1.0], [0.0]])

    def test_invalid_rows_never_win(self):
        x = T.Tensor([[10.0], [1.0]])
        valid = np.array([[False, True]])
        out = T.reduce_max(x, 2, valid)
        assert out.values[0, 0] == 1.0

    def test_fully_invalid_group_rejected(self):
        x = T.Tensor(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="fully-invalid"):
            T.reduce_max(x, 2, np.zeros((1, 2), dtype=bool))

    def test_matches_naive_and_finite_differences(self):
        r = rng(6)
        m, k, c = 5, 4, 3
        vals = r.normal(size=(m * k, c))
        valid = r.random((m, k)) < 0.7
        valid[:, 0] = True
        x = T.Tensor(vals)
        out = T.reduce_max(x, k, valid)

        naive = np.empty((m, c))
        for i in range(m):
            group = vals[i * k : (i + 1) * k]
            naive[i] = group[valid[i]].max(axis=0)
        np.testing.assert_array_equal(out.values, naive)

        def f():
            return T.sum_all(T.mul(T.reduce_max(x, k, valid), T.Tensor(np.arange(1.0, m * c + 1).reshape(m, c))))

        assert T.grad_check(f, [x], eps=1e-5) < 1e-6

    def test_permutation_invariance_within_groups(self):
        r = rng(7)
        m, k, c = 3, 5, 2
        vals = r.normal(size=(m * k, c))
        valid = r.random((m, k)) < 0.8
        valid[:, 0] = True
        base = T.reduce_max(T.Tensor(vals), k, valid).values

        perm_vals = vals.copy().reshape(m, k, c)
        perm_valid = valid.copy()
        for i in range(m):
            perm = r.permutation(k)
            perm_vals[i] = perm_vals[i][perm]
            perm_valid[i] = perm_valid[i][perm]
        permuted = T.reduce_max(T.Tensor(perm_vals.reshape(m * k, c)), k, perm_valid).values
        np.testing.assert_array_equal(base, permuted)

    def test_backward_equals_add_at_oracle(self):
        r = rng(8)
        m, k, c = 7, 5, 4
        vals = r.integers(0, 3, size=(m * k, c)).astype(np.float64)  # many ties
        valid = r.random((m, k)) < 0.6
        valid[:, 0] = True
        valid[1, 0] = False
        valid[1, 3] = True
        vals[~valid.reshape(-1)] = 9.0  # padded slots hold the largest value
        x = T.Tensor(vals)
        x.grad = r.normal(size=vals.shape)  # a buffer already holding a gradient
        expected = x.grad.copy()
        g = r.normal(size=(m, c))
        rows, cols = [], []
        for i in range(m):
            for j in range(c):
                slots = [s for s in range(k) if valid[i, s]]
                best = max(vals[i * k + s, j] for s in slots)
                rows.append(i * k + next(s for s in slots if vals[i * k + s, j] == best))
                cols.append(j)
        np.add.at(expected, (np.array(rows), np.array(cols)), g.ravel())
        T.reduce_max(x, k, valid).backward(g)
        assert x.grad.tobytes() == expected.tobytes()


def gather_rows_add_at(a, indices):
    """The gather_rows of this test module: the same forward, and a backward
    that scatters with np.add.at."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)

    def _bp(g):
        np.add.at(a._own_grad(), idx, g)

    return T.Tensor(a.values[idx], parents=(a,), backprop=_bp)


def wide_normal(r, shape):
    """Normal draws spread over 16 orders of magnitude, so any change in
    summation order shows in the bytes."""
    return r.normal(size=shape) * 10.0 ** r.uniform(-8, 8, size=shape)


class TestGatherRowsBackward:
    @pytest.mark.parametrize(
        "rows, indices, prior",
        [
            (5, lambda r: r.integers(0, 5, size=400), False),  # duplicate-heavy
            (40, lambda r: r.integers(0, 40, size=300), True),  # a buffer already holding a gradient
            (6, lambda r: np.empty(0, dtype=np.int64), True),  # empty
            (30, lambda r: r.integers(0, 30, size=(24, 8)), False),  # 2-D, as a neighbour table
            (1, lambda r: np.zeros(64, dtype=np.int64), True),  # one source row
        ],
        ids=["duplicates", "prior_grad", "empty", "2d", "one_row"],
    )
    def test_equals_add_at_oracle(self, rows, indices, prior):
        r = rng(40)
        idx = indices(r)
        x = T.Tensor(wide_normal(r, (rows, 3)))
        if prior:
            x.grad = wide_normal(r, (rows, 3))
        expected = x.grad.copy()
        g = wide_normal(r, (idx.size, 3))
        np.add.at(expected, idx.reshape(-1), g)
        out = T.gather_rows(x, idx)
        np.testing.assert_array_equal(out.values, x.values[idx.reshape(-1)])
        out.backward(g)
        assert x.grad.tobytes() == expected.tobytes()

    def test_random_cases_equal_add_at_oracle(self):
        r = rng(41)
        for _ in range(100):
            n = int(r.integers(1, 20))
            idx = r.integers(0, n, size=int(r.integers(0, 120)))
            x = T.Tensor(np.zeros((n, 2)))
            g = wide_normal(r, (idx.size, 2))
            expected = np.zeros((n, 2))
            np.add.at(expected, idx, g)
            T.gather_rows(x, idx).backward(g)
            assert x.grad.tobytes() == expected.tobytes()

    def test_plan_built_once_per_array_and_dropped_with_it(self, monkeypatch):
        builds = []
        build = T._build_scatter_plan
        monkeypatch.setattr(T, "_build_scatter_plan", lambda flat: builds.append(flat.size) or build(flat))
        r = rng(42)
        idx = r.integers(0, 10, size=(6, 4))
        x = T.Tensor(r.normal(size=(10, 3)))
        for _ in range(3):
            T.gather_rows(x, idx).backward(np.ones((24, 3)))
        assert builds == [24]
        assert not idx.flags.writeable  # the plan stays valid for the array's lifetime
        T.gather_rows(x, idx.copy()).backward(np.ones((24, 3)))  # a fresh array builds its own
        assert builds == [24, 24]
        key, alive = id(idx), weakref.ref(idx)
        assert key in T._SCATTER_PLANS
        del idx
        assert alive() is None and key not in T._SCATTER_PLANS

    def test_default_model_training_equals_add_at_reference(self, monkeypatch):
        synth = DT.SynthConfig()
        scenes = [(DT.generate_scene(synth, seed=60 + i), f"scene_{i}") for i in range(2)]
        model = D.default_model_config(anchors=[tuple(c.mean_size) for c in synth.classes])
        config = H.TrainConfig(epochs=2, peak_lr=0.01, seed=5)

        def trained_bytes():
            return [t.values.tobytes() for t in H.train_toy(scenes, model, config).params.tensors()]

        planned = trained_bytes()
        monkeypatch.setattr(T, "gather_rows", gather_rows_add_at)
        assert planned == trained_bytes()


def write_into_a(kind, a):
    """Run a backward that writes into part of a's gradient buffer."""
    if kind == "scatter":
        T.gather_rows(a, [3, 0]).backward(np.ones((2, 2)))
    elif kind == "slice_cols":
        T.slice_cols(a, 1, 2).backward(np.ones((4, 1)))
    else:
        T.reduce_max(a, 2, np.ones((2, 2), dtype=bool)).backward(np.ones((2, 2)))


class TestAdoptedGradients:
    @pytest.mark.parametrize("kind", ["scatter", "slice_cols", "reduce_max"])
    def test_shared_buffer_untouched_by_a_later_partial_write(self, kind):
        r = rng(43)
        a, b = T.Tensor(r.normal(size=(4, 2))), T.Tensor(r.normal(size=(4, 2)))
        g = r.normal(size=(4, 2))
        T.add(a, b).backward(g)
        assert a.grad is b.grad  # both parents adopted the one upstream array
        write_into_a(kind, a)
        assert b.grad.tobytes() == g.tobytes()
        fresh = T.Tensor(a.values)
        write_into_a(kind, fresh)
        assert a.grad.tobytes() == (g + fresh.grad).tobytes()

    def test_adopted_buffer_accumulates_out_of_place(self):
        r = rng(44)
        a, b = T.Tensor(r.normal(size=(3, 2))), T.Tensor(r.normal(size=(3, 2)))
        g = r.normal(size=(3, 2))
        T.add(a, b).backward(g)
        T.scale(a, 2.0).backward(g)
        assert b.grad.tobytes() == g.tobytes()
        assert a.grad.tobytes() == (g + 2.0 * g).tobytes()

    def test_zero_grads_drops_buffers(self):
        x = T.Tensor([[1.0, 2.0]])
        T.sum_all(x).backward()
        T.zero_grads([x])
        assert x._grad is None
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])

    def test_reductions_adopt_full_shape_arrays(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3))
        for op in (T.sum_all, T.mean_all, T.row_sum):
            T.zero_grads([x])
            out = op(x)
            out.backward(np.full(out.shape, 3.0))
            assert x._grad.shape == (2, 3)


def records_graph() -> bool:
    a = T.Tensor([[1.0]])
    out = T.scale(a, 2.0)
    return out._parents == (a,) and out._backprop is not None


class TestNoGrad:
    def test_nodes_keep_no_parents_or_closure(self):
        r = rng(9)
        x = T.Tensor(r.normal(size=(6, 4)))
        p = T.init_mlp([4, 5, 3], r)
        valid = np.ones((3, 2), dtype=bool)
        with T.no_grad():
            h = T.mlp_forward(x, p)
            out = T.reduce_max(h, 2, valid)
        for node in (h, out):
            assert node._parents == () and node._backprop is None
        np.testing.assert_array_equal(out.values, T.reduce_max(T.mlp_forward(x, p), 2, valid).values)

    def test_still_checks_finiteness(self):
        with T.no_grad(), np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
            T.exp(T.Tensor([[1000.0]]))

    def test_mlp_input_freed_once_only_output_held(self):
        r = rng(10)
        p = T.init_mlp([4, 5, 3], r)

        def input_alive(block) -> bool:
            """Whether mlp_forward's input outlives the caller's reference
            while the output is still held."""
            values = r.normal(size=(6, 4))
            ref = weakref.ref(values)
            with block:
                out = T.mlp_forward(T.Tensor(values), p)
            del values
            gc.collect()
            assert out.shape == (6, 3)
            return ref() is not None

        assert input_alive(contextlib.nullcontext())  # a recording graph holds it
        assert not input_alive(T.no_grad())

    def test_flag_restored_after_nesting_and_exceptions(self):
        assert records_graph()
        with T.no_grad():
            with T.no_grad():
                assert not records_graph()
            assert not records_graph()
        assert records_graph()
        with pytest.raises(RuntimeError), T.no_grad():
            raise RuntimeError("inside the block")
        assert records_graph()

    def test_thread_started_inside_block_records(self):
        seen = []
        with T.no_grad():
            worker = threading.Thread(target=lambda: seen.append(records_graph()))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert not records_graph()
        assert seen == [True]


class TestAvgMin:
    def test_avg2_identity_and_cancellation(self):
        a = T.Tensor(rng(8).normal(size=(3, 3)))
        np.testing.assert_array_equal(T.avg2(a, a).values, a.values)
        neg = T.Tensor(-a.values)
        np.testing.assert_array_equal(T.avg2(a, neg).values, np.zeros((3, 3)))

    def test_avg2_gradient(self):
        r = rng(9)
        a, b = T.Tensor(r.normal(size=(2, 3))), T.Tensor(r.normal(size=(2, 3)))

        def f():
            return T.sum_all(T.mul(T.avg2(a, b), T.avg2(a, b)))

        assert T.grad_check(f, [a, b], eps=1e-5) < 1e-8

    def test_min2_routes_and_ties_to_first(self):
        a = T.Tensor([[1.0, 5.0, 2.0]])
        b = T.Tensor([[3.0, 4.0, 2.0]])
        out = T.min2(a, b)
        np.testing.assert_array_equal(out.values, [[1.0, 4.0, 2.0]])
        out.backward(np.ones((1, 3)))
        np.testing.assert_array_equal(a.grad, [[1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[0.0, 1.0, 0.0]])


class TestStructural:
    def test_gather_identity(self):
        x = T.Tensor(rng(10).normal(size=(4, 2)))
        out = T.gather_rows(x, np.arange(4))
        np.testing.assert_array_equal(out.values, x.values)

    def test_gather_duplicate_accumulates(self):
        x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.sum_all(T.gather_rows(x, [0, 0]))
        out.backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            T.gather_rows(T.Tensor(np.zeros((2, 1))), [2])

    def test_gather_conserves_gradient_mass(self):
        r = rng(11)
        x = T.Tensor(r.normal(size=(6, 3)))
        idx = r.integers(0, 6, size=10)
        out = T.gather_rows(x, idx)
        g = r.normal(size=out.shape)
        out.backward(g)
        assert x.grad.sum() == pytest.approx(g.sum(), abs=1e-12)

    def test_concat_order_and_mismatch(self):
        a = T.Tensor(np.ones((4, 2)))
        b = T.Tensor(2 * np.ones((4, 3)))
        out = T.concat_cols([a, b])
        assert out.shape == (4, 5)
        np.testing.assert_array_equal(out.values[:, :2], a.values)
        np.testing.assert_array_equal(out.values[:, 2:], b.values)
        with pytest.raises(ValueError, match="row-count"):
            T.concat_cols([a, T.Tensor(np.zeros((3, 1)))])

    def test_zero_width_concat(self):
        empty = T.Tensor(np.zeros((4, 0)))
        b = T.Tensor(np.ones((4, 2)))
        out = T.concat_cols([empty, b])
        np.testing.assert_array_equal(out.values, b.values)

    def test_slice_and_repeat_gradients(self):
        r = rng(12)
        x = T.Tensor(r.normal(size=(3, 4)))

        def f():
            rep = T.repeat_rows(T.slice_cols(x, 1, 3), 2)
            return T.sum_all(T.mul(rep, rep))

        assert T.grad_check(f, [x], eps=1e-5) < 1e-8

    def test_scale_rows_gradient(self):
        r = rng(13)
        a = T.Tensor(r.normal(size=(3, 4)))
        s = T.Tensor(r.normal(size=(3, 1)))

        def f():
            return T.sum_all(T.mul(T.scale_rows(a, s), T.scale_rows(a, s)))

        assert T.grad_check(f, [a, s], eps=1e-5) < 1e-6


class TestGradCheck:
    def test_quadratic_at_three(self):
        theta = T.Tensor([[3.0]])

        def f():
            return T.mul(theta, theta)

        # analytic d(theta^2)/dtheta = 6 at theta = 3
        assert T.grad_check(f, [theta], eps=1e-5) < 1e-8

    def test_linear_layer_loss(self):
        r = rng(14)
        p = T.init_linear(3, 2, r)
        x = T.Tensor(r.normal(size=(5, 3)))

        def f():
            h = T.linear(x, p)
            return T.mean_all(T.mul(h, h))

        assert T.grad_check(f, p.tensors(), eps=1e-5) < 1e-6

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            T.grad_check(lambda: T.Tensor([[0.0]]), [], eps=0.0)


class TestDeterminismAndFiniteness:
    def test_forward_bit_identical_across_runs(self):
        def run():
            r = rng(15)
            p = T.init_mlp([3, 8, 4], r)
            x = T.Tensor(r.normal(size=(6, 3)))
            return T.mlp_forward(x, p).values

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            T.Tensor([[np.inf]])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        r = rng(16)
        named = [
            ("mlp.0.weight", T.Tensor(r.normal(size=(4, 3)))),
            ("mlp.0.bias", T.Tensor(r.normal(size=(1, 4)))),
        ]
        path = tmp_path / "params.ckpt"
        T.save_checkpoint(path, named, meta={"kind": "test"})
        arrays, meta = T.load_checkpoint(path)
        assert meta == {"kind": "test"}
        for name, t in named:
            np.testing.assert_array_equal(arrays[name], t.values)

        fresh = [(n, T.Tensor(np.zeros(t.shape))) for n, t in named]
        T.load_into(fresh, arrays)
        for (_, orig), (_, loaded) in zip(named, fresh):
            np.testing.assert_array_equal(orig.values, loaded.values)

    def test_load_into_rejects_tensor_the_model_lacks(self):
        named = [("mlp.0.weight", T.Tensor(np.zeros((2, 2))))]
        arrays = {"mlp.0.weight": np.ones((2, 2)), "bogus.weight": np.ones((1, 1)), "bogus.bias": np.ones((1, 1))}
        with pytest.raises(ValueError, match="checkpoint tensor bogus.weight is not in the model"):
            T.load_into(named, arrays)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        T.save_checkpoint(path, [("w", T.Tensor(np.ones((2, 2))))])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            T.load_checkpoint(path)


class TestCheckpointHeader:
    """A malformed header is a ValueError naming the file and the cause."""

    @pytest.mark.parametrize(
        "header, cause",
        [
            pytest.param([], "JSON object", id="list-header"),
            pytest.param({}, "'tensors' list", id="no-tensors"),
            pytest.param({"tensors": {"w": [1, 1]}}, "'tensors' list", id="tensors-not-list"),
            pytest.param({"tensors": [["w", [1, 1]]]}, "tensor 0 .*object", id="entry-not-object"),
            pytest.param({"tensors": [{"shape": [1, 1]}]}, "tensor 0 .*name", id="no-name"),
            pytest.param({"tensors": [{"name": "w", "shape": 3}]}, "'w' .*shape", id="shape-int"),
            pytest.param({"tensors": [{"name": "w", "shape": [1, 1, 1]}]}, "'w' .*shape", id="shape-3d"),
            pytest.param({"tensors": [{"name": "w", "shape": [1, -1]}]}, "'w' .*shape", id="shape-negative"),
            pytest.param({"tensors": [{"name": "w", "shape": [1.0, 1]}]}, "'w' .*shape", id="shape-float"),
            pytest.param({"tensors": [{"name": "w", "shape": [True, 1]}]}, "'w' .*shape", id="shape-bool"),
            pytest.param({"tensors": [{"name": "w", "shape": [1, 1]}] * 2}, "repeated tensor name 'w'", id="repeated-name"),
            pytest.param({"tensors": [], "meta": 5}, "'meta' .*object", id="meta-int"),
            pytest.param({"tensors": [], "meta": None}, "'meta' .*object", id="meta-null"),
        ],
    )
    def test_rejected_with_path_and_cause(self, tmp_path, header, cause):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(ValueError, match=cause) as err:
            T.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_missing_meta_loads_empty(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        path.write_bytes(json.dumps({"tensors": [{"name": "w", "shape": [0, 3]}]}).encode() + b"\n")
        arrays, meta = T.load_checkpoint(path)
        assert arrays["w"].shape == (0, 3)
        assert meta == {}


# ---------------------------------------------------------------------------
# graph lifetime: every forward is freed by reference counting alone


def unreachable_after(run) -> int:
    """Objects the cyclic collector finds once run() has returned and its
    result is dropped; 0 means reference counting freed everything."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def _x(r, shape=(3, 4)):
    return T.Tensor(r.normal(size=shape))


OP_CASES = {
    "add": lambda r: T.add(_x(r), _x(r)),
    "sub": lambda r: T.sub(_x(r), _x(r)),
    "mul": lambda r: T.mul(_x(r), _x(r)),
    "scale": lambda r: T.scale(_x(r), 2.5),
    "avg2": lambda r: T.avg2(_x(r), _x(r)),
    "min2": lambda r: T.min2(_x(r), _x(r)),
    "concat_cols": lambda r: T.concat_cols([_x(r), _x(r, (3, 2))]),
    "slice_cols": lambda r: T.slice_cols(_x(r), 1, 3),
    "gather_rows": lambda r: T.gather_rows(_x(r), [0, 2, 2]),
    "repeat_rows": lambda r: T.repeat_rows(_x(r), 2),
    "scale_rows": lambda r: T.scale_rows(_x(r), _x(r, (3, 1))),
    "reduce_max": lambda r: T.reduce_max(_x(r, (6, 2)), 2, np.ones((3, 2), dtype=bool)),
    "linear": lambda r: T.linear(_x(r), T.init_linear(4, 2, r)),
    "mlp_forward": lambda r: T.mlp_forward(_x(r), T.init_mlp([4, 5, 2], r)),
    "smooth_l1": lambda r: L.smooth_l1(_x(r)),
    "cls_loss": lambda r: L.cls_loss(_x(r), [0, 3, 1]),
    "corners_in_graph": lambda r: L.corners_in_graph(_x(r, (3, 3)), _x(r, (3, 3)), _x(r, (3, 1))),
}
for _name in ("exp", "absolute", "sigmoid", "relu", "row_sum", "sum_all", "mean_all"):
    OP_CASES[_name] = lambda r, op=getattr(T, _name): op(_x(r))


def test_every_tensor_op_has_an_acyclic_case():
    ops = {
        name
        for name, fn in vars(T).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__annotations__.get("return") == "Tensor"
    }
    assert ops <= set(OP_CASES)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_graph_freed_by_refcount(name):
    def run():
        out = OP_CASES[name](rng(20))
        out.backward(np.ones(out.shape))

    assert unreachable_after(run) == 0


@pytest.fixture(scope="module")
def small_pipeline():
    model, synth = H.gradcheck_config()
    scenes = [(DT.generate_scene(synth, seed=30 + i), f"scene_{i:04d}") for i in range(2)]
    return model, D.init_model_params(model, seed=1), scenes


class TestPipelineGraphsFreedByRefcount:
    def test_detect(self, small_pipeline):
        model, params, scenes = small_pipeline
        assert unreachable_after(lambda: D.detect(scenes[0][0].cloud, model, params, 3)) == 0

    def test_train_epoch(self, small_pipeline):
        model, _, scenes = small_pipeline
        assert unreachable_after(lambda: H.train_toy(scenes, model, H.TrainConfig(epochs=1))) == 0

    def test_receptive_field_probe(self, small_pipeline):
        model, params, scenes = small_pipeline
        cloud = scenes[0][0].cloud

        def run():
            H.receptive_field_probe(model, params, cloud, eps=1e-3, tol=1e-9, seed=3)

        assert unreachable_after(run) == 0
