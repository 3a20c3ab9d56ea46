import inspect

import numpy as np
import pytest

from sshr import tensor as tz
from sshr import ctc
from sshr.errors import ConfigError, NonFiniteError
from sshr.gradcheck import CHECKS, check_scalar_graph, finite_difference_gradient, relative_error


def t64(values, **kw):
    return tz.Tensor(np.asarray(values, dtype=np.float64), **kw)


class TestMatmul:
    """Plain matrix products, through ``linear`` with a zero bias."""

    @staticmethod
    def matmul(a, b):
        return tz.linear(a, b, t64(np.zeros(b.values.shape[1])))

    def test_identity(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(self.matmul(a, t64(np.eye(2))).values, a.values)

    def test_direct(self):
        out = self.matmul(t64([[1.0, 2.0], [3.0, 4.0]]), t64([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.values, [[19.0, 22.0], [43.0, 50.0]])

    def test_grad_of_sum_is_column_sums_of_b(self):
        rng = np.random.default_rng(0)
        a = t64(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = t64(rng.uniform(-1, 1, (4, 2)))
        flow = tz.backward(self.matmul(a, b))  # seeded with ones: the gradient of the sum
        expected = np.broadcast_to(b.values.sum(axis=1), (3, 4))
        assert np.allclose(flow[a], expected)
        numeric = finite_difference_gradient(lambda: float(self.matmul(a, b).values.sum()), a.values)
        assert relative_error(flow[a], numeric) < 1e-4

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError):
            self.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))


class TestLogSoftmax:
    def test_uniform(self):
        out = tz.log_softmax_rows(t64(np.zeros((1, 4))))
        assert np.allclose(out.values, np.log(0.25))

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 2, (5, 7))
        a = tz.log_softmax_rows(t64(x)).values
        b = tz.log_softmax_rows(t64(x + 13.7)).values
        assert np.allclose(a, b, atol=1e-12)

    def test_direct_row(self):
        out = tz.log_softmax_rows(t64([[1.0, 2.0, 3.0]]))
        assert np.allclose(out.values, [[-2.4076, -1.4076, -0.4076]], atol=1e-4)

    def test_rows_logsumexp_to_zero_float32(self):
        rng = np.random.default_rng(2)
        x = tz.Tensor(rng.normal(0, 3, (40, 33)).astype(np.float32))
        out = tz.log_softmax_rows(x).values.astype(np.float64)
        lse = np.log(np.exp(out).sum(axis=1))
        assert np.abs(lse).max() < 1e-6


class TestLayerNorm:
    def test_constant_row_absorbed_by_eps(self):
        out = tz.layer_norm(t64(np.full((2, 4), 3.0)), t64(np.ones(4)), t64(np.zeros(4)))
        assert np.allclose(out.values, 0.0)

    def test_zero_gain_gives_bias(self):
        rng = np.random.default_rng(3)
        out = tz.layer_norm(t64(rng.normal(size=(3, 4))), t64(np.zeros(4)), t64([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(out.values, [[1.0, 2.0, 3.0, 4.0]] * 3)

    def test_direct_row(self):
        out = tz.layer_norm(t64([[1.0, 2.0, 3.0]]), t64(np.ones(3)), t64(np.zeros(3)))
        assert np.allclose(out.values, [[-1.2247, 0.0, 1.2247]], atol=1e-3)


class TestMeanOverTime:
    def test_single_row(self):
        row = [[1.0, -2.0, 3.0]]
        assert np.array_equal(tz.mean_over_time(t64(row), (1,)).values, row)

    def test_direct(self):
        assert np.array_equal(tz.mean_over_time(t64([[0.0, 0.0], [2.0, 4.0]]), (2,)).values, [[1.0, 2.0]])

    def test_constant_sequence(self):
        c = np.array([0.5, -1.5, 2.0])
        assert np.allclose(tz.mean_over_time(t64(np.tile(c, (7, 1))), (7,)).values, [c])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(9, 5))
        perm = rng.permutation(9)
        a = tz.mean_over_time(t64(x), (9,)).values
        b = tz.mean_over_time(t64(x[perm]), (9,)).values
        assert np.allclose(a, b, atol=1e-12)

    def test_empty_error(self):
        with pytest.raises(ConfigError):
            tz.mean_over_time(t64(np.zeros((0, 3))), (0,))


class TestPackedSegments:
    def test_mean_and_splice_per_segment(self):
        x = t64([[0.0, 2.0], [2.0, 4.0], [5.0, 5.0], [1.0, 1.0], [3.0, 0.0], [2.0, 2.0]])
        means = tz.mean_over_time(x, (2, 1, 3))
        assert np.array_equal(means.values, [[1.0, 3.0], [5.0, 5.0], [2.0, 1.0]])
        out = tz.prepend_row(means, x, (2, 1, 3)).values
        assert np.array_equal(out[[0, 3, 5]], means.values)
        assert np.array_equal(out[[1, 2, 4, 6, 7, 8]], x.values)

    def test_segments_must_partition_rows(self):
        x = t64(np.ones((4, 2)))
        with pytest.raises(ConfigError):
            tz.mean_over_time(x, (2, 1))
        with pytest.raises(ConfigError):
            tz.prepend_row(t64(np.ones((3, 2))), x, (2, 2))

    def test_attention_is_block_diagonal(self):
        rng = np.random.default_rng(6)
        seg = (3, 1, 5)
        q, k, v = (t64(rng.normal(size=(9, 4))) for _ in range(3))
        packed = tz.multi_head_attention(q, k, v, 2, seg).values
        start = 0
        for n in seg:
            rows = slice(start, start + n)
            alone = tz.multi_head_attention(t64(q.values[rows]), t64(k.values[rows]), t64(v.values[rows]), 2, (n,))
            assert np.allclose(packed[rows], alone.values, atol=1e-12)
            start += n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_is_bitwise_one_call_per_segment(self, dtype):
        rng = np.random.default_rng(10)
        for _ in range(8):
            seg = [int(n) for n in rng.integers(1, 81, size=int(rng.integers(1, 9)))]
            seg[int(rng.integers(len(seg)))] = 1
            q, k, v, g = (rng.normal(size=(sum(seg), 16)).astype(dtype) for _ in range(4))
            packed = tz.multi_head_attention(*(tz.Tensor(a, requires_grad=True) for a in (q, k, v)), 4, seg)
            packed_grads = packed._backward(g)
            start = 0
            for n in seg:
                rows = slice(start, start + n)
                alone = tz.multi_head_attention(*(tz.Tensor(a[rows], requires_grad=True) for a in (q, k, v)), 4, (n,))
                assert np.array_equal(packed.values[rows], alone.values)
                for got, want in zip(packed_grads, alone._backward(g[rows])):
                    assert np.array_equal(got[rows], want)
                start += n

    def test_attention_operands_must_share_one_shape(self):
        rng = np.random.default_rng(7)
        k, v = t64(rng.normal(size=(4, 4))), t64(rng.normal(size=(4, 4)))
        for q in (t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(5, 4)))):
            with pytest.raises(ConfigError):
                tz.multi_head_attention(q, k, v, 2, (4,))

    def test_row_slice_is_a_view_with_scattered_gradient(self):
        x = t64(np.arange(8.0).reshape(4, 2), requires_grad=True)
        part = tz.row_slice(x, 1, 3)
        assert np.shares_memory(part.values, x.values)
        flow = tz.backward(part)
        assert np.array_equal(flow[x], [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])


class TestLinear:
    def test_no_input_gradient_for_constant_input(self):
        rng = np.random.default_rng(8)
        x = t64(rng.normal(size=(3, 4)))
        w = t64(rng.normal(size=(4, 2)), requires_grad=True)
        b = t64(np.zeros(2), requires_grad=True)
        out = tz.linear(x, w, b)
        gx, gw, gb = out._backward(np.ones((3, 2)))
        assert gx is None
        assert np.allclose(gw, x.values.T @ np.ones((3, 2))) and np.array_equal(gb, [3.0, 3.0])
        assert tz.linear(t64(x.values, requires_grad=True), w, b)._backward(np.ones((3, 2)))[0] is not None


class TestBackward:
    def test_identity(self):
        x = t64([[2.0]], requires_grad=True)
        flow = tz.backward(tz.scale(x, 1.0), seed=np.ones((1, 1)))
        assert np.array_equal(flow[x], [[1.0]])

    def test_seed_shape_mismatch(self):
        x = t64([[1.0, 2.0]], requires_grad=True)
        out = tz.scale(x, 2.0)
        with pytest.raises(ConfigError):
            tz.backward(out, seed=np.ones(3))

    def test_accumulation_across_calls(self):
        x = t64([1.0, 2.0], requires_grad=True)
        out = tz.exp(x)
        tz.backward(out)
        once = x.grad.copy()
        tz.backward(out)
        assert np.array_equal(x.grad, 2 * once)

    def test_replay_is_bitwise_identical(self):
        rng = np.random.default_rng(5)
        x = tz.Tensor(rng.normal(size=(4, 6)).astype(np.float32), requires_grad=True)
        w = tz.Tensor(rng.normal(size=(6, 6)).astype(np.float32), requires_grad=True)
        ones, zeros = tz.Tensor(np.ones(6, np.float32)), tz.Tensor(np.zeros(6, np.float32))
        out = tz.gelu(tz.linear(tz.layer_norm(x, ones, zeros), w, zeros))
        tz.backward(out)
        g1 = (x.grad.copy(), w.grad.copy())
        x.grad = None
        w.grad = None
        tz.backward(out)
        assert np.array_equal(g1[0], x.grad) and np.array_equal(g1[1], w.grad)

    def test_record_is_topological(self):
        x = t64([[1.0, 2.0]], requires_grad=True)
        y = tz.add(x, x)
        z = tz.add(tz.exp(y), y)
        record = tz.linearize(z)
        position = {id(t): i for i, t in enumerate(record)}
        for node in record:
            for parent in node._parents:
                assert position[id(parent)] < position[id(node)]

    def test_sweep_frees_intermediate_gradients(self):
        # a 40-op chain: the sweep must not hold every link's gradient at once
        import tracemalloc

        x = t64(np.random.default_rng(9).normal(size=200_000), requires_grad=True)
        out = x
        for _ in range(40):
            out = tz.scale(out, 1.0)
        tracemalloc.start()
        try:
            flow = tz.backward(out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.values.nbytes
        assert list(flow) == [x] and np.array_equal(x.grad, np.ones(200_000))

    def test_grad_is_owned_and_accumulates_in_place(self):
        # add hands one array to both parents: the first .grad must be a copy
        a, b = t64([1.0, 2.0], requires_grad=True), t64([3.0, 4.0], requires_grad=True)
        out = tz.add(a, b)
        tz.backward(out)
        assert not np.shares_memory(a.grad, b.grad)
        grad_a = a.grad
        tz.backward(out)
        assert a.grad is grad_a and np.array_equal(a.grad, [2.0, 2.0]) and np.array_equal(b.grad, [2.0, 2.0])

    def test_diamond_gradient(self):
        x = t64([[1.0, -0.5, 0.25]], requires_grad=True)
        y = tz.add(x, x)
        out = tz.add(tz.exp(y), y)  # y feeds two paths: d/dx = 2 exp(2x) + 2
        flow = tz.backward(out)
        assert np.allclose(flow[x], 2.0 * np.exp(2.0 * x.values) + 2.0)


def _read_only(a):
    a.flags.writeable = False
    return a


def _recorded_ops() -> set[str]:
    """Every function of ``sshr.tensor`` that records a node through
    ``_op``, and ``ctc_loss``."""
    ops = set()
    for module in (tz, ctc):
        for name, f in vars(module).items():
            if inspect.isfunction(f) and f.__module__ == module.__name__ and "_op(" in inspect.getsource(f):
                ops.add(name)
    return ops - {"_op"}


RECORDED_OPS = _recorded_ops()


class TestBackwardContract:
    """``backward`` shares gradient arrays instead of copying them, so a
    rule may write into neither its incoming gradient nor its forward
    inputs and output: all of them are read-only here."""

    def test_every_primitive_is_listed(self):
        # each recorded op has a finite-difference entry of its own name
        assert "ctc_loss" in RECORDED_OPS and "row_slice" in RECORDED_OPS
        assert RECORDED_OPS <= set(CHECKS)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(RECORDED_OPS & set(CHECKS)))
    def test_rule_writes_into_nothing_it_receives(self, name, dtype):
        op, shapes = CHECKS[name]
        rng = np.random.default_rng(11)
        inputs = [tz.Tensor(_read_only(rng.normal(size=s).astype(dtype)), requires_grad=True) for s in shapes]
        out = op(*inputs)
        _read_only(out.values)
        g = _read_only(rng.normal(size=out.values.shape).astype(dtype))
        grads = out._backward(g)
        assert len(grads) == len(inputs)
        for x, gx in zip(inputs, grads):
            assert gx.shape == x.values.shape


class TestFiniteChecks:
    def test_nan_raises(self):
        with pytest.raises(NonFiniteError):
            tz.Tensor(np.array([1.0, np.nan]))

    def test_inf_from_op_raises(self):
        big = tz.Tensor(np.array([[1e308]]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            tz.add(big, big)


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = t64([[1.0, 2.0]], requires_grad=True)
        with tz.no_grad():
            out = tz.scale(x, 3.0)
        assert out._parents == () and out._backward is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = tz.Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
    proj = rng.uniform(-1, 1, (4, 6))
    for op in (tz.gelu, tz.exp, lambda t: tz.log_softmax_rows(t)):
        err = check_scalar_graph(lambda: op(x), {"x": x}, proj)
        assert err < 1e-4
