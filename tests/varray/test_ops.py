"""Tests for the device op library: numerics, shape inference, accounting."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.varray import ops
from repro.varray.varray import VArray


def _v(arr):
    return VArray.from_numpy(np.asarray(arr, dtype=np.float32))


class TestMatmul:
    def test_2d(self, ctx1, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        out = ops.matmul(ctx1, _v(a), _v(b))
        assert np.allclose(out.numpy(), a @ b, atol=1e-5)

    def test_transpose_a(self, ctx1, rng):
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
        out = ops.matmul(ctx1, _v(a), _v(b), transpose_a=True)
        assert np.allclose(out.numpy(), a.T @ b, atol=1e-5)

    def test_transpose_b(self, ctx1, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        out = ops.matmul(ctx1, _v(a), _v(b), transpose_b=True)
        assert np.allclose(out.numpy(), a @ b.T, atol=1e-5)

    def test_batched(self, ctx1, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        out = ops.matmul(ctx1, _v(a), _v(b))
        assert out.shape == (2, 3, 5)
        assert np.allclose(out.numpy(), a @ b, atol=1e-5)

    def test_batched_against_2d(self, ctx1, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        out = ops.matmul(ctx1, _v(a), _v(b))
        assert np.allclose(out.numpy(), a @ b, atol=1e-5)

    def test_symbolic_shape(self, ctx1):
        out = ops.matmul(ctx1, VArray.symbolic((7, 3)), VArray.symbolic((3, 2)))
        assert out.is_symbolic and out.shape == (7, 2)

    def test_inner_dim_mismatch(self, ctx1):
        with pytest.raises(ShapeError, match="inner dims"):
            ops.matmul(ctx1, VArray.symbolic((2, 3)), VArray.symbolic((4, 5)))

    def test_batch_mismatch(self, ctx1):
        with pytest.raises(ShapeError, match="batch"):
            ops.matmul(ctx1, VArray.symbolic((2, 3, 4)), VArray.symbolic((3, 4, 5)))

    def test_1d_rejected(self, ctx1):
        with pytest.raises(ShapeError):
            ops.matmul(ctx1, VArray.symbolic((3,)), VArray.symbolic((3, 2)))

    def test_flop_accounting(self, ctx1):
        before = ctx1.trace.total_flops(ctx1.rank)
        ops.matmul(ctx1, VArray.symbolic((2, 3)), VArray.symbolic((3, 5)))
        added = ctx1.trace.total_flops(ctx1.rank) - before
        assert added == 2 * 2 * 3 * 5


class TestElementwise:
    def test_add_broadcast(self, ctx1):
        out = ops.add(ctx1, _v([[1, 2], [3, 4]]), _v([10, 20]))
        assert np.array_equal(out.numpy(), [[11, 22], [13, 24]])

    def test_sub_mul_div(self, ctx1):
        a, b = _v([6, 8]), _v([2, 4])
        assert np.array_equal(ops.sub(ctx1, a, b).numpy(), [4, 4])
        assert np.array_equal(ops.mul(ctx1, a, b).numpy(), [12, 32])
        assert np.array_equal(ops.div(ctx1, a, b).numpy(), [3, 2])

    def test_broadcast_error(self, ctx1):
        with pytest.raises(ShapeError, match="broadcast"):
            ops.add(ctx1, VArray.symbolic((2, 3)), VArray.symbolic((4,)))

    def test_scale_and_neg(self, ctx1):
        assert np.array_equal(ops.scale(ctx1, _v([1, 2]), 3.0).numpy(), [3, 6])
        assert np.array_equal(ops.neg(ctx1, _v([1, -2])).numpy(), [-1, 2])

    def test_unary_math(self, ctx1):
        x = _v([1.0, 4.0])
        assert np.allclose(ops.sqrt(ctx1, x).numpy(), [1, 2])
        assert np.allclose(ops.square(ctx1, x).numpy(), [1, 16])
        assert np.allclose(ops.reciprocal(ctx1, x).numpy(), [1, 0.25])
        assert np.allclose(ops.exp(ctx1, _v([0.0])).numpy(), [1.0])
        assert np.allclose(ops.tanh(ctx1, _v([0.0])).numpy(), [0.0])
        assert np.allclose(ops.power(ctx1, x, 3).numpy(), [1, 64])

    def test_symbolic_propagates(self, ctx1):
        out = ops.add(ctx1, VArray.symbolic((2,)), _v([1, 2]))
        assert out.is_symbolic


class TestActivations:
    def test_gelu_known_values(self, ctx1):
        out = ops.gelu(ctx1, _v([0.0, 100.0, -100.0])).numpy()
        assert out[0] == pytest.approx(0.0, abs=1e-6)
        assert out[1] == pytest.approx(100.0, rel=1e-4)
        assert out[2] == pytest.approx(0.0, abs=1e-3)

    def test_gelu_grad_finite_difference(self, ctx1):
        x = np.linspace(-2, 2, 9).astype(np.float32)
        eps = 1e-3
        up = ops.gelu(ctx1, _v(x + eps)).numpy()
        dn = ops.gelu(ctx1, _v(x - eps)).numpy()
        num = (up - dn) / (2 * eps)
        ana = ops.gelu_grad(ctx1, _v(x), _v(np.ones_like(x))).numpy()
        assert np.allclose(num, ana, atol=1e-2)

    def test_relu_and_grad(self, ctx1):
        x = _v([-1.0, 0.0, 2.0])
        assert np.array_equal(ops.relu(ctx1, x).numpy(), [0, 0, 2])
        g = ops.relu_grad(ctx1, x, _v([1.0, 1.0, 1.0])).numpy()
        assert np.array_equal(g, [0, 0, 1])


class TestSoftmax:
    def test_rows_sum_to_one(self, ctx1, rng):
        x = rng.normal(size=(4, 7))
        out = ops.softmax(ctx1, _v(x)).numpy()
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_numerically_stable(self, ctx1):
        out = ops.softmax(ctx1, _v([[1000.0, 1000.0]])).numpy()
        assert np.allclose(out, 0.5)

    def test_grad_matches_finite_difference(self, ctx1, rng):
        x = rng.normal(size=(6,)).astype(np.float32)
        dy = rng.normal(size=(6,)).astype(np.float32)
        y = ops.softmax(ctx1, _v(x))
        ana = ops.softmax_grad(ctx1, y, _v(dy)).numpy()
        eps = 1e-3
        num = np.zeros(6)
        for i in range(6):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            yp = ops.softmax(ctx1, _v(xp)).numpy()
            ym = ops.softmax(ctx1, _v(xm)).numpy()
            num[i] = ((yp - ym) * dy).sum() / (2 * eps)
        assert np.allclose(num, ana, atol=1e-2)

    def test_grad_shape_mismatch(self, ctx1):
        with pytest.raises(ShapeError):
            ops.softmax_grad(ctx1, VArray.symbolic((2,)), VArray.symbolic((3,)))


class TestReductions:
    def test_reduce_sum_keepdims(self, ctx1):
        out = ops.reduce_sum(ctx1, _v([[1, 2], [3, 4]]), axis=-1)
        assert out.shape == (2, 1)
        assert np.array_equal(out.numpy(), [[3], [7]])

    def test_reduce_sum_no_keepdims(self, ctx1):
        out = ops.reduce_sum(ctx1, _v([[1, 2], [3, 4]]), axis=0, keepdims=False)
        assert out.shape == (2,)
        assert np.array_equal(out.numpy(), [4, 6])

    def test_reduce_mean(self, ctx1):
        out = ops.reduce_mean(ctx1, _v([[2, 4]]), axis=-1, keepdims=False)
        assert np.array_equal(out.numpy(), [3])

    def test_reduce_max(self, ctx1):
        out = ops.reduce_max(ctx1, _v([[2, 9, 4]]), axis=-1, keepdims=False)
        assert np.array_equal(out.numpy(), [9])

    def test_argmax(self, ctx1):
        out = ops.argmax(ctx1, _v([[1, 5, 2], [7, 0, 1]]))
        assert out.dtype == np.int64
        assert np.array_equal(out.numpy(), [1, 0])

    def test_symbolic_reduction_shape(self, ctx1):
        out = ops.reduce_sum(ctx1, VArray.symbolic((3, 4)), axis=0)
        assert out.shape == (1, 4)


class TestDataMovement:
    def test_transpose(self, ctx1, rng):
        x = rng.normal(size=(2, 3, 4))
        out = ops.transpose(ctx1, _v(x), (2, 0, 1))
        assert out.shape == (4, 2, 3)
        assert np.allclose(out.numpy(), x.transpose(2, 0, 1))

    def test_transpose_bad_axes(self, ctx1):
        with pytest.raises(ShapeError):
            ops.transpose(ctx1, VArray.symbolic((2, 3)), (0, 0))

    def test_swap_last_two(self, ctx1, rng):
        x = rng.normal(size=(2, 3, 4))
        out = ops.swap_last_two(ctx1, _v(x))
        assert out.shape == (2, 4, 3)

    def test_reshape(self, ctx1):
        out = ops.reshape(ctx1, VArray.symbolic((2, 6)), (3, 4))
        assert out.shape == (3, 4)

    def test_reshape_wrong_count(self, ctx1):
        with pytest.raises(ShapeError):
            ops.reshape(ctx1, VArray.symbolic((2, 6)), (5, 3))

    def test_concat(self, ctx1):
        out = ops.concat(ctx1, [_v([[1, 2]]), _v([[3, 4]])], axis=0)
        assert np.array_equal(out.numpy(), [[1, 2], [3, 4]])

    def test_concat_last_axis(self, ctx1):
        out = ops.concat(ctx1, [_v([[1], [2]]), _v([[3], [4]])], axis=-1)
        assert np.array_equal(out.numpy(), [[1, 3], [2, 4]])

    def test_concat_shape_mismatch(self, ctx1):
        with pytest.raises(ShapeError):
            ops.concat(ctx1, [VArray.symbolic((2, 2)), VArray.symbolic((3, 3))],
                       axis=0)

    def test_concat_empty(self, ctx1):
        with pytest.raises(ShapeError):
            ops.concat(ctx1, [], axis=0)

    def test_split_roundtrip(self, ctx1, rng):
        x = rng.normal(size=(4, 6)).astype(np.float32)
        parts = ops.split(ctx1, _v(x), 3, axis=-1)
        assert len(parts) == 3
        back = ops.concat(ctx1, parts, axis=-1)
        assert np.array_equal(back.numpy(), x)

    def test_split_indivisible(self, ctx1):
        with pytest.raises(ShapeError):
            ops.split(ctx1, VArray.symbolic((4, 5)), 2, axis=-1)

    def test_cast(self, ctx1):
        out = ops.cast(ctx1, _v([1.5]), np.float64)
        assert out.dtype == np.float64


class TestRowOps:
    def test_take_rows(self, ctx1):
        table = _v([[0, 0], [1, 1], [2, 2]])
        idx = VArray.from_numpy(np.array([2, 0], dtype=np.int64))
        out = ops.take_rows(ctx1, table, idx)
        assert np.array_equal(out.numpy(), [[2, 2], [0, 0]])

    def test_take_rows_2d_idx(self, ctx1):
        table = _v([[0.0, 1.0], [2.0, 3.0]])
        idx = VArray.from_numpy(np.array([[0, 1], [1, 1]], dtype=np.int64))
        out = ops.take_rows(ctx1, table, idx)
        assert out.shape == (2, 2, 2)

    def test_add_at_rows_accumulates_duplicates(self, ctx1):
        idx = VArray.from_numpy(np.array([0, 0, 1], dtype=np.int64))
        vals = _v([[1, 1], [2, 2], [5, 5]])
        out = ops.add_at_rows(ctx1, (3, 2), idx, vals)
        assert np.array_equal(out.numpy(), [[3, 3], [5, 5], [0, 0]])

    def test_add_at_rows_shape_check(self, ctx1):
        idx = VArray.from_numpy(np.array([0], dtype=np.int64))
        with pytest.raises(ShapeError):
            ops.add_at_rows(ctx1, (3, 2), idx, VArray.symbolic((1, 5)))

    @pytest.mark.parametrize("table_shape", [(3,), (), (3, 2, 1)])
    def test_add_at_rows_table_must_be_2d(self, ctx1, table_shape):
        # a 1-D shape used to escape as IndexError from table_shape[1]
        idx = VArray.from_numpy(np.array([0], dtype=np.int64))
        with pytest.raises(ShapeError, match=r"add_at_rows table must be 2-D"):
            ops.add_at_rows(ctx1, table_shape, idx, _v([[1, 1]]))

    def test_take_rows_boolean_index_is_caught(self, ctx1):
        # a boolean mask selects rows instead of gathering them: the real
        # result's shape differs from the inferred one and must not pass
        table = _v([[0, 0], [1, 1], [2, 2]])
        mask = VArray.from_numpy(np.array([True, False, False]))
        with pytest.raises(ShapeError, match="inference said"):
            ops.take_rows(ctx1, table, mask)


#: ops that take an axis: on a 0-d array ``axis % ndim`` used to divide by zero
AXIS_OPS = {
    "reduce_sum": lambda ctx, a: ops.reduce_sum(ctx, a),
    "reduce_mean": lambda ctx, a: ops.reduce_mean(ctx, a, axis=0),
    "reduce_max": lambda ctx, a: ops.reduce_max(ctx, a, keepdims=False),
    "argmax": lambda ctx, a: ops.argmax(ctx, a),
    "concat": lambda ctx, a: ops.concat(ctx, [a, a]),
    "split": lambda ctx, a: ops.split(ctx, a, 1),
}


class TestZeroDimensional:
    @pytest.mark.parametrize("op", sorted(AXIS_OPS))
    @pytest.mark.parametrize("symbolic", [True, False])
    def test_axis_ops_name_op_and_shape(self, ctx1, op, symbolic):
        a = (VArray.symbolic(()) if symbolic
             else VArray.from_numpy(np.float32(3.0)))
        before = ctx1.clock.now
        with pytest.raises(ShapeError, match=rf"{op} .*0-d.*shape \(\)"):
            AXIS_OPS[op](ctx1, a)
        assert ctx1.clock.now == before  # rejected before anything is charged

    def test_elementwise_ops_still_take_scalars(self, ctx1):
        out = ops.add(ctx1, VArray.from_numpy(np.float32(1.0)), _v([1, 2]))
        assert np.array_equal(out.numpy(), [2, 3])
        assert ops.exp(ctx1, VArray.symbolic(())).shape == ()


class TestShapeInference:
    """The shape prologues that no longer go through numpy on every call."""

    def test_reshape_rejects_negative_dims_with_matching_count(self, ctx1):
        with pytest.raises(ShapeError):
            ops.reshape(ctx1, VArray.symbolic((2, 3)), (-2, -3))

    def test_broadcast_error_is_raised_every_time(self, ctx1):
        # the broadcast rule is memoized; a failure must not be
        for _ in range(2):
            with pytest.raises(ShapeError, match="cannot broadcast"):
                ops.add(ctx1, VArray.symbolic((2, 3)), VArray.symbolic((4,)))

    @pytest.mark.parametrize("sa,sb", [
        ((2, 3), (2, 3)), ((2, 3), (3,)), ((2, 1, 4), (5, 1)), ((), (2, 2)),
        ((0, 3), (1, 3)), ((4, 1), (1, 6)),
    ])
    def test_broadcast_matches_numpy(self, ctx1, sa, sb):
        for _ in range(2):  # cold, then memoized
            out = ops.mul(ctx1, VArray.symbolic(sa), VArray.symbolic(sb))
            assert out.shape == np.broadcast_shapes(sa, sb)

    def test_concat_names_the_mismatching_axis(self, ctx1):
        with pytest.raises(ShapeError, match=r"axis 2: \(2, 5, 4\) vs \(2, 3, 7\)"):
            ops.concat(ctx1, [VArray.symbolic((2, 3, 7)),
                              VArray.symbolic((2, 5, 4))], axis=1)
        with pytest.raises(ShapeError, match="rank mismatch"):
            ops.concat(ctx1, [VArray.symbolic((2, 3)), VArray.symbolic((2,))])

    def test_concat_mixed_lengths_and_symbolic(self, ctx1):
        parts = [_v(np.ones((2, n, 3))) for n in (1, 4, 2)]
        out = ops.concat(ctx1, parts, axis=1)
        assert out.shape == (2, 7, 3) and not out.is_symbolic
        parts[1] = VArray.symbolic((2, 4, 3))
        assert ops.concat(ctx1, parts, axis=-2).astuple() == (
            (2, 7, 3), "float32", True)

    def test_concat_accounting(self, ctx1):
        before = len(ctx1.trace)
        ops.concat(ctx1, [VArray.symbolic((2, 3)), VArray.symbolic((5, 3))])
        event = ctx1.trace.events[before]
        assert (event.flops, event.bytes_touched) == (0.0, 2 * (6 + 15) * 4)

    def test_matmul_accounting_with_transposes(self, ctx1):
        before = len(ctx1.trace)
        ops.matmul(ctx1, VArray.symbolic((2, 7, 3)), VArray.symbolic((5, 7)),
                   transpose_a=True, transpose_b=True)
        event = ctx1.trace.events[before]
        assert event.flops == 2.0 * 2 * 3 * 7 * 5
        assert event.bytes_touched == (2 * 7 * 3 + 5 * 7 + 2 * 3 * 5) * 4
