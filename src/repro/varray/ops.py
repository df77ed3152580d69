"""Device operations on :class:`~repro.varray.varray.VArray`.

Every function takes the owning :class:`~repro.sim.engine.RankContext`
first and charges the op's flops and memory traffic to that rank's virtual
clock before returning.  In real mode the numerics run through numpy; in
symbolic mode only shape inference runs.  Mixed operands are allowed: if
any input is symbolic, the output is symbolic.

Flop conventions (matching the usual DL accounting):

* matmul of [m,k] x [k,n]: ``2*m*k*n`` (multiply + add);
* elementwise ops: one flop per output element;
* reductions: one flop per input element;
* softmax: five flops per element (max, sub, exp, sum, div);
* data-movement ops (transpose, concat, split) cost zero flops but full
  memory traffic.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.varray.varray import VArray

__all__ = [
    "exact_kernels",
    "exact_kernels_enabled",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "neg",
    "exp",
    "sqrt",
    "square",
    "reciprocal",
    "tanh",
    "power",
    "gelu",
    "gelu_grad",
    "relu",
    "relu_grad",
    "softmax",
    "softmax_grad",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "transpose",
    "swap_last_two",
    "reshape",
    "concat",
    "split",
    "take_rows",
    "add_at_rows",
    "cast",
    "argmax",
]


# --- exact (slice-stable) kernels -------------------------------------------------
#
# BLAS dispatches different microkernels by shape (gemv for single-row
# operands, blocked gemm otherwise) and numpy's pairwise summation changes
# its reduction tree with the axis length, so in general
# ``(x @ w)[t:t+1] != x[t:t+1] @ w`` bitwise and a masked softmax row is not
# bitwise equal to the same softmax over the unmasked prefix.  The exact
# kernels below replace the contraction in matmul and the denominator sum in
# softmax with a strict sequential fold over the contraction index: each
# output element becomes an index-stable left fold, so slicing batch rows,
# output columns, or appending exactly-zero tail terms cannot change a
# single bit.  That is what lets incremental decoding (KV cache) reproduce
# the full-sequence forward bit-for-bit — see ``repro/serve``.

_EXACT_KERNELS = False


def exact_kernels_enabled() -> bool:
    """True while :func:`exact_kernels` is active."""
    return _EXACT_KERNELS


@contextlib.contextmanager
def exact_kernels(enabled: bool = True):
    """Route matmul/softmax through slice-stable sequential-fold kernels.

    Slower than BLAS, so opt-in: the serving decode path and the
    decode-equivalence tests wrap their runs in this context.  The flag is
    module-global and read at op-execution time, so it applies to every
    rank thread of an :class:`~repro.sim.engine.Engine` run started inside
    the context.
    """
    global _EXACT_KERNELS
    prev = _EXACT_KERNELS
    _EXACT_KERNELS = enabled
    try:
        yield
    finally:
        _EXACT_KERNELS = prev


def _fold_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matmul as a strict left fold over the contraction index."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out = out + a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def _fold_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Keepdims sum along ``axis`` as a strict left fold."""
    ax = axis % x.ndim
    idx: list = [slice(None)] * x.ndim
    idx[ax] = slice(0, 1)
    out = x[tuple(idx)].copy()
    for j in range(1, x.shape[ax]):
        idx[ax] = slice(j, j + 1)
        out = out + x[tuple(idx)]
    return out


# --- helpers ---------------------------------------------------------------------


_INT64 = np.dtype(np.int64)


def _result(shape: tuple[int, ...], dtype: np.dtype, value_fn, symbolic: bool) -> VArray:
    """Build the output VArray, evaluating ``value_fn`` only in real mode.

    ``shape`` and ``dtype`` come from the op's own inference (a tuple of
    ints derived from validated operand shapes, an operand's ``np.dtype``),
    and the real value is checked against them here, so the output is built
    with the trusted constructor.
    """
    if symbolic:
        return VArray._trusted(shape, dtype, None)
    value = np.asarray(value_fn(), dtype=dtype)
    if value.shape != shape:
        raise ShapeError(
            f"op produced shape {value.shape}, inference said {shape}"
        )
    return VArray._trusted(shape, dtype, value)


@functools.lru_cache(maxsize=4096)
def _broadcast_shape(sa: tuple[int, ...], sb: tuple[int, ...]) -> tuple[int, ...]:
    """numpy's broadcast rule, asked once per distinct pair of shapes."""
    try:
        return tuple(np.broadcast_shapes(sa, sb))
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {sa} with {sb}") from exc


def _axis(op: str, shape: tuple[int, ...], axis: int) -> int:
    """Normalize ``axis`` against ``shape``; a 0-d array has no axis."""
    if not shape:
        raise ShapeError(f"{op} along axis {axis} of a 0-d array (shape {shape})")
    return axis % len(shape)


def _binary(ctx, a: VArray, b: VArray, np_fn, flops_per_el: float, tag: str) -> VArray:
    shape = a.shape
    if shape == b.shape:
        out_size = a.size
    else:
        shape = _broadcast_shape(shape, b.shape)
        out_size = math.prod(shape)
    ctx.compute(
        flops_per_el * out_size,
        a.nbytes + b.nbytes + out_size * a.dtype.itemsize,
        tag,
    )
    return _result(
        shape, a.dtype, lambda: np_fn(a.numpy(), b.numpy()),
        a.data is None or b.data is None,
    )


def _unary(ctx, a: VArray, np_fn, flops_per_el: float, tag: str) -> VArray:
    ctx.compute(flops_per_el * a.size, 2 * a.nbytes, tag)
    return _result(a.shape, a.dtype, lambda: np_fn(a.numpy()), a.data is None)


# --- matmul ---------------------------------------------------------------------


def matmul(
    ctx,
    a: VArray,
    b: VArray,
    transpose_a: bool = False,
    transpose_b: bool = False,
    tag: str = "matmul",
) -> VArray:
    """(Batched) matrix multiply with optional transposes on the last two axes.

    Shapes follow :func:`numpy.matmul`: leading (batch) dimensions must
    match exactly or be absent on one side.
    """
    a_shape, b_shape = a.shape, b.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a_shape} x {b_shape}")
    m, ka = a_shape[-2:]
    if transpose_a:
        m, ka = ka, m
    kb, n = b_shape[-2:]
    if transpose_b:
        kb, n = n, kb
    if ka != kb:
        raise ShapeError(
            f"matmul inner dims differ: {a_shape}"
            f"{'ᵀ' if transpose_a else ''} x {b_shape}{'ᵀ' if transpose_b else ''}"
        )
    batch_a, batch_b = a_shape[:-2], b_shape[:-2]
    if batch_a and batch_b and batch_a != batch_b:
        raise ShapeError(f"matmul batch dims differ: {batch_a} vs {batch_b}")
    batch = batch_a or batch_b
    shape = batch + (m, n)
    nbatch = math.prod(batch)
    ctx.compute(
        2.0 * nbatch * m * ka * n,
        a.nbytes + b.nbytes + nbatch * m * n * a.dtype.itemsize,
        tag,
        float(min(m, ka, n)),
    )

    def value():
        x = a.numpy()
        y = b.numpy()
        if transpose_a:
            x = np.swapaxes(x, -1, -2)
        if transpose_b:
            y = np.swapaxes(y, -1, -2)
        if _EXACT_KERNELS:
            return _fold_matmul(x, y)
        return np.matmul(x, y)

    return _result(shape, a.dtype, value, a.data is None or b.data is None)


# --- elementwise binary ----------------------------------------------------------


def add(ctx, a: VArray, b: VArray, tag: str = "add") -> VArray:
    """Elementwise (broadcasting) addition."""
    return _binary(ctx, a, b, np.add, 1.0, tag)


def sub(ctx, a: VArray, b: VArray, tag: str = "sub") -> VArray:
    """Elementwise (broadcasting) subtraction."""
    return _binary(ctx, a, b, np.subtract, 1.0, tag)


def mul(ctx, a: VArray, b: VArray, tag: str = "mul") -> VArray:
    """Elementwise (broadcasting) multiplication."""
    return _binary(ctx, a, b, np.multiply, 1.0, tag)


def div(ctx, a: VArray, b: VArray, tag: str = "div") -> VArray:
    """Elementwise (broadcasting) division."""
    return _binary(ctx, a, b, np.divide, 1.0, tag)


def scale(ctx, a: VArray, alpha: float, tag: str = "scale") -> VArray:
    """Multiply by a host scalar."""
    return _unary(ctx, a, lambda x: x * a.dtype.type(alpha), 1.0, tag)


def neg(ctx, a: VArray, tag: str = "neg") -> VArray:
    """Elementwise negation."""
    return _unary(ctx, a, np.negative, 1.0, tag)


# --- elementwise unary -----------------------------------------------------------


def exp(ctx, a: VArray, tag: str = "exp") -> VArray:
    """Elementwise exponential."""
    return _unary(ctx, a, np.exp, 1.0, tag)


def sqrt(ctx, a: VArray, tag: str = "sqrt") -> VArray:
    """Elementwise square root."""
    return _unary(ctx, a, np.sqrt, 1.0, tag)


def square(ctx, a: VArray, tag: str = "square") -> VArray:
    """Elementwise square."""
    return _unary(ctx, a, np.square, 1.0, tag)


def reciprocal(ctx, a: VArray, tag: str = "reciprocal") -> VArray:
    """Elementwise 1/x."""
    return _unary(ctx, a, lambda x: 1.0 / x, 1.0, tag)


def tanh(ctx, a: VArray, tag: str = "tanh") -> VArray:
    """Elementwise tanh."""
    return _unary(ctx, a, np.tanh, 1.0, tag)


def power(ctx, a: VArray, p: float, tag: str = "power") -> VArray:
    """Elementwise power with a host scalar exponent."""
    return _unary(ctx, a, lambda x: np.power(x, p), 1.0, tag)


# --- activations ----------------------------------------------------------------

_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_np(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def _gelu_grad_np(x: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner


def gelu(ctx, a: VArray, tag: str = "gelu") -> VArray:
    """GELU activation (tanh approximation, as in BERT/Megatron)."""
    return _unary(ctx, a, _gelu_np, 8.0, tag)


def gelu_grad(ctx, a: VArray, da: VArray, tag: str = "gelu_grad") -> VArray:
    """Gradient of GELU wrt its input, given the saved input ``a``."""
    return _binary(ctx, a, da, lambda x, d: _gelu_grad_np(x) * d, 10.0, tag)


def relu(ctx, a: VArray, tag: str = "relu") -> VArray:
    """ReLU activation."""
    return _unary(ctx, a, lambda x: np.maximum(x, 0), 1.0, tag)


def relu_grad(ctx, a: VArray, da: VArray, tag: str = "relu_grad") -> VArray:
    """Gradient of ReLU wrt its input, given the saved input ``a``."""
    return _binary(ctx, a, da, lambda x, d: (x > 0) * d, 2.0, tag)


# --- softmax ---------------------------------------------------------------------


def softmax(ctx, a: VArray, axis: int = -1, tag: str = "softmax") -> VArray:
    """Numerically-stable softmax along ``axis``."""

    def value():
        x = a.numpy()
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        if _EXACT_KERNELS:
            return e / _fold_sum(e, axis)
        return e / e.sum(axis=axis, keepdims=True)

    ctx.compute(5.0 * a.size, 2 * a.nbytes, tag)
    return _result(a.shape, a.dtype, value, a.data is None)


def softmax_grad(
    ctx, y: VArray, dy: VArray, axis: int = -1, tag: str = "softmax_grad"
) -> VArray:
    """Gradient of softmax given its *output* ``y`` and upstream ``dy``."""
    if y.shape != dy.shape:
        raise ShapeError(f"softmax_grad shapes differ: {y.shape} vs {dy.shape}")

    def value():
        yv, dv = y.numpy(), dy.numpy()
        dot = (yv * dv).sum(axis=axis, keepdims=True)
        return yv * (dv - dot)

    ctx.compute(4.0 * y.size, 3 * y.nbytes, tag)
    return _result(y.shape, y.dtype, value, y.data is None or dy.data is None)


# --- reductions ------------------------------------------------------------------


def _reduced_shape(
    op: str, shape: tuple[int, ...], axis: int, keepdims: bool
) -> tuple[int, ...]:
    ax = _axis(op, shape, axis)
    if keepdims:
        return shape[:ax] + (1,) + shape[ax + 1 :]
    return shape[:ax] + shape[ax + 1 :]


def reduce_sum(
    ctx, a: VArray, axis: int = -1, keepdims: bool = True, tag: str = "sum"
) -> VArray:
    """Sum along one axis."""
    shape = _reduced_shape("reduce_sum", a.shape, axis, keepdims)
    ctx.compute(float(a.size), a.nbytes, tag)
    return _result(
        shape, a.dtype, lambda: a.numpy().sum(axis=axis, keepdims=keepdims), a.data is None
    )


def reduce_mean(
    ctx, a: VArray, axis: int = -1, keepdims: bool = True, tag: str = "mean"
) -> VArray:
    """Mean along one axis."""
    shape = _reduced_shape("reduce_mean", a.shape, axis, keepdims)
    ctx.compute(float(a.size), a.nbytes, tag)
    return _result(
        shape,
        a.dtype,
        lambda: a.numpy().mean(axis=axis, keepdims=keepdims),
        a.data is None,
    )


def reduce_max(
    ctx, a: VArray, axis: int = -1, keepdims: bool = True, tag: str = "max"
) -> VArray:
    """Max along one axis."""
    shape = _reduced_shape("reduce_max", a.shape, axis, keepdims)
    ctx.compute(float(a.size), a.nbytes, tag)
    return _result(
        shape, a.dtype, lambda: a.numpy().max(axis=axis, keepdims=keepdims), a.data is None
    )


def argmax(ctx, a: VArray, axis: int = -1, tag: str = "argmax") -> VArray:
    """Index of the max along one axis (int64 output)."""
    shape = _reduced_shape("argmax", a.shape, axis, keepdims=False)
    ctx.compute(float(a.size), a.nbytes, tag)
    return _result(shape, _INT64, lambda: a.numpy().argmax(axis=axis), a.data is None)


# --- data movement ---------------------------------------------------------------


def transpose(ctx, a: VArray, axes: Sequence[int], tag: str = "transpose") -> VArray:
    """Permute axes (charged as memory traffic only)."""
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"bad transpose axes {axes} for ndim {a.ndim}")
    shape = tuple([a.shape[i] for i in axes])
    ctx.compute(0.0, 2 * a.nbytes, tag)
    return _result(
        shape,
        a.dtype,
        lambda: np.ascontiguousarray(np.transpose(a.numpy(), axes)),
        a.data is None,
    )


def swap_last_two(ctx, a: VArray, tag: str = "transpose") -> VArray:
    """Transpose the last two axes (the common matmul helper)."""
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(ctx, a, axes, tag=tag)


def reshape(ctx, a: VArray, shape: Sequence[int], tag: str = "reshape") -> VArray:
    """Reshape without data movement (must preserve element count)."""
    shape = tuple([int(s) for s in shape])
    if math.prod(shape) != a.size or min(shape, default=0) < 0:
        raise ShapeError(f"cannot reshape {a.shape} ({a.size} el) to {shape}")
    ctx.compute(0.0, 0.0, tag)
    return _result(shape, a.dtype, lambda: a.numpy().reshape(shape), a.data is None)


def charge_move(ctx, nbytes: int, tag: str, count: int = 1) -> None:
    """Price ``count`` data-movement kernels that each read ``nbytes`` and
    write them back: zero flops, ``2 * nbytes`` of memory traffic.

    The one price of :func:`concat` and :func:`split`; a caller that keeps
    only the token counts of what it moves (the serving KV cache) prices
    the same kernels here without building their arrays.  A batch is
    priced with one lookup (:meth:`~repro.sim.engine.RankContext.compute_each`).
    """
    if count == 1:
        ctx.compute(0.0, 2 * nbytes, tag)
    elif count > 1:
        ctx.compute_each(count, 0.0, 2 * nbytes, tag)


def concat(ctx, arrays: Sequence[VArray], axis: int = 0, tag: str = "concat") -> VArray:
    """Concatenate along an axis."""
    if not arrays:
        raise ShapeError("concat needs at least one array")
    first = arrays[0]
    fshape = first.shape
    nd = len(fshape)
    ax = _axis("concat", fshape, axis)
    head, tail = fshape[:ax], fshape[ax + 1 :]
    along = total_bytes = 0
    symbolic = False
    for arr in arrays:
        shape = arr.shape
        if shape != fshape:  # may differ along ``ax`` only
            if len(shape) != nd:
                raise ShapeError("concat rank mismatch")
            if shape[:ax] != head or shape[ax + 1 :] != tail:
                i = next(i for i in range(nd) if i != ax and shape[i] != fshape[i])
                raise ShapeError(
                    f"concat shape mismatch on axis {i}: {shape} vs {fshape}"
                )
        along += shape[ax]
        total_bytes += arr.nbytes
        if arr.data is None:
            symbolic = True
    charge_move(ctx, total_bytes, tag)
    return _result(
        head + (along,) + tail,
        first.dtype,
        lambda: np.concatenate([a.numpy() for a in arrays], axis=ax),
        symbolic,
    )


def split(
    ctx, a: VArray, sections: int, axis: int = 0, tag: str = "split"
) -> list[VArray]:
    """Split into ``sections`` equal parts along an axis."""
    ashape = a.shape
    ax = _axis("split", ashape, axis)
    if ashape[ax] % sections != 0:
        raise ShapeError(
            f"cannot split axis {ax} of {ashape} into {sections} equal parts"
        )
    shape = ashape[:ax] + (ashape[ax] // sections,) + ashape[ax + 1 :]
    charge_move(ctx, a.nbytes, tag)
    if a.data is None:
        return [VArray._trusted(shape, a.dtype, None) for _ in range(sections)]
    # equal sections of an array of a's dtype: numpy fixes shape and dtype
    return [
        VArray._trusted(shape, a.dtype, np.ascontiguousarray(p))
        for p in np.split(a.data, sections, axis=ax)
    ]


def take_rows(ctx, table: VArray, idx: VArray, tag: str = "take_rows") -> VArray:
    """Row gather (embedding lookup): out[i...] = table[idx[i...]]."""
    if table.ndim != 2:
        raise ShapeError(f"take_rows table must be 2-D, got {table.shape}")
    shape = idx.shape + (table.shape[1],)
    out_bytes = idx.size * table.shape[1] * table.dtype.itemsize
    ctx.compute(0.0, out_bytes * 2, tag)
    return _result(
        shape,
        table.dtype,
        lambda: table.numpy()[idx.numpy()],
        table.data is None or idx.data is None,
    )


def add_at_rows(
    ctx, table_shape: Sequence[int], idx: VArray, values: VArray, tag: str = "add_at"
) -> VArray:
    """Scatter-add rows (embedding gradient): out[idx[i]] += values[i]."""
    table_shape = tuple(int(s) for s in table_shape)
    if len(table_shape) != 2:
        raise ShapeError(f"add_at_rows table must be 2-D, got {table_shape}")
    if values.shape != idx.shape + (table_shape[1],):
        raise ShapeError(
            f"add_at_rows values shape {values.shape} does not match "
            f"idx {idx.shape} + dim {table_shape[1]}"
        )
    ctx.compute(float(values.size), 2 * values.nbytes, tag)
    if idx.data is None or values.data is None:
        return VArray.symbolic(table_shape, values.dtype)
    out = np.zeros(table_shape, dtype=values.dtype)
    np.add.at(out, idx.numpy().reshape(-1), values.numpy().reshape(-1, table_shape[1]))
    return VArray(table_shape, values.dtype, out)


def cast(ctx, a: VArray, dtype: np.dtype | str, tag: str = "cast") -> VArray:
    """Convert dtype (memory traffic only)."""
    dt = np.dtype(dtype)
    ctx.compute(0.0, a.nbytes + a.size * dt.itemsize, tag)
    return _result(a.shape, dt, lambda: a.numpy().astype(dt), a.data is None)
