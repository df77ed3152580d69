"""Tesseract's linear, LayerNorm and layout — what §3.2 changes in a layer.

Data layouts on the ``[q, q, d]`` grid (rank coordinates (i, j, k)):

* activations ``[b, s, h]`` are **A-layout**: the batch splits into ``d*q``
  bands (this rank holds band ``h = i + k*q``) and the hidden dimension
  into ``q`` column slices (this rank holds slice ``j``) — the paper's
  ``[b/dq, s, h/q]``;
* weights are **B-layout**: ``[q, q]`` blocks replicated across depth;
* biases / LayerNorm affine parameters hold the ``[h/q]`` slice ``j``,
  replicated along columns and depth.

The layer is the serial skeleton of :mod:`repro.parallel.layers` over
:class:`TesseractLayout`: matmuls routed through :mod:`repro.pblas.tesseract`
(:class:`TesseractLinear`), a row all-reduce for LayerNorm statistics
(§3.2.2, :class:`TesseractLayerNorm`), and a column+depth all-reduce for the
gradients of column-replicated parameters.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.grid.context import ParallelContext
from repro.nn.attention import fused_qkv_weight
from repro.nn.module import Module
from repro.parallel.common import (
    allreduce_batch,
    allreduce_col_depth,
    allreduce_col_depth_many,
    block_2d,
    fused_block_2d,
    gather_a_layout,
    global_xavier,
)
from repro.parallel.layers import Layout, TransformerLayer
from repro.pblas.layouts import combine_c
from repro.pblas.tesseract import tesseract_ab, tesseract_abt, tesseract_atb
from repro.util.mathutil import check_divides, prod
from repro.varray import ops, vinit
from repro.varray.varray import VArray

__all__ = [
    "local_block_a",
    "TesseractLinear",
    "TesseractLayerNorm",
    "TesseractLayout",
    "TesseractTransformerLayer",
]


def local_block_a(pc: ParallelContext, x: np.ndarray) -> np.ndarray:
    """This rank's A-layout block of a global activation tensor (host side)."""
    return TesseractLayout(pc).block(x)


class TesseractLinear(Module):
    """Y = X @ W + b with W in B-layout and X/Y in A-layout.

    ``in_features`` / ``out_features`` are the *global* dimensions.  The
    local weight block is the (i, j) block of the same global Xavier draw
    the serial :class:`repro.nn.Linear` makes, so the distributed layer is
    numerically identical to the serial one.

    ``fused_parts > 1`` builds a fused projection (e.g. QKV): the global
    weight is ``fused_parts`` independent ``[in, out/fused_parts]`` draws
    and the local block interleaves their (i, j) blocks, so the local
    output splits cleanly into per-part column slices.
    """

    def __init__(
        self,
        pc: ParallelContext,
        in_features: int,
        out_features: int,
        bias: bool = True,
        init_tags: tuple = ("linear",),
        fused_parts: int = 1,
    ):
        super().__init__(pc.ctx)
        self.pc = pc
        self.in_features = in_features
        self.out_features = out_features
        q = pc.q
        in_local = check_divides(q, in_features, "linear in_features")
        out_local = check_divides(q, out_features, "linear out_features")
        if self.ctx.symbolic:
            w = VArray.symbolic((in_local, out_local))
        elif fused_parts == 1:
            full = global_xavier(self.ctx, (in_features, out_features), init_tags)
            w = VArray.from_numpy(block_2d(full, q, pc.i, pc.j))
        else:
            part_out = check_divides(fused_parts, out_features, "fused out_features")
            if part_out != in_features:
                # The only fused projection in the transformer is QKV where
                # each part is square [h, h]; keep the restriction explicit.
                raise ShapeError(
                    f"fused linear expects square parts, got in={in_features} "
                    f"part_out={part_out}"
                )
            parts = np.split(
                fused_qkv_weight(self.ctx, in_features, init_tags), 3, axis=1)
            w = VArray.from_numpy(fused_block_2d(parts, q, pc.i, pc.j))
        self.w = self.add_param("w", w, layout="grid_block",
                                parts=fused_parts)
        if bias:
            b = (
                VArray.symbolic((out_local,))
                if self.ctx.symbolic
                else VArray.from_numpy(vinit.zeros((out_local,)))
            )
            self.b = self.add_param("b", b, layout="col_slice")
        else:
            self.b = None

    def forward(self, x: VArray) -> VArray:
        y = tesseract_ab(self.pc, x, self.w.value, tag="tlinear_fwd")
        if self.b is not None:
            y = ops.add(self.ctx, y, self.b.value, tag="tlinear_bias")
        self.save_for_backward(x)
        return y

    def backward(self, dy: VArray) -> VArray:
        (x,) = self.saved()
        ctx, pc = self.ctx, self.pc
        # dX = dY @ Wᵀ — works directly on [.., out/q] tensors.
        dx = tesseract_abt(pc, dy, self.w.value, tag="tlinear_dx")
        # dW = Xᵀ @ dY — flatten leading dims, then all-reduce over depth.
        rows = prod(x.shape[:-1])
        x2d = ops.reshape(ctx, x, (rows, x.shape[-1]))
        dy2d = ops.reshape(ctx, dy, (rows, dy.shape[-1]))
        dw = tesseract_atb(pc, x2d, dy2d, reduce_depth=True, tag="tlinear_dw")
        self.w.accumulate(dw)
        if self.b is not None:
            db_local = ops.reduce_sum(ctx, dy2d, axis=0, keepdims=False,
                                      tag="tlinear_db")
            db = allreduce_col_depth(pc, db_local, tag="tlinear_db")
            self.b.accumulate(db)
        return dx


class TesseractLayerNorm(Module):
    """Distributed LayerNorm over the (column-split) hidden dimension.

    §3.2.2: each rank computes local Σx and Σx² over its ``h/q`` slice,
    all-reduces them along the row to obtain E[X] and Var[X] (Eq. 13), and
    normalizes locally; the backward pass (Eq. 14) all-reduces the two
    per-row inner products the same way.
    """

    def __init__(self, pc: ParallelContext, dim: int, eps: float = 1e-5):
        super().__init__(pc.ctx)
        self.pc = pc
        self.dim = dim  #: global hidden size
        self.eps = eps
        local = check_divides(pc.q, dim, "layernorm dim")
        if self.ctx.symbolic:
            g = VArray.symbolic((local,))
            b = VArray.symbolic((local,))
        else:
            g = VArray.from_numpy(vinit.ones((local,)))
            b = VArray.from_numpy(vinit.zeros((local,)))
        self.g = self.add_param("g", g, layout="col_slice")
        self.b = self.add_param("b", b, layout="col_slice")

    def _row_means(self, pairs: list[tuple[VArray, str]]) -> list[VArray]:
        """Several row means in one fused batch window (same bytes, one
        rendezvous) — LayerNorm always needs them in same-group pairs."""
        ctx, pc = self.ctx, self.pc
        sums = [
            ops.reduce_sum(ctx, v, axis=-1, keepdims=True, tag=tag)
            for v, tag in pairs
        ]
        totals = allreduce_batch(pc.row_comm, sums, tag=pairs[0][1])
        return [
            ops.scale(ctx, t, 1.0 / self.dim, tag=tag)
            for t, (_, tag) in zip(totals, pairs)
        ]

    def forward(self, x: VArray) -> VArray:
        ctx = self.ctx
        mean, mean_sq = self._row_means(
            [(x, "tln_mean"), (ops.square(ctx, x, tag="tln_sq"), "tln_meansq")]
        )
        # Var[X] = E[X^2] - E[X]^2 (the paper's formulation).
        var = ops.sub(ctx, mean_sq, ops.square(ctx, mean, tag="tln_var"),
                      tag="tln_var")
        inv_std = ops.reciprocal(
            ctx,
            ops.sqrt(
                ctx,
                ops.add(ctx, var, _eps_const(var, self.eps), tag="tln_std"),
                tag="tln_std",
            ),
            tag="tln_invstd",
        )
        xhat = ops.mul(ctx, ops.sub(ctx, x, mean, tag="tln_center"), inv_std,
                       tag="tln_xhat")
        y = ops.add(ctx, ops.mul(ctx, xhat, self.g.value, tag="tln_gain"),
                    self.b.value, tag="tln_bias")
        self.save_for_backward(xhat, inv_std)
        return y

    def backward(self, dy: VArray) -> VArray:
        xhat, inv_std = self.saved()
        ctx, pc = self.ctx, self.pc
        # Affine parameter grads: local sum over rows, synced over (col, depth).
        dg = ops.mul(ctx, dy, xhat, tag="tln_dg")
        while dg.ndim > 1:
            dg = ops.reduce_sum(ctx, dg, axis=0, keepdims=False, tag="tln_dg")
        db = dy
        while db.ndim > 1:
            db = ops.reduce_sum(ctx, db, axis=0, keepdims=False, tag="tln_db")
        dg, db = allreduce_col_depth_many(pc, [dg, db], tag="tln_dgdb")
        self.g.accumulate(dg)
        self.b.accumulate(db)
        # Input grad (Eq. 14): the two means run over the global hidden dim.
        dxhat = ops.mul(ctx, dy, self.g.value, tag="tln_dxhat")
        m1, m2 = self._row_means(
            [(dxhat, "tln_m1"),
             (ops.mul(ctx, dxhat, xhat, tag="tln_xdx"), "tln_m2")]
        )
        inner = ops.sub(
            ctx,
            ops.sub(ctx, dxhat, m1, tag="tln_sub"),
            ops.mul(ctx, xhat, m2, tag="tln_proj"),
            tag="tln_sub",
        )
        return ops.mul(ctx, inner, inv_std, tag="tln_dx")


def _eps_const(ref: VArray, eps: float) -> VArray:
    return VArray.full((1,), eps, dtype=ref.dtype, symbolic=ref.is_symbolic)


class TesseractLayout(Layout):
    """The ``[q, q, d]`` grid in the one layer skeleton
    (:mod:`repro.parallel.layers`); Optimus is its ``d = 1`` case.

    Activations are A-layout blocks (batch band ``i + k*q`` of ``d*q``,
    hidden slice ``j`` of ``q``), every linear is a :class:`TesseractLinear`,
    LayerNorm reduces its statistics along the row, each rank holds ``n/q``
    whole heads, and the head all-gathers its logits along the row.
    """

    family = "Tesseract"
    tag = "tattn"
    slice_layout = "col_slice"

    def __init__(self, pc: ParallelContext):
        super().__init__(pc.ctx)
        self.pc = pc
        self.head_comm = pc.row_comm
        self.tp = self.cols = pc.q
        self.index = self.col = pc.j
        self.bands, self.band = pc.d * pc.q, pc.block_row

    def linear(self, in_features: int, out_features: int, init_tags: tuple,
               row: bool = False, fused_parts: int = 1) -> Module:
        return TesseractLinear(self.pc, in_features, out_features,
                               init_tags=init_tags, fused_parts=fused_parts)

    def layernorm(self, dim: int) -> Module:
        return TesseractLayerNorm(self.pc, dim)

    def scatter(self, x: VArray) -> VArray:
        ctx = self.ctx
        band = ops.split(ctx, x, self.bands, axis=0, tag="a_slice")[self.band]
        return ops.split(ctx, band, self.cols, axis=-1, tag="a_slice")[self.col]

    def gather(self, dx: VArray, tag: str) -> VArray:
        return gather_a_layout(self.pc, dx, tag=tag)

    def sync(self, grad: VArray, tag: str) -> VArray:
        return allreduce_col_depth(self.pc, grad, tag=tag)

    def combine(self, blocks: dict) -> np.ndarray:
        return combine_c(blocks, self.pc.q, self.pc.d)


#: the one layer under the name ``benchmarks/e2e/e2e_tracer.py`` wraps
TesseractTransformerLayer = TransformerLayer
