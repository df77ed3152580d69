"""Megatron-LM 1-D tensor parallelism: its two linears and its layout.

The 1-D scheme (§2.5, Fig. 2): activations are **replicated** on all ``p``
ranks; each block's first weight is column-sharded and its second weight is
row-sharded, giving exactly one all-reduce per block per direction (the "f"
and "g" conjugate operators of the Megatron paper).  This is the baseline
whose ``a*b`` activation-memory term Eq. 9/10 charges against.

LayerNorm and residuals run replicated and identical on every rank, so no
communication (and no gradient sync — every rank computes the same affine
gradients from the same replicated activations).  The layer itself is
:mod:`repro.parallel.layers`' one skeleton over :class:`MegatronLayout`.
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import Communicator
from repro.nn.attention import fused_qkv_weight
from repro.nn.module import Module
from repro.parallel.common import (
    col_shard,
    fused_col_shard,
    global_xavier,
    row_shard,
)
from repro.parallel.layers import Layout, TransformerLayer
from repro.util.mathutil import check_divides, prod
from repro.varray import ops, vinit
from repro.varray.varray import VArray

__all__ = [
    "MegatronColumnLinear",
    "MegatronRowLinear",
    "MegatronLayout",
    "MegatronTransformerLayer",
]


class MegatronColumnLinear(Module):
    """Column-parallel Y = X @ W: replicated input, column-sharded output.

    Forward is communication-free; backward all-reduces the input gradient
    (Megatron's "f"/"g" pair contributes its backward all-reduce here).
    """

    def __init__(
        self,
        comm: Communicator,
        in_features: int,
        out_features: int,
        bias: bool = True,
        init_tags: tuple = ("linear",),
        fused_parts: int = 1,
    ):
        super().__init__(comm.ctx)
        self.comm = comm
        p, r = comm.size, comm.rank
        self.in_features = in_features
        self.out_features = out_features
        out_local = check_divides(p, out_features, "column-parallel out_features")
        if self.ctx.symbolic:
            w = VArray.symbolic((in_features, out_local))
        elif fused_parts == 1:
            full = global_xavier(self.ctx, (in_features, out_features), init_tags)
            w = VArray.from_numpy(col_shard(full, p, r))
        else:
            parts = np.split(
                fused_qkv_weight(self.ctx, in_features, init_tags), 3, axis=1)
            w = VArray.from_numpy(fused_col_shard(parts, p, r))
        self.w = self.add_param("w", w, layout="sharded")
        if bias:
            b = (
                VArray.symbolic((out_local,))
                if self.ctx.symbolic
                else VArray.from_numpy(vinit.zeros((out_local,)))
            )
            self.b = self.add_param("b", b, layout="sharded")
        else:
            self.b = None

    def forward(self, x: VArray) -> VArray:
        y = ops.matmul(self.ctx, x, self.w.value, tag="mcol_fwd")
        if self.b is not None:
            y = ops.add(self.ctx, y, self.b.value, tag="mcol_bias")
        self.save_for_backward(x)
        return y

    def backward(self, dy: VArray) -> VArray:
        (x,) = self.saved()
        ctx = self.ctx
        rows = prod(x.shape[:-1])
        x2d = ops.reshape(ctx, x, (rows, x.shape[-1]))
        dy2d = ops.reshape(ctx, dy, (rows, dy.shape[-1]))
        self.w.accumulate(
            ops.matmul(ctx, x2d, dy2d, transpose_a=True, tag="mcol_dw")
        )
        if self.b is not None:
            # The batch is replicated, so the local sum is already global.
            self.b.accumulate(
                ops.reduce_sum(ctx, dy2d, axis=0, keepdims=False, tag="mcol_db")
            )
        dx_partial = ops.matmul(ctx, dy, self.w.value, transpose_b=True,
                                tag="mcol_dx")
        return self.comm.all_reduce(dx_partial, tag="mcol_dx")


class MegatronRowLinear(Module):
    """Row-parallel Y = X @ W: column-sharded input, all-reduced output.

    Forward ends with the all-reduce; backward is communication-free for
    the input gradient.  The bias is replicated and added after the
    all-reduce (every rank adds it identically, as in Megatron-LM).
    """

    def __init__(
        self,
        comm: Communicator,
        in_features: int,
        out_features: int,
        bias: bool = True,
        init_tags: tuple = ("linear",),
    ):
        super().__init__(comm.ctx)
        self.comm = comm
        p, r = comm.size, comm.rank
        self.in_features = in_features
        self.out_features = out_features
        check_divides(p, in_features, "row-parallel in_features")
        if self.ctx.symbolic:
            w = VArray.symbolic((in_features // p, out_features))
        else:
            full = global_xavier(self.ctx, (in_features, out_features), init_tags)
            w = VArray.from_numpy(row_shard(full, p, r))
        self.w = self.add_param("w", w, layout="sharded")
        if bias:
            b = (
                VArray.symbolic((out_features,))
                if self.ctx.symbolic
                else VArray.from_numpy(vinit.zeros((out_features,)))
            )
            self.b = self.add_param("b", b)
        else:
            self.b = None

    def forward(self, x: VArray) -> VArray:
        y_partial = ops.matmul(self.ctx, x, self.w.value, tag="mrow_fwd")
        y = self.comm.all_reduce(y_partial, tag="mrow_fwd")
        if self.b is not None:
            y = ops.add(self.ctx, y, self.b.value, tag="mrow_bias")
        self.save_for_backward(x)
        return y

    def backward(self, dy: VArray) -> VArray:
        (x,) = self.saved()
        ctx = self.ctx
        rows = prod(x.shape[:-1])
        x2d = ops.reshape(ctx, x, (rows, x.shape[-1]))
        dy2d = ops.reshape(ctx, dy, (rows, dy.shape[-1]))
        self.w.accumulate(
            ops.matmul(ctx, x2d, dy2d, transpose_a=True, tag="mrow_dw")
        )
        if self.b is not None:
            self.b.accumulate(
                ops.reduce_sum(ctx, dy2d, axis=0, keepdims=False, tag="mrow_db")
            )
        return ops.matmul(ctx, dy, self.w.value, transpose_b=True, tag="mrow_dx")


class MegatronLayout(Layout):
    """Megatron-LM's 1-D group in the one layer skeleton
    (:mod:`repro.parallel.layers`): each block's first linear is
    column-parallel and its second row-parallel, each rank owns ``n/p``
    whole heads, the head is vocab-parallel, and activations and LayerNorm
    stay replicated, so the activation bridge is the identity."""

    family = "Megatron"
    tag = "mattn"

    def __init__(self, comm: Communicator):
        super().__init__(comm.ctx)
        self.comm = self.head_comm = comm
        self.tp, self.index = comm.size, comm.rank

    def linear(self, in_features: int, out_features: int, init_tags: tuple,
               row: bool = False, fused_parts: int = 1) -> Module:
        if row:
            return MegatronRowLinear(self.comm, in_features, out_features,
                                     init_tags=init_tags)
        return MegatronColumnLinear(self.comm, in_features, out_features,
                                    init_tags=init_tags,
                                    fused_parts=fused_parts)


#: the one layer under the name ``benchmarks/e2e/e2e_tracer.py`` wraps
MegatronTransformerLayer = TransformerLayer
