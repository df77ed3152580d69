"""Shared helpers for the sharded layers: weight slicing and grad syncs."""

from __future__ import annotations

import numpy as np

from repro.grid.context import ParallelContext
from repro.sim.engine import RankContext
from repro.util.mathutil import check_divides
from repro.varray import ops, vinit
from repro.varray.varray import VArray

__all__ = [
    "global_xavier",
    "block_2d",
    "col_shard",
    "row_shard",
    "fused_block_2d",
    "fused_col_shard",
    "allreduce_col_depth",
    "allreduce_batch",
    "allreduce_col_depth_many",
    "global_scalar_sum",
]


def global_xavier(ctx: RankContext, shape: tuple[int, int], init_tags: tuple):
    """The full global weight from the named stream (None in symbolic mode)."""
    if ctx.symbolic:
        return None
    return vinit.xavier_uniform(ctx.rng(*init_tags, "w"), shape)


def block_2d(weight: np.ndarray, q: int, i: int, j: int) -> np.ndarray:
    """Block (i, j) of a [q, q]-blocked matrix."""
    rows = check_divides(q, weight.shape[0], "weight rows")
    cols = check_divides(q, weight.shape[1], "weight cols")
    return np.ascontiguousarray(
        weight[i * rows : (i + 1) * rows, j * cols : (j + 1) * cols]
    )


def col_shard(weight: np.ndarray, p: int, r: int) -> np.ndarray:
    """Column shard ``r`` of ``p`` (Megatron column parallel)."""
    cols = check_divides(p, weight.shape[1], "weight cols")
    return np.ascontiguousarray(weight[:, r * cols : (r + 1) * cols])


def row_shard(weight: np.ndarray, p: int, r: int) -> np.ndarray:
    """Row shard ``r`` of ``p`` (Megatron row parallel)."""
    rows = check_divides(p, weight.shape[0], "weight rows")
    return np.ascontiguousarray(weight[r * rows : (r + 1) * rows, :])


def fused_block_2d(
    parts: tuple[np.ndarray, ...], q: int, i: int, j: int
) -> np.ndarray:
    """Local fused block: [P1(i,j) | P2(i,j) | ...].

    Used for the QKV projection so a rank's fused output splits cleanly
    into its own Q/K/V column slices.
    """
    return np.concatenate([block_2d(p, q, i, j) for p in parts], axis=1)


def fused_col_shard(parts: tuple[np.ndarray, ...], p: int, r: int) -> np.ndarray:
    """Local fused column shard: [P1[:, r] | P2[:, r] | ...] (Megatron QKV)."""
    return np.concatenate([col_shard(part, p, r) for part in parts], axis=1)


def allreduce_col_depth(pc: ParallelContext, v: VArray, tag: str = "") -> VArray:
    """Sum a tensor over the column group and then the depth group.

    This is the gradient synchronization for parameters replicated along a
    grid *column* (biases, LayerNorm gain/bias): the batch is partitioned
    over (i, k), so their gradients need summing over exactly those axes.
    """
    out = pc.col_comm.all_reduce(v, tag=tag)
    if pc.d > 1:
        out = pc.depth_comm.all_reduce(out, tag=tag)
    return out


def allreduce_batch(comm, arrs: list[VArray], tag: str = "") -> list[VArray]:
    """All-reduce several arrays in one fused batch window.

    Back-to-back same-group all-reduces (gradient syncs, paired LayerNorm
    statistics) pay one rendezvous and NCCL-style coalesced pricing
    instead of N launches; the bytes moved are identical to N separate
    calls (asserted by ``tests/perf/test_trace_volume.py``).
    """
    if not arrs:
        return []
    if len(arrs) == 1:
        return [comm.all_reduce(arrs[0], tag=tag)]
    with comm.batch(tag=tag):
        pending = [
            comm.all_reduce(a, tag=f"{tag}:{i}") for i, a in enumerate(arrs)
        ]
    return [p.value for p in pending]


def allreduce_col_depth_many(
    pc: ParallelContext, arrs: list[VArray], tag: str = ""
) -> list[VArray]:
    """Batched :func:`allreduce_col_depth`: one window per group, not per array."""
    outs = allreduce_batch(pc.col_comm, arrs, tag=tag)
    if pc.d > 1:
        outs = allreduce_batch(pc.depth_comm, outs, tag=tag)
    return outs


def global_scalar_sum(pc: ParallelContext, v: VArray, tag: str = "") -> VArray:
    """Sum a per-batch-shard scalar (loss, correct count) over all shards.

    Batch shards are indexed by (i, k); ranks along j hold copies, so the
    sum runs over the column and depth groups only.
    """
    return allreduce_col_depth(pc, v, tag=tag)


def gather_a_layout(pc: ParallelContext, local: VArray, tag: str = "") -> VArray:
    """Reassemble the *global* tensor from every rank's A-layout block.

    An all-gather over the tensor group followed by local concatenation:
    rows (batch bands, ordered by ``h = i + k*q``) stack on axis 0, hidden
    slices (ordered by j) on the last axis.  Used by embedding bridges that
    need the full activation gradient on every rank.
    """
    ctx = pc.ctx
    blocks = pc.tensor_comm.all_gather(local, tag=tag)
    # tensor_comm order is tensor-rank order: k-major, then i, then j.
    q, d = pc.q, pc.d
    bands = []
    for k in range(d):
        for i in range(q):
            row = [blocks[k * q * q + i * q + j] for j in range(q)]
            bands.append(ops.concat(ctx, row, axis=-1, tag=tag))
    return ops.concat(ctx, bands, axis=0, tag=tag)
