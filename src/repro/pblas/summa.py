"""SUMMA on a [q, q] process grid (van de Geijn & Watts; the paper's §2.2).

These are per-rank SPMD routines.  They operate on the *slice* grid of a
:class:`~repro.grid.context.ParallelContext` — i.e. ``pc.row_comm`` /
``pc.col_comm`` — which makes them directly reusable by the Tesseract
algorithm (each depth slice runs an independent SUMMA; see
:mod:`repro.pblas.tesseract`).

Three variants cover a linear layer's forward and backward passes:

``summa_ab``   C = A  @ B    (forward)
``summa_abt``  C = A  @ Bᵀ   (backward data grad:   A' = C' Bᵀ, Eq. 3)
``summa_atb``  C = Aᵀ @ B    (backward weight grad:  B' = Aᵀ C', Eq. 3)

Block placement: A and C blocks live at (i, j); B blocks live at (i, j).
Every block of an operand has one shape, so each rank passes its own
block to a broadcast: the root's is the payload, everyone else's the
receive buffer (MPI style) — in symbolic mode the receiver's result is
then known from its own operand, without waiting for the root.
``A`` may carry extra middle dimensions (activations ``[b, s, h]``) for
``summa_ab``/``summa_abt``; ``summa_atb`` contracts over the leading axes
and therefore requires 2-D operands (callers flatten activations first).
"""

from __future__ import annotations

from repro.errors import ShapeError
from repro.grid.context import ParallelContext
from repro.varray import ops
from repro.varray.varray import VArray

__all__ = ["summa_ab", "summa_abt", "summa_atb"]


def summa_ab(pc: ParallelContext, a: VArray, b: VArray, tag: str = "summa_ab") -> VArray:
    """C = A @ B with all operands in [q, q] block layout on this slice.

    For each step ``t``: the owner of A's block-column ``t`` broadcasts it
    along its row; the owner of B's block-row ``t`` broadcasts it along its
    column; everyone accumulates the local product (Algorithm 2).
    """
    q, ctx = pc.q, pc.ctx
    c: VArray | None = None
    for t in range(q):
        a_t = pc.row_comm.broadcast(a, root=t, tag=tag)
        b_t = pc.col_comm.broadcast(b, root=t, tag=tag)
        part = ops.matmul(ctx, a_t, b_t, tag=tag)
        c = part if c is None else ops.add(ctx, c, part, tag=tag)
    assert c is not None
    return c


def summa_abt(pc: ParallelContext, a: VArray, b: VArray, tag: str = "summa_abt") -> VArray:
    """C = A @ Bᵀ.

    Derivation: output block ``C[i, t] = sum_j A[i, j] @ B[t, j]ᵀ``.  For
    each step ``t``: broadcast ``B[t, j]`` down column ``j`` (its owner is
    row ``t``), compute the local partial, and reduce partials along the
    row to the rank in column ``t``, which owns ``C[i, t]``.
    """
    q, ctx = pc.q, pc.ctx
    c: VArray | None = None
    for t in range(q):
        b_t = pc.col_comm.broadcast(b, root=t, tag=tag)
        part = ops.matmul(ctx, a, b_t, transpose_b=True, tag=tag)
        red = pc.row_comm.reduce(part, root=t, tag=tag)
        if pc.j == t:
            assert red is not None
            c = red
    assert c is not None
    return c


def summa_atb(pc: ParallelContext, a: VArray, b: VArray, tag: str = "summa_atb") -> VArray:
    """C = Aᵀ @ B (2-D operands only).

    Derivation: output block ``C[t, j] = sum_i A[i, t]ᵀ @ B[i, j]``.  For
    each step ``t``: broadcast ``A[i, t]`` along row ``i`` (its owner is
    column ``t``), compute the local partial, and reduce partials down the
    column to the rank in row ``t``, which owns ``C[t, j]``.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(
            f"summa_atb requires 2-D blocks (flatten activations first), "
            f"got {a.shape} and {b.shape}"
        )
    q, ctx = pc.q, pc.ctx
    c: VArray | None = None
    for t in range(q):
        a_t = pc.row_comm.broadcast(a, root=t, tag=tag)
        part = ops.matmul(ctx, a_t, b, transpose_a=True, tag=tag)
        red = pc.col_comm.reduce(part, root=t, tag=tag)
        if pc.i == t:
            assert red is not None
            c = red
    assert c is not None
    return c
