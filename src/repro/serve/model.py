"""Model construction for the serving engine.

One entry point, :func:`build_lm`, builds a causal transformer LM sharded
the requested way on the calling rank; the companion helpers answer the
layout questions the scheduler/runner need (rank count, per-rank KV
width, batch-band replication factor) without building anything.
"""

from __future__ import annotations

from repro.models.configs import TransformerConfig
from repro.models.transformer import TransformerLM
from repro.parallel.factory import grid_shape, tensor_group
from repro.sim.engine import RankContext

__all__ = ["build_lm", "serving_nranks", "grid_shape", "local_kv_width",
           "tensor_split"]


def serving_nranks(
    mode: str,
    q: int | None = None,
    d: int | None = None,
    world: int | None = None,
) -> int:
    """Number of simulator ranks the mode occupies."""
    gq, gd = grid_shape(mode, q, d, world)
    return world if mode == "megatron" else gq * gq * gd


def tensor_split(mode: str, q: int | None = None,
                 world: int | None = None) -> int:
    """How many ranks a layer's heads and hidden columns are split over:
    the Megatron group, the grid's ``q``, or 1 for serial."""
    gq, _ = grid_shape(mode, q, None, world)
    return world if mode == "megatron" else gq


def local_kv_width(
    mode: str,
    cfg: TransformerConfig,
    q: int | None = None,
    world: int | None = None,
) -> int:
    """Per-token width of one rank's k (or v) slice (``run_serving``
    checks that the hidden size divides by the tensor split)."""
    return cfg.hidden // tensor_split(mode, q, world)


def build_lm(
    ctx: RankContext,
    mode: str,
    cfg: TransformerConfig,
    q: int | None = None,
    d: int | None = None,
    world: int | None = None,
):
    """Build the mode's causal LM on this rank (call inside ``engine.run``)."""
    return TransformerLM(tensor_group(ctx, mode, q=q, d=d, world=world), cfg)
