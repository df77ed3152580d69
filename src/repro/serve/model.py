"""Model construction for the serving engine.

One entry point, :func:`build_lm`, builds a causal transformer LM sharded
the requested way on the calling rank; the companion helpers answer the
layout questions the scheduler/runner need (rank count, per-rank KV
width, batch-band replication factor) without building anything.
"""

from __future__ import annotations

from repro.errors import GridError
from repro.models.configs import TransformerConfig
from repro.models.transformer import TransformerLM
from repro.parallel.factory import grid_shape, tensor_group
from repro.sim.engine import RankContext
from repro.util.mathutil import check_divides

__all__ = ["build_lm", "serving_nranks", "grid_shape", "local_kv_width"]


def serving_nranks(
    mode: str,
    q: int | None = None,
    d: int | None = None,
    world: int | None = None,
) -> int:
    """Number of simulator ranks the mode occupies."""
    if mode == "serial":
        return 1
    if mode == "megatron":
        if world is None:
            raise GridError("megatron requires the group size (world)")
        return world
    gq, gd = grid_shape(mode, q, d)
    return gq * gq * gd


def local_kv_width(
    mode: str,
    cfg: TransformerConfig,
    q: int | None = None,
    world: int | None = None,
) -> int:
    """Per-token width of one rank's k (or v) slice."""
    if mode == "serial":
        return cfg.hidden
    if mode == "megatron":
        if world is None:
            raise GridError("megatron requires the group size (world)")
        return check_divides(world, cfg.hidden, "hidden vs world")
    return check_divides(grid_shape(mode, q)[0], cfg.hidden, "hidden vs q")


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
