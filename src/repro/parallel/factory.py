"""Factory: build a transformer layer stack for any parallelization mode.

The benchmark harness, tests and examples all need "a stack of N
transformer layers sharded the <mode> way, plus the knowledge of what this
rank's input block looks like".  :func:`build_transformer_stack` returns a
:class:`StackHandle` packaging exactly that.  A mode name becomes a group
in one place, :func:`tensor_group` (checked by :func:`grid_shape`), and the
group picks the layout; :func:`repro.serve.model.build_lm` and the
planner's validation take the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.communicator import Communicator
from repro.errors import GridError
from repro.grid.context import ParallelContext
from repro.nn.module import Sequential
from repro.parallel.layers import Layout, TransformerLayer, layout_of
from repro.sim.engine import RankContext
from repro.varray.varray import VArray

__all__ = ["StackHandle", "build_transformer_stack", "grid_shape",
           "tensor_group", "MODES"]

MODES = ("serial", "megatron", "optimus", "tesseract")


def grid_shape(
    mode: str,
    q: int | None = None,
    d: int | None = None,
    world: int | None = None,
) -> tuple[int, int]:
    """``(q, d)`` as the batch-band layout sees them; the one check of a
    mode name and its grid dimensions.

    Serial and Megatron replicate activations, so their band layout is the
    trivial ``(1, 1)``; optimus is the ``d = 1`` special case.
    """
    if mode not in MODES:
        raise GridError(f"unknown parallel mode {mode!r}; valid: {MODES}")
    if mode in ("serial", "megatron"):
        return (1, 1)
    if q is None:
        raise GridError(f"mode {mode!r} requires the grid dimension q")
    depth = 1 if d is None else d
    if mode == "optimus" and depth != 1:
        raise GridError(f"optimus is the d=1 special case; got d={depth}")
    return (q, depth)


def tensor_group(
    ctx: RankContext,
    mode: str,
    q: int | None = None,
    d: int | None = None,
    world: int | None = None,
    dp_size: int = 1,
    pp_size: int = 1,
):
    """The group a ``mode`` layer is built over (its layout follows from
    it, :func:`~repro.parallel.layers.layout_of`): the rank itself, the
    Megatron group of ``world`` consecutive ranks holding this one
    (default: every rank), or the grid context, optionally inside a
    ``dp_size x pp_size`` arrangement."""
    gq, gd = grid_shape(mode, q, d)
    if mode == "serial":
        return ctx
    if mode == "megatron":
        size = world if world is not None else ctx.nranks
        base = ctx.rank - ctx.rank % size
        return Communicator(ctx, range(base, base + size))
    return ParallelContext.tesseract(ctx, q=gq, d=gd, dp_size=dp_size,
                                     pp_size=pp_size)


@dataclass
class StackHandle:
    """A mode's transformer stack plus this rank's data layout."""

    mode: str
    layers: Sequential
    layout: Layout

    @property
    def ctx(self) -> RankContext:
        return self.layout.ctx

    @property
    def pc(self) -> ParallelContext | None:
        return self.layout.pc

    @property
    def comm(self) -> Communicator | None:
        return self.layout.comm

    def local_shape(self, batch: int, seq: int, hidden: int) -> tuple[int, int, int]:
        """Shape of this rank's activation block for a global [b, s, h]."""
        return self.layout.local_shape(batch, seq, hidden)

    def local_input(self, x: np.ndarray) -> VArray:
        """This rank's block of a global activation tensor (real mode)."""
        return VArray.from_numpy(self.layout.block(x))

    def symbolic_input(self, batch: int, seq: int, hidden: int) -> VArray:
        """A shape-only input block (symbolic mode benchmarks)."""
        return VArray.symbolic(self.local_shape(batch, seq, hidden))

    def combine_output(self, blocks: dict) -> np.ndarray:
        """Reassemble per-rank output blocks into the global tensor.

        ``blocks`` maps rank coordinates to numpy blocks: for the grid
        modes keys are (i, j, k); for serial/megatron any single entry is
        the full tensor already.
        """
        return self.layout.combine(blocks)


def build_transformer_stack(
    ctx: RankContext,
    mode: str,
    num_layers: int,
    hidden: int,
    nheads: int,
    mlp_ratio: int = 4,
    q: int | None = None,
    d: int | None = None,
    world: int | None = None,
    init_tags: tuple = ("model",),
    causal: bool = False,
) -> StackHandle:
    """Build ``num_layers`` transformer layers sharded per ``mode``.

    Parameters
    ----------
    mode:
        One of ``serial`` / ``megatron`` / ``optimus`` / ``tesseract``.
    q, d:
        Grid dimensions for the 2-D/2.5-D modes (``d`` defaults to 1).
    world:
        Group size for ``megatron`` (defaults to ``ctx.nranks``).
    causal:
        Build decoder-style (causally masked) attention layers.

    Per-layer weight streams are ``(*init_tags, "layer", idx, ...)`` — the
    same for every mode, which is what makes cross-mode equivalence exact.
    """
    group = tensor_group(ctx, mode, q=q, d=d, world=world)
    layers = Sequential(ctx, *(
        TransformerLayer(group, hidden, nheads, mlp_ratio,
                         init_tags=(*init_tags, "layer", idx), causal=causal)
        for idx in range(num_layers)
    ))
    return StackHandle(mode=mode, layers=layers, layout=layout_of(group))
