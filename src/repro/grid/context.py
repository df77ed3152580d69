"""Per-rank parallel contexts: coordinates + the groups every algorithm uses.

:class:`GridLayout` is the *global* description (tensor shape + data/pipeline
parallel sizes, Fig. 6 of the paper); :class:`ParallelContext` is one rank's
view, carrying ready-made :class:`~repro.comm.communicator.Communicator`
objects:

``row_comm``     ranks sharing (i, k), varying j — SUMMA broadcasts of A
``col_comm``     ranks sharing (j, k), varying i — SUMMA broadcasts of B
``depth_comm``   ranks sharing (i, j), varying k — the paper's all-reduce of B'
``slice_comm``   all q*q ranks of depth slice k
``tensor_comm``  the whole [q, q, d] tensor-parallel group
``dp_comm``      same grid position across data-parallel replicas (§3.4)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.comm.communicator import Communicator
from repro.comm.group import ProcessGroup
from repro.errors import GridError
from repro.grid.shapes import ParallelMode, TesseractShape
from repro.sim.engine import RankContext

__all__ = ["GridLayout", "ParallelContext"]


@dataclass(frozen=True)
class GridLayout:
    """Global layout: data-parallel x pipeline x tensor (Fig. 6).

    World ranks are assigned tensor-group-major:

        world_rank = ((dp_idx * pp_size) + pp_idx) * tensor_size + tensor_rank

    so each tensor-parallel group occupies a contiguous rank range (and,
    under BLOCK placement, a contiguous set of nodes).
    """

    shape: TesseractShape
    dp_size: int = 1
    pp_size: int = 1

    def __post_init__(self) -> None:
        if self.dp_size < 1 or self.pp_size < 1:
            raise GridError(
                f"dp_size and pp_size must be >= 1, got {self.dp_size}, {self.pp_size}"
            )

    @property
    def tensor_size(self) -> int:
        return self.shape.p

    @property
    def world_size(self) -> int:
        """Total GPUs: dp * pp * d * q^2 (the paper's Fig. 6 arithmetic)."""
        return self.dp_size * self.pp_size * self.tensor_size

    def decompose(self, world_rank: int) -> tuple[int, int, int]:
        """world_rank -> (dp_idx, pp_idx, tensor_rank)."""
        if not 0 <= world_rank < self.world_size:
            raise GridError(
                f"world rank {world_rank} out of range [0, {self.world_size})"
            )
        group, tensor_rank = divmod(world_rank, self.tensor_size)
        dp_idx, pp_idx = divmod(group, self.pp_size)
        return dp_idx, pp_idx, tensor_rank

    def world_rank(self, dp_idx: int, pp_idx: int, tensor_rank: int) -> int:
        """Inverse of :meth:`decompose`."""
        if not (0 <= dp_idx < self.dp_size and 0 <= pp_idx < self.pp_size):
            raise GridError(f"bad (dp={dp_idx}, pp={pp_idx}) for layout {self}")
        if not 0 <= tensor_rank < self.tensor_size:
            raise GridError(f"bad tensor rank {tensor_rank} for layout {self}")
        return (dp_idx * self.pp_size + pp_idx) * self.tensor_size + tensor_rank


@functools.lru_cache(maxsize=32)
def _layout_groups(layout: GridLayout) -> list[tuple[ProcessGroup, ...]]:
    """Per world rank, its (row, col, depth, slice, tensor, dp) groups.

    Every group is a strided range of world ranks (tensor ranks are
    slice-major, see :meth:`TesseractShape.coords`, and tensor groups are
    contiguous), so each is built once and shared by its members: the
    table costs O(world size) per layout, where building every rank's
    groups member by member cost O(world size) per rank.
    """
    shape = layout.shape
    q, d, t = shape.q, shape.d, shape.p
    qq = q * q
    world = layout.world_size
    replica = layout.pp_size * t  #: world-rank stride between dp replicas
    dps = [ProcessGroup.of(range(r, world, replica)) for r in range(replica)]
    out = []
    for base in range(0, world, t):  # one tensor group per (dp, pp)
        tensor = ProcessGroup.of(range(base, base + t))
        slices = [ProcessGroup.of(range(s, s + qq))
                  for s in range(base, base + t, qq)]
        rows = [ProcessGroup.of(range(s, s + q))  # by k*q + i
                for s in range(base, base + t, q)]
        cols = [ProcessGroup.of(range(s + j, s + qq, q))  # by k*q + j
                for s in range(base, base + t, qq) for j in range(q)]
        depths = [ProcessGroup.of(range(base + r, base + t, qq))  # by i*q + j
                  for r in range(qq)]
        for tr in range(t):
            k, r = divmod(tr, qq)
            i, j = divmod(r, q)
            out.append((rows[k * q + i], cols[k * q + j], depths[r],
                        slices[k], tensor, dps[(base + tr) % replica]))
    return out


class ParallelContext:
    """One rank's coordinates and communicators within a :class:`GridLayout`.

    Use the convenience constructors:

    >>> pc = ParallelContext.tesseract(ctx, q=2, d=2)    # doctest: +SKIP
    >>> pc.i, pc.j, pc.k                                  # doctest: +SKIP
    (0, 1, 0)
    """

    def __init__(self, ctx: RankContext, layout: GridLayout):
        self.ctx = ctx
        self.layout = layout
        shape = layout.shape
        self.shape = shape
        self.q, self.d = shape.q, shape.d
        self.dp_idx, self.pp_idx, self.tensor_rank = layout.decompose(ctx.rank)
        self.i, self.j, self.k = shape.coords(self.tensor_rank)

        # Row: fixed (i, k), group rank j.  Column: fixed (j, k), group
        # rank i.  Depth: fixed (i, j), group rank k.  Slice: depth slice
        # k, group rank i*q + j.  Tensor: the whole [q, q, d] group by
        # tensor rank.  Data-parallel: the same (pp_idx, tensor_rank)
        # across replicas.
        (self.row_group, self.col_group, self.depth_group, self.slice_group,
         self.tensor_group, self.dp_group) = _layout_groups(layout)[ctx.rank]

        self.row_comm = Communicator(ctx, self.row_group)
        self.col_comm = Communicator(ctx, self.col_group)
        self.depth_comm = Communicator(ctx, self.depth_group)
        self.slice_comm = Communicator(ctx, self.slice_group)
        self.tensor_comm = Communicator(ctx, self.tensor_group)
        self.dp_comm = Communicator(ctx, self.dp_group)

    # --- constructors ------------------------------------------------------------

    @classmethod
    def tesseract(
        cls,
        ctx: RankContext,
        q: int,
        d: int,
        dp_size: int = 1,
        pp_size: int = 1,
    ) -> "ParallelContext":
        """A [q, q, d] Tesseract context (d=1 gives the 2-D special case)."""
        return cls(ctx, GridLayout(TesseractShape(q=q, d=d), dp_size, pp_size))

    @classmethod
    def cubic(
        cls, ctx: RankContext, q: int, dp_size: int = 1, pp_size: int = 1
    ) -> "ParallelContext":
        """The 3-D special case [q, q, q] (§3.1: d = q, p = q^3, where
        "the Tesseract could yield best efficiency")."""
        return cls.tesseract(ctx, q=q, d=q, dp_size=dp_size, pp_size=pp_size)

    # --- convenience --------------------------------------------------------------

    @property
    def mode(self) -> ParallelMode:
        """Which named scheme this arrangement corresponds to."""
        if self.shape.p == 1:
            return ParallelMode.TESSERACT
        if self.shape.is_2d:
            return ParallelMode.TWO_D
        return ParallelMode.TESSERACT

    @property
    def block_row(self) -> int:
        """The global block-row index h = i + k*q of Fig. 4 / Alg. 3."""
        return self.i + self.k * self.q

    def pipeline_neighbor(self, offset: int) -> int | None:
        """World rank of the pipeline stage at ``pp_idx + offset``, or None."""
        target = self.pp_idx + offset
        if not 0 <= target < self.layout.pp_size:
            return None
        return self.layout.world_rank(self.dp_idx, target, self.tensor_rank)

    def describe(self) -> str:
        """Debug string with coordinates and group layout."""
        return (
            f"rank {self.ctx.rank}: tesseract {self.shape} coords "
            f"(i={self.i}, j={self.j}, k={self.k}), dp={self.dp_idx}, "
            f"pp={self.pp_idx}"
        )
