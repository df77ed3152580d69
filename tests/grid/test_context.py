"""Tests for GridLayout and ParallelContext group construction."""

import pytest

from repro.errors import GridError
from repro.grid.context import GridLayout, ParallelContext
from repro.grid.shapes import TesseractShape

from tests.conftest import run_spmd


class TestGridLayout:
    def test_world_size_fig6(self):
        # The paper's Fig. 6: dp=2, pp=2, tesseract [2,2,2] -> 32 GPUs.
        layout = GridLayout(TesseractShape(q=2, d=2), dp_size=2, pp_size=2)
        assert layout.world_size == 32
        assert layout.tensor_size == 8

    def test_decompose_roundtrip(self):
        layout = GridLayout(TesseractShape(q=2, d=1), dp_size=2, pp_size=3)
        for w in range(layout.world_size):
            dp, pp, t = layout.decompose(w)
            assert layout.world_rank(dp, pp, t) == w

    def test_tensor_groups_contiguous(self):
        layout = GridLayout(TesseractShape(q=2, d=1), dp_size=2, pp_size=1)
        # tensor group 0 is world ranks 0..3, group 1 is 4..7
        assert layout.decompose(3) == (0, 0, 3)
        assert layout.decompose(4) == (1, 0, 0)

    def test_bad_sizes(self):
        with pytest.raises(GridError):
            GridLayout(TesseractShape(q=2, d=1), dp_size=0)

    def test_out_of_range(self):
        layout = GridLayout(TesseractShape(q=2, d=1))
        with pytest.raises(GridError):
            layout.decompose(4)
        with pytest.raises(GridError):
            layout.world_rank(1, 0, 0)


class TestParallelContextGroups:
    def test_coords_and_groups_2x2x2(self):
        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=2, d=2)
            return {
                "coords": (pc.i, pc.j, pc.k),
                "row": pc.row_group.ranks,
                "col": pc.col_group.ranks,
                "depth": pc.depth_group.ranks,
                "slice": pc.slice_group.ranks,
                "block_row": pc.block_row,
            }

        res = run_spmd(8, prog)
        # Rank 0 = (0,0,0)
        assert res[0]["coords"] == (0, 0, 0)
        assert res[0]["row"] == (0, 1)
        assert res[0]["col"] == (0, 2)
        assert res[0]["depth"] == (0, 4)
        assert res[0]["slice"] == (0, 1, 2, 3)
        # Rank 7 = (1,1,1): block row h = i + k*q = 3
        assert res[7]["coords"] == (1, 1, 1)
        assert res[7]["block_row"] == 3
        assert res[7]["row"] == (6, 7)
        assert res[7]["depth"] == (3, 7)

    def test_group_rank_matches_coordinate(self):
        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=2, d=2)
            return (
                pc.row_comm.rank == pc.j,
                pc.col_comm.rank == pc.i,
                pc.depth_comm.rank == pc.k,
            )

        assert all(all(r) for r in run_spmd(8, prog))

    def test_cubic_constructor(self):
        """§3.1's best-efficiency special case d = q (3-D arrangement)."""

        def prog(ctx):
            pc = ParallelContext.cubic(ctx, q=2)
            return pc.q, pc.d, pc.shape.is_3d

        assert run_spmd(8, prog) == [(2, 2, True)] * 8

    def test_groups_partition_world(self):
        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=2, d=2)
            return pc.slice_group.ranks

        res = run_spmd(8, prog)
        all_ranks = sorted(r for group in set(res) for r in group)
        assert all_ranks == list(range(8))

    def test_dp_groups(self):
        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=2, d=1, dp_size=2)
            return pc.dp_group.ranks

        res = run_spmd(8, prog)
        assert res[0] == (0, 4)
        assert res[5] == (1, 5)

    def test_pipeline_neighbor(self):
        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=1, d=1, pp_size=2)
            return (pc.pipeline_neighbor(+1), pc.pipeline_neighbor(-1))

        res = run_spmd(2, prog)
        assert res[0] == (1, None)
        assert res[1] == (None, 0)

    def test_describe(self):
        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=2, d=1)
            return pc.describe()

        assert "coords" in run_spmd(4, prog)[0]


class TestPlacementInteraction:
    def test_slice_stays_on_node_when_q2_is_4(self):
        """The paper's placement rule: a [2,2,d] slice maps onto one node."""
        from repro.sim.engine import Engine

        engine = Engine(nranks=8)

        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=2, d=2)
            topo = ctx.engine.topology
            return topo.nodes_spanned(pc.slice_group.ranks)

        assert engine.run(prog) == [1] * 8
