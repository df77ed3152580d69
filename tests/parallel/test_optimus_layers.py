"""Tests for the Optimus (2-D) layers: the one layer skeleton on a d = 1
grid.  ``grid_shape`` rejects an optimus mode deeper than d = 1
(``tests/parallel/test_factory.py``, ``tests/plan/test_space.py``)."""

import numpy as np

from repro.grid.context import ParallelContext
from repro.parallel.layers import TransformerLayer
from repro.parallel.tesseract.layers import TesseractLinear, local_block_a
from repro.pblas.layouts import combine_c
from repro.sim.engine import Engine
from repro.varray.varray import VArray

Q = 2


class TestDepthOneConstraint:
    def test_accepts_depth_one(self):
        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=Q, d=1)
            lin = TesseractLinear(pc, 8, 8)
            return lin.w.value.shape

        assert Engine(nranks=Q * Q).run(prog) == [(4, 4)] * 4


class TestOptimusNumerics:
    def test_linear_matches_global_matmul(self, rng):
        x = rng.normal(size=(4, 8)).astype(np.float32)

        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=Q, d=1)
            lin = TesseractLinear(pc, 8, 8, bias=False, init_tags=("ol",))
            y = lin.forward(VArray.from_numpy(local_block_a(pc, x)))
            lin.backward(VArray.from_numpy(
                np.zeros(y.shape, dtype=np.float32)))
            return (pc.i, pc.j, pc.k), y.numpy(), lin.w.value.numpy()

        res = Engine(nranks=Q * Q).run(prog)
        y = combine_c({k: v for k, v, _ in res}, Q, 1)
        # Reassemble the weight from its blocks and compare to x @ w.
        blocks_w = {(k[0], k[1]): w for k, _, w in res}
        w = np.block([[blocks_w[(i, j)] for j in range(Q)] for i in range(Q)])
        assert np.allclose(y, x @ w, atol=5e-4)

    def test_transformer_layer_runs_symbolically(self):
        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=Q, d=1)
            layer = TransformerLayer(pc, hidden=8, nheads=2)
            y = layer.forward(VArray.symbolic((2, 3, 4)))
            dx = layer.backward(VArray.symbolic((2, 3, 4)))
            return y.shape, dx.shape

        res = Engine(nranks=Q * Q, mode="symbolic").run(prog)
        assert res == [((2, 3, 4), (2, 3, 4))] * 4
