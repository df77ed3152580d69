"""Unit tests for individual Tesseract layers against serial references."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.grid.context import ParallelContext
from repro.nn.linear import Linear
from repro.nn.normalization import LayerNorm
from repro.parallel.layers import MLP, ClassifierHead, SelfAttention
from repro.parallel.tesseract.layers import (
    TesseractLayerNorm,
    TesseractLinear,
    local_block_a,
)
from repro.pblas.layouts import combine_c, split_a
from repro.sim.engine import Engine
from repro.varray.varray import VArray

Q, D = 2, 2
P = Q * Q * D


def _serial_ctx():
    holder = {}
    Engine(nranks=1).run(lambda ctx: holder.setdefault("ctx", ctx))
    return holder["ctx"]


def _combine(results):
    return combine_c(dict(results), Q, D)


class TestTesseractLinear:
    def test_forward_backward_match_serial(self, rng):
        x = rng.normal(size=(8, 3, 12)).astype(np.float32)
        dy = rng.normal(size=(8, 3, 8)).astype(np.float32)

        ctx = _serial_ctx()
        ref = Linear(ctx, 12, 8, init_tags=("tl",))
        y_ref = ref.forward(VArray.from_numpy(x)).numpy()
        dx_ref = ref.backward(VArray.from_numpy(dy)).numpy()

        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=D)
            lin = TesseractLinear(pc, 12, 8, init_tags=("tl",))
            y = lin.forward(VArray.from_numpy(local_block_a(pc, x)))
            dx = lin.backward(VArray.from_numpy(local_block_a(pc, dy)))
            return (pc.i, pc.j, pc.k), y.numpy(), dx.numpy(), (
                lin.w.grad.numpy(), lin.b.grad.numpy())

        res = Engine(nranks=P).run(prog)
        assert np.allclose(_combine([(k, y) for k, y, *_ in res]), y_ref,
                           atol=5e-4)
        assert np.allclose(_combine([(k, dx) for k, _, dx, _ in res]), dx_ref,
                           atol=5e-4)

    def test_weight_grad_matches_serial(self, rng):
        x = rng.normal(size=(8, 12)).astype(np.float32)
        dy = rng.normal(size=(8, 8)).astype(np.float32)
        ctx = _serial_ctx()
        ref = Linear(ctx, 12, 8, init_tags=("tw",))
        ref.forward(VArray.from_numpy(x))
        ref.backward(VArray.from_numpy(dy))
        dw_ref = ref.w.grad.numpy()
        db_ref = ref.b.grad.numpy()

        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=D)
            lin = TesseractLinear(pc, 12, 8, init_tags=("tw",))
            lin.forward(VArray.from_numpy(local_block_a(pc, x)))
            lin.backward(VArray.from_numpy(local_block_a(pc, dy)))
            return (pc.i, pc.j, pc.k), lin.w.grad.numpy(), lin.b.grad.numpy()

        res = Engine(nranks=P).run(prog)
        for (i, j, k), dw, db in res:
            rows, cols = 12 // Q, 8 // Q
            assert np.allclose(
                dw, dw_ref[i * rows:(i + 1) * rows, j * cols:(j + 1) * cols],
                atol=5e-4)
            assert np.allclose(db, db_ref[j * cols:(j + 1) * cols], atol=5e-4)

    def test_indivisible_features_rejected(self):
        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=1)
            TesseractLinear(pc, 5, 8)

        with pytest.raises(ShapeError):
            Engine(nranks=Q * Q).run(prog)

    def test_fused_parts_must_be_square(self):
        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=1)
            TesseractLinear(pc, 4, 12, fused_parts=2)

        with pytest.raises(ShapeError, match="square"):
            Engine(nranks=Q * Q).run(prog)


class TestTesseractLayerNorm:
    def test_matches_serial(self, rng):
        x = rng.normal(loc=2.0, size=(8, 3, 16)).astype(np.float32)
        dy = rng.normal(size=(8, 3, 16)).astype(np.float32)
        ctx = _serial_ctx()
        ref = LayerNorm(ctx, 16)
        y_ref = ref.forward(VArray.from_numpy(x)).numpy()
        dx_ref = ref.backward(VArray.from_numpy(dy)).numpy()

        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=D)
            ln = TesseractLayerNorm(pc, 16)
            y = ln.forward(VArray.from_numpy(local_block_a(pc, x)))
            dx = ln.backward(VArray.from_numpy(local_block_a(pc, dy)))
            return (pc.i, pc.j, pc.k), y.numpy(), dx.numpy()

        res = Engine(nranks=P).run(prog)
        assert np.allclose(_combine([(k, y) for k, y, _ in res]), y_ref,
                           atol=1e-3)
        assert np.allclose(_combine([(k, dx) for k, _, dx in res]), dx_ref,
                           atol=1e-3)

    def test_uses_row_allreduce_for_moments(self):
        """§3.2.2: moments are all-reduced along grid rows."""
        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=D)
            ln = TesseractLayerNorm(pc, 16)
            y = ln.forward(VArray.symbolic((2, 16 // Q)))
            return pc.row_group.ranks

        engine = Engine(nranks=P, mode="symbolic")
        res = engine.run(prog)
        row_groups = set(res)
        ars = [e for e in engine.trace.comm_events()
               if e.kind.startswith("all_reduce")]
        assert ars
        assert all(tuple(sorted(e.group)) in row_groups for e in ars)


class TestTesseractMLPAndAttention:
    def test_mlp_matches_serial(self, rng):
        x = rng.normal(size=(8, 2, 8)).astype(np.float32)
        dy = rng.normal(size=(8, 2, 8)).astype(np.float32)
        ctx = _serial_ctx()
        ref = MLP(ctx, 8, init_tags=("tm",))
        y_ref = ref.forward(VArray.from_numpy(x)).numpy()
        dx_ref = ref.backward(VArray.from_numpy(dy)).numpy()

        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=D)
            mlp = MLP(pc, 8, init_tags=("tm",))
            y = mlp.forward(VArray.from_numpy(local_block_a(pc, x)))
            dx = mlp.backward(VArray.from_numpy(local_block_a(pc, dy)))
            return (pc.i, pc.j, pc.k), y.numpy(), dx.numpy()

        res = Engine(nranks=P).run(prog)
        assert np.allclose(_combine([(k, y) for k, y, _ in res]), y_ref,
                           atol=1e-3)
        assert np.allclose(_combine([(k, dx) for k, _, dx in res]), dx_ref,
                           atol=1e-3)

    def test_attention_heads_must_divide_q(self):
        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=2, d=1)
            SelfAttention(pc, hidden=8, nheads=3)

        with pytest.raises(ShapeError):
            Engine(nranks=4).run(prog)

    def test_attention_core_is_local(self):
        """§3.2.1: the attention math itself needs no communication —
        only the two projections do."""
        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=1)
            attn = SelfAttention(pc, hidden=8, nheads=4,
                                 init_tags=("ac",))
            before = len([e for e in rctx.trace.comm_events(rctx.rank)])
            y = attn.forward(VArray.symbolic((2, 3, 8 // Q)))
            return y.shape

        engine = Engine(nranks=Q * Q, mode="symbolic")
        res = engine.run(prog)
        assert res == [(2, 3, 4)] * 4
        # All collectives must come from the qkv/proj linears.
        for e in engine.trace.comm_events():
            assert e.tag.startswith("tlinear"), e.tag


class TestClassifierHead:
    def test_full_logits_on_every_rank(self, rng):
        x = rng.normal(size=(8, 12)).astype(np.float32)

        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=D)
            head = ClassifierHead(pc, 12, 8, init_tags=("hd",))
            logits = head.forward(VArray.from_numpy(local_block_a(pc, x)))
            return (pc.i, pc.j, pc.k), logits.numpy()

        res = dict(Engine(nranks=P).run(prog))
        # Every rank of a row sees identical full logits for its batch band.
        for k in range(D):
            for i in range(Q):
                assert np.allclose(res[(i, 0, k)], res[(i, 1, k)], atol=1e-6)
        assert res[(0, 0, 0)].shape == (8 // (Q * D), 8)

    def test_backward_validates_width(self):
        def prog(rctx):
            pc = ParallelContext.tesseract(rctx, q=Q, d=1)
            head = ClassifierHead(pc, 12, 8)
            head.forward(VArray.symbolic((2, 12 // Q)))
            head.backward(VArray.symbolic((2, 5)))

        with pytest.raises(ShapeError):
            Engine(nranks=Q * Q, mode="symbolic").run(prog)
