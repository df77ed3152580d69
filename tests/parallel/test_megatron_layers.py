"""Unit tests for Megatron-LM 1-D layers."""

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.nn.linear import Linear
from repro.parallel.layers import MLP, ClassifierHead, SelfAttention
from repro.parallel.megatron.layers import (
    MegatronColumnLinear,
    MegatronRowLinear,
)
from repro.pblas import layouts
from repro.sim.engine import Engine
from repro.varray.varray import VArray

from tests.conftest import run_spmd, run_spmd_engine

P = 4


def _serial_ctx():
    holder = {}
    Engine(nranks=1).run(lambda ctx: holder.setdefault("ctx", ctx))
    return holder["ctx"]


class TestColumnLinear:
    def test_matches_serial(self, rng):
        x = rng.normal(size=(3, 8)).astype(np.float32)
        dy = rng.normal(size=(3, 8)).astype(np.float32)
        ctx = _serial_ctx()
        ref = Linear(ctx, 8, 8, init_tags=("mc",))
        y_ref = ref.forward(VArray.from_numpy(x)).numpy()
        dx_ref = ref.backward(VArray.from_numpy(dy)).numpy()
        dw_ref = ref.w.grad.numpy()

        def prog(rctx):
            comm = Communicator(rctx, range(P))
            lin = MegatronColumnLinear(comm, 8, 8, init_tags=("mc",))
            dy_shard = layouts.split_cols(dy, P)[comm.rank]
            y = lin.forward(VArray.from_numpy(x))
            dx = lin.backward(VArray.from_numpy(dy_shard))
            return comm.rank, y.numpy(), dx.numpy(), lin.w.grad.numpy()

        res = run_spmd(P, prog)
        y = layouts.combine_cols([y for _, y, _, _ in res])
        assert np.allclose(y, y_ref, atol=5e-4)
        for _, _, dx, _ in res:
            assert np.allclose(dx, dx_ref, atol=5e-4)
        dw = layouts.combine_cols([dw for *_, dw in res])
        assert np.allclose(dw, dw_ref, atol=5e-4)

    def test_forward_no_comm(self):
        def prog(rctx):
            comm = Communicator(rctx, range(P))
            lin = MegatronColumnLinear(comm, 8, 8)
            lin.forward(VArray.symbolic((2, 8)))

        engine, _ = run_spmd_engine(P, prog, mode="symbolic")
        assert not engine.trace.comm_events()


class TestRowLinear:
    def test_matches_serial(self, rng):
        x = rng.normal(size=(3, 8)).astype(np.float32)
        dy = rng.normal(size=(3, 4)).astype(np.float32)
        ctx = _serial_ctx()
        ref = Linear(ctx, 8, 4, init_tags=("mr",))
        y_ref = ref.forward(VArray.from_numpy(x)).numpy()
        ref.backward(VArray.from_numpy(dy))
        dw_ref = ref.w.grad.numpy()

        def prog(rctx):
            comm = Communicator(rctx, range(P))
            lin = MegatronRowLinear(comm, 8, 4, init_tags=("mr",))
            x_shard = layouts.split_cols(x, P)[comm.rank]
            y = lin.forward(VArray.from_numpy(x_shard))
            dx = lin.backward(VArray.from_numpy(dy))
            return comm.rank, y.numpy(), dx.numpy(), lin.w.grad.numpy()

        res = run_spmd(P, prog)
        for _, y, _, _ in res:
            assert np.allclose(y, y_ref, atol=1e-3)
        dw = layouts.combine_rows([dw for *_, dw in res])
        assert np.allclose(dw, dw_ref, atol=5e-4)

    def test_forward_one_allreduce(self):
        def prog(rctx):
            comm = Communicator(rctx, range(P))
            lin = MegatronRowLinear(comm, 8, 4)
            lin.forward(VArray.symbolic((2, 2)))

        engine, _ = run_spmd_engine(P, prog, mode="symbolic")
        assert engine.trace.message_count() == 1


class TestMLPAndAttention:
    def test_mlp_matches_serial(self, rng):
        x = rng.normal(size=(2, 3, 8)).astype(np.float32)
        dy = rng.normal(size=(2, 3, 8)).astype(np.float32)
        ctx = _serial_ctx()
        ref = MLP(ctx, 8, init_tags=("mm",))
        y_ref = ref.forward(VArray.from_numpy(x)).numpy()
        dx_ref = ref.backward(VArray.from_numpy(dy)).numpy()

        def prog(rctx):
            comm = Communicator(rctx, range(P))
            mlp = MLP(comm, 8, init_tags=("mm",))
            y = mlp.forward(VArray.from_numpy(x))
            dx = mlp.backward(VArray.from_numpy(dy))
            return y.numpy(), dx.numpy()

        for y, dx in run_spmd(P, prog):
            assert np.allclose(y, y_ref, atol=1e-3)
            assert np.allclose(dx, dx_ref, atol=1e-3)

    def test_mlp_block_uses_exactly_two_allreduces_per_step(self):
        """Megatron's signature: one all-reduce fwd (row linear) and one bwd
        (column linear) per block."""
        def prog(rctx):
            comm = Communicator(rctx, range(P))
            mlp = MLP(comm, 8)
            y = mlp.forward(VArray.symbolic((2, 8)))
            mlp.backward(VArray.symbolic((2, 8)))

        engine, _ = run_spmd_engine(P, prog, mode="symbolic")
        assert engine.trace.message_count() == 2

    def test_attention_local_heads(self, rng):
        def prog(rctx):
            comm = Communicator(rctx, range(P))
            attn = SelfAttention(comm, hidden=8, nheads=4,
                                 init_tags=("ma",))
            y = attn.forward(VArray.from_numpy(
                rng.normal(size=(1, 3, 8)).astype(np.float32)))
            return attn.local_heads, y.shape

        res = run_spmd(P, prog)
        assert all(lh == 1 and shape == (1, 3, 8) for lh, shape in res)


class TestClassifierHead:
    def test_full_logits_everywhere(self, rng):
        x = rng.normal(size=(4, 8)).astype(np.float32)

        def prog(rctx):
            comm = Communicator(rctx, range(P))
            head = ClassifierHead(comm, 8, 8, init_tags=("mh",))
            logits = head.forward(VArray.from_numpy(x))
            return logits.numpy()

        res = run_spmd(P, prog)
        for r in res[1:]:
            assert np.allclose(r, res[0], atol=1e-6)
        assert res[0].shape == (4, 8)
