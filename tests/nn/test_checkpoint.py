"""Tests for activation checkpointing (the paper's reference [4])."""

import numpy as np
import pytest

from repro.nn.activation import GELU
from repro.nn.checkpoint import ActivationCheckpoint
from repro.nn.linear import Linear
from repro.nn.module import Sequential
from repro.parallel.layers import MLP
from repro.sim.engine import Engine
from repro.varray.varray import VArray

from tests.conftest import run_spmd

H = 8


def _model(ctx, checkpointed: bool):
    inner = MLP(ctx, H, init_tags=("ck",))
    return ActivationCheckpoint(inner) if checkpointed else inner


class TestCorrectness:
    def test_output_and_gradients_identical(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, H)).astype(np.float32)
        dy = rng.normal(size=(4, H)).astype(np.float32)

        def run(ctx, checkpointed):
            m = _model(ctx, checkpointed)
            y = m.forward(VArray.from_numpy(x))
            dx = m.backward(VArray.from_numpy(dy))
            grads = {n: p.grad.numpy() for n, p in m.parameters()}
            return y.numpy(), dx.numpy(), grads

        def prog(ctx):
            return run(ctx, False), run(ctx, True)

        (y0, dx0, g0), (y1, dx1, g1) = run_spmd(1, prog)[0]
        assert np.allclose(y0, y1, atol=1e-6)
        assert np.allclose(dx0, dx1, atol=1e-6)
        for name in g0:
            other = name.replace("fc", "inner.fc") if False else name
        # Same grads module-by-module (names differ by the 'inner.' prefix).
        plain = {n.split("inner.")[-1]: v for n, v in g0.items()}
        wrapped = {n.split("inner.")[-1]: v for n, v in g1.items()}
        for name in plain:
            assert np.allclose(plain[name], wrapped[name], atol=1e-6), name


class TestMemoryBehaviour:
    def test_checkpoint_holds_only_the_input_after_forward(self):
        def prog(ctx):
            x = VArray.from_numpy(np.ones((4, H), dtype=np.float32))
            plain = _model(ctx, False)
            plain.forward(x)
            plain_bytes = ctx.mem.current("activations")
            plain.backward(VArray.from_numpy(np.ones((4, H), np.float32)))

            base = ctx.mem.current("activations")
            ck = _model(ctx, True)
            ck.forward(x)
            ck_bytes = ctx.mem.current("activations") - base
            ck.backward(VArray.from_numpy(np.ones((4, H), np.float32)))
            return plain_bytes, ck_bytes, x.nbytes

        plain_bytes, ck_bytes, input_bytes = run_spmd(1, prog)[0]
        assert ck_bytes == input_bytes
        assert ck_bytes < plain_bytes

    def test_no_leak_after_backward(self):
        def prog(ctx):
            m = _model(ctx, True)
            x = VArray.from_numpy(np.ones((2, H), dtype=np.float32))
            m.forward(x)
            m.backward(VArray.from_numpy(np.ones((2, H), np.float32)))
            return ctx.mem.current("activations")

        assert run_spmd(1, prog) == [0.0]


class TestTimeBehaviour:
    def test_recompute_charges_extra_forward_time(self):
        def run(ctx, checkpointed):
            m = _model(ctx, checkpointed)
            x = VArray.from_numpy(np.ones((4, H), dtype=np.float32))
            m.forward(x)
            m.backward(VArray.from_numpy(np.ones((4, H), np.float32)))
            return ctx.now

        t_plain = run_spmd(1, lambda ctx: run(ctx, False))[0]
        t_ck = run_spmd(1, lambda ctx: run(ctx, True))[0]
        assert t_ck > t_plain  # the memory saving costs simulated time


class TestComposition:
    def test_checkpointed_stack_trains(self):
        def prog(ctx):
            from repro.nn.loss import MeanSquaredError
            from repro.nn.optim import SGD

            rng = np.random.default_rng(0)
            model = Sequential(
                ctx,
                ActivationCheckpoint(
                    Sequential(ctx, Linear(ctx, H, H, init_tags=("c1",)),
                               GELU(ctx))
                ),
                ActivationCheckpoint(Linear(ctx, H, H, init_tags=("c2",))),
            )
            x = VArray.from_numpy(rng.normal(size=(8, H)).astype(np.float32))
            t = VArray.from_numpy(rng.normal(size=(8, H)).astype(np.float32))
            opt = SGD(model.parameter_list(), lr=0.1)
            first = last = None
            for _ in range(120):
                loss_fn = MeanSquaredError(ctx)
                loss = loss_fn.forward(model.forward(x), t)
                model.backward(loss_fn.backward())
                opt.step()
                model.zero_grad()
                last = float(loss.numpy())
                first = first if first is not None else last
            return first, last

        first, last = run_spmd(1, prog)[0]
        assert last < 0.5 * first
