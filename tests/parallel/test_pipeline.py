"""Tests for the GPipe-style pipeline stage (§3.4)."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError, SimulationError
from repro.nn.linear import Linear
from repro.nn.module import Sequential
from repro.nn.activation import GELU
from repro.parallel.pipeline import PipelineStage
from repro.sim.engine import Engine
from repro.sim.schedulers import available_backends
from repro.varray import ops
from repro.varray.varray import VArray

from tests.conftest import run_spmd

H = 8
MICRO = 2  # microbatches
ROWS = 4  # rows per microbatch


@pytest.fixture(params=available_backends(), autouse=True)
def engine_backend(request, monkeypatch):
    """Run the whole module under every scheduler backend.

    The schedule semantics (microbatch ordering, exact gradients, the
    1F1B activation cap) must not depend on who drives the rank
    programs; routing selection through ``REPRO_ENGINE_BACKEND`` covers
    every ``Engine(backend=None)`` construction below, including the
    ``run_spmd`` helper's.
    """
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", request.param)
    return request.param


def _serial_reference(x_np, dy_np):
    """Two-layer serial model, full batch: reference output and grads."""
    holder = {}

    def prog(ctx):
        model = Sequential(
            ctx,
            Linear(ctx, H, H, init_tags=("pp", 0)),
            GELU(ctx),
            Linear(ctx, H, H, init_tags=("pp", 1)),
        )
        y = model.forward(VArray.from_numpy(x_np))
        dx = model.backward(VArray.from_numpy(dy_np))
        grads = {n: p.grad.numpy() for n, p in model.parameters()}
        return y.numpy(), dx.numpy(), grads

    return Engine(nranks=1).run(prog)[0]


def _pipeline_run(x_np, dy_np, schedule="gpipe", micro=MICRO):
    """The same model split over 2 pipeline stages."""
    rows = x_np.shape[0] // micro

    def prog(ctx):
        if ctx.rank == 0:
            stage_model = Sequential(
                ctx, Linear(ctx, H, H, init_tags=("pp", 0)), GELU(ctx)
            )
            stage = PipelineStage(ctx, stage_model, prev_rank=None,
                                  next_rank=1, stage_index=0, num_stages=2)
            blocks = [
                VArray.from_numpy(x_np[m * rows:(m + 1) * rows])
                for m in range(micro)
            ]
            stage.run_step(blocks, schedule=schedule)
            return {n: p.grad.numpy() for n, p in stage_model.parameters()}
        stage_model = Sequential(ctx, Linear(ctx, H, H, init_tags=("pp", 1)))
        stage = PipelineStage(ctx, stage_model, prev_rank=0, next_rank=None,
                              stage_index=1, num_stages=2)
        outputs = {}

        def loss_grad(y, m):
            outputs[m] = y.numpy()
            return 0.0, VArray.from_numpy(dy_np[m * rows:(m + 1) * rows])

        stage.run_step(micro, loss_grad_fn=loss_grad, schedule=schedule)
        grads = {n: p.grad.numpy() for n, p in stage_model.parameters()}
        return outputs, grads

    return Engine(nranks=2).run(prog)


class TestPipelineExactness:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(MICRO * ROWS, H)).astype(np.float32)
        dy = rng.normal(size=(MICRO * ROWS, H)).astype(np.float32)
        return x, dy

    def test_outputs_match_serial(self, data):
        x, dy = data
        y_ref, _, _ = _serial_reference(x, dy)
        _, (outputs, _) = _pipeline_run(x, dy)
        y_pipe = np.concatenate([outputs[m] for m in range(MICRO)])
        assert np.allclose(y_pipe, y_ref, atol=1e-4)

    def test_gradients_match_serial(self, data):
        """GPipe is synchronous: microbatched pipeline grads == full-batch
        grads (our loss gradients are full-batch-normalized slices)."""
        x, dy = data
        _, _, grads_ref = _serial_reference(x, dy)
        stage0_grads, (_, stage1_grads) = _pipeline_run(x, dy)
        # stage0 holds layer 0 (+ GELU), stage1 holds layer 1.
        assert np.allclose(stage0_grads["0.w"], grads_ref["0.w"], atol=1e-4)
        assert np.allclose(stage0_grads["0.b"], grads_ref["0.b"], atol=1e-4)
        assert np.allclose(stage1_grads["0.w"], grads_ref["2.w"], atol=1e-4)
        assert np.allclose(stage1_grads["0.b"], grads_ref["2.b"], atol=1e-4)


class Test1F1BSchedule:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4 * ROWS, H)).astype(np.float32)
        dy = rng.normal(size=(4 * ROWS, H)).astype(np.float32)
        return x, dy

    def test_1f1b_matches_gpipe_outputs(self, data):
        x, dy = data
        _, (out_g, _) = _pipeline_run(x, dy, schedule="gpipe", micro=4)
        _, (out_f, _) = _pipeline_run(x, dy, schedule="1f1b", micro=4)
        for m in range(4):
            assert np.allclose(out_g[m], out_f[m], atol=1e-6)

    def test_1f1b_matches_serial_gradients(self, data):
        x, dy = data
        _, _, grads_ref = _serial_reference(x, dy)
        stage0, (_, stage1) = _pipeline_run(x, dy, schedule="1f1b", micro=4)
        assert np.allclose(stage0["0.w"], grads_ref["0.w"], atol=1e-4)
        assert np.allclose(stage1["0.w"], grads_ref["2.w"], atol=1e-4)

    def test_1f1b_reduces_first_stage_peak_activations(self, data):
        """The schedule's point: stage 0 holds warmup+1 microbatch caches
        instead of all of them."""
        x, dy = data

        def run(schedule):
            def prog(ctx):
                if ctx.rank == 0:
                    model = Sequential(
                        ctx, Linear(ctx, H, H, init_tags=("pp", 0)),
                        GELU(ctx))
                    stage = PipelineStage(ctx, model, None, 1,
                                          stage_index=0, num_stages=2)
                    rows = x.shape[0] // 4
                    blocks = [VArray.from_numpy(x[m * rows:(m + 1) * rows])
                              for m in range(4)]
                    stage.run_step(blocks, schedule=schedule)
                    return ctx.mem.peak("activations")
                model = Sequential(ctx,
                                   Linear(ctx, H, H, init_tags=("pp", 1)))
                stage = PipelineStage(ctx, model, 0, None, stage_index=1,
                                      num_stages=2)
                rows = dy.shape[0] // 4
                stage.run_step(
                    4,
                    loss_grad_fn=lambda y, m: (0.0, VArray.from_numpy(
                        dy[m * rows:(m + 1) * rows])),
                    schedule=schedule,
                )
                return ctx.mem.peak("activations")

            return Engine(nranks=2).run(prog)[0]

        assert run("1f1b") < run("gpipe")

    def test_1f1b_requires_stage_metadata(self):
        def prog(ctx):
            model = Sequential(ctx, Linear(ctx, H, H))
            stage = PipelineStage(ctx, model, None, None)
            stage.run_step([VArray.symbolic((2, H))],
                           loss_grad_fn=lambda y, m: (0.0, y),
                           schedule="1f1b")

        with pytest.raises(ConfigError, match="stage_index"):
            run_spmd(1, prog, mode="symbolic")

    def test_unknown_schedule_rejected(self):
        def prog(ctx):
            model = Sequential(ctx, Linear(ctx, H, H))
            stage = PipelineStage(ctx, model, None, None)
            stage.run_step([VArray.symbolic((2, H))],
                           loss_grad_fn=lambda y, m: (0.0, y),
                           schedule="interleaved")

        with pytest.raises(ConfigError, match="unknown pipeline"):
            run_spmd(1, prog, mode="symbolic")


class TestPipelineValidation:
    def test_first_stage_needs_inputs(self):
        def prog(ctx):
            if ctx.rank == 0:
                model = Sequential(ctx, Linear(ctx, H, H))
                stage = PipelineStage(ctx, model, prev_rank=None, next_rank=1)
                stage.run_step(2)  # count instead of blocks -> error
            else:
                model = Sequential(ctx, Linear(ctx, H, H))
                PipelineStage(ctx, model, prev_rank=0, next_rank=None)

        with pytest.raises(ShapeError):
            run_spmd(2, prog)

    def test_last_stage_needs_loss_fn(self):
        def prog(ctx):
            model = Sequential(ctx, Linear(ctx, H, H))
            stage = PipelineStage(ctx, model, prev_rank=None, next_rank=None)
            stage.run_step([VArray.symbolic((2, H))])

        with pytest.raises(SimulationError, match="loss_grad_fn"):
            run_spmd(1, prog, mode="symbolic")

    def test_zero_microbatches_rejected(self):
        def prog(ctx):
            model = Sequential(ctx, Linear(ctx, H, H))
            stage = PipelineStage(
                ctx, model, prev_rank=None, next_rank=None
            )
            stage.run_step([], loss_grad_fn=lambda y, m: (0.0, y))

        with pytest.raises(ShapeError, match="microbatch"):
            run_spmd(1, prog)

    def test_single_stage_single_microbatch(self):
        """Degenerate pipeline == plain forward/backward."""

        def prog(ctx):
            rng = np.random.default_rng(0)
            x = rng.normal(size=(ROWS, H)).astype(np.float32)
            model = Sequential(ctx, Linear(ctx, H, H, init_tags=("solo",)))
            stage = PipelineStage(ctx, model, prev_rank=None, next_rank=None)

            def loss_grad(y, m):
                return 1.5, VArray.from_numpy(np.ones((ROWS, H), np.float32))

            total = stage.run_step([VArray.from_numpy(x)],
                                   loss_grad_fn=loss_grad)
            return total, model.steps[0].w.grad is not None

        assert run_spmd(1, prog) == [(1.5, True)]
