#!/usr/bin/env python
"""Fig. 6: compose Tesseract with data and pipeline parallelism (32 GPUs).

The paper's §3.4: "The number of total GPU involved will be 32 equals to
data parallel size times pipeline parallel size times tesseract depth
times square of tesseract dimension."  This example runs exactly that
layout — dp=2 x pp=2 x tesseract [2,2,2] — for one training step of a
two-layer transformer (one layer per pipeline stage, two microbatches per
replica), verifies the composed gradients against the serial model, and
prints a timeline of the simulated cluster.

Run:  python examples/fig6_composition.py
"""

import numpy as np

from repro.grid import GridLayout, ParallelContext, TesseractShape
from repro.nn.module import Sequential
from repro.parallel import PipelineStage, dp_batch_slice, sync_gradients
from repro.parallel.layers import TransformerLayer
from repro.parallel.tesseract import local_block_a
from repro.sim import Engine
from repro.sim.timeline import analyze, gantt
from repro.util.formatting import format_seconds
from repro.varray import VArray

Q, D, DP, PP = 2, 2, 2, 2
H, NH, S, BATCH, MICRO = 16, 4, 4, 16, 2


def main() -> None:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(BATCH, S, H)).astype(np.float32)
    dy = rng.normal(size=(BATCH, S, H)).astype(np.float32)

    layout = GridLayout(TesseractShape(q=Q, d=D), dp_size=DP, pp_size=PP)
    print(f"layout: dp={DP} x pp={PP} x tesseract [{Q},{Q},{D}] "
          f"= {layout.world_size} GPUs (Fig. 6)")

    # Serial reference for the gradient check.
    def serial(ctx):
        model = Sequential(
            ctx,
            TransformerLayer(ctx, H, NH, init_tags=("fig6", 0)),
            TransformerLayer(ctx, H, NH, init_tags=("fig6", 1)),
        )
        model.forward(VArray.from_numpy(x))
        model.backward(VArray.from_numpy(dy))
        return {n: p.grad.numpy() for n, p in model.parameters()}

    serial_grads = Engine(nranks=1).run(serial)[0]

    def composed(ctx):
        pc = ParallelContext(ctx, layout)
        layer = TransformerLayer(pc, H, NH, init_tags=("fig6", pc.pp_idx))
        stage = PipelineStage(ctx, layer,
                              prev_rank=pc.pipeline_neighbor(-1),
                              next_rank=pc.pipeline_neighbor(+1))
        lo, hi = dp_batch_slice(pc, BATCH)
        x_rep, dy_rep = x[lo:hi], dy[lo:hi]
        rows = x_rep.shape[0] // MICRO
        if stage.is_first:
            micro = [VArray.from_numpy(
                local_block_a(pc, x_rep[m * rows:(m + 1) * rows]))
                for m in range(MICRO)]
            stage.run_step(micro)
        else:
            stage.run_step(
                MICRO,
                loss_grad_fn=lambda y, m: (0.0, VArray.from_numpy(
                    local_block_a(pc, dy_rep[m * rows:(m + 1) * rows]))),
            )
        sync_gradients(pc, layer)
        return ((pc.pp_idx, pc.i, pc.j, pc.k),
                layer.mlp.fc1.w.grad.numpy())

    engine = Engine(nranks=layout.world_size)
    results = engine.run(composed)

    # Verify a representative gradient block on every rank.
    max_err = 0.0
    for (pp, i, j, k), g in results:
        ref = serial_grads[f"{pp}.mlp.fc1.w"]
        r0, r1 = H // Q, 4 * H // Q
        expect = ref[i * r0:(i + 1) * r0, j * r1:(j + 1) * r1]
        max_err = max(max_err, float(np.abs(g - expect).max()))

    summary = analyze(engine.trace)
    print(f"\nsimulated step time : {format_seconds(summary['makespan'])}")
    print(f"mean GPU utilization: {summary['mean_utilization']:.1%}")
    print(f"communication share : {summary['comm_fraction']:.1%} of busy time")
    print(f"max gradient error vs serial full-batch model: {max_err:.2e}\n")
    print(gantt(engine.trace, ranks=[0, 4, 8, 16, 24], width=64))
    assert max_err < 5e-4, "composed gradients diverged from serial!"
    print("\nOK: dp x pipeline x Tesseract training step is exact.")


if __name__ == "__main__":
    main()
