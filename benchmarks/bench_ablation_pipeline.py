"""Ablation: pipeline schedules (GPipe, ref [9] vs 1F1B/PipeDream, ref [13]).

§3.4 composes Tesseract with pipeline parallelism; the paper cites both
pipeline systems.  This bench runs a 4-stage, 8-microbatch pipeline of
serial transformer layers under both synchronous schedules and compares
(a) peak activation memory on the first stage — 1F1B's raison d'être —
and (b) the simulated step time, which is schedule-similar for the
synchronous variants (same bubble size).
"""

import pytest

from repro.nn.module import Sequential
from repro.parallel.pipeline import PipelineStage
from repro.parallel.layers import TransformerLayer
from repro.sim.engine import Engine
from repro.util.formatting import format_bytes, format_seconds
from repro.util.tables import Table
from repro.varray.varray import VArray

STAGES, MICRO = 4, 8
B, S, H, NH = 32, 64, 256, 4
ROWS = B // MICRO

_cache: dict = {}


def _run(schedule: str):
    if schedule in _cache:
        return _cache[schedule]
    engine = Engine(nranks=STAGES, mode="symbolic")

    def prog(ctx):
        s = ctx.rank
        layer = TransformerLayer(ctx, H, NH, init_tags=("pp", s))
        model = Sequential(ctx, layer)
        stage = PipelineStage(
            ctx, model,
            prev_rank=s - 1 if s > 0 else None,
            next_rank=s + 1 if s < STAGES - 1 else None,
            stage_index=s, num_stages=STAGES,
        )
        t0 = ctx.now
        if stage.is_first:
            blocks = [VArray.symbolic((ROWS, S, H)) for _ in range(MICRO)]
            stage.run_step(blocks, schedule=schedule)
        elif stage.is_last:
            stage.run_step(
                MICRO,
                loss_grad_fn=lambda y, m: (0.0, VArray.symbolic(y.shape)),
                schedule=schedule,
            )
        else:
            stage.run_step(MICRO, schedule=schedule)
        return ctx.now - t0, ctx.mem.peak("activations")

    results = engine.run(prog)
    out = (max(t for t, _ in results), results[0][1])  # stage-0 activations
    _cache[schedule] = out
    return out


@pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
def test_schedule_point(benchmark, schedule):
    step_t, act = benchmark.pedantic(lambda: _run(schedule), rounds=1,
                                     iterations=1)
    benchmark.extra_info["sim_step_s"] = step_t
    benchmark.extra_info["stage0_peak_activation_bytes"] = act
    assert step_t > 0


def test_pipeline_schedule_report(benchmark, capsys):
    gp_t, gp_act = benchmark.pedantic(
        lambda: _run("gpipe"), rounds=1, iterations=1)
    ff_t, ff_act = _run("1f1b")
    table = Table(
        ["schedule", "step time", "stage-0 peak activations"],
        title=f"Pipeline schedules: {STAGES} stages x {MICRO} microbatches",
    )
    table.add_row(["gpipe", format_seconds(gp_t), format_bytes(gp_act)])
    table.add_row(["1f1b", format_seconds(ff_t), format_bytes(ff_act)])
    with capsys.disabled():
        print()
        print(table.render())
        print(f"1F1B activation saving on stage 0: {1 - ff_act / gp_act:.1%}")

    # 1F1B's point: stage 0 holds warmup+1 = 4 microbatch caches, not 8.
    assert ff_act < 0.75 * gp_act
    # Both synchronous schedules have the same bubble; times are close.
    assert ff_t == pytest.approx(gp_t, rel=0.25)
