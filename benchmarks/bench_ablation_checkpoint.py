"""Ablation: activation checkpointing (the paper's reference [4]).

§1 lists activation checkpointing among the orthogonal memory techniques.
This bench quantifies the trade on a Tesseract-sharded stack: wrapping
each transformer layer in :class:`~repro.nn.checkpoint.ActivationCheckpoint`
cuts peak activation memory while paying roughly one extra forward of
simulated time.
"""

import pytest

from repro.grid.context import ParallelContext
from repro.nn.checkpoint import ActivationCheckpoint
from repro.nn.module import Sequential
from repro.parallel.layers import TransformerLayer
from repro.sim.engine import Engine
from repro.util.formatting import format_bytes, format_seconds
from repro.util.tables import Table
from repro.varray.varray import VArray

Q, D = 2, 2
B, S, H, NH, LAYERS = 64, 512, 2048, 32, 4

_cache: dict = {}


def _run(checkpointed: bool):
    key = checkpointed
    if key in _cache:
        return _cache[key]
    engine = Engine(nranks=Q * Q * D, mode="symbolic")

    def prog(ctx):
        pc = ParallelContext.tesseract(ctx, q=Q, d=D)
        layers = Sequential(ctx)
        for idx in range(LAYERS):
            layer = TransformerLayer(pc, H, NH, init_tags=("ck", idx))
            layers.append(
                ActivationCheckpoint(layer) if checkpointed else layer
            )
        x = VArray.symbolic((B // (Q * D), S, H // Q))
        t0 = ctx.now
        y = layers.forward(x)
        peak_after_fwd = ctx.mem.current("activations")
        layers.backward(VArray.symbolic(y.shape))
        return ctx.now - t0, peak_after_fwd, ctx.mem.peak_total

    results = engine.run(prog)
    out = (
        max(t for t, _, _ in results),
        max(a for _, a, _ in results),
        max(p for _, _, p in results),
    )
    _cache[key] = out
    return out


@pytest.mark.parametrize("checkpointed", [False, True],
                         ids=["plain", "checkpointed"])
def test_checkpoint_point(benchmark, checkpointed):
    step_time, act_bytes, peak = benchmark.pedantic(
        lambda: _run(checkpointed), rounds=1, iterations=1
    )
    benchmark.extra_info["sim_step_s"] = step_time
    benchmark.extra_info["activation_bytes_after_fwd"] = act_bytes
    assert step_time > 0


def test_checkpoint_tradeoff_report(benchmark, capsys):
    plain_t, plain_act, plain_peak = benchmark.pedantic(
        lambda: _run(False), rounds=1, iterations=1)
    ck_t, ck_act, ck_peak = _run(True)
    table = Table(
        ["variant", "step time", "activations after fwd", "peak memory"],
        title=f"Activation checkpointing on tesseract [{Q},{Q},{D}], "
        f"{LAYERS} layers (h={H}, b={B})",
    )
    table.add_row(["plain", format_seconds(plain_t), format_bytes(plain_act),
                   format_bytes(plain_peak)])
    table.add_row(["checkpointed", format_seconds(ck_t),
                   format_bytes(ck_act), format_bytes(ck_peak)])
    with capsys.disabled():
        print()
        print(table.render())
        print(f"memory saved: {1 - ck_act / plain_act:.1%} of live "
              f"activations; time cost: {ck_t / plain_t - 1:.1%}")

    # The trade: much less activation memory held, somewhat more time.
    assert ck_act < 0.5 * plain_act
    assert plain_t < ck_t < 2.0 * plain_t
