"""Reproduce the §3.1 memory comparison (Eq. 7-10).

Closed-form per-GPU memory for a distributed matmul under Tesseract vs
Megatron-LM, next to the *measured* peak memory of simulated transformer
stacks ("Megatron-LM requires p times more memory to store matrix A" —
i.e. activations dominate its footprint at scale).  The planner's memory
model, walked over the same stacks, must equal each measured peak.
"""

import pytest

from repro.bench.experiments import BenchRow
from repro.perf.memory import (
    elements_to_bytes,
    megatron_matmul_memory,
    tesseract_matmul_memory,
)
from repro.hardware.spec import meluxina
from repro.plan.cost import PlanCostModel
from repro.plan.space import CandidateConfig, ModelSpec
from repro.util.formatting import format_bytes
from repro.util.tables import Table

from benchmarks.conftest import run_row_cached

# One 64-GPU configuration per scheme, same global problem.
ROWS = [
    BenchRow("mem", "megatron", 64, (64,), 32, 4096, 64, 1, 1, 0.5, 1),
    BenchRow("mem", "optimus", 64, (8, 8), 32, 4096, 64, 1, 1, 0.5, 1),
    BenchRow("mem", "tesseract", 64, (4, 4, 4), 32, 4096, 64, 1, 1, 0.5, 1),
]
#: the measured stacks as the planner sees them: 4 layers, one microbatch
STACK = ModelSpec("mem", hidden=4096, num_layers=4, nheads=64, seq_len=512)
CONFIGS = {
    "megatron[64]": CandidateConfig("megatron", dp=1, pp=1, tp=64),
    "optimus[8, 8]": CandidateConfig("optimus", dp=1, pp=1, tp=64, q=8),
    "tesseract[4, 4, 4]": CandidateConfig("tesseract", dp=1, pp=1, tp=64,
                                          q=4, d=4),
}


@pytest.mark.parametrize("row", ROWS, ids=lambda r: r.label)
def test_measured_peak_memory(benchmark, row):
    measured = benchmark.pedantic(
        lambda: run_row_cached(row, seq_len=512, num_layers=4),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["peak_bytes"] = measured.peak_memory_bytes
    assert measured.peak_memory_bytes > 0


def test_memory_report_and_eq7_eq10(benchmark, capsys):
    measured = benchmark.pedantic(
        lambda: {
            row.label: run_row_cached(row, seq_len=512, num_layers=4)
            for row in ROWS
        },
        rounds=1, iterations=1,
    )
    # Eq. 7-10 closed forms for the first MLP matmul of this model:
    # A = [b*s, h], B = [h, 4h].
    b_times_s, h = 32 * 512, 4096
    closed = {
        "megatron[64]": megatron_matmul_memory(b_times_s, h, 4 * h, 64),
        "optimus[8, 8]": tesseract_matmul_memory(b_times_s, h, 4 * h, 8, 1),
        "tesseract[4, 4, 4]": tesseract_matmul_memory(b_times_s, h, 4 * h, 4, 4),
    }
    cost = PlanCostModel(meluxina(16), 64)
    planned = {label: cost.estimate(STACK, cfg, global_batch=32)[1]
               for label, cfg in CONFIGS.items()}
    table = Table(
        ["configuration", "Eq.7-10 matmul elems", "Eq bytes (fp32)",
         "planned stack peak", "measured stack peak"],
        title="Per-GPU memory: closed form vs simulated 4-layer stack",
    )
    for label in closed:
        table.add_row([
            label,
            f"{closed[label]:.3e}",
            format_bytes(elements_to_bytes(closed[label])),
            format_bytes(planned[label].step_peak_bytes),
            format_bytes(measured[label].peak_memory_bytes),
        ])
    with capsys.disabled():
        print()
        print(table.render())

    # Eq. 7-10's conclusion: Tesseract needs less memory per GPU than
    # Megatron-LM, in the closed form and in the measured stacks.
    assert closed["tesseract[4, 4, 4]"] < closed["megatron[64]"]
    assert (measured["tesseract[4, 4, 4]"].peak_memory_bytes
            < measured["megatron[64]"].peak_memory_bytes)
    for label, est in planned.items():
        assert est.step_peak_bytes == pytest.approx(
            measured[label].peak_memory_bytes, rel=1e-9), label
    # Activation hierarchy at equal GPU count: Megatron replicates the
    # LayerNorm and residual-width tensors; Optimus [8,8] and Tesseract
    # [4,4,4] both divide them by p = 64 (d*q^2 == q'^2), so they tie on
    # activations up to the per-row LayerNorm statistics — Tesseract's
    # *additional* memory edge over 1-D comes from the A matrix of Eq. 8.
    acts = {label: est.activation_bytes for label, est in planned.items()}
    assert acts["tesseract[4, 4, 4]"] == pytest.approx(
        acts["optimus[8, 8]"], rel=1e-3)
    assert acts["optimus[8, 8]"] < acts["megatron[64]"]
    assert (measured["optimus[8, 8]"].peak_memory_bytes
            < measured["megatron[64]"].peak_memory_bytes)
    # Tesseract replicates B-layout weights d times (the b*c*d/p term the
    # paper calls negligible), so at equal p its *weight* footprint sits
    # slightly above Optimus'; the peak stays far below Megatron.
    assert (measured["tesseract[4, 4, 4]"].peak_memory_bytes
            < 0.5 * measured["megatron[64]"].peak_memory_bytes)
