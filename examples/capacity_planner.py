#!/usr/bin/env python
"""Capacity planner: which parallelization fits your model on your GPUs?

Uses the planner's memory model plus the simulator to answer the practical
question the paper's §3.1 poses: for a given transformer and GPU budget,
which arrangement fits in device memory and which is fastest?  The memory
model walks each layer's declared parameter shards and saved tensors, so on
a 2-layer probe it equals the simulator's measured peak.  Also demonstrates
§3.4: composing Tesseract with data and pipeline parallelism (Fig. 6's
32-GPU layout).

Run:  python examples/capacity_planner.py
"""

from dataclasses import replace

from repro.bench.experiments import BenchRow
from repro.bench.runner import run_row
from repro.grid import GridLayout, TesseractShape
from repro.hardware.spec import meluxina
from repro.plan import CandidateConfig, ModelSpec, PlanCostModel
from repro.util.formatting import format_bytes, format_seconds
from repro.util.tables import Table

GPUS = 64
GPU_MEMORY = 40e9  # A100-40GB
BATCH, SEQ, HIDDEN, HEADS, LAYERS = 64, 1024, 8192, 64, 24

#: Candidate 64-GPU arrangements (all multiply to GPUS).
CANDIDATES = [
    ("megatron", (64,)),
    ("optimus", (8, 8)),
    ("tesseract", (8, 8, 1)),
    ("tesseract", (4, 4, 4)),
]


MODEL = ModelSpec("capacity", hidden=HIDDEN, num_layers=LAYERS,
                  nheads=HEADS, seq_len=SEQ)


def candidate(scheme: str, shape) -> CandidateConfig:
    """The planner's name for one arrangement: tensor parallelism only."""
    q = shape[0] if scheme != "megatron" else 1
    d = shape[2] if len(shape) == 3 else 1
    return CandidateConfig(scheme, dp=1, pp=1, tp=GPUS, q=q, d=d)


def main() -> None:
    table = Table(
        ["scheme", "shape", "planned mem/GPU", "fits 40GB?",
         "simulated fwd", "2-layer peak: planned", "simulated"],
        title=f"Planning: {LAYERS}x(h={HIDDEN}) transformer, batch {BATCH}, "
        f"seq {SEQ}, on {GPUS} A100s (Adam state included in the plan)",
    )
    best = None
    probe = replace(MODEL, num_layers=2)
    cost = PlanCostModel(meluxina(GPUS // 4), GPUS)
    for scheme, shape in CANDIDATES:
        cfg = candidate(scheme, shape)
        planned = cost.estimate(MODEL, cfg, BATCH)[1].total_bytes
        row = BenchRow("plan", scheme, GPUS, shape, BATCH, HIDDEN, HEADS,
                       0, 1, 1, 1)
        measured = run_row(row, seq_len=SEQ, num_layers=2)
        fits = planned < GPU_MEMORY
        table.add_row([
            scheme, str(list(shape)), format_bytes(planned),
            "yes" if fits else "NO", format_seconds(measured.forward),
            format_bytes(cost.estimate(probe, cfg, BATCH)[1].step_peak_bytes),
            format_bytes(measured.peak_memory_bytes),
        ])
        if fits and (best is None or measured.forward < best[2]):
            best = (scheme, shape, measured.forward)
    print(table.render())
    if best:
        print(f"\nrecommendation: {best[0]} {list(best[1])} — fastest "
              f"arrangement that fits device memory.")

    # §3.4 composition: Fig. 6's dp=2 x pp=2 x tesseract [2,2,2] = 32 GPUs.
    layout = GridLayout(TesseractShape(q=2, d=2), dp_size=2, pp_size=2)
    print(f"\nFig. 6 composition check: dp=2 x pp=2 x tesseract [2,2,2] "
          f"uses {layout.world_size} GPUs "
          f"(tensor group size {layout.tensor_size}).")
    dp, pp, t = layout.decompose(19)
    print(f"world rank 19 -> data-parallel replica {dp}, pipeline stage {pp}, "
          f"tensor rank {t}")


if __name__ == "__main__":
    main()
