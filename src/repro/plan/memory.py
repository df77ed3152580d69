"""Per-GPU memory model: prunes infeasible candidates before pricing.

The estimate replays what the simulator's memory tracker sees on the
worst pipeline stage, from the layer records of :func:`repro.plan.
inventory.layer_ops` (each module's parameter shards and
``save_for_backward`` set) walked through the stage's own schedule,
:func:`repro.parallel.pipeline.pipeline_order`:

* **params** — every layer's shards, charged once when the stage is built;
* **activations** — each module's saved set, charged on every forward and
  released when that module's backward begins;
* **grads** — each parameter's gradient, charged when its module first
  runs backward and accumulated in place after that;
* **optimizer** — Adam's two moments per parameter, divided by the
  data-parallel degree under ZeRO stage 1 (cited [16]).  They live across
  steps, so they add to the step's peak.

Each category's peak and the step's ``peak_total`` are read off one
running sum, so they equal ``MemoryTracker``'s maximum over ranks
(``tests/plan/test_memory.py``, to 1e-9).  Stage 0 is the worst stage:
it runs the most warm-up forwards and the same layers as every other
stage.  Activation checkpointing (cited [4]) keeps each layer's input
block in place of its saved set and rebuilds one layer's set while that
layer runs backward; the cost model pays the recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from repro.errors import GridError
from repro.parallel.pipeline import pipeline_order
from repro.plan.inventory import DTYPE_BYTES, layer_ops
from repro.plan.space import CandidateConfig, ModelSpec

__all__ = ["MemoryEstimate", "estimate_memory"]

#: Adam keeps two moment tensors per parameter.
OPTIMIZER_STATES = 2


@dataclass(frozen=True)
class MemoryEstimate:
    """Predicted peak per-GPU footprint of one candidate (bytes)."""

    params_bytes: float
    grads_bytes: float
    optimizer_bytes: float
    activation_bytes: float
    #: peak of params + grads + activations during one step
    step_peak_bytes: float

    @property
    def total_bytes(self) -> float:
        """The budget-pruning total: the step's peak plus optimizer state."""
        return self.step_peak_bytes + self.optimizer_bytes

    def fits(self, budget_bytes: float) -> bool:
        return self.total_bytes <= budget_bytes


def estimate_memory(
    model: ModelSpec,
    cfg: CandidateConfig,
    global_batch: int,
    seq_len: int | None = None,
    schedule: str = "1f1b",
    zero: bool = False,
    checkpoint: bool = False,
) -> MemoryEstimate:
    """Peak per-GPU bytes for one candidate config."""
    seq = model.seq_len if seq_len is None else seq_len
    if global_batch % (cfg.dp * cfg.microbatches):
        raise GridError(
            f"batch {global_batch} does not divide into dp={cfg.dp} x "
            f"M={cfg.microbatches}"
        )
    mb = global_batch // (cfg.dp * cfg.microbatches)
    layers = model.num_layers // cfg.pp
    layer = layer_ops(model, cfg, mb, seq)
    saved, grad = layer.saved_bytes, layer.param_bytes
    boundary = prod(layer.block) * DTYPE_BYTES
    # The highest point of one layer's first backward above its start:
    # each module frees its saved set, then charges its gradients.
    run, rise = 0.0, float("-inf")
    for m in reversed(layer.held):
        run -= m.saved_bytes
        for _, shape in m.params:
            run += prod(shape) * DTYPE_BYTES
            rise = max(rise, run)

    params = layers * grad
    grads = acts = peak_acts = 0.0
    peak = params
    first = True
    for forward, _ in pipeline_order(schedule, cfg.microbatches, 0, cfg.pp):
        if forward:
            if checkpoint:   # the last layer's full set, then its input kept
                top = acts + (layers - 1) * boundary + saved
                acts += layers * boundary
            else:
                top = acts = acts + layers * saved
            peak_acts = max(peak_acts, top)
            peak = max(peak, params + grads + top)
            continue
        if not (first or checkpoint):    # frees only: no new peak
            acts -= layers * saved
            continue
        for _ in range(layers):      # backward, last layer first
            if checkpoint:           # drop the input, rebuild the set
                acts += saved - boundary
                peak_acts = max(peak_acts, acts)
                peak = max(peak, params + grads + acts)
            if first:
                peak = max(peak, params + grads + acts + rise)
                grads += grad
            acts -= saved
        first = False

    return MemoryEstimate(
        params_bytes=params,
        grads_bytes=grads,
        optimizer_bytes=OPTIMIZER_STATES * params / (cfg.dp if zero else 1),
        activation_bytes=peak_acts,
        step_peak_bytes=peak,
    )
