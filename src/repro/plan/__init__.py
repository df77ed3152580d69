"""Auto-parallel planner: pick (dp, pp, scheme, d, M) for a model + cluster.

Answers the question the paper's evaluation sweeps by hand: *given this
model and this many GPUs, which parallel configuration should I run?*
The planner enumerates every valid factorization of the world size into
data, pipeline and tensor parallelism (with the tensor dimension drawn
from serial / Megatron 1-D / Optimus 2-D / Tesseract 2.5-D), prunes
candidates that exceed the per-GPU memory budget, and ranks the rest
with an analytic cost model built from the same roofline and collective
pricing the simulator charges — so predictions can be spot-checked
against simulated step times (``repro plan``'s validation column).

Modules:

* :mod:`~repro.plan.space`  — model specs and candidate enumeration;
* :mod:`~repro.plan.inventory` — one layer's declared kernels and
  collectives per layer family, checked op for op against the layer code;
* :mod:`~repro.plan.cost`   — one walk of every stage's pipeline schedule
  over the inventory: the step time (the roofline and the collective model
  per layer, boundary transfers, gradient accumulation, dp sync) and the
  peak per-GPU footprint (params, grads, optimizer under ZeRO,
  activations);
* :mod:`~repro.plan.search` — the enumerate / prune / rank driver;
* :mod:`~repro.plan.validate` — simulator cross-check and Spearman rank
  agreement of the top of the ranking.
"""

from repro.plan.cost import MemoryEstimate, PlanCostModel, StepCost
from repro.plan.search import PlannedConfig, Planner, SearchResult, render_plan
from repro.plan.space import (
    MODEL_PRESETS,
    CandidateConfig,
    ModelSpec,
    enumerate_configs,
)
from repro.plan.validate import (
    ValidationReport,
    simulate_config,
    spearman,
    validate_topk,
)

__all__ = [
    "ModelSpec",
    "MODEL_PRESETS",
    "CandidateConfig",
    "enumerate_configs",
    "PlanCostModel",
    "StepCost",
    "MemoryEstimate",
    "Planner",
    "PlannedConfig",
    "SearchResult",
    "render_plan",
    "ValidationReport",
    "simulate_config",
    "spearman",
    "validate_topk",
]
