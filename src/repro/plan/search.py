"""The planner's search driver: enumerate, prune, rank.

:class:`Planner` ties the pieces together: :func:`~repro.plan.space.
enumerate_configs` yields every valid (dp, pp, scheme, d, M)
factorization of the world size, and one call of :meth:`~repro.plan.
cost.PlanCostModel.estimate` per candidate prices both its step time and
its peak per-GPU footprint: candidates over the budget (a fraction of the
GPU's device memory by default) are pruned, the survivors ranked by
predicted step time.  Ties break on the candidate's sort order, so two
runs of the same search always produce the same ranking, byte for byte.

The search is *analytic* — a hundred candidates price in tens of
milliseconds — which is what lets ``repro plan`` sweep model sizes
interactively, with :mod:`repro.plan.validate` available to spot-check
the top of the ranking against the symbolic simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.spec import ClusterSpec, meluxina
from repro.parallel.pipeline import pipeline_order
from repro.plan.cost import MemoryEstimate, PlanCostModel, StepCost
from repro.plan.space import CandidateConfig, ModelSpec, enumerate_configs
from repro.util.mathutil import ceil_div
from repro.util.tables import Table

__all__ = ["PlannedConfig", "SearchResult", "Planner", "render_plan"]


@dataclass(frozen=True)
class PlannedConfig:
    """A feasible candidate with its predicted cost and footprint."""

    config: CandidateConfig
    cost: StepCost
    memory: MemoryEstimate

    @property
    def predicted_step_s(self) -> float:
        return self.cost.total_s

    def to_payload(self) -> dict:
        """JSON-serializable summary (stable key order via sort_keys)."""
        c = self.config
        return {
            "scheme": c.scheme,
            "dp": c.dp,
            "pp": c.pp,
            "tp": c.tp,
            "q": c.q,
            "d": c.d,
            "microbatches": c.microbatches,
            "predicted_step_s": self.cost.total_s,
            "bubble_s": self.cost.bubble_s,
            "dp_sync_s": self.cost.dp_sync_s,
            "comm_s": self.cost.comm_s,
            "memory_total_bytes": self.memory.total_bytes,
            "memory_activation_bytes": self.memory.activation_bytes,
        }


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one planner search for one model size."""

    model: ModelSpec
    world: int
    global_batch: int
    seq_len: int
    schedule: str
    checkpoint: bool                     #: layers activation-checkpointed
    budget_bytes: float
    ranked: tuple[PlannedConfig, ...]    #: feasible, best first
    num_candidates: int                  #: enumerated before pruning
    num_pruned: int                      #: dropped by the memory budget

    @property
    def recommendation(self) -> PlannedConfig | None:
        return self.ranked[0] if self.ranked else None

    def best_for_scheme(self, scheme: str) -> PlannedConfig | None:
        """The top-ranked feasible candidate of one tensor scheme."""
        for pc in self.ranked:
            if pc.config.scheme == scheme:
                return pc
        return None

    def leaders(self, top: int) -> tuple[PlannedConfig, ...]:
        """The ``top`` best feasible candidates."""
        if top < 0:
            raise ConfigError(f"top must be >= 0, got {top}")
        return self.ranked[:top]

    def to_payload(self, top: int = 10) -> dict:
        rec = self.recommendation
        return {
            "model": self.model.name,
            "world": self.world,
            "global_batch": self.global_batch,
            "seq_len": self.seq_len,
            "schedule": self.schedule,
            "budget_bytes": self.budget_bytes,
            "num_candidates": self.num_candidates,
            "num_pruned": self.num_pruned,
            "recommendation": rec.to_payload() if rec else None,
            "top": [pc.to_payload() for pc in self.leaders(top)],
        }


class Planner:
    """Searches the dp x pp x scheme x d x M space for one cluster."""

    def __init__(self, world: int, cluster: ClusterSpec | None = None):
        if world < 1:
            raise ConfigError(f"world must be >= 1, got {world}")
        if cluster is None:
            cluster = meluxina(ceil_div(world, 4))
        self.world = world
        self.cluster = cluster
        self.cost_model = PlanCostModel(cluster, world)

    def search(
        self,
        model: ModelSpec,
        global_batch: int,
        seq_len: int | None = None,
        schedule: str = "1f1b",
        budget_fraction: float = 0.9,
        budget_bytes: float | None = None,
        zero: bool = False,
        checkpoint: bool = False,
        max_microbatches: int = 32,
    ) -> SearchResult:
        """Enumerate, memory-prune and rank every candidate for a model.

        Every argument is checked here, before anything is priced.
        """
        seq = model.seq_len if seq_len is None else seq_len
        for name, value in (("global_batch", global_batch), ("seq_len", seq),
                            ("max_microbatches", max_microbatches)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not 0 < budget_fraction <= 1:
            raise ConfigError(
                f"budget_fraction must be in (0, 1], got {budget_fraction}")
        pipeline_order(schedule, 1, 0, 1)  # the schedule names' owner
        if budget_bytes is None:
            budget_bytes = self.cluster.gpu.memory_bytes * budget_fraction
        candidates = enumerate_configs(
            self.world, model, global_batch,
            max_microbatches=max_microbatches,
        )
        feasible: list[PlannedConfig] = []
        pruned = 0
        for cfg in candidates:
            cost, mem = self.cost_model.estimate(
                model, cfg, global_batch, seq_len=seq, schedule=schedule,
                zero=zero, checkpoint=checkpoint,
            )
            if not mem.fits(budget_bytes):
                pruned += 1
                continue
            feasible.append(PlannedConfig(config=cfg, cost=cost, memory=mem))
        feasible.sort(key=lambda pc: (pc.cost.total_s, pc.config))
        return SearchResult(
            model=model,
            world=self.world,
            global_batch=global_batch,
            seq_len=seq,
            schedule=schedule,
            checkpoint=checkpoint,
            budget_bytes=budget_bytes,
            ranked=tuple(feasible),
            num_candidates=len(candidates),
            num_pruned=pruned,
        )


def render_plan(result: SearchResult, top: int = 8) -> str:
    """Human-readable ranking table for one model's search."""
    table = Table(
        ["#", "config", "dp", "pp", "tp", "M", "step (ms)", "bubble",
         "dp sync", "mem/GPU (GB)"],
        title=(f"plan {result.model.name} @ {result.world} GPUs, batch "
               f"{result.global_batch}, seq {result.seq_len} "
               f"({result.schedule}; {result.num_candidates} candidates, "
               f"{result.num_pruned} over budget)"),
    )
    for idx, pc in enumerate(result.leaders(top), start=1):
        c = pc.config
        if c.scheme in ("optimus", "tesseract"):
            label = f"{c.scheme}[{c.q},{c.q},{c.d}]"
        else:
            label = c.scheme
        table.add_row([
            idx, label, c.dp, c.pp, c.tp, c.microbatches,
            f"{pc.cost.total_s * 1e3:.3f}",
            f"{pc.cost.bubble_s * 1e3:.2f}",
            f"{pc.cost.dp_sync_s * 1e3:.2f}",
            f"{pc.memory.total_bytes / 1e9:.2f}",
        ])
    if not result.ranked:
        table.add_row(["-", "no feasible config", "-", "-", "-", "-", "-",
                       "-", "-", "-"])
    return table.render()
