"""Validate planner predictions against the symbolic-mode simulator.

The planner's cost model is closed-form; this module is its ground truth
loop: take the top of a ranking, *actually build* each candidate — the
full dp x pp x tensor grid with pipeline stages and data-parallel
gradient sync, on the search's schedule and with its activation
checkpointing — and run one training step through the engine in symbolic
mode, then compare simulated step times with the analytic predictions.
ZeRO's owner broadcast is the one priced term the step does not run.

The headline statistic is the Spearman rank correlation between
predicted and simulated step times: the planner's job is to *order*
configurations correctly, so rank agreement (not absolute error) is the
acceptance bar.  Each candidate runs on its own engine, one after
another, through :func:`repro.sim.engine.run_engines`.

The validated subset is chosen for diversity (best candidate per
(scheme, pp) bucket, then best remaining) so the correlation is measured
across genuinely different configurations rather than near-ties.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.communicator import Communicator
from repro.errors import ConfigError
from repro.hardware.spec import ClusterSpec, meluxina
from repro.nn.checkpoint import ActivationCheckpoint
from repro.nn.module import Sequential
from repro.parallel.dp import sync_gradients
from repro.parallel.factory import tensor_group
from repro.parallel.layers import TransformerLayer, layout_of
from repro.parallel.pipeline import PipelineStage
from repro.plan.search import PlannedConfig, SearchResult
from repro.plan.space import CandidateConfig, ModelSpec
from repro.sim.engine import Engine, run_engines
from repro.util.mathutil import ceil_div
from repro.varray.varray import VArray

__all__ = ["ValidationRow", "ValidationReport", "spearman",
           "simulate_config", "validate_topk", "diverse_topk"]


def spearman(xs, ys) -> float:
    """Spearman rank correlation, with average ranks on ties."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    n = len(xs)
    if n < 2:
        return 1.0

    def ranks(vals):
        order = sorted(range(n), key=lambda i: vals[i])
        r = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mean = (n + 1) / 2.0
    num = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    vx = sum((a - mean) ** 2 for a in rx)
    vy = sum((b - mean) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 1.0 if vx == vy else 0.0
    return num / (vx * vy) ** 0.5


@dataclass(frozen=True)
class ValidationRow:
    """One validated candidate: prediction vs simulation."""

    planned: PlannedConfig
    simulated_step_s: float
    peak_memory_bytes: float     #: the simulated ``peak_total``, over ranks

    @property
    def predicted_step_s(self) -> float:
        return self.planned.predicted_step_s

    @property
    def predicted_peak_bytes(self) -> float:
        """The planner's step peak (the simulated step builds no optimizer)."""
        return self.planned.memory.step_peak_bytes

    @property
    def rel_error(self) -> float:
        """Relative prediction error against the simulated time."""
        return (self.predicted_step_s - self.simulated_step_s) \
            / self.simulated_step_s


@dataclass(frozen=True)
class ValidationReport:
    """Validation outcome for the top of one search."""

    rows: tuple[ValidationRow, ...]

    @property
    def spearman(self) -> float:
        return spearman([r.predicted_step_s for r in self.rows],
                        [r.simulated_step_s for r in self.rows])

    @property
    def mean_abs_rel_error(self) -> float:
        if not self.rows:
            return 0.0
        return sum(abs(r.rel_error) for r in self.rows) / len(self.rows)

    def to_payload(self) -> dict:
        return {
            "spearman": self.spearman,
            "mean_abs_rel_error": self.mean_abs_rel_error,
            "rows": [
                {
                    "label": r.planned.config.label,
                    "predicted_step_s": r.predicted_step_s,
                    "simulated_step_s": r.simulated_step_s,
                    "rel_error": r.rel_error,
                    "predicted_peak_bytes": r.predicted_peak_bytes,
                    "simulated_peak_bytes": r.peak_memory_bytes,
                }
                for r in self.rows
            ],
        }


def _stage_program(model: ModelSpec, cfg: CandidateConfig, mb: int,
                   seq: int, schedule: str, checkpoint: bool = False):
    """Per-rank program: one pipelined fwd+bwd step plus dp grad sync,
    every layer wrapped in :class:`ActivationCheckpoint` if ``checkpoint``.
    """
    layers_local = model.num_layers // cfg.pp
    h, nh, r = model.hidden, model.nheads, model.mlp_ratio

    def program(ctx):
        group, tensor_rank = divmod(ctx.rank, cfg.tp)
        dp_idx, pp_idx = divmod(group, cfg.pp)
        tensor = tensor_group(ctx, cfg.scheme, cfg.q, cfg.d, world=cfg.tp,
                              dp_size=cfg.dp, pp_size=cfg.pp)
        layout = layout_of(tensor)
        pc = layout.pc
        layers = [
            TransformerLayer(tensor, h, nh, r,
                             init_tags=("plan", "stage", pp_idx, "layer", i))
            for i in range(layers_local)
        ]
        if checkpoint:
            layers = [ActivationCheckpoint(layer) for layer in layers]
        if pc is not None:
            prev_rank = pc.pipeline_neighbor(-1)
            next_rank = pc.pipeline_neighbor(+1)
        else:
            prev_rank = ctx.rank - cfg.tp if pp_idx > 0 else None
            next_rank = ctx.rank + cfg.tp if pp_idx < cfg.pp - 1 else None
        local_shape = layout.local_shape(mb, seq, h)
        module = Sequential(ctx, *layers)
        stage = PipelineStage(ctx, module, prev_rank, next_rank,
                              stage_index=pp_idx, num_stages=cfg.pp)

        def loss_grad(y, m):
            return 0.0, VArray.symbolic(y.shape, y.dtype)

        t0 = ctx.now
        if stage.is_first:
            blocks = [VArray.symbolic(local_shape)
                      for _ in range(cfg.microbatches)]
            stage.run_step(blocks,
                           loss_grad_fn=loss_grad if stage.is_last else None,
                           schedule=schedule)
        elif stage.is_last:
            stage.run_step(cfg.microbatches, loss_grad_fn=loss_grad,
                           schedule=schedule)
        else:
            stage.run_step(cfg.microbatches, schedule=schedule)

        if cfg.dp > 1:
            if pc is not None:
                sync_gradients(pc, module)
            else:
                dp_ranks = [
                    (x * cfg.pp + pp_idx) * cfg.tp + tensor_rank
                    for x in range(cfg.dp)
                ]
                dp_comm = Communicator(ctx, dp_ranks)
                synced = [p for _, p in module.parameters()
                          if p.grad is not None]
                with dp_comm.batch(tag="plan_dp_sync"):
                    pending = [
                        dp_comm.all_reduce(p.grad, tag=f"plan_dp:{p.name}")
                        for p in synced
                    ]
                for p, hdl in zip(synced, pending):
                    p.grad = hdl.value
        return ctx.now - t0, ctx.mem.peak_total

    return program


def simulate_config(
    model: ModelSpec,
    cfg: CandidateConfig,
    global_batch: int,
    seq_len: int | None = None,
    schedule: str = "1f1b",
    cluster: ClusterSpec | None = None,
    engine: Engine | None = None,
) -> tuple[float, float]:
    """One simulated training step: (step_seconds, peak_memory_bytes)."""
    seq = model.seq_len if seq_len is None else seq_len
    mb = cfg.microbatch_size(global_batch)
    own_engine = engine is None
    if own_engine:
        if cluster is None:
            cluster = meluxina(ceil_div(cfg.world, 4))
        engine = Engine(cluster=cluster, nranks=cfg.world, mode="symbolic",
                        trace=False)
    try:
        results = engine.run(_stage_program(model, cfg, mb, seq, schedule))
    finally:
        if own_engine:
            engine.shutdown()
    return (max(t for t, _ in results), max(m for _, m in results))


def diverse_topk(result: SearchResult, k: int) -> list[PlannedConfig]:
    """Top candidates spread across (scheme, pp) buckets.

    The best candidate of each bucket enters first (in rank order), then
    the remaining global top fills up to ``k`` — so the validated set
    spans genuinely different configurations instead of k near-ties.
    """
    if k < 0:
        raise ConfigError(f"the number of candidates to validate (k) must "
                          f"be >= 0, got {k}")
    chosen: list[PlannedConfig] = []
    seen_buckets: set[tuple[str, int]] = set()
    for pc in result.ranked:
        bucket = (pc.config.scheme, pc.config.pp)
        if bucket not in seen_buckets:
            seen_buckets.add(bucket)
            chosen.append(pc)
        if len(chosen) >= k:
            return chosen[:k]
    for pc in result.ranked:
        if pc not in chosen:
            chosen.append(pc)
            if len(chosen) >= k:
                break
    return chosen[:k]


def validate_topk(
    result: SearchResult,
    k: int = 4,
    cluster: ClusterSpec | None = None,
) -> ValidationReport:
    """Simulate a diverse top-k of a search and report rank agreement.

    Each candidate runs on an engine of its own, back to back through
    ``run_engines``; every engine is shut down afterwards, even when a
    run raised.
    """
    chosen = diverse_topk(result, k)
    if not chosen:
        return ValidationReport(rows=())
    if cluster is None:
        cluster = meluxina(ceil_div(result.world, 4))
    engines = [
        Engine(cluster=cluster, nranks=pc.config.world, mode="symbolic",
               trace=False)
        for pc in chosen
    ]
    try:
        jobs = [
            (eng, _stage_program(
                result.model, pc.config,
                pc.config.microbatch_size(result.global_batch),
                result.seq_len, result.schedule, result.checkpoint))
            for eng, pc in zip(engines, chosen)
        ]
        per_engine = run_engines(jobs)
    finally:
        for eng in engines:
            try:
                eng.shutdown()
            except Exception:
                pass
    rows = tuple(
        ValidationRow(
            planned=pc,
            simulated_step_s=max(t for t, _ in results),
            peak_memory_bytes=max(m for _, m in results),
        )
        for pc, results in zip(chosen, per_engine)
    )
    return ValidationReport(rows=rows)
