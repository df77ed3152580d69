"""Analytic per-config step-time model for the auto-parallel planner.

The model composes the *same* primitives the simulator executes with:

* local kernels are priced by the compute roofline
  (:class:`~repro.sim.cost.ComputeCostModel` over the cluster's GPU spec,
  including the ``min_dim`` tile-quantization penalty that ruins narrow
  per-rank GEMMs);
* collectives are priced by :class:`~repro.sim.cost.CommCostModel` on the
  *actual* world-rank groups the config would use — built from the same
  :class:`~repro.grid.context.GridLayout` rank algebra, so leader
  placement and node spans behave exactly as they do in a simulated run
  (batch windows through :meth:`~repro.sim.cost.CommCostModel.fused`,
  as the engine prices them);
* the pipeline contributes the synchronous-schedule bubble,
  ``(M + pp - 1)`` slots per step for both GPipe and 1F1B.

One layer's schedule is the declared op inventory of its layer family
(:func:`repro.plan.inventory.layer_ops`): every kernel the modules launch
with its flops, bytes and ``min_dim``, every collective with its group
axis and per-rank bytes, checked op for op against a traced pass of the
layer code by ``tests/plan/test_inventory.py``.  :meth:`PlanCostModel.
layer_times` is one loop over it.  The small kernels matter more than
their flop counts suggest: the roofline's saturating utilization puts a
floor of ``launch_overhead + half_util_flops / (peak * max_util)``
(~54 us on the A100 spec) under any nonzero-flop kernel, so a layer's
~30 elementwise launches per pass are a first-order term, not noise.
The collective schedules the inventory declares:

=========  ==================================================================
serial     four GEMMs + attention core, no collectives
megatron   column/row GEMMs at 1/tp width, one tensor all-reduce per
           row-parallel linear forward and per column-parallel linear
           backward (two each per layer, §2.5)
optimus    four SUMMA linears forward (fused QKV, proj, fc1, fc2: q steps
           of row/col broadcasts and a local GEMM each), their AB^T/A^T B
           pairs backward with row/col reduces (§2.2, Alg. 2), batched
           row all-reduces for the LayerNorm statistics (§3.2.2) and
           column all-reduces for bias and LayerNorm parameter gradients
tesseract  the same SUMMA schedule on the depth slice, plus the paper's
           depth all-reduce of every weight gradient (§3.1) and of the
           bias and LayerNorm parameter gradients
=========  ==================================================================

The result is a closed-form price — about half a millisecond of Python
per candidate instead of a full engine run — validated against the
symbolic simulator by :mod:`repro.plan.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GridError
from repro.grid.context import GridLayout
from repro.grid.shapes import TesseractShape
from repro.hardware.spec import ClusterSpec
from repro.hardware.topology import Topology
from repro.perf.memory import per_gpu_layer_params
from repro.plan.inventory import DTYPE_BYTES, Kernel, layer_ops
from repro.plan.space import CandidateConfig, ModelSpec
from repro.sim.cost import CommCostModel, ComputeCostModel

__all__ = ["StepCost", "PlanGroups", "PlanCostModel", "DTYPE_BYTES"]


@dataclass(frozen=True)
class StepCost:
    """Predicted timing breakdown of one training step (seconds)."""

    total_s: float
    compute_s: float      #: roofline kernel time, one microbatch slot chain
    comm_s: float         #: tensor-parallel collective time in the slots
    p2p_s: float          #: pipeline boundary transfers in the slots
    bubble_s: float       #: (pp - 1) idle slots of the synchronous schedule
    dp_sync_s: float      #: gradient all-reduce (+ ZeRO broadcast) per step
    fwd_slot_s: float     #: one stage's forward time for one microbatch
    bwd_slot_s: float     #: one stage's backward time for one microbatch


@dataclass(frozen=True)
class PlanGroups:
    """Representative world-rank groups of one candidate config.

    Built for the (dp=0, pp=0) corner replica; under BLOCK placement all
    replicas are congruent so the corner prices the whole grid.
    """

    row: tuple[int, ...]
    col: tuple[int, ...]
    depth: tuple[int, ...]
    tensor: tuple[int, ...]
    dp: tuple[int, ...]
    pipe_src: int
    pipe_dst: int


def plan_groups(cfg: CandidateConfig) -> PlanGroups:
    """The world-rank groups a candidate's collectives run on."""
    if cfg.scheme in ("optimus", "tesseract"):
        layout = GridLayout(TesseractShape(q=cfg.q, d=cfg.d),
                            dp_size=cfg.dp, pp_size=cfg.pp)
        wr, rank_of = layout.world_rank, layout.shape.rank_of
        row = tuple(wr(0, 0, rank_of(0, j, 0)) for j in range(cfg.q))
        col = tuple(wr(0, 0, rank_of(i, 0, 0)) for i in range(cfg.q))
        depth = tuple(wr(0, 0, rank_of(0, 0, k)) for k in range(cfg.d))
        tensor = tuple(wr(0, 0, t) for t in range(cfg.tp))
        dp = tuple(wr(x, 0, 0) for x in range(cfg.dp))
    else:
        tensor = tuple(range(cfg.tp))
        row = col = depth = (0,)
        dp = tuple((x * cfg.pp) * cfg.tp for x in range(cfg.dp))
    pipe_src = tensor[0]
    pipe_dst = pipe_src + cfg.tp if cfg.pp > 1 else pipe_src
    return PlanGroups(row=row, col=col, depth=depth, tensor=tensor, dp=dp,
                      pipe_src=pipe_src, pipe_dst=pipe_dst)


class PlanCostModel:
    """Prices candidate configs on a cluster without running the engine.

    The topology and pricing are the ones every validation engine uses
    (BLOCK placement, :attr:`~repro.sim.cost.CollectiveAlg.AUTO`, no NIC
    contention): :func:`plan_groups` prices the corner replica, which
    stands for the whole grid only under BLOCK placement.
    """

    def __init__(self, cluster: ClusterSpec, world: int):
        self.comm = CommCostModel(Topology(cluster, nranks=world))
        self.compute = ComputeCostModel(cluster.gpu)

    def layer_times(self, model: ModelSpec, cfg: CandidateConfig,
                    mb: int, seq: int) -> tuple[float, float, float]:
        """(fwd_s, bwd_s, comm_s) of one layer for one microbatch: the
        roofline over the declared kernels plus each collective priced on
        its group, the comm share of both phases reported apart."""
        groups = plan_groups(cfg)
        comm_s = 0.0
        phases = []
        for ops in layer_ops(model, cfg, mb, seq):
            t = 0.0
            for op in ops:
                if isinstance(op, Kernel):
                    t += op.count * self.compute.op_time(
                        op.flops, op.nbytes, op.min_dim)
                else:
                    c = op.count * self.comm.fused(
                        getattr(groups, op.axis),
                        [(op.kind, b) for b in op.nbytes])[-1]
                    t += c
                    comm_s += c
            phases.append(t)
        fwd_s, bwd_s = phases
        return fwd_s, bwd_s, comm_s

    # --- the step-level composition ---------------------------------------

    def step_time(
        self,
        model: ModelSpec,
        cfg: CandidateConfig,
        global_batch: int,
        seq_len: int | None = None,
        zero: bool = False,
        checkpoint: bool = False,
    ) -> StepCost:
        """Price one fwd+bwd training step (with dp gradient sync)."""
        seq = model.seq_len if seq_len is None else seq_len
        if global_batch % (cfg.dp * cfg.microbatches):
            raise GridError(
                f"batch {global_batch} does not divide into dp={cfg.dp} x "
                f"M={cfg.microbatches}"
            )
        mb = global_batch // (cfg.dp * cfg.microbatches)
        layers_local = model.num_layers // cfg.pp
        groups = plan_groups(cfg)

        lf, lb, lcomm = self.layer_times(model, cfg, mb, seq)
        fwd_slot = layers_local * lf
        bwd_slot = layers_local * lb
        if checkpoint:
            # Recompute the forward inside backward (cited [4]).
            bwd_slot += layers_local * lf
        comm_slot = layers_local * lcomm

        # Pipeline boundary p2p: one activation block each way per slot.
        p2p_slot = 0.0
        if cfg.pp > 1:
            if cfg.scheme in ("optimus", "tesseract"):
                boundary = mb * seq * model.hidden * DTYPE_BYTES / cfg.tp
            else:
                boundary = mb * seq * model.hidden * DTYPE_BYTES
            p2p_slot = 2 * self.comm.p2p(groups.pipe_src, groups.pipe_dst,
                                         boundary)

        slot = fwd_slot + bwd_slot + p2p_slot
        slots = cfg.microbatches + cfg.pp - 1
        pipeline_s = slots * slot
        bubble_s = (cfg.pp - 1) * slot

        # Data-parallel gradient sync: one coalesced all-reduce of every
        # local gradient byte (the batched window prices exactly this),
        # plus the ZeRO-1 owner broadcast of the updated parameters.
        grad_bytes = per_gpu_layer_params(
            model.hidden, cfg.scheme, p=cfg.tp, q=cfg.q, d=cfg.d,
            mlp_ratio=model.mlp_ratio,
        ) * layers_local * DTYPE_BYTES
        dp_sync = 0.0
        if cfg.dp > 1:
            dp_sync = self.comm.all_reduce(groups.dp, grad_bytes)
            if zero:
                dp_sync += self.comm.broadcast(groups.dp, grad_bytes)

        return StepCost(
            total_s=pipeline_s + dp_sync,
            compute_s=slot - comm_slot - p2p_slot,
            comm_s=comm_slot,
            p2p_s=p2p_slot,
            bubble_s=bubble_s,
            dp_sync_s=dp_sync,
            fwd_slot_s=fwd_slot,
            bwd_slot_s=bwd_slot,
        )
