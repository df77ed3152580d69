"""Analytic step time and memory of one candidate for the planner.

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
* the pipeline is the stages' own schedule,
  :func:`repro.parallel.pipeline.pipeline_order`, with the boundary
  transfers priced as :meth:`~repro.comm.communicator.Communicator.send`
  and ``recv`` charge them.

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

:meth:`PlanCostModel.estimate` prices a candidate by walking every
stage's ``pipeline_order`` once, advancing a clock per stage:

* a forward costs the stage's layers' forward;
* a backward costs their backward, plus a recompute of the forward under
  activation checkpointing (cited [4]); every backward after the stage's
  first also adds each parameter shard's gradient into its slot (the
  ``grad+:<name>`` kernel of ``Parameter.accumulate``);
* a sender pays the link latency (sends are buffered); a receiver waits
  until the post time plus the transfer.

The step time is the slowest stage plus the data-parallel gradient sync.
The same loop keeps each stage's memory books from the layer records:
parameter shards are charged once; each module's ``save_for_backward``
set is charged on every forward and released when its backward begins
(under checkpointing a layer keeps its input block instead and rebuilds
one set while it runs backward); gradients are charged on the stage's
first backward, the flag that also skips the ``grad+`` adds in time.
Adam's two moments (divided by dp under ZeRO-1, cited [16]) live across
steps and add to the peak.  Each category's peak and the step's
``peak_total`` come off one running sum per stage, the maximum taken
over stages.  The step time equals :func:`repro.plan.validate.
simulate_config` and the peaks equal ``MemoryTracker``'s maximum over
ranks, both to 1e-9 (``tests/plan/test_inventory.py``,
``tests/plan/test_memory.py``).  ZeRO's owner broadcast is the one priced
term the simulated step does not run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from repro.grid.context import GridLayout
from repro.grid.shapes import TesseractShape
from repro.hardware.spec import ClusterSpec
from repro.hardware.topology import Topology
from repro.parallel.pipeline import pipeline_order
from repro.plan.inventory import DTYPE_BYTES, Kernel, LayerOps, layer_ops
from repro.plan.space import CandidateConfig, ModelSpec
from repro.sim.cost import CommCostModel, ComputeCostModel

__all__ = ["StepCost", "MemoryEstimate", "PlanGroups", "PlanCostModel",
           "DTYPE_BYTES"]

#: Adam keeps two moment tensors per parameter.
OPTIMIZER_STATES = 2


@dataclass(frozen=True)
class StepCost:
    """Predicted timing of one training step (seconds); the breakdown is
    the slowest pipeline stage's."""

    total_s: float
    comm_s: float         #: tensor-parallel collective time of that stage
    bubble_s: float       #: time that stage waits on its pipeline neighbours
    dp_sync_s: float      #: gradient all-reduce (+ ZeRO broadcast) per step


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

    def _phases(self, layer: LayerOps, groups: PlanGroups):
        """(seconds, collective seconds) of one layer's forward and of its
        backward: the roofline over the declared kernels plus each
        collective priced on its group."""
        phases = []
        for ops in (layer.fwd, layer.bwd):
            t = comm = 0.0
            for op in ops:
                if isinstance(op, Kernel):
                    t += op.count * self.compute.op_time(
                        op.flops, op.nbytes, op.min_dim)
                else:
                    c = op.count * self.comm.fused(
                        getattr(groups, op.axis),
                        [(op.kind, b) for b in op.nbytes])[-1]
                    t += c
                    comm += c
            phases.append((t, comm))
        return phases

    def layer_times(self, model: ModelSpec, cfg: CandidateConfig,
                    mb: int, seq: int) -> tuple[float, float, float]:
        """(fwd_s, bwd_s, comm_s) of one layer for one microbatch, the
        comm share of both phases reported apart."""
        (fwd_s, fwd_comm), (bwd_s, bwd_comm) = self._phases(
            layer_ops(model, cfg, mb, seq), plan_groups(cfg))
        return fwd_s, bwd_s, fwd_comm + bwd_comm

    def estimate(
        self,
        model: ModelSpec,
        cfg: CandidateConfig,
        global_batch: int,
        seq_len: int | None = None,
        schedule: str = "1f1b",
        zero: bool = False,
        checkpoint: bool = False,
    ) -> tuple[StepCost, MemoryEstimate]:
        """One fwd+bwd training step (with dp gradient sync): its time and
        its peak per-GPU bytes, from one walk of every stage's schedule."""
        seq = model.seq_len if seq_len is None else seq_len
        mb = cfg.microbatch_size(global_batch)
        pp, layers = cfg.pp, model.num_layers // cfg.pp
        groups = plan_groups(cfg)
        layer = layer_ops(model, cfg, mb, seq)
        (lf, cf), (lb, cb) = self._phases(layer, groups)
        fwd_s, fwd_comm = layers * lf, layers * cf
        # Checkpointing recomputes the forward inside the backward.
        bwd_s = layers * (lb + lf if checkpoint else lb)
        bwd_comm = layers * (cb + cf if checkpoint else cb)
        # A later backward adds each gradient shard into its slot: one
        # elementwise add of two shards (Parameter.accumulate's grad+).
        accumulate = layers * sum(
            self.compute.op_time(n, 3 * n * DTYPE_BYTES)
            for n in (prod(s) for m in layer.held for _, s in m.params))

        # Stage s sends its boundary block to the same tensor rank of
        # stage s +- 1, one pipe_src -> pipe_dst stride away:
        # (send latency, transfer) per hop.
        boundary = prod(layer.block) * DTYPE_BYTES
        stride = groups.pipe_dst - groups.pipe_src
        rank = [groups.pipe_src + s * stride for s in range(pp)]
        hop = {}
        for a in range(pp - 1):
            for x, y in ((a, a + 1), (a + 1, a)):
                hop[x, y] = (self.comm.topology.link(rank[x], rank[y]).latency,
                             self.comm.p2p(rank[x], rank[y], boundary))

        saved, grad = layer.saved_bytes, layer.param_bytes
        params = layers * grad
        # The highest point of one layer's first backward above its start:
        # each module frees its saved set, then charges its gradients.
        run, rise = 0.0, float("-inf")
        for m in reversed(layer.held):
            run -= m.saved_bytes
            for _, shape in m.params:
                run += prod(shape) * DTYPE_BYTES
                rise = max(rise, run)

        posted = {}      # (forward, stage, microbatch) -> the send's time

        def stage(s):
            """One stage's walk; yields the message it waits for."""
            clock = idle = comm = 0.0
            grads = acts = peak_acts = 0.0
            peak = params
            first = True
            for forward, m in pipeline_order(schedule, cfg.microbatches, s,
                                             pp):
                src, dst = (s - 1, s + 1) if forward else (s + 1, s - 1)
                if 0 <= src < pp:
                    sent = yield forward, src, m
                    start = max(clock, sent + hop[src, s][1])
                    idle += start - clock
                    clock = start
                if forward:
                    clock += fwd_s
                    comm += fwd_comm
                    if checkpoint:  # the last layer's full set, inputs kept
                        top = acts + (layers - 1) * boundary + saved
                        acts += layers * boundary
                    else:
                        top = acts = acts + layers * saved
                    peak_acts = max(peak_acts, top)
                    peak = max(peak, params + grads + top)
                else:
                    clock += bwd_s if first else bwd_s + accumulate
                    comm += bwd_comm
                    if not (first or checkpoint):   # frees only: no new peak
                        acts -= layers * saved
                    else:
                        for _ in range(layers):     # last layer first
                            if checkpoint:   # drop the input, rebuild the set
                                acts += saved - boundary
                                peak_acts = max(peak_acts, acts)
                                peak = max(peak, params + grads + acts)
                            if first:
                                peak = max(peak, params + grads + acts + rise)
                                grads += grad
                            acts -= saved
                    first = False
                if 0 <= dst < pp:
                    clock += hop[s, dst][0]
                    posted[forward, s, m] = clock
            return clock, idle, comm, grads, peak_acts, peak

        # Advance each stage in turn until it waits on a message not yet
        # sent; the synchronous schedules cannot deadlock.
        walks = [stage(s) for s in range(pp)]
        waiting = dict.fromkeys(range(pp))
        ends = []
        while waiting:
            for s, key in list(waiting.items()):
                try:
                    while key is None or key in posted:
                        key = walks[s].send(posted.get(key))
                except StopIteration as done:
                    ends.append(done.value)
                    del waiting[s]
                else:
                    waiting[s] = key
        clock, idle, comm = max(e[:3] for e in ends)
        grads, acts, peak = (max(e[i] for e in ends) for i in (3, 4, 5))

        # Data-parallel gradient sync: one coalesced all-reduce of every
        # local gradient byte (the batched window prices exactly this),
        # plus the ZeRO-1 owner broadcast of the updated parameters.
        dp_sync = 0.0
        if cfg.dp > 1:
            dp_sync = self.comm.all_reduce(groups.dp, params)
            if zero:
                dp_sync += self.comm.broadcast(groups.dp, params)

        return (
            StepCost(total_s=clock + dp_sync, comm_s=comm, bubble_s=idle,
                     dp_sync_s=dp_sync),
            MemoryEstimate(
                params_bytes=params,
                grads_bytes=grads,
                optimizer_bytes=OPTIMIZER_STATES * params
                / (cfg.dp if zero else 1),
                activation_bytes=acts,
                step_peak_bytes=peak,
            ),
        )
