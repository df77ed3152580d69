"""The planner's declared layer inventory, checked op for op against a
traced pass of the layer code it describes.

One symbolic layer forward + backward runs on a ``tp``-rank engine with
tracing on; rank 0's kernels and collectives, split at the phase
markers, must equal :func:`repro.plan.inventory.layer_ops`:

* kernels: the multiset of ``(tag, flops, bytes)`` per phase, and each
  group's summed duration against ``count * op_time`` to 1e-9 relative;
* collectives: ``(tag, group, ((kind, per-rank bytes), ...))`` per phase,
  a batch window being one entry (the ops of its ``FusedBatchEvent``);
* totals: :meth:`PlanCostModel.layer_times` against the traced forward,
  backward and communication seconds, to 1e-9 relative.

The planner's whole step, one walk of every pipeline stage's schedule
over these records, must then equal the simulated step of
:func:`repro.plan.validate.simulate_config` for any dp, pp, M, schedule
and checkpointing.
"""

from collections import Counter

import pytest

from repro.comm.communicator import Communicator
from repro.grid.context import GridLayout, ParallelContext
from repro.grid.shapes import TesseractShape
from repro.hardware.spec import meluxina
from repro.parallel.megatron.layers import MegatronTransformerLayer
from repro.parallel.serial import SerialTransformerLayer
from repro.parallel.tesseract.layers import TesseractTransformerLayer
from repro.plan.cost import PlanCostModel, plan_groups
from repro.plan.inventory import Kernel, layer_ops
from repro.plan.space import CandidateConfig, ModelSpec
from repro.plan.validate import _stage_program, simulate_config
from repro.sim.engine import Engine
from repro.sim.events import (
    CommEvent,
    ComputeEvent,
    FusedBatchEvent,
    MarkerEvent,
)
from repro.util.mathutil import ceil_div
from repro.varray.varray import VArray

CONFIGS = {
    "serial": CandidateConfig("serial", dp=1, pp=1, tp=1),
    "megatron-tp4": CandidateConfig("megatron", dp=1, pp=1, tp=4),
    "optimus-221": CandidateConfig("optimus", dp=1, pp=1, tp=4, q=2),
    # two 4-GPU nodes: the depth all-reduce crosses InfiniBand
    "tesseract-222": CandidateConfig("tesseract", dp=1, pp=1, tp=8, q=2,
                                     d=2),
}
MB = 16
SHAPES = {
    "h256-s64": (ModelSpec("h256", hidden=256, num_layers=1, nheads=8), 64),
    "h256-s512": (ModelSpec("h256", hidden=256, num_layers=1, nheads=8),
                  512),
    "h1024-s512": (ModelSpec("h1024", hidden=1024, num_layers=1,
                             nheads=16), 512),
}
REL = 1e-9
PHASES = ("fwd", "bwd")


def _cluster(cfg):
    return meluxina(ceil_div(cfg.world, 4))


def _layer(ctx, model, cfg):
    """The layer the planner prices, and this rank's input shape."""
    h, nh, r = model.hidden, model.nheads, model.mlp_ratio
    if cfg.scheme in ("optimus", "tesseract"):
        pc = ParallelContext(ctx, GridLayout(TesseractShape(q=cfg.q,
                                                            d=cfg.d)))
        return (TesseractTransformerLayer(pc, h, nh, r),
                (MB // (cfg.d * cfg.q), h // cfg.q))
    if cfg.scheme == "megatron":
        comm = Communicator(ctx, range(cfg.tp))
        return MegatronTransformerLayer(comm, h, nh, r), (MB, h)
    return SerialTransformerLayer(ctx, h, nh, r), (MB, h)


def _traced(model, cfg, seq):
    """Rank 0's events of one layer forward + backward, split by phase."""

    def program(ctx):
        layer, (b, width) = _layer(ctx, model, cfg)
        ctx.marker("fwd")
        y = layer.forward(VArray.symbolic((b, seq, width)))
        ctx.marker("bwd")
        layer.backward(VArray.symbolic(y.shape))
        ctx.marker("end")

    engine = Engine(cluster=_cluster(cfg), nranks=cfg.world,
                    mode="symbolic", trace=True)
    try:
        engine.run(program)
        events = [e for e in engine.trace.events if e.rank == 0]
    finally:
        engine.shutdown()
    phases = {name: [] for name in ("fwd", "bwd", "end")}
    marks = {}
    phase = None
    for e in events:
        if isinstance(e, MarkerEvent):
            phase = e.name
            marks[phase] = e.t
        else:
            phases[phase].append(e)
    assert not phases["end"]
    return phases, marks


def _split(events):
    """(kernels, collectives) of one phase; a window's op events fold
    into one entry (they are recorded right before its summary)."""
    kernels, colls = [], []
    for e in events:
        if isinstance(e, ComputeEvent):
            kernels.append(e)
        elif isinstance(e, CommEvent):
            colls.append(((e.tag, e.group, ((e.kind, e.nbytes),)),
                          e.duration))
        elif isinstance(e, FusedBatchEvent):
            ops = colls[-len(e):]
            del colls[-len(e):]
            colls.append(((e.tag, e.group,
                           tuple(op for key, _ in ops for op in key[2])),
                          e.duration))
    return kernels, colls


def _base(kind):
    return kind.split("[", 1)[0]


def _diff(declared, traced):
    missing = declared - traced
    extra = traced - declared
    return (f"declared but not launched: {sorted(missing.items(), key=str)}"
            f"\nlaunched but not declared: {sorted(extra.items(), key=str)}")


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("scheme", CONFIGS)
def test_inventory_matches_trace(scheme, shape):
    cfg = CONFIGS[scheme]
    model, seq = SHAPES[shape]
    phases, marks = _traced(model, cfg, seq)
    groups = plan_groups(cfg)
    cost = PlanCostModel(_cluster(cfg), cfg.world)
    declared = dict(zip(PHASES, layer_ops(model, cfg, MB, seq)))
    comm_s = 0.0
    for phase in PHASES:
        kernels, colls = _split(phases[phase])
        want_k, want_c = Counter(), Counter()
        want_t = Counter()
        for op in declared[phase]:
            if isinstance(op, Kernel):
                key = (op.tag, op.flops, op.nbytes)
                want_k[key] += op.count
                want_t[key] += op.count * cost.compute.op_time(
                    op.flops, op.nbytes, op.min_dim)
            else:
                key = (op.tag, getattr(groups, op.axis),
                       tuple((op.kind, b) for b in op.nbytes))
                want_c[key] += op.count
        got_k = Counter((e.tag, e.flops, e.bytes_touched) for e in kernels)
        assert got_k == want_k, f"{phase} kernels\n{_diff(want_k, got_k)}"
        got_t = Counter()
        for e in kernels:
            got_t[(e.tag, e.flops, e.bytes_touched)] += e.duration
        for key, t in want_t.items():
            assert got_t[key] == pytest.approx(t, rel=REL), (phase, key)
        got_c = Counter(
            (tag, group, tuple((_base(k), b) for k, b in ops))
            for (tag, group, ops), _ in colls
        )
        assert got_c == want_c, f"{phase} collectives\n{_diff(want_c, got_c)}"
        comm_s += sum(t for _, t in colls)

    fwd_s, bwd_s, layer_comm_s = cost.layer_times(model, cfg, MB, seq)
    assert fwd_s == pytest.approx(marks["bwd"] - marks["fwd"], rel=REL)
    assert bwd_s == pytest.approx(marks["end"] - marks["bwd"], rel=REL)
    assert layer_comm_s == pytest.approx(comm_s, rel=REL, abs=0.0)


STEP_MODEL = ModelSpec("step", hidden=256, num_layers=4, nheads=8,
                       seq_len=64)
#: id -> (config, schedule, checkpoint): every scheme pipelined, dp x pp
#: x M, a stage boundary across nodes (megatron tp=2 pp=4), microbatches
#: without a pipeline, both schedules, and checkpointed layers.
STEP_ARMS = {
    "optimus-221": (CONFIGS["optimus-221"], "1f1b", False),
    "tesseract-222": (CONFIGS["tesseract-222"], "1f1b", False),
    **{
        f"{name}-{schedule}": (cfg, schedule, False)
        for name, cfg in {
            "serial-pp2-m2": CandidateConfig("serial", dp=1, pp=2, tp=1,
                                             microbatches=2),
            "megatron-pp2-m4": CandidateConfig("megatron", dp=1, pp=2,
                                               tp=4, microbatches=4),
            "optimus-pp2-m2": CandidateConfig("optimus", dp=1, pp=2, tp=4,
                                              q=2, microbatches=2),
            "tesseract-pp2-m2": CandidateConfig("tesseract", dp=1, pp=2,
                                                tp=8, q=2, d=2,
                                                microbatches=2),
            "megatron-dp2-pp2-m2": CandidateConfig("megatron", dp=2, pp=2,
                                                   tp=2, microbatches=2),
            "serial-pp4-m8": CandidateConfig("serial", dp=1, pp=4, tp=1,
                                             microbatches=8),
            "megatron-pp4-m4": CandidateConfig("megatron", dp=1, pp=4,
                                               tp=2, microbatches=4),
            "megatron-pp1-m4": CandidateConfig("megatron", dp=1, pp=1,
                                               tp=4, microbatches=4),
        }.items()
        for schedule in ("1f1b", "gpipe")
    },
    "serial-pp4-m8-1f1b-ckpt": (
        CandidateConfig("serial", dp=1, pp=4, tp=1, microbatches=8),
        "1f1b", True),
    "tesseract-pp2-m2-gpipe-ckpt": (
        CandidateConfig("tesseract", dp=1, pp=2, tp=8, q=2, d=2,
                        microbatches=2), "gpipe", True),
    "megatron-dp2-pp2-m2-1f1b-ckpt": (
        CandidateConfig("megatron", dp=2, pp=2, tp=2, microbatches=2),
        "1f1b", True),
}


def _simulated_step(model, cfg, schedule, checkpoint):
    """:func:`simulate_config`'s step, its layers checkpointed if asked."""
    if not checkpoint:
        return simulate_config(model, cfg, MB, schedule=schedule)[0]
    engine = Engine(cluster=_cluster(cfg), nranks=cfg.world,
                    mode="symbolic", trace=False)
    try:
        results = engine.run(_stage_program(
            model, cfg, cfg.microbatch_size(MB), model.seq_len, schedule,
            checkpoint=True))
    finally:
        engine.shutdown()
    return max(t for t, _ in results)


@pytest.mark.parametrize("arm", STEP_ARMS)
def test_step_time_equals_simulated_step(arm):
    cfg, schedule, checkpoint = STEP_ARMS[arm]
    predicted, _ = PlanCostModel(_cluster(cfg), cfg.world).estimate(
        STEP_MODEL, cfg, MB, schedule=schedule, checkpoint=checkpoint)
    simulated = _simulated_step(STEP_MODEL, cfg, schedule, checkpoint)
    assert predicted.total_s == pytest.approx(simulated, rel=REL)
