"""Memory-model cross-checks: predicted vs measured simulator peaks.

The planner prunes on the memory half of :meth:`repro.plan.cost.
PlanCostModel.estimate`; these tests build each candidate for real (the
same per-rank program the validator runs) and compare the prediction
against the engine's memory tracker, maximum over ranks: parameters,
gradients, the activation peak and ``peak_total`` must all be equal
(optimizer state excluded: the step program builds no optimizer).  The records the walk reads are
checked first, module by module, against one built layer per scheme.
"""

import pytest

from repro.errors import ConfigError, GridError
from repro.hardware.spec import meluxina
from repro.parallel.factory import tensor_group
from repro.parallel.layers import TransformerLayer, layout_of
from repro.parallel.pipeline import pipeline_order
from repro.plan.cost import PlanCostModel
from repro.plan.inventory import layer_ops
from repro.plan.space import CandidateConfig, ModelSpec
from repro.plan.validate import _stage_program
from repro.sim.engine import Engine
from repro.util.mathutil import ceil_div
from repro.varray.varray import VArray

SMALL = ModelSpec("mem-s", hidden=128, num_layers=4, nheads=4, seq_len=32)
MEDIUM = ModelSpec("mem-m", hidden=256, num_layers=4, nheads=4, seq_len=64)
BATCH = 16
REL = 1e-9

#: (id, config) covering serial, 1-D, and 2.5-D, with and without a
#: pipeline, at M = 1 and M > 1.
CONFIGS = [
    ("serial-pp2-m4",
     CandidateConfig("serial", dp=2, pp=2, tp=1, microbatches=4)),
    ("serial-pp2-m1",
     CandidateConfig("serial", dp=2, pp=2, tp=1, microbatches=1)),
    ("megatron-pp2-m4",
     CandidateConfig("megatron", dp=1, pp=2, tp=4, microbatches=4)),
    ("tesseract-flat",
     CandidateConfig("tesseract", dp=1, pp=1, tp=8, q=2, d=2)),
    ("tesseract-pp2-m4",
     CandidateConfig("tesseract", dp=1, pp=2, tp=8, q=2, d=2,
                     microbatches=4)),
]


def planned_memory(model, cfg, global_batch, **kw):
    """The MemoryEstimate half of one walk."""
    cost = PlanCostModel(meluxina(ceil_div(cfg.world, 4)), cfg.world)
    return cost.estimate(model, cfg, global_batch, **kw)[1]


def measured_peaks(model, cfg, global_batch, schedule="1f1b",
                   checkpoint=False):
    """Max per-category peaks over all ranks of one simulated step."""
    inner = _stage_program(model, cfg, cfg.microbatch_size(global_batch),
                           model.seq_len, schedule, checkpoint)

    def program(ctx):
        inner(ctx)
        return (ctx.mem.peak("params"), ctx.mem.peak("grads"),
                ctx.mem.peak("activations"), ctx.mem.peak_total)

    engine = Engine(cluster=meluxina(ceil_div(cfg.world, 4)),
                    nranks=cfg.world, mode="symbolic", trace=False)
    try:
        results = engine.run(program)
    finally:
        engine.shutdown()
    return tuple(max(vals) for vals in zip(*results))


def assert_equal_to_tracker(est, measured):
    params, grads, acts, total = measured
    assert est.params_bytes == pytest.approx(params, rel=REL)
    assert est.grads_bytes == pytest.approx(grads, rel=REL)
    assert est.activation_bytes == pytest.approx(acts, rel=REL)
    assert est.step_peak_bytes == pytest.approx(total, rel=REL)


@pytest.mark.parametrize("model", [SMALL, MEDIUM], ids=lambda m: m.name)
@pytest.mark.parametrize(
    "cfg", [c for _, c in CONFIGS], ids=[i for i, _ in CONFIGS])
def test_predicted_vs_measured(model, cfg):
    est = planned_memory(model, cfg, BATCH, schedule="1f1b")
    assert_equal_to_tracker(est, measured_peaks(model, cfg, BATCH))


def test_gpipe_keeps_every_microbatch_live():
    # Same config, same batch: GPipe holds all M activation sets where
    # 1F1B holds min(M, pp) — both predicted and measured.
    cfg = CandidateConfig("serial", dp=2, pp=2, tp=1, microbatches=4)
    est_g = planned_memory(MEDIUM, cfg, BATCH, schedule="gpipe")
    est_f = planned_memory(MEDIUM, cfg, BATCH, schedule="1f1b")
    assert est_g.activation_bytes > est_f.activation_bytes
    measured_g = measured_peaks(MEDIUM, cfg, BATCH, schedule="gpipe")
    measured_f = measured_peaks(MEDIUM, cfg, BATCH, schedule="1f1b")
    assert measured_g[2] > measured_f[2]
    assert_equal_to_tracker(est_g, measured_g)


@pytest.mark.parametrize("schedule", ["1f1b", "gpipe"])
@pytest.mark.parametrize("cfg", [CONFIGS[0][1], CONFIGS[4][1]],
                         ids=[CONFIGS[0][0], CONFIGS[4][0]])
def test_checkpointed_layers_equal_measured(cfg, schedule):
    # The same step with every layer wrapped in ActivationCheckpoint.
    est = planned_memory(MEDIUM, cfg, BATCH, schedule=schedule,
                         checkpoint=True)
    assert_equal_to_tracker(est, measured_peaks(MEDIUM, cfg, BATCH,
                                                schedule=schedule,
                                                checkpoint=True))


#: one layer per scheme for the record checks
LAYER_CONFIGS = {
    "serial": CandidateConfig("serial", dp=1, pp=1, tp=1),
    "megatron-tp4": CandidateConfig("megatron", dp=1, pp=1, tp=4),
    "optimus-221": CandidateConfig("optimus", dp=1, pp=1, tp=4, q=2),
    "tesseract-222": CandidateConfig("tesseract", dp=1, pp=1, tp=8, q=2,
                                     d=2),
}


def _modules(module, path=""):
    yield path, module
    for name, child in module._children.items():
        yield from _modules(child, f"{path}.{name}" if path else name)


@pytest.mark.parametrize("scheme", LAYER_CONFIGS)
def test_declared_records_match_the_built_layer(scheme):
    cfg = LAYER_CONFIGS[scheme]
    mb, seq = 8, 16
    layer_rec = layer_ops(MEDIUM, cfg, mb, seq)
    want_params = [(f"{m.name}.{name}", shape)
                   for m in layer_rec.held for name, shape in m.params]
    want_saved = {m.name: m.saved_bytes for m in layer_rec.held}

    def program(ctx):
        group = tensor_group(ctx, cfg.scheme, cfg.q, cfg.d, world=cfg.tp)
        layer = TransformerLayer(group, MEDIUM.hidden, MEDIUM.nheads,
                                 MEDIUM.mlp_ratio)
        params = [(name, p.shape) for name, p in layer.parameters()]
        block = layout_of(group).local_shape(mb, seq, MEDIUM.hidden)
        layer.forward(VArray.symbolic(block))
        saved = {path: m._saved_bytes for path, m in _modules(layer)}
        return params, saved, block

    engine = Engine(cluster=meluxina(ceil_div(cfg.world, 4)),
                    nranks=cfg.world, mode="symbolic", trace=False)
    try:
        results = engine.run(program)
    finally:
        engine.shutdown()
    for params, saved, block in results:
        assert params == want_params
        assert saved.pop("") == 0
        assert saved == want_saved
        assert block == layer_rec.block


def _live_sets(order):
    """Most microbatches forwarded and not yet run backward."""
    live = peak = 0
    for forward, _ in order:
        live += 1 if forward else -1
        peak = max(peak, live)
    return peak


class TestLiveSets:
    def test_gpipe_all_live(self):
        for stage in range(4):
            assert _live_sets(pipeline_order("gpipe", 8, stage, 4)) == 8

    def test_1f1b_caps_at_depth(self):
        # stage s keeps min(M, S - s) sets; stage 0 is the worst
        assert [_live_sets(pipeline_order("1f1b", 8, s, 4))
                for s in range(4)] == [4, 3, 2, 1]
        assert _live_sets(pipeline_order("1f1b", 2, 0, 4)) == 2

    def test_no_pipeline_means_all(self):
        # One stage runs each microbatch's backward right after its forward.
        assert _live_sets(pipeline_order("1f1b", 1, 0, 1)) == 1
        assert _live_sets(pipeline_order("1f1b", 4, 0, 1)) == 1

    def test_unknown_schedule(self):
        with pytest.raises(ConfigError, match="unknown pipeline"):
            pipeline_order("interleaved", 2, 0, 2)


class TestEstimateProperties:
    def test_zero_shards_optimizer_over_dp(self):
        cfg = CandidateConfig("serial", dp=4, pp=1, tp=1)
        plain = planned_memory(MEDIUM, cfg, BATCH)
        zero = planned_memory(MEDIUM, cfg, BATCH, zero=True)
        assert zero.optimizer_bytes == pytest.approx(
            plain.optimizer_bytes / 4)
        assert zero.params_bytes == plain.params_bytes

    def test_checkpoint_trims_activations(self):
        cfg = CandidateConfig("serial", dp=1, pp=2, tp=1, microbatches=8)
        plain = planned_memory(MEDIUM, cfg, BATCH)
        ckpt = planned_memory(MEDIUM, cfg, BATCH, checkpoint=True)
        assert ckpt.activation_bytes < plain.activation_bytes
        assert ckpt.params_bytes == plain.params_bytes

    def test_tensor_split_shrinks_params(self):
        serial = planned_memory(
            MEDIUM, CandidateConfig("serial", dp=8, pp=1, tp=1), BATCH)
        meg = planned_memory(
            MEDIUM, CandidateConfig("megatron", dp=2, pp=1, tp=4), BATCH)
        assert meg.params_bytes < serial.params_bytes

    def test_fits_is_total_vs_budget(self):
        cfg = CandidateConfig("serial", dp=2, pp=2, tp=1, microbatches=4)
        est = planned_memory(MEDIUM, cfg, BATCH)
        assert est.total_bytes == est.step_peak_bytes + est.optimizer_bytes
        assert est.fits(est.total_bytes)
        assert not est.fits(est.total_bytes * 0.99)

    def test_rejects_indivisible_batch(self):
        cfg = CandidateConfig("serial", dp=2, pp=2, tp=1, microbatches=4)
        with pytest.raises(GridError):
            planned_memory(MEDIUM, cfg, 12)
