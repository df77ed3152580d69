"""Model-property tests for the planner's analytic cost model."""

import pytest

from repro.errors import GridError
from repro.hardware.spec import meluxina
from repro.plan.cost import PlanCostModel, plan_groups
from repro.plan.space import MODEL_PRESETS, CandidateConfig, ModelSpec

TINY = MODEL_PRESETS["tiny"]
MODEL = ModelSpec("t", hidden=256, num_layers=4, nheads=4, seq_len=64)


@pytest.fixture(scope="module")
def cm():
    return PlanCostModel(meluxina(4), world=16)


class TestGroups:
    def test_serial_groups_are_trivial(self):
        g = plan_groups(CandidateConfig("serial", dp=4, pp=2, tp=1))
        assert g.row == g.col == g.depth == (0,)
        assert g.tensor == (0,)
        assert len(g.dp) == 4 and len(set(g.dp)) == 4

    def test_megatron_tensor_group_is_contiguous(self):
        g = plan_groups(CandidateConfig("megatron", dp=2, pp=2, tp=4))
        assert g.tensor == (0, 1, 2, 3)

    def test_tesseract_group_sizes(self):
        g = plan_groups(CandidateConfig("tesseract", dp=2, pp=1, tp=8,
                                        q=2, d=2))
        assert len(g.row) == 2 and len(g.col) == 2 and len(g.depth) == 2
        assert len(g.tensor) == 8
        assert len(g.dp) == 2

    def test_pipe_endpoints_cross_stage(self):
        g = plan_groups(CandidateConfig("megatron", dp=1, pp=2, tp=4))
        assert g.pipe_dst - g.pipe_src == 4
        g1 = plan_groups(CandidateConfig("megatron", dp=2, pp=1, tp=4))
        assert g1.pipe_dst == g1.pipe_src


class TestStepCost:
    def test_breakdown_sums_to_total(self, cm):
        cfg = CandidateConfig("megatron", dp=2, pp=2, tp=4, microbatches=4)
        c = cm.step_time(MODEL, cfg, global_batch=32)
        slot = c.fwd_slot_s + c.bwd_slot_s + c.p2p_s
        slots = cfg.microbatches + cfg.pp - 1
        assert c.total_s == pytest.approx(slots * slot + c.dp_sync_s)
        assert c.bubble_s == pytest.approx((cfg.pp - 1) * slot)
        assert c.compute_s == pytest.approx(slot - c.comm_s - c.p2p_s)

    def test_no_bubble_without_pipeline(self, cm):
        cfg = CandidateConfig("megatron", dp=4, pp=1, tp=4)
        c = cm.step_time(MODEL, cfg, global_batch=32)
        assert c.bubble_s == 0.0
        assert c.p2p_s == 0.0

    def test_serial_has_no_tensor_comm(self, cm):
        c = cm.step_time(MODEL, CandidateConfig("serial", dp=16, pp=1, tp=1),
                         global_batch=32)
        assert c.comm_s == 0.0

    def test_tensor_schemes_pay_comm(self, cm):
        for cfg in (CandidateConfig("megatron", dp=4, pp=1, tp=4),
                    CandidateConfig("optimus", dp=4, pp=1, tp=4, q=2),
                    CandidateConfig("tesseract", dp=2, pp=1, tp=8, q=2, d=2)):
            c = cm.step_time(MODEL, cfg, global_batch=32)
            assert c.comm_s > 0.0, cfg.scheme

    def test_dp_sync_only_with_replicas(self, cm):
        lone = cm.step_time(MODEL, CandidateConfig("megatron", dp=1, pp=1,
                                                   tp=16), global_batch=32)
        assert lone.dp_sync_s == 0.0
        repl = cm.step_time(MODEL, CandidateConfig("megatron", dp=4, pp=1,
                                                   tp=4), global_batch=32)
        assert repl.dp_sync_s > 0.0

    def test_zero_adds_owner_broadcast(self, cm):
        cfg = CandidateConfig("megatron", dp=4, pp=1, tp=4)
        plain = cm.step_time(MODEL, cfg, global_batch=32)
        zero = cm.step_time(MODEL, cfg, global_batch=32, zero=True)
        assert zero.dp_sync_s > plain.dp_sync_s

    def test_checkpoint_recomputes_forward(self, cm):
        cfg = CandidateConfig("megatron", dp=2, pp=2, tp=4, microbatches=4)
        plain = cm.step_time(MODEL, cfg, global_batch=32)
        ckpt = cm.step_time(MODEL, cfg, global_batch=32, checkpoint=True)
        assert ckpt.bwd_slot_s == pytest.approx(
            plain.bwd_slot_s + plain.fwd_slot_s)
        assert ckpt.total_s > plain.total_s

    def test_more_microbatches_shrink_relative_bubble(self, cm):
        base = dict(scheme="megatron", dp=1, pp=2, tp=8)
        few = cm.step_time(MODEL, CandidateConfig(**base, microbatches=2),
                           global_batch=32)
        many = cm.step_time(MODEL, CandidateConfig(**base, microbatches=8),
                            global_batch=32)
        assert many.bubble_s / many.total_s < few.bubble_s / few.total_s

    def test_bigger_model_costs_more(self, cm):
        cfg = CandidateConfig("megatron", dp=4, pp=1, tp=4)
        small = cm.step_time(MODEL, cfg, global_batch=32)
        wide = ModelSpec("t2", hidden=512, num_layers=4, nheads=4, seq_len=64)
        big = cm.step_time(wide, cfg, global_batch=32)
        assert big.total_s > small.total_s

    def test_rejects_indivisible_batch(self, cm):
        cfg = CandidateConfig("megatron", dp=4, pp=1, tp=4)
        with pytest.raises(GridError):
            cm.step_time(MODEL, cfg, global_batch=30)

    def test_deterministic(self, cm):
        cfg = CandidateConfig("tesseract", dp=2, pp=1, tp=8, q=2, d=2)
        a = cm.step_time(MODEL, cfg, global_batch=32)
        b = cm.step_time(MODEL, cfg, global_batch=32)
        assert a == b
