"""Tests for the planner's configuration space enumeration."""

import pytest

from repro.errors import GridError
from repro.plan.space import (
    MODEL_PRESETS,
    SCHEMES,
    CandidateConfig,
    ModelSpec,
    divisors,
    enumerate_configs,
)

TINY = MODEL_PRESETS["tiny"]


class TestDivisors:
    def test_basic(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(16) == [1, 2, 4, 8, 16]

    def test_rejects_nonpositive(self):
        with pytest.raises(GridError):
            divisors(0)


class TestCandidateConfig:
    def test_world_multiplies_out(self):
        cfg = CandidateConfig("tesseract", dp=2, pp=2, tp=8, q=2, d=2)
        assert cfg.world == 32

    def test_grid_needs_dq_squared(self):
        with pytest.raises(GridError):
            CandidateConfig("tesseract", dp=1, pp=1, tp=8, q=2, d=1)

    def test_depth_bounded_by_q(self):
        # d = 4 > q = 2 violates the paper's 1 <= d <= q constraint.
        with pytest.raises(GridError):
            CandidateConfig("tesseract", dp=1, pp=1, tp=16, q=2, d=4)

    def test_serial_must_be_trivial_grid(self):
        with pytest.raises(GridError):
            CandidateConfig("serial", dp=1, pp=1, tp=1, q=2, d=1)

    def test_optimus_is_depth_one(self):
        # grid_shape owns the rule; the config was once labelled
        # "optimus[2,2,2]" here.
        with pytest.raises(GridError, match="d=1"):
            CandidateConfig(scheme="optimus", dp=1, pp=1, tp=8, q=2, d=2)

    def test_serial_has_one_tensor_rank(self):
        with pytest.raises(GridError, match="tp"):
            CandidateConfig("serial", dp=1, pp=1, tp=4)

    def test_unknown_scheme(self):
        with pytest.raises(GridError):
            CandidateConfig("colossal", dp=1, pp=1, tp=1)

    def test_nonpositive_dimension(self):
        with pytest.raises(GridError):
            CandidateConfig("serial", dp=0, pp=1, tp=1)

    def test_labels(self):
        assert CandidateConfig("tesseract", dp=2, pp=1, tp=8, q=2, d=2,
                               microbatches=1).label == \
            "tesseract[2,2,2] dp2 pp1 M1"
        assert CandidateConfig("megatron", dp=1, pp=2, tp=4,
                               microbatches=8).label == \
            "megatron(tp=4) dp1 pp2 M8"


class TestEnumerate:
    def test_every_candidate_fills_the_world(self):
        for cfg in enumerate_configs(8, TINY, 32):
            assert cfg.world == 8

    def test_deterministic_and_sorted(self):
        a = enumerate_configs(16, TINY, 32)
        b = enumerate_configs(16, TINY, 32)
        assert a == b
        assert list(a) == sorted(a)

    def test_covers_all_schemes_at_16(self):
        # 16 = dp * pp * tp admits tp=1 (serial), tp in {2,4,8,16}
        # (megatron), tp=4=[2,2,1] (optimus) and tp=8=[2,2,2] (tesseract).
        schemes = {cfg.scheme for cfg in enumerate_configs(16, TINY, 32)}
        assert schemes == set(SCHEMES)

    def test_no_microbatching_without_pipeline(self):
        for cfg in enumerate_configs(8, TINY, 32):
            if cfg.pp == 1:
                assert cfg.microbatches == 1

    def test_pipelined_microbatches_divide_replica_batch(self):
        for cfg in enumerate_configs(8, TINY, 32, max_microbatches=8):
            assert (32 // cfg.dp) % cfg.microbatches == 0
            assert cfg.microbatches <= 8

    def test_grid_batch_sharding_rule(self):
        # A grid candidate's per-microbatch batch must split over d*q.
        for cfg in enumerate_configs(32, TINY, 64):
            if cfg.scheme in ("optimus", "tesseract"):
                mb = 64 // (cfg.dp * cfg.microbatches)
                assert mb % (cfg.d * cfg.q) == 0

    def test_stage_count_divides_layers(self):
        for cfg in enumerate_configs(16, TINY, 32):
            assert TINY.num_layers % cfg.pp == 0

    def test_head_divisibility_gates_megatron(self):
        # 4 heads: megatron tp=8 would leave a rank headless.
        model = ModelSpec("h4", hidden=64, num_layers=4, nheads=4)
        assert not any(
            cfg.scheme == "megatron" and cfg.tp == 8
            for cfg in enumerate_configs(8, model, 32)
        )

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(GridError):
            enumerate_configs(0, TINY, 32)
        with pytest.raises(GridError):
            enumerate_configs(8, TINY, 0)


class TestPresets:
    def test_ladder_is_complete(self):
        assert set(MODEL_PRESETS) == {"tiny", "350M", "1.3B", "2.7B", "6.7B"}

    def test_param_counts_match_names(self):
        # The presets should land near their nominal sizes (within 25%;
        # the names follow the GPT-3 ladder, which rounds).
        for name, nominal in (("350M", 350e6), ("1.3B", 1.3e9),
                              ("2.7B", 2.7e9), ("6.7B", 6.7e9)):
            params = MODEL_PRESETS[name].param_elements
            assert abs(params - nominal) / nominal < 0.25

    def test_describe_mentions_size(self):
        assert "hidden 1024" in MODEL_PRESETS["350M"].describe()
