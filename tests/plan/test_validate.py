"""Tests for the planner's simulator-validation loop."""

import pytest

from repro.errors import GridError
from repro.plan.search import Planner
from repro.plan.space import MODEL_PRESETS, CandidateConfig
from repro.plan.validate import (
    diverse_topk,
    simulate_config,
    spearman,
    validate_topk,
)

TINY = MODEL_PRESETS["tiny"]


@pytest.fixture(scope="module")
def result():
    return Planner(world=8).search(TINY, global_batch=32)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_average(self):
        rho = spearman([1.0, 1.0, 2.0, 3.0], [1, 2, 3, 4])
        assert 0.0 < rho < 1.0

    def test_constant_series(self):
        assert spearman([5, 5, 5], [1, 2, 3]) == 0.0
        assert spearman([5, 5, 5], [7, 7, 7]) == 1.0

    def test_short_series(self):
        assert spearman([3], [9]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])


class TestDiverseTopk:
    def test_spreads_over_buckets(self, result):
        buckets = {(pc.config.scheme, pc.config.pp) for pc in result.ranked}
        k = min(4, len(buckets))
        chosen = diverse_topk(result, k)
        assert len({(pc.config.scheme, pc.config.pp) for pc in chosen}) == k

    def test_fills_from_global_top(self, result):
        k = len(result.ranked) + 5
        chosen = diverse_topk(result, k)
        assert len(chosen) == len(result.ranked)
        assert len(set(chosen)) == len(chosen)

    def test_best_candidate_always_included(self, result):
        assert result.recommendation in diverse_topk(result, 2)


class TestSimulateConfig:
    def test_returns_positive_time_and_memory(self, result):
        pc = result.recommendation
        step_s, peak = simulate_config(TINY, pc.config, global_batch=32,
                                       seq_len=result.seq_len)
        assert step_s > 0.0
        assert peak > 0.0

    def test_rejects_indivisible_batch(self):
        # 12 sequences do not split into dp=2 x M=4: nothing is floored.
        cfg = CandidateConfig("serial", dp=2, pp=2, tp=1, microbatches=4)
        with pytest.raises(GridError, match="batch 12 does not divide"):
            simulate_config(TINY, cfg, global_batch=12)


class TestValidateTopk:
    def test_rank_agreement_on_tiny(self, result):
        report = validate_topk(result, k=4)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.simulated_step_s > 0.0
            assert abs(row.rel_error) < 0.5
        # The acceptance bar: analytic predictions order the diverse
        # top-k the way the simulator does.
        assert report.spearman >= 0.8
        assert report.mean_abs_rel_error < 0.25

    def test_payload_shape(self, result):
        report = validate_topk(result, k=2)
        payload = report.to_payload()
        assert set(payload) == {"spearman", "mean_abs_rel_error", "rows"}
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            assert set(row) == {"label", "predicted_step_s",
                                "simulated_step_s", "rel_error",
                                "predicted_peak_bytes",
                                "simulated_peak_bytes"}
            assert row["predicted_peak_bytes"] == pytest.approx(
                row["simulated_peak_bytes"], rel=1e-9)

    def test_checkpointed_search_validates_what_it_priced(self):
        # The validated step runs the search's checkpointing, so time and
        # peak equal the predictions, not just their order.
        ckpt = Planner(world=8).search(TINY, global_batch=32,
                                       checkpoint=True)
        assert ckpt.checkpoint
        report = validate_topk(ckpt, k=3)
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.predicted_step_s == pytest.approx(
                row.simulated_step_s, rel=1e-9)
            assert row.predicted_peak_bytes == pytest.approx(
                row.peak_memory_bytes, rel=1e-9)

    def test_empty_search_yields_empty_report(self):
        starved = Planner(world=8).search(TINY, global_batch=32,
                                          budget_bytes=1024.0)
        report = validate_topk(starved, k=4)
        assert report.rows == ()
        assert report.spearman == 1.0
        assert report.mean_abs_rel_error == 0.0
