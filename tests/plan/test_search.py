"""Tests for the planner's search driver and ranking."""

import pytest

from repro.errors import ConfigError
from repro.plan.search import Planner, render_plan
from repro.plan.space import MODEL_PRESETS, enumerate_configs

TINY = MODEL_PRESETS["tiny"]


@pytest.fixture(scope="module")
def result():
    return Planner(world=8).search(TINY, global_batch=32)


class TestSearch:
    def test_recommends_something(self, result):
        assert result.recommendation is not None
        assert result.recommendation is result.ranked[0]

    def test_ranking_is_sorted(self, result):
        times = [pc.predicted_step_s for pc in result.ranked]
        assert times == sorted(times)

    def test_accounts_for_every_candidate(self, result):
        expected = len(enumerate_configs(8, TINY, 32))
        assert result.num_candidates == expected
        assert len(result.ranked) + result.num_pruned == expected

    def test_deterministic_across_planners(self, result):
        again = Planner(world=8).search(TINY, global_batch=32)
        assert [pc.config for pc in again.ranked] == \
            [pc.config for pc in result.ranked]
        assert [pc.predicted_step_s for pc in again.ranked] == \
            [pc.predicted_step_s for pc in result.ranked]

    def test_best_for_scheme(self, result):
        for scheme in ("serial", "megatron"):
            best = result.best_for_scheme(scheme)
            assert best is not None and best.config.scheme == scheme
            # ... and it is the *first* such entry in rank order.
            firsts = [pc for pc in result.ranked
                      if pc.config.scheme == scheme]
            assert best is firsts[0]
        assert result.best_for_scheme("tesseract") is None or \
            result.best_for_scheme("tesseract").config.scheme == "tesseract"

    def test_budget_prunes_everything(self):
        starved = Planner(world=8).search(TINY, global_batch=32,
                                          budget_bytes=1024.0)
        assert starved.recommendation is None
        assert starved.num_pruned == starved.num_candidates

    def test_explicit_budget_overrides_fraction(self, result):
        # A budget just under the recommendation's footprint must drop it.
        rec = result.recommendation
        tight = Planner(world=8).search(
            TINY, global_batch=32,
            budget_bytes=rec.memory.total_bytes - 1,
        )
        assert all(pc.config != rec.config for pc in tight.ranked)

    def test_unknown_schedule(self):
        with pytest.raises(ConfigError, match="unknown pipeline schedule"):
            Planner(world=8).search(TINY, global_batch=32,
                                    schedule="interleaved")


class TestPayloadAndRender:
    def test_payload_shape(self, result):
        payload = result.to_payload(top=3)
        assert payload["model"] == "tiny"
        assert payload["world"] == 8
        assert len(payload["top"]) == 3
        rec = payload["recommendation"]
        for key in ("scheme", "dp", "pp", "tp", "q", "d", "microbatches",
                    "predicted_step_s", "bubble_s", "dp_sync_s", "comm_s",
                    "memory_total_bytes", "memory_activation_bytes"):
            assert key in rec

    def test_render_mentions_model_and_counts(self, result):
        text = render_plan(result, top=5)
        assert "plan tiny @ 8 GPUs" in text
        assert f"{result.num_candidates} candidates" in text

    def test_render_empty_search(self):
        starved = Planner(world=8).search(TINY, global_batch=32,
                                          budget_bytes=1024.0)
        assert "no feasible config" in render_plan(starved)
