"""Tests for the per-rank memory tracker."""

import pytest

from repro.errors import SimulationError
from repro.sim.memory import MemoryTracker


class TestMemoryTracker:
    def test_alloc_and_peak(self):
        m = MemoryTracker()
        m.alloc(100, "params")
        m.alloc(50, "activations")
        assert m.current_total == 150
        assert m.peak_total == 150

    def test_peak_survives_free(self):
        m = MemoryTracker()
        m.alloc(100, "buffers")
        m.free(100, "buffers")
        assert m.current_total == 0
        assert m.peak_total == 100

    def test_per_category_peak(self):
        m = MemoryTracker()
        m.alloc(10, "grads")
        m.free(10, "grads")
        m.alloc(5, "grads")
        assert m.peak("grads") == 10
        assert m.current("grads") == 5

    def test_unknown_category(self):
        m = MemoryTracker()
        with pytest.raises(SimulationError, match="unknown memory category"):
            m.alloc(1, "weights")

    def test_negative_alloc_rejected(self):
        with pytest.raises(SimulationError):
            MemoryTracker().alloc(-1, "params")

    def test_double_free_detected(self):
        m = MemoryTracker()
        m.alloc(10, "buffers")
        m.free(10, "buffers")
        with pytest.raises(SimulationError, match="double free"):
            m.free(10, "buffers")

    def test_strict_capacity_oom(self):
        m = MemoryTracker(capacity_bytes=100, strict=True)
        m.alloc(90, "params")
        with pytest.raises(SimulationError, match="OOM"):
            m.alloc(20, "activations")

    def test_non_strict_allows_overflow_but_reports(self):
        m = MemoryTracker(capacity_bytes=100, strict=False)
        m.alloc(150, "params")
        assert not m.would_fit()

    def test_would_fit_without_capacity(self):
        m = MemoryTracker()
        m.alloc(1e15, "params")
        assert m.would_fit()

    def test_reset_activations(self):
        m = MemoryTracker()
        m.alloc(30, "activations")
        m.reset_activations()
        assert m.current("activations") == 0

    def test_summary_keys(self):
        m = MemoryTracker()
        m.alloc(10, "optimizer")
        s = m.summary()
        assert s["peak_optimizer"] == 10
        assert s["peak_total"] == 10

    def test_changes_counts_every_call_that_moves_the_accounting(self):
        m = MemoryTracker()
        assert m.changes == 0
        m.alloc(30, "activations")
        m.free(10, "activations")
        m.reset_activations()
        assert m.changes == 3
        m.current("activations"), m.summary(), m.would_fit()
        assert m.changes == 3
