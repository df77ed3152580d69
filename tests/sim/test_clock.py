"""Tests for per-rank virtual clocks."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        c = VirtualClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.now == pytest.approx(2.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(SimulationError):
            VirtualClock().advance(-1.0)

    def test_sync_forward(self):
        c = VirtualClock()
        c.sync_to(3.0)
        assert c.now == 3.0

    def test_sync_never_goes_back(self):
        c = VirtualClock(start=5.0)
        c.sync_to(2.0)
        assert c.now == 5.0

    def test_reset(self):
        c = VirtualClock(start=5.0)
        c.reset()
        assert c.now == 0.0

    def test_reset_rejects_negative(self):
        with pytest.raises(SimulationError):
            VirtualClock().reset(-1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            VirtualClock(start=-0.1)

    def test_advance_each_is_one_advance_per_delta(self):
        # 0.1 + 0.2 + 0.3 depends on the order of the adds: the replayed
        # deltas must be folded one at a time, never as their sum
        dts = (0.1, 0.2, 0.3)
        one_by_one, replayed = VirtualClock(start=1e-3), VirtualClock(1e-3)
        total = 0.5
        for dt in dts:
            one_by_one.advance(dt)
            total += dt
        assert replayed.advance_each(dts, 0.5).hex() == total.hex()
        assert replayed.now.hex() == one_by_one.now.hex()
        assert replayed.now != 1e-3 + sum(dts)

    def test_advance_each_extends_an_open_epoch(self):
        c = VirtualClock()
        c.begin_epoch()
        c.advance(0.25)
        c.advance_each((0.1, 0.2), 0.0)
        assert c.begin_epoch() == (0.25, 0.1, 0.2)
