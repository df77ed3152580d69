"""Tests for the simulation trace."""

import pytest

from repro.sim.events import CommEvent, ComputeEvent, MarkerEvent, Trace


def _compute(rank, t0=0.0, t1=1.0, flops=10.0):
    return ComputeEvent(rank=rank, t_start=t0, t_end=t1, flops=flops,
                        bytes_touched=0.0)


def _comm(rank, group, kind="all_reduce", nbytes=100.0, t0=0.0, t1=2.0):
    return CommEvent(rank=rank, kind=kind, group=tuple(group), nbytes=nbytes,
                     t_start=t0, t_end=t1)


class TestTrace:
    def test_disabled_trace_records_nothing(self):
        tr = Trace(enabled=False)
        tr.record(_compute(0))
        assert tr.events == []

    def test_compute_time(self):
        tr = Trace()
        tr.record(_compute(0, 0.0, 1.5))
        tr.record(_compute(0, 2.0, 2.5))
        tr.record(_compute(1, 0.0, 9.0))
        assert tr.compute_time(0) == pytest.approx(2.0)

    def test_total_flops(self):
        tr = Trace()
        tr.record(_compute(0, flops=5.0))
        tr.record(_compute(1, flops=7.0))
        assert tr.total_flops() == 12.0
        assert tr.total_flops(rank=1) == 7.0

    def test_comm_volume_sums_per_rank_events(self):
        """nbytes is per-rank traffic, so the trace-wide volume is the sum."""
        tr = Trace()
        for r in (0, 1, 2):
            tr.record(_comm(r, [0, 1, 2], nbytes=50.0))
        assert tr.comm_volume() == 150.0
        assert tr.comm_volume(rank=1) == 50.0

    def test_comm_volume_by_kind(self):
        tr = Trace()
        tr.record(_comm(0, [0, 1], kind="broadcast", nbytes=10.0))
        tr.record(_comm(0, [0, 1], kind="reduce", nbytes=20.0))
        assert tr.comm_volume(kind="broadcast") == 10.0

    def test_message_count(self):
        tr = Trace()
        for r in (0, 1):
            tr.record(_comm(r, [0, 1]))
        assert tr.message_count() == 1

    def test_comm_breakdown(self):
        tr = Trace()
        tr.record(_comm(0, [0, 1], kind="broadcast", nbytes=10.0))
        tr.record(_comm(1, [0, 1], kind="broadcast", nbytes=10.0))
        tr.record(_comm(0, [0, 1], kind="reduce", nbytes=5.0))
        # counts are once per group, bytes sum the per-rank events
        assert tr.comm_breakdown() == {"broadcast": (1, 20.0), "reduce": (1, 5.0)}

    def test_markers_and_span(self):
        tr = Trace()
        tr.record(MarkerEvent(rank=0, t=1.0, name="start"))
        tr.record(MarkerEvent(rank=0, t=4.0, name="end"))
        assert tr.span(0, "start", "end") == pytest.approx(3.0)

    def test_span_missing_marker_raises(self):
        tr = Trace()
        with pytest.raises(KeyError):
            tr.span(0, "a", "b")

    def test_clear(self):
        tr = Trace()
        tr.record(_compute(0))
        tr.clear()
        assert tr.events == []

    def test_event_durations(self):
        e = _compute(0, 1.0, 3.5)
        assert e.duration == pytest.approx(2.5)
        c = _comm(0, [0, 1], t0=0.5, t1=1.0)
        assert c.duration == pytest.approx(0.5)
