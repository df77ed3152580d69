"""Tests for the continuous/static batching schedulers (pure bookkeeping)."""

import pytest

from repro.errors import SimulationError
from repro.serve.cache import KVCacheManager
from repro.serve.metrics import RequestRecord
from repro.serve.runner import _preempt_until_fit
from repro.serve.scheduler import Scheduler, SchedulerConfig
from repro.serve.workload import Request


def _req(rid, arrival=0.0, plen=4, olen=8):
    return Request(rid=rid, arrival=arrival,
                   prompt_tokens=tuple(range(plen)),
                   output_tokens=tuple(range(olen)))


class TestSchedulerConfig:
    def test_validation(self):
        with pytest.raises(SimulationError, match="max_slots"):
            SchedulerConfig(max_slots=0)
        with pytest.raises(SimulationError, match="kv_budget"):
            SchedulerConfig(kv_budget_tokens=0)
        with pytest.raises(SimulationError, match="policy"):
            SchedulerConfig(policy="nope")


class TestArrivals:
    def test_poll_moves_arrived_only(self):
        sch = Scheduler(SchedulerConfig(), [_req(0, 0.1), _req(1, 0.5)])
        sch.poll_arrivals(0.2)
        assert sch.queue == [0]
        assert sch.next_arrival() == 0.5
        sch.poll_arrivals(0.5)
        assert sch.queue == [0, 1]
        assert sch.next_arrival() is None
        assert sch.all_arrived


class TestContinuousAdmission:
    def test_admits_into_lowest_free_slots(self):
        sch = Scheduler(SchedulerConfig(max_slots=4),
                        [_req(i) for i in range(3)])
        sch.poll_arrivals(0.0)
        assert sch.admit(0) == [(0, 0), (1, 1), (2, 2)]
        assert sorted(sch.active) == [0, 1, 2]

    def test_budget_blocks_admission(self):
        # budget 9: first request (plen 4 + 1 growth) fits, second
        # (4 + 4 + 2 growth = 10) does not.
        sch = Scheduler(SchedulerConfig(max_slots=4, kv_budget_tokens=9),
                        [_req(0), _req(1)])
        sch.poll_arrivals(0.0)
        assert sch.admit(0) == [(0, 0)]
        assert sch.queue == [1]

    def test_slot_limit_blocks_admission(self):
        sch = Scheduler(SchedulerConfig(max_slots=2),
                        [_req(i) for i in range(3)])
        sch.poll_arrivals(0.0)
        assert [s for s, _ in sch.admit(0)] == [0, 1]
        assert sch.queue == [2]

    def test_completed_slot_is_reused(self):
        sch = Scheduler(SchedulerConfig(max_slots=2),
                        [_req(i) for i in range(3)])
        sch.poll_arrivals(0.0)
        sch.admit(0)
        assert sch.complete(0) == 0
        assert sch.admit(4) == [(0, 2)]


class TestStaticAdmission:
    def test_waits_for_drain(self):
        sch = Scheduler(SchedulerConfig(max_slots=2, policy="static"),
                        [_req(i) for i in range(4)])
        sch.poll_arrivals(0.0)
        assert len(sch.admit(0)) == 2
        # New batch only once every active slot drained.
        assert sch.admit(8) == []
        sch.complete(0)
        assert sch.admit(4) == []
        sch.complete(1)
        assert len(sch.admit(0)) == 2


class TestPreemption:
    """The frame preempts with a pair of calls: the cache says whether
    this step's ``(slot, tokens)`` appends fit, the scheduler orders the
    victims; ``_preempt_until_fit`` is the loop between them."""

    @staticmethod
    def _filled(sch, lens, budget):
        """A bookkeeping-only contiguous cache (empty band: it never
        touches its rank context) holding ``lens`` tokens per slot."""
        cache = KVCacheManager(None, num_layers=1, num_slots=4,
                               band_slots=range(0), kv_width=4,
                               budget_tokens=budget)
        for slot, n in lens.items():
            cache.insert(slot, None, n)
        records = {
            rid: RequestRecord(rid=rid, arrival=0.0, prompt_len=4,
                               output_len=8, emitted=3)
            for rid in sch.requests
        }
        return cache, records

    @staticmethod
    def _step(sch, cache, records):
        """Preempt for a one-token decode step over every active slot."""
        _preempt_until_fit(sch, cache, records,
                           {slot: 1 for slot in sch.active}, list)

    def test_youngest_preempted_first_and_requeued_front(self):
        sch = Scheduler(SchedulerConfig(max_slots=4, kv_budget_tokens=100),
                        [_req(i) for i in range(3)])
        sch.poll_arrivals(0.0)
        sch.admit(0)
        assert sch.preemption_order() == [2, 1, 0]  # youngest admission
        cache, records = self._filled(sch, {0: 40, 1: 30, 2: 28}, 100)
        assert not cache.fits({0: 1, 1: 1, 2: 1})  # 98 + 3 > 100
        self._step(sch, cache, records)
        assert sorted(sch.active) == [0, 1]
        assert sch.queue == [2]
        assert cache.used_tokens == 70
        # the victim restarts from its prompt, counted as one preemption
        assert (records[2].emitted, records[2].preemptions) == (0, 1)
        assert (records[1].emitted, records[1].preemptions) == (3, 0)

    def test_no_preemption_when_budget_fits(self):
        sch = Scheduler(SchedulerConfig(max_slots=2, kv_budget_tokens=100),
                        [_req(0), _req(1)])
        sch.poll_arrivals(0.0)
        sch.admit(0)
        cache, records = self._filled(sch, {0: 25, 1: 25}, 100)
        self._step(sch, cache, records)
        assert sorted(sch.active) == [0, 1] and sch.queue == []

    def test_lone_overgrown_slot_cannot_be_held(self):
        # a slot that cannot take its next token even alone has nowhere
        # to go: preempting it would only re-admit it into the same wall
        sch = Scheduler(SchedulerConfig(max_slots=2, kv_budget_tokens=10),
                        [_req(0, plen=4)])
        sch.poll_arrivals(0.0)
        sch.admit(0)
        cache, records = self._filled(sch, {0: 10}, 10)
        with pytest.raises(SimulationError,
                           match="cannot hold a single active request"):
            self._step(sch, cache, records)

    def test_admission_reserves_growth_tokens(self):
        # used 0, plen 4, budget 5: 4 + 1 growth == 5 fits exactly; a
        # second identical request (4 + 4 + 2) must not.
        sch = Scheduler(SchedulerConfig(max_slots=4, kv_budget_tokens=5),
                        [_req(0), _req(1)])
        sch.poll_arrivals(0.0)
        cache, records = self._filled(sch, {}, 5)
        assert sch.admit_to(cache, 0.0) == [0]
        assert sch.queue == [1]
        cache.append_prefill(0, None, cache.prompt_len(0))
        # The admitted slot can now grow by one token without preemption.
        self._step(sch, cache, records)
        assert list(sch.active) == [0] and records[0].preemptions == 0


class TestIdle:
    def test_idle_iff_no_active_and_no_queue(self):
        sch = Scheduler(SchedulerConfig(), [_req(0, arrival=1.0)])
        assert sch.idle
        sch.poll_arrivals(1.0)
        assert not sch.idle
        sch.admit(0)
        assert not sch.idle
        sch.complete(0)
        assert sch.idle
