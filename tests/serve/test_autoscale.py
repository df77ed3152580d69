"""Fleet autoscaling: the dispatcher API and the elastic serving loop.

Covers the satellite contracts of ``run_serving(..., autoscale=...)``:

* the dispatcher-side :class:`Scheduler` extensions (``for_dispatch``,
  ``enqueue``, ``drain``) that let several replica schedulers share one
  fleet-global FIFO;
* :class:`AutoscaleConfig` validation;
* the fleet loop itself — determinism, genuine capacity (a bursty
  workload finishes strictly sooner with headroom than pinned to one
  replica), visible scale events, spin-up delay, drain-as-preemption;
* composition with crash recovery: rank crashes *and* whole-node losses
  during an autoscaled run restore the entire fleet from the snapshot
  and still complete every request, bit-deterministically;
* composition with the paged cache: every replica owns its block pool,
  audited every frame, and a fleet out-serves one replica on
  shared-prefix overload.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.models.configs import TransformerConfig
from repro.serve import (
    AutoscaleConfig,
    PriorityClass,
    SchedulerConfig,
    SpecDecodeConfig,
    WorkloadConfig,
    run_serving,
)
from repro.serve.cache import PagedKVCache
from repro.serve.scheduler import Scheduler
from repro.serve.workload import generate_workload
from repro.sim.faults import FaultPlan, NodeCrash, NodeRepair, RankCrash

from tests.serve.pins import assert_pinned

#: diurnal + bursty arrivals: the load swings that make scaling worth it
WORKLOAD = WorkloadConfig(
    seed=7, num_requests=48, arrival_rate=400.0, burst_size=4,
    prompt_len=(4, 8), output_short=(4, 8), output_long=(24, 32),
    long_frac=0.2, diurnal_period=0.2, diurnal_amplitude=0.8,
)
MODEL = TransformerConfig(
    num_layers=2, hidden=32, nheads=4,
    seq_len=WORKLOAD.max_request_tokens, vocab=32, causal=True,
)
SCHED = SchedulerConfig(max_slots=4, kv_budget_tokens=256,
                        policy="continuous")
AUTO = AutoscaleConfig(min_replicas=1, max_replicas=3, scale_up_queue=2,
                       scale_down_patience=4, spinup_iters=2)

MODE_KWARGS = {"mode": "tesseract", "q": 2, "d": 1}  # 4 ranks
NRANKS = 4


def _serve(**kwargs):
    mode = kwargs.pop("mode")
    return run_serving(mode, model_cfg=MODEL, workload=WORKLOAD,
                       sched=SCHED, **kwargs)


@pytest.fixture(scope="module")
def single_replica():
    """The same workload pinned to one replica (no autoscale)."""
    rep = _serve(**MODE_KWARGS)
    assert_pinned("autoscale.single_replica", rep)
    return rep


@pytest.fixture(scope="module")
def fleet():
    rep = _serve(autoscale=AUTO, **MODE_KWARGS)
    assert_pinned("autoscale.fleet", rep)
    return rep


class TestAutoscaleConfigValidation:
    def test_defaults_are_valid(self):
        AutoscaleConfig()

    @pytest.mark.parametrize("kwargs", [
        {"min_replicas": 0},
        {"min_replicas": 3, "max_replicas": 2},
        {"scale_up_queue": 0},
        {"scale_down_patience": 0},
        {"spinup_iters": -1},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            AutoscaleConfig(**kwargs)


class TestDispatcherScheduler:
    """The Scheduler extensions the fleet dispatcher is built from."""

    def _requests(self):
        return generate_workload(WORKLOAD)

    def test_for_dispatch_owns_no_arrival_stream(self):
        sch = Scheduler.for_dispatch(SCHED, self._requests())
        assert sch.all_arrived
        assert sch.next_arrival() is None
        sch.poll_arrivals(1e9)  # arrivals come via enqueue, never the clock
        assert sch.queue == []

    def test_shared_queue_is_the_same_object(self):
        fifo: list[int] = []
        a = Scheduler.for_dispatch(SCHED, self._requests(), queue=fifo)
        b = Scheduler.for_dispatch(SCHED, self._requests(), queue=fifo)
        a.enqueue(3)
        assert b.queue == [3]
        # Admission on one scheduler consumes from the other's queue too.
        b.admit(used_tokens=0)
        assert a.queue == []
        assert list(b.active.values()) == [3]

    def test_enqueue_front_and_back(self):
        sch = Scheduler.for_dispatch(SCHED, self._requests())
        sch.enqueue(1)
        sch.enqueue(2)
        sch.enqueue(0, front=True)
        assert sch.queue == [0, 1, 2]

    def test_drain_preempts_all_slots_in_admission_order(self):
        sch = Scheduler.for_dispatch(SCHED, self._requests())
        for rid in (5, 6, 7):
            sch.enqueue(rid)
        admitted = sch.admit(used_tokens=0)
        assert [rid for _, rid in admitted] == [5, 6, 7]
        drained = sch.drain()
        assert drained == [5, 6, 7]  # admission order
        assert not sch.active
        # preempt() front-requeues each victim, so a shared-queue drain
        # leaves the oldest in-flight request at the head of the FIFO.
        assert sch.queue == [5, 6, 7]

    def test_drain_on_shared_queue_does_not_clobber_waiters(self):
        fifo: list[int] = []
        sch = Scheduler.for_dispatch(SCHED, self._requests(), queue=fifo)
        sch.enqueue(2)
        sch.admit(used_tokens=0)
        fifo.append(9)  # someone else's queued arrival
        assert sch.drain() == [2]
        assert fifo == [2, 9]  # drained work cuts in line; 9 survives


class TestFleetServing:
    def test_report_is_deterministic(self, fleet):
        assert fleet == _serve(autoscale=AUTO, **MODE_KWARGS)

    def test_completes_every_request(self, fleet):
        assert fleet["completed"] == WORKLOAD.num_requests

    def test_fleet_beats_single_replica(self, fleet, single_replica):
        """The burst must finish strictly sooner with replicas to grow."""
        assert fleet["makespan_s"] < single_replica["makespan_s"]
        assert fleet["scale_events"] > 0
        assert fleet["replicas_peak"] > 1

    def test_peak_bounded_by_max_replicas(self, fleet):
        assert fleet["replicas_peak"] <= AUTO.max_replicas

    def test_scales_back_down_when_load_drains(self, fleet):
        assert fleet["replicas_final"] == AUTO.min_replicas

    def test_replica_iterations_accounted(self, fleet):
        # Bookkeeping replicas did real (virtual) decode work beyond what
        # replica 0 alone performed.
        assert fleet["replica_iterations"] > fleet["iterations"]

    def test_report_without_autoscale_is_unchanged(self, single_replica):
        for key in ("scale_events", "replicas_peak", "replicas_final",
                    "replica_iterations"):
            assert key not in single_replica

    def test_single_replica_cap_never_scales(self):
        pinned = AutoscaleConfig(min_replicas=1, max_replicas=1,
                                 scale_up_queue=2, scale_down_patience=4)
        rep = _serve(autoscale=pinned, **MODE_KWARGS)
        assert rep["scale_events"] == 0
        assert rep["replicas_peak"] == rep["replicas_final"] == 1
        assert rep["completed"] == WORKLOAD.num_requests

    def test_scale_down_drain_counts_preemptions(self, fleet,
                                                 single_replica):
        """Draining a replica restarts its in-flight work elsewhere."""
        assert fleet["preemptions"] >= single_replica["preemptions"]


class TestFleetCrashRecovery:
    def test_rank_crash_recovers_and_completes(self, fleet):
        plan = FaultPlan(seed=1, crashes=(
            RankCrash(rank=1, at=fleet["makespan_s"] / 3),
        ))
        rep = _serve(autoscale=AUTO, fault_plan=plan, max_restarts=1,
                     **MODE_KWARGS)
        assert rep["completed"] == WORKLOAD.num_requests
        assert rep["recoveries"] == 1
        assert rep == _serve(autoscale=AUTO, fault_plan=plan,
                             max_restarts=1, **MODE_KWARGS)

    def test_node_crash_recovers_and_completes(self, fleet):
        # The default topology packs 4 ranks per node, so node 0 takes
        # the whole serving grid down in one correlated event.
        plan = FaultPlan(seed=2, node_crashes=(
            NodeCrash(node=0, at=fleet["makespan_s"] / 3),
        ))
        rep = _serve(autoscale=AUTO, fault_plan=plan, max_restarts=1,
                     **MODE_KWARGS)
        assert rep["completed"] == WORKLOAD.num_requests
        assert rep["recoveries"] == 1
        assert rep == _serve(autoscale=AUTO, fault_plan=plan,
                             max_restarts=1, **MODE_KWARGS)

    def test_node_repair_in_the_plan_is_dropped_with_its_crash(self, fleet):
        """A restart relaunches the whole grid, so a scheduled repair of
        the crashed node returns nothing: the report is the repair-free
        plan's."""
        crash = NodeCrash(node=0, at=fleet["makespan_s"] / 3)
        repair = NodeRepair(node=0, at=fleet["makespan_s"])
        kwargs = dict(autoscale=AUTO, max_restarts=1, **MODE_KWARGS)
        rep = _serve(fault_plan=FaultPlan(seed=2, node_crashes=(crash,),
                                          node_repairs=(repair,)), **kwargs)
        assert rep["recoveries"] == 1
        assert rep == _serve(fault_plan=FaultPlan(seed=2,
                                                  node_crashes=(crash,)),
                             **kwargs)

    def test_crash_preserves_scale_history(self, fleet):
        """Scale events from before the crash survive the restore."""
        plan = FaultPlan(seed=3, crashes=(
            RankCrash(rank=0, at=fleet["makespan_s"] * 0.6),
        ))
        rep = _serve(autoscale=AUTO, fault_plan=plan, max_restarts=1,
                     **MODE_KWARGS)
        assert rep["scale_events"] >= 1
        assert rep["replicas_peak"] >= fleet["replicas_peak"] - 1

    def test_crash_before_the_first_snapshot_restarts_the_whole_fleet(self):
        """Nothing was published yet, so the restart is a fresh start: the
        configured initial fleet (``min_replicas``), not one replica."""
        two = AutoscaleConfig(min_replicas=2, max_replicas=2)
        kwargs = {"mode": "megatron", "world": 2, "autoscale": two}
        healthy = _serve(**kwargs)
        plan = FaultPlan(seed=1, crashes=(RankCrash(rank=1, at=0.0),))
        rep = _serve(fault_plan=plan, max_restarts=1, **kwargs)
        assert rep == {**healthy, "recoveries": 1}

    def test_recovery_under_preemption_pressure(self):
        """Crash + a KV budget tight enough to force preemptions."""
        tight = SchedulerConfig(max_slots=4, kv_budget_tokens=64,
                                policy="continuous")
        base = run_serving("tesseract", model_cfg=MODEL, workload=WORKLOAD,
                           sched=tight, q=2, d=1, autoscale=AUTO)
        assert base["preemptions"] > 0  # pressure is real
        plan = FaultPlan(seed=4, crashes=(
            RankCrash(rank=2, at=base["makespan_s"] / 2),
        ))
        reps = [
            run_serving("tesseract", model_cfg=MODEL, workload=WORKLOAD,
                        sched=tight, q=2, d=1, autoscale=AUTO,
                        fault_plan=plan, max_restarts=1)
            for _ in range(2)
        ]
        assert reps[0] == reps[1]
        assert reps[0]["completed"] == WORKLOAD.num_requests
        assert reps[0]["recoveries"] == 1


#: shared-prefix overload: a few dominant system prompts, two classes
PREFIX_WORKLOAD = dataclasses.replace(
    WORKLOAD, num_requests=64, arrival_rate=600.0,
    prefix_pool=2, prefix_len=(8, 8), prefix_zipf=1.5,
    priorities=(PriorityClass("gold", weight=1.0, ttft_slo_s=0.02),
                PriorityClass("bronze", weight=2.0)))
PREFIX_MODEL = dataclasses.replace(
    MODEL, seq_len=PREFIX_WORKLOAD.max_request_tokens)
PAGED = SchedulerConfig(
    max_slots=4, kv_budget_tokens=96, kv_block_tokens=4,
    prefill_chunk_tokens=6, spec=SpecDecodeConfig(spec_k=2, accept_rate=0.6))


def _serve_paged(mode="serial", **kwargs):
    return run_serving(mode, model_cfg=PREFIX_MODEL,
                       workload=PREFIX_WORKLOAD, sched=PAGED, **kwargs)


class TestPagedFleet:
    """``kv_block_tokens`` x ``autoscale``: each replica has its own pool."""

    @pytest.fixture(scope="class")
    def paged_fleet(self):
        return _serve_paged(autoscale=AUTO)

    def test_fleet_out_serves_one_replica(self, paged_fleet):
        single = _serve_paged()
        assert paged_fleet["completed"] == PREFIX_WORKLOAD.num_requests
        assert paged_fleet["replicas_peak"] == AUTO.max_replicas
        assert (paged_fleet["goodput_tokens_per_s"]
                >= single["goodput_tokens_per_s"])
        # every pool's counters are in the report: each prompt token was
        # admitted somewhere, hit or computed, at least once
        assert (paged_fleet["paged"]["prompt_tokens"]
                >= single["paged"]["prompt_tokens"] > 0)
        assert paged_fleet["paged"]["prefix_hit_rate"] > 0.0
        assert set(paged_fleet["slo_by_class"]) <= {"gold", "bronze"}

    @pytest.mark.parametrize("mode,kwargs", [
        ("serial", {}), ("tesseract", {"q": 2, "d": 1})])
    def test_symbolic_matches_real(self, mode, kwargs, paged_fleet):
        symbolic = _serve_paged(mode, autoscale=AUTO, **kwargs)
        real = _serve_paged(mode, autoscale=AUTO, engine_mode="real",
                            **kwargs)
        assert symbolic == real
        if mode == "serial":
            assert symbolic == paged_fleet  # and deterministic

    def test_every_replica_is_audited_every_frame(self, paged_fleet,
                                                  monkeypatch):
        audits: dict[int, int] = {}
        check = PagedKVCache.check

        def counting(cache):
            audits[id(cache)] = audits.get(id(cache), 0) + 1
            return check(cache)

        monkeypatch.setattr(PagedKVCache, "check", counting)
        assert _serve_paged(autoscale=AUTO) == paged_fleet
        # replica 0 lives through every frame; each scale-up brought a
        # cache of its own, audited from the frame it joined
        assert max(audits.values()) == paged_fleet["iterations"]
        assert len(audits) >= paged_fleet["replicas_peak"]
        assert sum(audits.values()) > paged_fleet["iterations"]

    def test_invalid_combinations_still_raise(self):
        with pytest.raises(ConfigError, match="requires the paged cache"):
            SchedulerConfig(prefill_chunk_tokens=4)
        with pytest.raises(ConfigError, match="requires the paged cache"):
            SchedulerConfig(spec=SpecDecodeConfig())
        with pytest.raises(ConfigError, match="continuous policy"):
            SchedulerConfig(kv_block_tokens=4, policy="static")
