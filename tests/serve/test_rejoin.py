"""Serving-side rejoin: planned replica outages with scheduled repairs.

A :class:`ReplicaOutage` drains a bookkeeping replica out of the
autoscaled fleet (the scale-down contract: in-flight work front-requeued
as preemptions) and rejoins the repaired instance later behind the same
health-checked warm-up gate a scaled-up replica waits behind.  Covers
validation, determinism, the drain/rejoin event ledger, composition with
crash recovery, and the no-op case where only the engine-backed
replica 0 is left.
"""

import pytest

from repro.errors import SimulationError
from repro.models.configs import TransformerConfig
from repro.serve import (
    AutoscaleConfig,
    ReplicaOutage,
    SchedulerConfig,
    WorkloadConfig,
    generate_workload,
    run_serving,
)
from repro.sim.faults import FaultPlan, RankCrash

from tests.serve.pins import assert_pinned

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
OUTAGE = ReplicaOutage(out_at=6, repair_at=12, warmup_iters=2)


def _serve(**kwargs):
    return run_serving("serial", model_cfg=MODEL, workload=WORKLOAD,
                       sched=SCHED, world=1, **kwargs)


@pytest.fixture(scope="module")
def baseline():
    return _serve(autoscale=AUTO)


@pytest.fixture(scope="module")
def outaged():
    rep = _serve(autoscale=AUTO, outages=(OUTAGE,))
    assert_pinned("rejoin.outaged", rep)
    return rep


class TestReplicaOutageValidation:
    @pytest.mark.parametrize("kwargs", [
        {"out_at": -1, "repair_at": 5},
        {"out_at": 5, "repair_at": 5},
        {"out_at": 5, "repair_at": 3},
        {"out_at": 0, "repair_at": 5, "warmup_iters": -1},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(SimulationError):
            ReplicaOutage(**kwargs)

    def test_outages_require_autoscale(self):
        with pytest.raises(SimulationError, match="AutoscaleConfig"):
            _serve(outages=(OUTAGE,))

    def test_empty_outages_change_nothing(self, baseline):
        assert _serve(autoscale=AUTO, outages=()) == baseline


class TestOutageAndRejoin:
    def test_outage_drains_and_rejoin_returns(self, outaged):
        assert outaged["outages"] == 1
        assert outaged["rejoins"] == 1
        # Both events land in the scale ledger on top of any autoscaling.
        assert outaged["scale_events"] >= 2

    def test_every_request_still_completes(self, outaged, baseline):
        assert outaged["completed"] == baseline["completed"]
        assert outaged["completed"] == WORKLOAD.num_requests

    def test_outage_run_is_deterministic(self, outaged):
        again = _serve(autoscale=AUTO, outages=(OUTAGE,))
        assert again == outaged

    def test_outage_with_only_replica_zero_is_noop(self):
        """Replica 0 hosts the engine: an outage that finds it alone
        neither drains anything nor spawns a phantom rejoin later."""
        solo = AutoscaleConfig(min_replicas=1, max_replicas=1)
        report = _serve(autoscale=solo, outages=(OUTAGE,))
        assert report["outages"] == 0
        assert report["rejoins"] == 0
        assert report["completed"] == WORKLOAD.num_requests

    def test_paged_fleet_outage_and_rejoin(self):
        """The drained replica takes its block pool (and prefix cache)
        with it; the rejoined one starts cold behind the warm-up gate."""
        paged = SchedulerConfig(max_slots=4, kv_budget_tokens=256,
                                kv_block_tokens=4, prefill_chunk_tokens=6)
        kwargs = {"autoscale": AUTO, "outages": (OUTAGE,)}
        report = run_serving("serial", model_cfg=MODEL, workload=WORKLOAD,
                             sched=paged, **kwargs)
        assert report["outages"] == report["rejoins"] == 1
        assert report["completed"] == WORKLOAD.num_requests
        # the drained pool's counters stayed in the report
        assert report["paged"]["prompt_tokens"] >= sum(
            r.prompt_len for r in generate_workload(WORKLOAD))
        assert report == run_serving("serial", model_cfg=MODEL,
                                     workload=WORKLOAD, sched=paged,
                                     **kwargs)

    def test_composes_with_crash_recovery(self):
        """A rank crash mid-run restores the fleet snapshot — including
        which outages already fired — and still completes everything
        with exactly one drain and one rejoin."""
        plan = FaultPlan(seed=11, crashes=(RankCrash(rank=0, at=2e-4),))
        report = _serve(autoscale=AUTO, outages=(OUTAGE,),
                        fault_plan=plan, max_restarts=2)
        assert report["recoveries"] == 1
        assert report["completed"] == WORKLOAD.num_requests
        assert report["outages"] == 1
        assert report["rejoins"] == 1
        again = _serve(autoscale=AUTO, outages=(OUTAGE,),
                       fault_plan=plan, max_restarts=2)
        assert again == report
