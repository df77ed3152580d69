"""Fuzz the serving loop with seeded crash-mid-decode fault plans.

Each seed draws crash instants inside the fault-free run's makespan and
asserts the recovery contract of :func:`repro.serve.runner.run_serving`:

* every request still completes and the report stays rank-identical;
* the same plan reproduces a bit-identical report (determinism), under
  *every* scheduler backend (backend parity);
* recovery is visible — the ``"recoveries"`` key counts absorbed
  crashes, and the fault-free report never grows the key;
* a plan with more crashes than ``max_restarts`` re-raises.
"""

import random
from dataclasses import replace

import pytest

from repro.errors import RankFailureError
from repro.models.configs import TransformerConfig
from repro.serve import (
    AutoscaleConfig,
    PriorityClass,
    SchedulerConfig,
    SpecDecodeConfig,
    WorkloadConfig,
    run_serving,
)
from repro.sim.faults import FaultPlan, RankCrash
from repro.sim.schedulers import available_backends

from tests.serve.pins import assert_pinned

WORKLOAD = WorkloadConfig(
    seed=0, num_requests=10, arrival_rate=64.0,
    prompt_len=(4, 8), output_short=(4, 8), output_long=(24, 32),
    long_frac=0.2,
)
MODEL = TransformerConfig(
    num_layers=2, hidden=32, nheads=4,
    seq_len=WORKLOAD.max_request_tokens, vocab=32, causal=True,
)
SCHED = SchedulerConfig(max_slots=4, kv_budget_tokens=256,
                        policy="continuous")

MODE_KWARGS = {"mode": "tesseract", "q": 2, "d": 2}  # 4 ranks
NRANKS = 4

FUZZ_SEEDS = range(8)


def _serve(**kwargs):
    mode = kwargs.pop("mode")
    return run_serving(mode, model_cfg=MODEL, workload=WORKLOAD,
                       sched=SCHED, **kwargs)


@pytest.fixture(scope="module")
def baseline():
    """The fault-free report (also pins the makespan crashes land in)."""
    rep = _serve(**MODE_KWARGS)
    assert_pinned("serve_fuzz.baseline", rep)
    return rep


def _crash_plan(seed: int, makespan: float) -> FaultPlan:
    """Draw 1-2 distinct-rank crashes strictly inside the serving run."""
    rng = random.Random(seed)
    n = rng.choice((1, 2))
    ranks = rng.sample(range(NRANKS), n)
    crashes = tuple(
        RankCrash(rank=r, at=rng.uniform(0.1, 0.8) * makespan)
        for r in ranks
    )
    return FaultPlan(seed=seed, crashes=crashes)


#: (arm, crash seed, backend) -> report, computed once per module run:
#: the completion tests read it, the determinism tests compare one fresh
#: run per backend against it
_REPORTS: dict = {}


def _crash_run(serve, makespan, seed, backend, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", backend)
    plan = _crash_plan(seed, makespan)
    return serve(fault_plan=plan, max_restarts=len(plan.crashes),
                 **MODE_KWARGS)


def _crash_report(serve, makespan, seed, backend, monkeypatch):
    key = (serve.__name__, seed, backend)
    if key not in _REPORTS:
        _REPORTS[key] = _crash_run(serve, makespan, seed, backend,
                                   monkeypatch)
    return _REPORTS[key]


def _reruns_agree(serve, makespan, seed, monkeypatch):
    """Two runs per backend (the cached one and a fresh one), all equal."""
    reports = []
    for backend in available_backends():
        reports.append(_crash_report(serve, makespan, seed, backend,
                                     monkeypatch))
        reports.append(_crash_run(serve, makespan, seed, backend,
                                  monkeypatch))
    return all(r == reports[0] for r in reports[1:])


class TestServeCrashRecovery:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_recovers_and_completes(self, baseline, seed, backend,
                                    monkeypatch):
        plan = _crash_plan(seed, baseline["makespan_s"])
        rep = _crash_report(_serve, baseline["makespan_s"], seed, backend,
                            monkeypatch)
        assert rep["completed"] == WORKLOAD.num_requests
        # A restart absorbs every crash that fired before the abort
        # propagated, so a two-crash plan may cost one recovery or two.
        assert 1 <= rep["recoveries"] <= len(plan.crashes)
        # Redone work can only push completion out, never pull it in.
        assert rep["makespan_s"] >= max(c.at for c in plan.crashes)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_recovery_is_deterministic_across_backends(self, baseline,
                                                       seed, monkeypatch):
        assert _reruns_agree(_serve, baseline["makespan_s"], seed,
                             monkeypatch), (
            "crash-recovery report varies across runs or backends"
        )

    def test_no_plan_report_is_unchanged(self, baseline):
        assert "recoveries" not in baseline
        assert baseline == _serve(**MODE_KWARGS)

    def test_a_cascaded_death_keeps_its_own_crash(self, baseline):
        """The first crash kills every rank (the others cascade), but only
        the crash that fired leaves the plan: the second one still fires
        on the restart and costs a recovery of its own."""
        t = baseline["makespan_s"]
        plan = FaultPlan(crashes=(RankCrash(0, 0.2 * t),
                                  RankCrash(1, 0.6 * t)))
        rep = _serve(fault_plan=plan, max_restarts=2, **MODE_KWARGS)
        assert rep["recoveries"] == 2
        assert rep["completed"] == WORKLOAD.num_requests
        with pytest.raises(RankFailureError):
            _serve(fault_plan=plan, max_restarts=1, **MODE_KWARGS)

    @pytest.mark.parametrize("backend", available_backends())
    def test_restart_budget_exhaustion_reraises(self, baseline, backend,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", backend)
        plan = _crash_plan(3, baseline["makespan_s"])
        with pytest.raises(RankFailureError):
            _serve(fault_plan=plan, max_restarts=0, **MODE_KWARGS)

    def test_zero_fault_plan_reports_zero_recoveries(self):
        rep = _serve(fault_plan=FaultPlan(), max_restarts=1, **MODE_KWARGS)
        assert rep["recoveries"] == 0
        assert rep["completed"] == WORKLOAD.num_requests

    def test_restarted_requests_count_preemptions(self, baseline):
        """In-flight work lost to a crash surfaces as preemptions."""
        plan = _crash_plan(0, baseline["makespan_s"])
        rep = _serve(fault_plan=plan, max_restarts=len(plan.crashes),
                     **MODE_KWARGS)
        assert rep["preemptions"] >= baseline["preemptions"]

    def test_crash_after_makespan_never_fires(self, baseline):
        plan = FaultPlan(crashes=(
            RankCrash(rank=0, at=baseline["makespan_s"] * 10),
        ))
        rep = _serve(fault_plan=plan, max_restarts=1, **MODE_KWARGS)
        assert rep["recoveries"] == 0
        # No fault ever fired, so the schedule is the fault-free one.
        assert rep["makespan_s"] == baseline["makespan_s"]
        assert rep["iterations"] == baseline["iterations"]


PAGED_WORKLOAD = replace(
    WORKLOAD,
    prefix_pool=2, prefix_len=(8, 8), prefix_zipf=1.5,
    priorities=(
        PriorityClass("gold", weight=1.0, ttft_slo_s=0.02),
        PriorityClass("bronze", weight=2.0),
    ),
)
PAGED_MODEL = replace(MODEL, seq_len=PAGED_WORKLOAD.max_request_tokens)
#: budget sized so long outputs force preemptions while chunked prefill
#: and speculative decode stay on
PAGED_SCHED = SchedulerConfig(
    max_slots=4, kv_budget_tokens=64, policy="continuous",
    kv_block_tokens=4, prefill_chunk_tokens=6,
    spec=SpecDecodeConfig(spec_k=2, accept_rate=0.6),
)


def _serve_paged(**kwargs):
    mode = kwargs.pop("mode")
    return run_serving(mode, model_cfg=PAGED_MODEL, workload=PAGED_WORKLOAD,
                       sched=PAGED_SCHED, **kwargs)


@pytest.fixture(scope="module")
def paged_baseline():
    rep = _serve_paged(**MODE_KWARGS)
    assert_pinned("serve_fuzz.paged_baseline", rep)
    return rep


class TestPagedServeCrashRecovery:
    """Preemption x crash-recovery x chunked prefill on the paged cache.

    Same crash plans as the contiguous arm, but the serving loop runs
    the block cache with prefix sharing, chunked prefill, speculative
    decode and SLO-aware admission — recovery must preserve all of it,
    deterministically, under every scheduler backend.
    """

    def test_baseline_exercises_the_machinery(self, paged_baseline):
        rep = paged_baseline
        assert rep["completed"] == PAGED_WORKLOAD.num_requests
        assert rep["preemptions"] > 0, "budget never forced a preemption"
        assert rep["paged"]["prefix_hit_rate"] > 0.0
        assert rep["spec"]["steps"] > 0
        assert rep["spec"]["accepted_per_step"] >= 1.0
        assert 0.0 <= rep["slo_attainment"] <= 1.0
        assert set(rep["slo_by_class"]) <= {"gold", "bronze"}

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("seed", range(4))
    def test_recovers_and_completes(self, paged_baseline, seed, backend,
                                    monkeypatch):
        plan = _crash_plan(seed, paged_baseline["makespan_s"])
        rep = _crash_report(_serve_paged, paged_baseline["makespan_s"], seed,
                            backend, monkeypatch)
        assert rep["completed"] == PAGED_WORKLOAD.num_requests
        assert 1 <= rep["recoveries"] <= len(plan.crashes)
        assert rep["makespan_s"] >= max(c.at for c in plan.crashes)
        # Restarted prefills are re-charged, so the cumulative prompt
        # counter can only grow past the fault-free run's.
        assert (rep["paged"]["prompt_tokens"]
                >= paged_baseline["paged"]["prompt_tokens"])

    @pytest.mark.parametrize("seed", range(2))
    def test_recovery_is_deterministic_across_backends(self, paged_baseline,
                                                       seed, monkeypatch):
        assert _reruns_agree(_serve_paged, paged_baseline["makespan_s"],
                             seed, monkeypatch), (
            "paged crash-recovery report varies across runs or backends"
        )

    def test_no_plan_report_is_unchanged(self, paged_baseline):
        assert "recoveries" not in paged_baseline
        assert paged_baseline == _serve_paged(**MODE_KWARGS)

    @pytest.mark.parametrize("backend", available_backends())
    def test_paged_fleet_recovers_and_completes(self, backend, monkeypatch):
        """The snapshot carries every replica's in-flight work and the
        pools' cumulative counters; the restart rebuilds the fleet."""
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", backend)
        auto = AutoscaleConfig(min_replicas=1, max_replicas=3,
                               scale_up_queue=2, scale_down_patience=4)
        healthy = _serve_paged(autoscale=auto, **MODE_KWARGS)
        assert healthy["replicas_peak"] > 1
        plan = _crash_plan(1, healthy["makespan_s"])
        reps = [_serve_paged(autoscale=auto, fault_plan=plan,
                             max_restarts=len(plan.crashes), **MODE_KWARGS)
                for _ in range(2)]
        assert reps[0] == reps[1]
        assert reps[0]["completed"] == PAGED_WORKLOAD.num_requests
        assert 1 <= reps[0]["recoveries"] <= len(plan.crashes)
        assert (reps[0]["paged"]["prompt_tokens"]
                >= healthy["paged"]["prompt_tokens"])


class TestEventMultiplexedServing:
    """Several serving engines built on one event-scheduler instance.

    ``run_engines`` runs the engines back to back on that one scheduler;
    the reports must still be rank-identical per engine and bit-identical
    to each workload's solo run on an engine of its own — sharing a
    scheduler instance may change nothing an engine serves.
    """

    @staticmethod
    def _serve_nranks():
        from repro.serve.model import serving_nranks

        return serving_nranks(MODE_KWARGS["mode"], MODE_KWARGS["q"],
                              MODE_KWARGS["d"], None)

    def _serve_program(self, workload):
        from repro.serve.model import grid_shape, local_kv_width
        from repro.serve.runner import _serve_rank

        mode, q, d = MODE_KWARGS["mode"], MODE_KWARGS["q"], MODE_KWARGS["d"]
        gq, gd = grid_shape(mode, q, d, None)
        bands = gq * gd
        kv_width = local_kv_width(mode, MODEL,
                                  q=gq if bands > 1 else None, world=None)

        def fn(ctx):
            return _serve_rank(ctx, mode, MODEL, workload, SCHED,
                               q=q, d=d, world=None, bands=bands,
                               kv_width=kv_width)

        return fn

    def test_multiplexed_reports_match_solo_runs(self):
        from repro.sim.engine import Engine, run_engines
        from repro.sim.schedulers import EventScheduler

        shared = EventScheduler()
        workloads = [WORKLOAD, replace(WORKLOAD, seed=1)]
        engines = [
            Engine(nranks=self._serve_nranks(), mode="symbolic",
                   trace=False, backend=shared)
            for _ in workloads
        ]
        try:
            per_engine = run_engines([
                (engine, self._serve_program(w))
                for engine, w in zip(engines, workloads)
            ])
            for w, reports in zip(workloads, per_engine):
                assert all(r == reports[0] for r in reports[1:]), (
                    "multiplexed serving report diverged across ranks"
                )
                solo = run_serving(MODE_KWARGS["mode"], model_cfg=MODEL,
                                   workload=w, sched=SCHED,
                                   q=MODE_KWARGS["q"], d=MODE_KWARGS["d"])
                assert reports[0] == solo, (
                    "multiplexed serving report diverged from the solo run"
                )
        finally:
            for engine in engines:
                engine.shutdown()

    def test_multiplexed_runs_are_repeatable(self):
        from repro.sim.engine import Engine, run_engines
        from repro.sim.schedulers import EventScheduler

        outs = []
        for _ in range(2):
            shared = EventScheduler()
            engines = [
                Engine(nranks=self._serve_nranks(), mode="symbolic",
                       trace=False, backend=shared)
                for _ in range(2)
            ]
            try:
                outs.append(run_engines([
                    (engine, self._serve_program(WORKLOAD))
                    for engine in engines
                ]))
            finally:
                for engine in engines:
                    engine.shutdown()
        assert outs[0] == outs[1], (
            "multiplexed serving is not deterministic across sessions"
        )
