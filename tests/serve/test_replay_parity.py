"""Serving with replayed passes: a symbolic run must be a real run's twin.

A real-mode engine never replays, so it is the oracle.  Every test runs one
serving configuration in both engine modes and requires byte-identical
reports; the loop tests also compare each rank's final clock,
``compute_seconds``, memory peaks and kernel count, on runs long enough that
every replay call site the loop uses is hit many times.  No wall clock.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.models.configs import TransformerConfig
from repro.serve import (
    AutoscaleConfig,
    ReplicaOutage,
    SchedulerConfig,
    SpecDecodeConfig,
    WorkloadConfig,
    run_serving,
)
from repro.sim.engine import Engine, RankContext
from repro.sim.faults import ComputeSlowdown, FaultPlan, RankCrash

from tests.serve.pins import assert_pinned

WORKLOAD = WorkloadConfig(
    seed=5, num_requests=96, arrival_rate=300.0,
    prompt_len=(4, 8), output_short=(4, 8), output_long=(24, 32),
    long_frac=0.2,
)
MODEL = TransformerConfig(
    num_layers=2, hidden=32, nheads=4,
    seq_len=WORKLOAD.max_request_tokens, vocab=32, causal=True,
)
CONTIGUOUS = SchedulerConfig(max_slots=4, kv_budget_tokens=96,
                             policy="continuous")
PAGED = SchedulerConfig(
    max_slots=4, kv_budget_tokens=96, policy="continuous",
    kv_block_tokens=4, prefill_chunk_tokens=6,
    spec=SpecDecodeConfig(spec_k=2, accept_rate=0.6))
AUTO = AutoscaleConfig(min_replicas=1, max_replicas=3, scale_up_queue=2,
                       scale_down_patience=4, spinup_iters=2)
#: loop -> (run_serving arguments, the replay call sites it must hit)
LOOPS = {
    "contiguous": ({"sched": CONTIGUOUS},
                   {"prefill", "decode_step", "append"}),
    "paged": ({"sched": PAGED}, {"decode_step", "append"}),
    "fleet": ({"sched": CONTIGUOUS, "autoscale": AUTO},
              {"prefill", "decode_step", "append"}),
    "paged_fleet": ({"sched": PAGED, "autoscale": AUTO},
                    {"decode_step", "append"}),
}


@pytest.fixture
def probe(monkeypatch):
    """Count what ``RankContext.replay`` did per call site and keep the
    engines ``run_serving`` builds, so their ranks can be read afterwards."""
    calls: Counter = Counter()
    engines: list[Engine] = []
    replay = RankContext.replay

    def counting(ctx, key, fn):
        rec = ctx._recordings.get(key, "unseen")
        kind = ("executed" if not ctx._replays
                else "never" if rec is None
                else "recorded" if rec == "unseen" else "replayed")
        calls[key[1], kind] += 1
        return replay(ctx, key, fn)

    class KeptEngine(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(RankContext, "replay", counting)
    monkeypatch.setattr("repro.serve.runner.Engine", KeptEngine)
    return calls, engines


def _rank_states(engine: Engine) -> list[tuple]:
    return [(ctx.clock.now.hex(), ctx.compute_seconds.hex(), ctx.kernels,
             ctx.mem.summary(), ctx.mem.current_total)
            for ctx in engine.contexts]


def _serve(mode="serial", **kwargs):
    return run_serving(mode, model_cfg=MODEL, workload=WORKLOAD, **kwargs)


class TestEveryLoopReplaysAndMatchesRealMode:
    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_report_clocks_memory_and_kernels(self, loop, probe):
        calls, engines = probe
        kwargs, sites = LOOPS[loop]
        real = _serve(engine_mode="real", **kwargs)
        assert set(k for _, k in calls) == {"executed"}
        real_states = _rank_states(engines.pop())
        calls.clear()

        symbolic = _serve(**kwargs)
        assert json.dumps(symbolic, sort_keys=True) == \
            json.dumps(real, sort_keys=True)
        assert_pinned(f"replay_parity.{loop}", symbolic)
        assert symbolic["completed"] == WORKLOAD.num_requests
        assert symbolic["preemptions"] > 0  # the tight budget did bite
        assert _rank_states(engines.pop()) == real_states
        assert {site for site, _ in calls} == sites
        for site in sites:
            assert calls[site, "replayed"] > calls[site, "recorded"] > 0
            assert not calls[site, "never"] and not calls[site, "executed"]

    def test_parallel_lm_is_abandoned_but_its_cache_replays(self, probe):
        # a sharded LM reaches a collective inside the pass: recorded once
        # per key, never replayed; the per-slot appends around it are
        # communication-free on every rank
        calls, engines = probe
        real = _serve("megatron", world=2, sched=CONTIGUOUS,
                      engine_mode="real")
        real_states = _rank_states(engines.pop())
        calls.clear()
        symbolic = _serve("megatron", world=2, sched=CONTIGUOUS)
        assert symbolic == real
        assert _rank_states(engines.pop()) == real_states
        for site in ("prefill", "decode_step"):
            assert calls[site, "never"] > calls[site, "recorded"] > 0
            assert not calls[site, "replayed"]
        assert calls["append", "replayed"] > calls["append", "recorded"] > 0


class TestFaultedServingStaysByteIdentical:
    """Crash recovery and outage/rejoin reports, symbolic against real."""

    def _pair(self, mode="serial", **kwargs):
        real = _serve(mode, engine_mode="real", **kwargs)
        symbolic = _serve(mode, **kwargs)
        assert json.dumps(symbolic, sort_keys=True) == \
            json.dumps(real, sort_keys=True)
        return symbolic

    @pytest.mark.parametrize("sched", [CONTIGUOUS, PAGED],
                             ids=["contiguous", "paged"])
    def test_crash_recovery(self, sched, probe):
        calls, _ = probe
        makespan = _serve("megatron", world=2, sched=sched)["makespan_s"]
        plan = FaultPlan(seed=3,
                         crashes=(RankCrash(rank=1, at=makespan / 3),))
        calls.clear()
        rep = self._pair("megatron", world=2, sched=sched, fault_plan=plan,
                         max_restarts=1)
        assert_pinned("replay_parity.crash."
                      + ("paged" if sched.paged else "contiguous"), rep)
        assert rep["recoveries"] == 1 and rep["completed"] == 96
        # before the crash rank 1 executes and rank 0 replays; after the
        # restart both are healthy
        assert calls["append", "executed"] > 0
        assert calls["append", "replayed"] > calls["append", "recorded"] > 0

    def test_slowed_rank(self, probe):
        calls, _ = probe
        plan = FaultPlan(slowdowns=(
            ComputeSlowdown(rank=0, factor=2.0, until=0.05),))
        healthy = _serve(sched=CONTIGUOUS)
        calls.clear()
        slow = self._pair(sched=CONTIGUOUS, fault_plan=plan)
        assert_pinned("replay_parity.slowed", slow)
        assert slow["makespan_s"] > healthy["makespan_s"]
        assert {kind for _, kind in calls} == {"executed"}

    @pytest.mark.parametrize("mode,kwargs", [
        ("serial", {}), ("megatron", {"world": 2})])
    def test_outage_rejoin_with_a_crash(self, mode, kwargs):
        # two ranks: the recovery snapshot is one object handed to every
        # rank's program, so a restore that shares what it later mutates
        # (the outage ledger) makes the ranks' reports diverge
        outage = ReplicaOutage(out_at=6, repair_at=12, warmup_iters=2)
        plan = FaultPlan(seed=11, crashes=(RankCrash(rank=0, at=2e-3),))
        rep = self._pair(mode, sched=CONTIGUOUS, autoscale=AUTO,
                         outages=(outage,), fault_plan=plan, max_restarts=2,
                         **kwargs)
        assert_pinned("replay_parity.outage_crash"
                      + ("" if mode == "serial" else f".{mode}"), rep)
        assert rep["outages"] == rep["rejoins"] == 1
        assert rep["recoveries"] == 1
