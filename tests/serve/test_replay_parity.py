"""Serving with replayed passes: a symbolic run must be a real run's twin.

A real-mode engine never replays, so it is the oracle.  Every test runs one
serving configuration in both engine modes and requires byte-identical
reports; the loop tests also compare each rank's final clock,
``compute_seconds``, memory peaks and kernel count, on runs long enough that
every replay call site the loop uses is hit many times.  No wall clock.
"""

from __future__ import annotations

import dataclasses
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
from repro.sim.events import ComputeEvent
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
    "contiguous": ({"sched": CONTIGUOUS}, {"prefill", "decode_step"}),
    "paged": ({"sched": PAGED}, {"decode_step"}),
    "fleet": ({"sched": CONTIGUOUS, "autoscale": AUTO},
              {"prefill", "decode_step"}),
    "paged_fleet": ({"sched": PAGED, "autoscale": AUTO}, {"decode_step"}),
}


@pytest.fixture
def probe(monkeypatch):
    """Count what ``RankContext.replay`` did per call site and keep the
    engines ``run_serving`` builds, so their ranks can be read afterwards.
    The recording table starts empty (and the process's is restored
    after), so the first run of a configuration records its passes."""
    calls: Counter = Counter()
    engines: list[Engine] = []
    replay = RankContext.replay

    def counting(ctx, key, fn, modules=()):
        rec = ctx._recordings.get(key, "unseen")
        kind = ("executed" if not ctx._replays
                else "never" if rec is None
                else "recorded" if rec == "unseen" else "replayed")
        calls[key[1], kind] += 1
        return replay(ctx, key, fn, modules)

    class KeptEngine(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(RankContext, "replay", counting)
    monkeypatch.setattr(RankContext, "_recordings", {})
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

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_a_full_table_serves_a_second_run(self, loop, probe):
        # cold: the first run records; warm: the same configuration again
        # in the same process executes no pass and changes nothing
        calls, engines = probe
        kwargs, sites = LOOPS[loop]
        cold = _serve(**kwargs)
        cold_states = _rank_states(engines.pop())
        table = dict(RankContext._recordings)
        assert all(calls[site, "recorded"] > 0 for site in sites)
        calls.clear()

        warm = _serve(**kwargs)
        assert json.dumps(warm, sort_keys=True) == \
            json.dumps(cold, sort_keys=True)
        assert_pinned(f"replay_parity.{loop}", warm)
        assert _rank_states(engines.pop()) == cold_states
        assert RankContext._recordings == table
        assert {kind for _, kind in calls} == {"replayed"}
        assert {site for site, _ in calls} == sites

    def test_parallel_lm_is_abandoned_and_matches_real_mode(self, probe):
        # a sharded LM reaches a collective inside the pass, so it never
        # calls replay and leaves nothing in the table
        calls, engines = probe
        real = _serve("megatron", world=2, sched=CONTIGUOUS,
                      engine_mode="real")
        real_states = _rank_states(engines.pop())
        calls.clear()
        symbolic = _serve("megatron", world=2, sched=CONTIGUOUS)
        assert symbolic == real
        assert _rank_states(engines.pop()) == real_states
        assert not calls
        assert not RankContext._recordings


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


#: case -> (mode, grid arguments, scheduler): the paged cache over four
#: batch bands, where prefill blocks are stored on every rank and decode
#: blocks only on the band's ranks, and the contiguous cache on ranks that
#: each store every slot
GRID_CACHES = {
    "paged_tesseract": ("tesseract", {"q": 2, "d": 2}, SchedulerConfig(
        max_slots=8, kv_budget_tokens=128, policy="continuous",
        kv_block_tokens=4, prefill_chunk_tokens=6,
        spec=SpecDecodeConfig(spec_k=2, accept_rate=0.6))),
    "contiguous_megatron": ("megatron", {"world": 2}, CONTIGUOUS),
}
CACHE_TAGS = ("kv_append", "kv_page", "kv_frame")


@pytest.fixture
def serve_on(monkeypatch):
    """``serve_on(case, engine_mode, trace)`` -> (report, the engine)."""
    engines: list[Engine] = []
    tracing = [False]

    class TracedEngine(Engine):
        def __init__(self, *args, trace=False, **kwargs):
            super().__init__(*args, trace=tracing[0], **kwargs)
            engines.append(self)

    monkeypatch.setattr("repro.serve.runner.Engine", TracedEngine)

    def serve_on(case, engine_mode, trace):
        mode, grid, sched = GRID_CACHES[case]
        tracing[0] = trace
        workload = dataclasses.replace(WORKLOAD, num_requests=16)
        report = run_serving(mode, model_cfg=MODEL, workload=workload,
                             sched=sched, engine_mode=engine_mode, **grid)
        return report, engines.pop()

    return serve_on


def _cache_kernels(engine: Engine) -> list[list[tuple]]:
    """Per rank, ``(tag, bytes_touched)`` of every KV-cache kernel."""
    out: list[list[tuple]] = [[] for _ in range(engine.nranks)]
    for ev in engine.trace.events:
        if type(ev) is ComputeEvent and ev.tag in CACHE_TAGS:
            out[ev.rank].append((ev.tag, ev.bytes_touched))
    return out


class TestCacheKernelsOnAGrid:
    """Both caches on a grid: a symbolic run prices every cache kernel a
    real run executes, rank by rank and in the same order."""

    @pytest.mark.parametrize("case", sorted(GRID_CACHES))
    def test_rank_states_and_cache_kernels(self, case, serve_on):
        real, real_engine = serve_on(case, "real", trace=False)
        symbolic, symbolic_engine = serve_on(case, "symbolic", trace=False)
        assert json.dumps(symbolic, sort_keys=True) == \
            json.dumps(real, sort_keys=True)
        assert symbolic["completed"] == 16
        states = [(ctx.clock.now.hex(), ctx.compute_seconds.hex(),
                   ctx.kernels, ctx.mem.summary())
                  for ctx in symbolic_engine.contexts]
        assert states == [(ctx.clock.now.hex(), ctx.compute_seconds.hex(),
                           ctx.kernels, ctx.mem.summary())
                          for ctx in real_engine.contexts]

        traced_real = _cache_kernels(serve_on(case, "real", trace=True)[1])
        traced_symbolic = _cache_kernels(
            serve_on(case, "symbolic", trace=True)[1])
        assert traced_symbolic == traced_real
        # only a paged cache splits a chunk into per-token pieces
        tags = set(CACHE_TAGS) if GRID_CACHES[case][2].paged else \
            {"kv_append", "kv_frame"}
        for kernels in traced_real:
            assert {tag for tag, _ in kernels} == tags
        if GRID_CACHES[case][0] == "tesseract":
            # decode KV is stored band-locally: the bands differ
            assert len({tuple(k) for k in traced_real}) > 1
