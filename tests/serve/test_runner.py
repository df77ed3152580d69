"""End-to-end tests for the serving simulation loop."""

import dataclasses
from collections import Counter

import pytest

from repro.errors import ConfigError
from repro.hardware.spec import GPUSpec
from repro.models.configs import TransformerConfig
from repro.serve import (
    AutoscaleConfig,
    PriorityClass,
    SchedulerConfig,
    SpecDecodeConfig,
    WorkloadConfig,
    run_serving,
)
from repro.sim.engine import Engine, RankContext
from repro.sim.events import ComputeEvent

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


class TestRunServing:
    def test_completes_and_is_deterministic(self):
        a = run_serving("serial", model_cfg=MODEL, workload=WORKLOAD,
                        sched=SCHED)
        b = run_serving("serial", model_cfg=MODEL, workload=WORKLOAD,
                        sched=SCHED)
        assert a == b
        assert a["completed"] == a["num_requests"] == 10
        assert a["goodput_tokens_per_s"] > 0
        assert a["makespan_s"] > 0
        assert a["ttft_s"]["p50"] > 0
        assert a["latency_s"]["p99"] >= a["latency_s"]["p50"]

    @pytest.mark.parametrize(
        "mode,kwargs",
        [("megatron", {"world": 4}), ("optimus", {"q": 2}),
         ("tesseract", {"q": 2, "d": 2})],
    )
    def test_parallel_modes_complete(self, mode, kwargs, monkeypatch):
        monkeypatch.setattr(RankContext, "_recordings", {})
        rep = run_serving(mode, model_cfg=MODEL, workload=WORKLOAD,
                          sched=SCHED, **kwargs)
        # run_serving raises if any rank's report diverges from rank 0's.
        assert_pinned(f"runner.{mode}", rep)
        # a sharded LM's pass reaches a collective: it never records
        assert not RankContext._recordings
        assert rep["completed"] == 10
        assert rep["mode"] == mode

    def test_same_schedule_decisions_across_modes(self):
        # The scheduler runs on global bookkeeping only, so the iteration
        # count and token totals must be mode-independent (virtual *times*
        # differ — the modes have different comm costs).
        serial = run_serving("serial", model_cfg=MODEL, workload=WORKLOAD,
                             sched=SCHED)
        tess = run_serving("tesseract", model_cfg=MODEL, workload=WORKLOAD,
                           sched=SCHED, q=2, d=2)
        assert serial["iterations"] == tess["iterations"]
        assert serial["output_tokens"] == tess["output_tokens"]
        assert serial["peak_kv_tokens"] == tess["peak_kv_tokens"]
        assert serial["preemptions"] == tess["preemptions"]

    def test_tight_budget_preempts_and_still_completes(self):
        tight = SchedulerConfig(max_slots=4, kv_budget_tokens=64,
                                policy="continuous")
        rep = run_serving("serial", model_cfg=MODEL, workload=WORKLOAD,
                          sched=tight)
        assert rep["completed"] == 10
        assert rep["preemptions"] > 0
        assert rep["peak_kv_tokens"] <= 64

    def test_continuous_beats_static_under_load(self):
        hot = dataclasses.replace(WORKLOAD, arrival_rate=256.0)
        goodput = {}
        for policy in ("continuous", "static"):
            sched = dataclasses.replace(SCHED, policy=policy)
            rep = run_serving("serial", model_cfg=MODEL, workload=hot,
                              sched=sched)
            assert rep["completed"] == 10
            goodput[policy] = rep["goodput_tokens_per_s"]
        assert goodput["continuous"] > goodput["static"]

    def test_real_and_symbolic_timings_agree(self):
        sym = run_serving("serial", model_cfg=MODEL, workload=WORKLOAD,
                          sched=SCHED, engine_mode="symbolic")
        real = run_serving("serial", model_cfg=MODEL, workload=WORKLOAD,
                           sched=SCHED, engine_mode="real")
        assert sym == real


#: one configuration per shape of the serving loop: each cache, pinned at
#: one replica and behind the autoscaled dispatcher
LOOPS = {
    "contiguous": {"sched": SchedulerConfig(max_slots=4, kv_budget_tokens=64,
                                            policy="continuous")},
    "paged": {"sched": SchedulerConfig(
        max_slots=4, kv_budget_tokens=64, policy="continuous",
        kv_block_tokens=4, prefill_chunk_tokens=6,
        spec=SpecDecodeConfig(spec_k=2, accept_rate=0.6))},
    "fleet": {"sched": SCHED, "autoscale": AutoscaleConfig(
        min_replicas=1, max_replicas=3, scale_up_queue=2,
        scale_down_patience=4, spinup_iters=2)},
}
LOOPS["paged_fleet"] = {**LOOPS["paged"],
                        "autoscale": LOOPS["fleet"]["autoscale"]}


HOT = dataclasses.replace(WORKLOAD, arrival_rate=256.0)
PRIORITIZED = dataclasses.replace(
    HOT, prefix_pool=2, prefix_len=(8, 8), prefix_zipf=1.5,
    priorities=(PriorityClass("gold", weight=1.0, ttft_slo_s=0.02),
                PriorityClass("bronze", weight=2.0)))
#: configurations whose reports no other test pins:
#: name -> (mode, run_serving arguments, what the run must have exercised)
PINNED_HOLES = {
    "static_fleet": ("megatron", {
        "world": 2, "workload": HOT,
        "sched": dataclasses.replace(SCHED, policy="static"),
        "autoscale": LOOPS["fleet"]["autoscale"]},
        lambda rep: rep["policy"] == "static" and rep["replicas_peak"] > 1),
    "paged_spec_two_bands": ("tesseract", {
        "q": 2, "d": 1, "workload": HOT, **LOOPS["paged"]},
        lambda rep: rep["spec"]["steps"] > 0 and rep["preemptions"] > 0),
    # priorities on the contiguous cache order nothing and report
    # nothing: no SLO section
    "prioritized_contiguous": ("serial", {
        "workload": PRIORITIZED, **LOOPS["contiguous"]},
        lambda rep: "slo_attainment" not in rep and "paged" not in rep),
}


class TestPinnedHoles:
    @pytest.mark.parametrize("name", sorted(PINNED_HOLES))
    def test_report_is_byte_identical(self, name):
        mode, kwargs, exercised = PINNED_HOLES[name]
        model = dataclasses.replace(
            MODEL, seq_len=kwargs["workload"].max_request_tokens)
        rep = run_serving(mode, model_cfg=model, **kwargs)
        assert_pinned(f"runner.{name}", rep)
        assert rep["completed"] == rep["num_requests"]
        assert exercised(rep)


class TestHostCostOfAPricedOp:
    """An untraced serving run builds no compute events and asks the
    roofline for each distinct kernel size once; the report is unchanged.
    (The second run replays the first one's recorded passes and prices a
    batch of equal cache kernels in one call, so the kernels it prices are
    counted by ``ctx.kernels``, not by calls to ``RankContext.compute``.)"""

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_no_events_and_one_roofline_call_per_size(self, loop, monkeypatch):
        hot = dataclasses.replace(WORKLOAD, arrival_rate=256.0)
        want = run_serving("serial", model_cfg=MODEL, workload=hot,
                           **LOOPS[loop])

        built, priced, engines = [], Counter(), []
        roofline = GPUSpec.compute_time

        def counting_time(gpu, flops, bytes_touched=0.0, min_dim=None):
            priced[(flops, bytes_touched, min_dim)] += 1
            return roofline(gpu, flops, bytes_touched, min_dim)

        def counting_event(*args, **kwargs):
            built.append(1)
            return ComputeEvent(*args, **kwargs)

        class KeptEngine(Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(GPUSpec, "compute_time", counting_time)
        monkeypatch.setattr("repro.sim.engine.ComputeEvent", counting_event)
        monkeypatch.setattr("repro.serve.runner.Engine", KeptEngine)
        got = run_serving("serial", model_cfg=MODEL, workload=hot,
                          **LOOPS[loop])
        assert got == want and got["completed"] == hot.num_requests
        assert not built
        assert priced and set(priced.values()) == {1}
        kernels = sum(ctx.kernels for e in engines for ctx in e.contexts)
        assert 10 * len(priced) < kernels  # measured: 120-220x fewer


class TestValidation:
    def test_seq_len_too_short(self):
        cfg = dataclasses.replace(MODEL, seq_len=8)
        with pytest.raises(ConfigError, match="seq_len"):
            run_serving("serial", model_cfg=cfg, workload=WORKLOAD,
                        sched=SCHED)

    def test_budget_below_longest_request(self):
        sched = dataclasses.replace(SCHED, kv_budget_tokens=16)
        with pytest.raises(ConfigError, match="budget"):
            run_serving("serial", model_cfg=MODEL, workload=WORKLOAD,
                        sched=sched)

    def test_vocab_too_small(self):
        cfg = dataclasses.replace(MODEL, vocab=16)
        with pytest.raises(ConfigError, match="vocab"):
            run_serving("serial", model_cfg=cfg, workload=WORKLOAD,
                        sched=SCHED)

    def test_slots_not_divisible_by_bands(self):
        sched = dataclasses.replace(SCHED, max_slots=5)
        with pytest.raises(ConfigError, match="divisible"):
            run_serving("tesseract", model_cfg=MODEL, workload=WORKLOAD,
                        sched=sched, q=2, d=2)
