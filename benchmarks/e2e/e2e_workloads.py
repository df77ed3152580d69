"""The four workloads: frozen inputs, the calls into ``repro``, output checks.

Every literal a workload depends on (rows, rates, scenarios, budgets) lives
here, so later changes to ``benchmarks/bench_*.py`` or ``tests/`` cannot move
the baseline.  ``--seed`` reaches only input generation (serving
``WorkloadConfig.seed``, the training dataset and scenario seeds); the
program receives the generated inputs only.  ``table1_strong`` has no
random input: its inputs are the paper's twelve Table 1 rows.

A workload's repetition is its ``units`` run back to back, one caller, each
call waiting for the previous one (closed loop).  The serving units are
open loop *inside*, in virtual time: seeded Poisson arrivals at a fixed
rate, latency counted from the virtual arrival.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.bench.chaos import ChaosScenario, run_scenario
from repro.bench.experiments import BenchRow
from repro.bench.runner import run_table
from repro.data.synthetic import SyntheticImageClassification
from repro.models.configs import TransformerConfig
from repro.serve import (
    AutoscaleConfig,
    PriorityClass,
    SchedulerConfig,
    SpecDecodeConfig,
    WorkloadConfig,
    run_serving,
)

@dataclass
class Evaluation:
    """What one repetition's outputs amount to."""

    attempted: int = 0  #: rows / scenarios / requests, plus checks made
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    virtual: dict[str, float] = field(default_factory=dict)
    #: per-layer numbers that are program outputs rather than spans
    layer: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# --- table1_strong ----------------------------------------------------------------

#: Paper Table 1, transcribed (hidden 3072, 64 heads; forward/backward
#: seconds, throughput, inference rate as published).
TABLE1_ROWS: tuple[BenchRow, ...] = (
    BenchRow("table1", "megatron", 4, (4,), 12, 3072, 64,
             0.1225, 0.4749, 1.6739, 8.1633),
    BenchRow("table1", "megatron", 16, (16,), 12, 3072, 64,
             0.1143, 0.4293, 1.8396, 8.7489),
    BenchRow("table1", "megatron", 64, (64,), 12, 3072, 64,
             0.1195, 0.5306, 1.5382, 8.3682),
    BenchRow("table1", "optimus", 4, (2, 2), 12, 3072, 64,
             0.1676, 0.5019, 1.4937, 5.9666),
    BenchRow("table1", "optimus", 16, (4, 4), 12, 3072, 64,
             0.2099, 0.6159, 1.2109, 4.7642),
    BenchRow("table1", "optimus", 64, (8, 8), 12, 3072, 64,
             0.1329, 0.3986, 1.8815, 7.5245),
    BenchRow("table1", "tesseract", 4, (2, 2, 1), 12, 3072, 64,
             0.1666, 0.5014, 1.4970, 6.0024),
    BenchRow("table1", "tesseract", 8, (2, 2, 2), 12, 3072, 64,
             0.0999, 0.3002, 2.4994, 10.0100),
    BenchRow("table1", "tesseract", 16, (4, 4, 1), 12, 3072, 64,
             0.1444, 0.4343, 1.7280, 6.9252),
    BenchRow("table1", "tesseract", 32, (4, 4, 2), 12, 3072, 64,
             0.1244, 0.3727, 2.0117, 8.0386),
    BenchRow("table1", "tesseract", 64, (4, 4, 4), 16, 3072, 64,
             0.0869, 0.2636, 2.8531, 11.5075),
    BenchRow("table1", "tesseract", 64, (8, 8, 1), 12, 3072, 64,
             0.1799, 0.5178, 1.4333, 5.5586),
)
TABLE1_SEQ_LEN = 1024
#: two layers: the paper-accuracy metrics are the same at 1, 2 and 12 layers
#: (every row scales alike), and a 12-layer sweep is too long to repeat
TABLE1_NUM_LAYERS = 2


def _geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def _ranks(xs) -> list[float]:
    """Average ranks (ties share the mean rank)."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _spearman(xs, ys) -> float:
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var = math.sqrt(sum((a - mx) ** 2 for a in rx)
                    * sum((b - my) ** 2 for b in ry))
    return cov / var if var else 0.0


class Table1Strong:
    """The paper's strong-scaling sweep: all twelve rows, symbolic mode."""

    name = "table1_strong"

    def __init__(self, seed: int, scale: str):
        del seed  # the inputs are the paper's rows
        self.rows = (TABLE1_ROWS if scale == "full"
                     else tuple(r for r in TABLE1_ROWS if r.gpus <= 8))
        self.seq_len = TABLE1_SEQ_LEN if scale == "full" else 128

    def setup_check(self) -> None:
        pass

    def units(self):
        return [("table", lambda: run_table(
            self.rows, seq_len=self.seq_len, num_layers=TABLE1_NUM_LAYERS,
            collect_comm=False))]

    def evaluate(self, out: dict) -> Evaluation:
        ev = Evaluation()
        measured = out["table"]
        ev.check(len(measured) == len(self.rows), "run_table dropped rows")
        for m in measured:
            ev.check(
                math.isfinite(m.forward) and m.forward > 0
                and math.isfinite(m.backward) and m.backward > 0,
                f"{m.row.label}: non-positive simulated time",
            )
        by = {m.row.label: m.forward for m in measured}
        if "tesseract[4, 4, 4]" in by:
            for label in ("megatron[64]", "optimus[8, 8]",
                          "tesseract[8, 8, 1]"):
                ev.check(by[label] > by["tesseract[4, 4, 4]"],
                         f"tesseract[4, 4, 4] not faster than {label}")
            ev.check(
                by["tesseract[4, 4, 1]"] > by["tesseract[4, 4, 2]"]
                > by["tesseract[4, 4, 4]"],
                "forward time not monotone in depth at q=4",
            )
        sim = [m.forward for m in measured]
        paper = [m.row.paper_forward for m in measured]
        gs, gp = _geomean(sim), _geomean(paper)
        ev.virtual = {
            "sim_time_s": sum(m.forward + m.backward for m in measured),
            "paper_ratio_err": sum(
                abs(math.log((s / gs) / (p / gp))) for s, p in zip(sim, paper)
            ) / len(sim),
            "paper_rank_corr": _spearman(sim, paper),
        }
        return ev


# --- train_elastic ----------------------------------------------------------------

def _train_scenarios(seed: int, scale: str) -> tuple[ChaosScenario, ...]:
    """Healthy, same-shape crash, elastic node loss, node loss + repair.

    q=2, d=2: 8 ranks on two 4-GPU nodes, real numpy payloads.  Three
    epochs span ~1 virtual second, so the crash (0.2/0.25 s) lands in the
    first epoch and the repair (0.45 s) leaves most of the run to grow back
    in.
    """
    base = dict(q=2, d=2, seed=seed)
    if scale == "tiny":
        return (
            ChaosScenario(name="healthy", epochs=1, **base),
            ChaosScenario(name="crash", epochs=1, crash_rank=1, crash_at=0.1,
                          **base),
        )
    return (
        ChaosScenario(name="healthy", epochs=3, **base),
        ChaosScenario(name="crash", epochs=3, crash_rank=1, crash_at=0.2,
                      **base),
        ChaosScenario(name="node-loss", epochs=3, elastic=True, node_crash=1,
                      crash_at=0.25, **base),
        ChaosScenario(name="node-repair", epochs=3, elastic=True,
                      node_crash=1, crash_at=0.25, node_repair_at=0.45,
                      **base),
    )


class TrainElastic:
    """Training under faults: blocking rendezvous, real payloads, recovery."""

    name = "train_elastic"
    ELASTIC_LOSS_TOL = 1e-4  #: metric reduction order differs between grids

    def __init__(self, seed: int, scale: str):
        self.scenarios = _train_scenarios(seed, scale)
        self.dataset = SyntheticImageClassification(
            num_classes=4, image_size=8, train_size=64, test_size=32,
            seed=seed,
        )

    def setup_check(self) -> None:
        pass

    def units(self):
        return [
            (s.name, lambda s=s: run_scenario(s, dataset=self.dataset))
            for s in self.scenarios
        ]

    def evaluate(self, out: dict) -> Evaluation:
        ev = Evaluation()
        results = [out[s.name] for s in self.scenarios]
        healthy = out["healthy"]
        for s, r in zip(self.scenarios, results):
            ev.check(r.steps == healthy.steps and math.isfinite(r.final_loss),
                     f"{s.name}: {r.steps} useful steps, loss {r.final_loss}")
            crashes = s.crash_rank is not None or s.node_crash is not None
            if crashes:
                ev.check(r.attempts >= 1, f"{s.name}: crash never fired")
            if s.elastic:
                ev.check(
                    abs(r.final_loss - healthy.final_loss)
                    <= self.ELASTIC_LOSS_TOL,
                    f"{s.name}: final loss {r.final_loss!r} vs healthy "
                    f"{healthy.final_loss!r}",
                )
                ev.check(r.reshapes >= 1, f"{s.name}: grid never reshaped")
            elif crashes:
                ev.check(r.final_loss == healthy.final_loss,
                         f"{s.name}: final loss not bit-equal to healthy")
            if s.node_repair_at is not None:
                ev.check(r.grows >= 1 and r.final_world == s.nranks,
                         f"{s.name}: grid did not grow back")
        total_virtual = sum(r.virtual_time for r in results)
        ev.virtual = {
            "sim_time_s": total_virtual,
            "sim_steps_per_s": sum(r.steps for r in results) / total_virtual,
            "sim_recover_s": sum(r.time_to_recover_s for r in results),
        }
        ev.layer = {
            "train.restarts": sum(r.attempts for r in results),
            "train.reshapes": sum(r.reshapes for r in results),
            "train.lost_steps": sum(r.lost_steps for r in results),
        }
        return ev


# --- serving ----------------------------------------------------------------------

SERVE_SLOTS = 8
PAGED_KNOBS = dict(
    kv_block_tokens=16, prefill_chunk_tokens=16,
    spec=SpecDecodeConfig(spec_k=3, accept_rate=0.7),
)
#: Output lengths.  ``overload`` runs carry the repo's usual serving mix
#: (``bench_serving.py``): mostly short answers and a tail of long ones, the
#: traffic that drives preemption and head-of-line blocking.  ``steady``
#: runs are four times as long and dominate host time, so they draw uniform
#: 8-32 tokens (same mean): with the long tail, the output tokens in 1024
#: requests swing by 6% (quartile to quartile) with the seed, against 1.5%,
#: which no host-time bound could see through.
LONG_TAIL = dict(output_short=(4, 12), output_long=(64, 96), long_frac=0.15)
UNIFORM = dict(output_short=(8, 32), output_long=(8, 32), long_frac=0.0)
OUTPUTS = {"steady": UNIFORM, "overload": LONG_TAIL}

#: shared-prefix traffic: four system prompts drawn Zipf-style, a gold class
#: with a 50 ms (virtual) TTFT limit and a best-effort bronze class.  Every
#: pool prefix is 32 tokens, two whole cache blocks, so how much of a prompt
#: can be shared does not depend on the lengths a seed happens to draw.
PREFIX_TRAFFIC = WorkloadConfig(
    prompt_len=(4, 8), prefix_pool=4, prefix_len=(32, 32), prefix_zipf=1.4,
    priorities=(PriorityClass("gold", weight=1.0, ttft_slo_s=0.05),
                PriorityClass("bronze", weight=2.0)),
    **LONG_TAIL,
)
PREFIX_KV_BUDGET = 1024
#: requests per virtual second.  A 256-request flood drains at ~23 req/s
#: through the paged arm on either output mix (measured once, then frozen):
#: steady is ~0.9x of that, overload ~3x.
PREFIX_RATES = {"steady": 21.0, "overload": 70.0}

#: no shared prefix at all: every prompt is 16-40 fresh tokens
UNIQUE_TRAFFIC = WorkloadConfig(prompt_len=(16, 40), **LONG_TAIL)
#: three eighths of what eight worst-case requests need, so overload
#: preempts on every seed: 44-144 times per contiguous overload run over
#: sixty seeds.  At half, long-tail traffic preempts 3-46 times, and some
#: seed would bring that to zero and fail the check below.
UNIQUE_KV_BUDGET = SERVE_SLOTS * UNIQUE_TRAFFIC.max_request_tokens * 3 // 8
#: a flood drains through the contiguous arm at ~6.2 req/s on the steady mix
#: and ~5 req/s on the long-tail mix, which preempts: ~0.9x and ~3x
UNIQUE_RATES = {"steady": 5.5, "overload": 15.0}

#: requests per run: (steady, overload).  1024 steady requests leave ten
#: samples beyond the p99 that ``sim_ttft_p99_s`` reports.
SERVE_REQUESTS = {"full": (1024, 256), "tiny": (32, 16)}
PARITY_REQUESTS = 24  #: real-tensor vs symbolic report equality, in set-up


def _serve_model(traffic: WorkloadConfig) -> TransformerConfig:
    return TransformerConfig(num_layers=2, hidden=32, nheads=4,
                             seq_len=traffic.max_request_tokens, vocab=32,
                             causal=True)


class _Serving:
    """Shared plumbing of the two serving workloads (one rank, serial LM)."""

    traffic: WorkloadConfig
    rates: dict[str, float]

    def __init__(self, seed: int, scale: str):
        self.full = scale == "full"
        self.n_steady, self.n_overload = SERVE_REQUESTS[scale]
        self.seed = seed
        self.model = _serve_model(self.traffic)

    def _traffic(self, run: str, n: int) -> WorkloadConfig:
        return dataclasses.replace(self.traffic, seed=self.seed,
                                   num_requests=n,
                                   arrival_rate=self.rates[run],
                                   **OUTPUTS[run])

    def _serve(self, run: str, n: int, sched: SchedulerConfig, **kwargs):
        return run_serving("serial", model_cfg=self.model,
                           workload=self._traffic(run, n), sched=sched,
                           **kwargs)

    def _parity(self, sched: SchedulerConfig) -> None:
        symbolic = self._serve("overload", PARITY_REQUESTS, sched)
        real = self._serve("overload", PARITY_REQUESTS, sched,
                           engine_mode="real")
        if real != symbolic:
            raise AssertionError(
                f"{self.name}: real-tensor and symbolic serving reports "
                f"differ")

    @staticmethod
    def _completed(ev: Evaluation, reports: dict) -> None:
        for run, rep in reports.items():
            ev.attempted += rep["num_requests"]
            lost = rep["num_requests"] - rep["completed"]
            if lost:
                ev.failed += lost
                ev.problems.append(f"{run}: {lost} requests never completed")


class ServePrefix(_Serving):
    """Paged cache on shared-prefix traffic: lookup, COW, LRU do the work."""

    name = "serve_prefix"
    traffic = PREFIX_TRAFFIC
    rates = PREFIX_RATES
    sched = SchedulerConfig(max_slots=SERVE_SLOTS,
                            kv_budget_tokens=PREFIX_KV_BUDGET, **PAGED_KNOBS)

    def setup_check(self) -> None:
        self._parity(self.sched)

    def units(self):
        return [
            ("steady", lambda: self._serve("steady", self.n_steady,
                                           self.sched)),
            ("overload", lambda: self._serve("overload", self.n_overload,
                                             self.sched)),
        ]

    def evaluate(self, out: dict) -> Evaluation:
        ev = Evaluation()
        self._completed(ev, out)
        steady, overload = out["steady"], out["overload"]
        if self.full:
            for run, rep in out.items():
                ev.check(rep["paged"]["prefix_hit_rate"] > 0.3,
                         f"{run}: prefix hit rate "
                         f"{rep['paged']['prefix_hit_rate']:.3f} <= 0.3")
        ev.virtual = {
            "sim_time_s": steady["makespan_s"] + overload["makespan_s"],
            "sim_goodput_tok_s": overload["goodput_tokens_per_s"],
            "sim_ttft_p99_s": steady["ttft_s"]["p99"],
            "sim_ttft_p50_s": steady["ttft_s"]["p50"],
            "sim_slo_attainment": steady["slo_attainment"],
            "sim_preemptions": overload["preemptions"],
        }
        ev.layer = {
            "serve.frames": steady["iterations"] + overload["iterations"],
            "serve.cache.hit_rate": steady["paged"]["prefix_hit_rate"],
            "serve.cache.cow_copies": (steady["paged"]["cow_copies"]
                                       + overload["paged"]["cow_copies"]),
            "serve.cache.blocks_peak": max(steady["paged"]["blocks_peak"],
                                           overload["paged"]["blocks_peak"]),
        }
        return ev


class ServeUnique(_Serving):
    """Nothing to reuse: churn, eviction and preemption on all three loops."""

    name = "serve_unique"
    traffic = UNIQUE_TRAFFIC
    rates = UNIQUE_RATES
    contiguous = SchedulerConfig(max_slots=SERVE_SLOTS,
                                 kv_budget_tokens=UNIQUE_KV_BUDGET)
    paged = SchedulerConfig(max_slots=SERVE_SLOTS,
                            kv_budget_tokens=UNIQUE_KV_BUDGET, **PAGED_KNOBS)

    def setup_check(self) -> None:
        self._parity(self.contiguous)

    def units(self):
        n = self.n_overload
        return [
            ("steady", lambda: self._serve("steady", self.n_steady,
                                           self.contiguous)),
            ("overload", lambda: self._serve("overload", n, self.contiguous)),
            ("paged_overload", lambda: self._serve("overload", n,
                                                   self.paged)),
            ("fleet_overload", lambda: self._serve(
                "overload", n, self.contiguous, autoscale=AutoscaleConfig())),
        ]

    def evaluate(self, out: dict) -> Evaluation:
        ev = Evaluation()
        self._completed(ev, out)
        steady, overload = out["steady"], out["overload"]
        paged, fleet = out["paged_overload"], out["fleet_overload"]
        if self.full:
            ev.check(overload["preemptions"] > 0,
                     "overload: the tight KV budget never preempted")
        ev.check(paged["paged"]["prefix_hit_rate"] < 0.05,
                 f"paged_overload: prefix hit rate "
                 f"{paged['paged']['prefix_hit_rate']:.3f} on unique prompts")
        ev.virtual = {
            "sim_time_s": sum(rep["makespan_s"] for rep in out.values()),
            "sim_goodput_tok_s": overload["goodput_tokens_per_s"],
            "sim_ttft_p99_s": steady["ttft_s"]["p99"],
            "sim_ttft_p50_s": steady["ttft_s"]["p50"],
            "sim_preemptions": overload["preemptions"],
        }
        ev.layer = {
            "serve.frames": sum(rep["iterations"] for rep in out.values()),
            "serve.cache.hit_rate": paged["paged"]["prefix_hit_rate"],
            "serve.cache.cow_copies": paged["paged"]["cow_copies"],
            "serve.cache.blocks_peak": paged["paged"]["blocks_peak"],
            "serve.paged_unique.goodput_tok_s":
                paged["goodput_tokens_per_s"],
            "serve.fleet.goodput_tok_s": fleet["goodput_tokens_per_s"],
            "serve.fleet.replicas_peak": fleet["replicas_peak"],
        }
        return ev


WORKLOADS = {cls.name: cls for cls in
             (Table1Strong, TrainElastic, ServePrefix, ServeUnique)}
