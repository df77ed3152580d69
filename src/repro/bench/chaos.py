"""Chaos scenarios: training under injected faults, with recovery metrics.

Each :class:`ChaosScenario` trains the small reference ViT (real mode, so
losses are meaningful) under a :class:`~repro.sim.faults.FaultPlan` —
a rank crash, a correlated node loss, a straggler, a degraded link,
transient send failures, or nothing at all — through
:func:`~repro.train.resilience.train_resilient`.  The result reports
goodput (useful steps per simulated second, failed attempts included in
the denominator), recovery latency and lost work, so
``benchmarks/bench_resilience.py`` and the ``repro chaos`` CLI can compare
recovery overhead across parallelism modes.

``ELASTIC_SCENARIOS`` (``repro chaos --elastic``) treat fired crashes as
*permanent* hardware loss: restarts draw on a spare pool while it lasts
(live rank replacement) and otherwise re-factorize the surviving world
into the best ``[q, q, d]`` shape, re-sharding the last snapshot for the
new grid — including the crash-during-recovery double-fault case.  The
campaign also covers the *upward* direction: a repaired node growing the
grid back (``node_repair_at``), fresh spare capacity arriving mid-run
(``spare_arrival``), and straggler quarantine with readmission
(``slow_until`` + ``quarantine_factor``) — each a voluntary,
snapshot-clean reshape with ``time_to_reclaim_s`` reported as the lag
between capacity unlocking and the grid growing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.data.synthetic import SyntheticImageClassification
from repro.errors import ConfigError
from repro.models.configs import ViTConfig
from repro.sim.engine import Engine
from repro.sim.faults import (
    ComputeSlowdown,
    FaultPlan,
    LinkFault,
    NodeCrash,
    NodeRepair,
    RankCrash,
    SpareArrival,
)
from repro.train.resilience import (
    ElasticPolicy,
    ResilienceConfig,
    ResilientRun,
    train_resilient,
)

__all__ = [
    "ChaosScenario",
    "ChaosResult",
    "DEFAULT_SCENARIOS",
    "ELASTIC_SCENARIOS",
    "run_scenario",
    "run_chaos",
    "render_chaos",
]

#: Small enough to train in seconds, structured enough to exercise every
#: collective the full model uses (same config as the trainer tests).
CHAOS_VIT = ViTConfig(image_size=8, patch_size=4, channels=3, hidden=16,
                      nheads=4, num_layers=1, num_classes=4)


@dataclass(frozen=True)
class ChaosScenario:
    """One fault environment for a short training run."""

    name: str
    mode: str = "tesseract"       #: "serial" or "tesseract"
    q: int = 2
    d: int = 1
    epochs: int = 2
    batch_size: int = 16
    snapshot_every: int = 2
    seed: int = 0
    crash_rank: int | None = None
    crash_at: float | None = None  #: virtual seconds
    node_crash: int | None = None  #: kill every rank on this node (at crash_at)
    slow_rank: int | None = None
    slow_factor: float = 1.0
    #: end of the straggler window (virtual seconds); None = persistent
    slow_until: float | None = None
    link_fault: tuple[int, int, float] | None = None  #: (src, dst, factor)
    transient_rate: float = 0.0
    #: elastic recovery: fired crashes are permanent hardware loss; the
    #: grid re-factorizes once losses exceed the spare pool
    elastic: bool = False
    spares: int = 0
    #: (rank, at): a second crash injected into restart attempt 1 — the
    #: crash-during-recovery double fault
    recovery_crash: tuple[int, float] | None = None
    #: repair the crashed node at this cumulative virtual time: the grid
    #: grows back at the next snapshot boundary past it
    node_repair_at: float | None = None
    #: (count, at): fresh spare capacity arriving mid-run
    spare_arrival: tuple[int, float] | None = None
    #: evict a rank's node when its local-kernel seconds exceed this
    #: multiple of the fleet minimum (straggler quarantine)
    quarantine_factor: float | None = None
    #: hysteresis between voluntary reshapes (snapshot steps)
    min_steps_between_reshapes: int = 0

    @property
    def nranks(self) -> int:
        return 1 if self.mode == "serial" else self.q * self.q * self.d

    def fault_plan(self) -> FaultPlan | None:
        """The scenario's fault plan (None for the healthy baseline)."""
        crashes = ()
        if self.crash_rank is not None:
            if self.crash_at is None:
                raise ConfigError(
                    f"scenario {self.name!r} sets crash_rank without crash_at"
                )
            crashes = (RankCrash(rank=self.crash_rank, at=self.crash_at),)
        node_crashes = ()
        if self.node_crash is not None:
            if self.crash_at is None:
                raise ConfigError(
                    f"scenario {self.name!r} sets node_crash without crash_at"
                )
            node_crashes = (NodeCrash(node=self.node_crash, at=self.crash_at),)
        node_repairs = ()
        if self.node_repair_at is not None:
            if self.node_crash is None:
                raise ConfigError(
                    f"scenario {self.name!r} sets node_repair_at without "
                    f"node_crash"
                )
            node_repairs = (
                NodeRepair(node=self.node_crash, at=self.node_repair_at),
            )
        spare_arrivals = ()
        if self.spare_arrival is not None:
            count, at = self.spare_arrival
            spare_arrivals = (SpareArrival(count=count, at=at),)
        slowdowns = ()
        if self.slow_rank is not None:
            slowdowns = (
                ComputeSlowdown(rank=self.slow_rank, factor=self.slow_factor,
                                until=self.slow_until),
            )
        link_faults = ()
        if self.link_fault is not None:
            src, dst, factor = self.link_fault
            link_faults = (LinkFault(src=src, dst=dst, factor=factor),)
        if not crashes and not node_crashes and not slowdowns \
                and not link_faults and not spare_arrivals \
                and self.transient_rate == 0.0:
            return None
        return FaultPlan(
            seed=self.seed,
            crashes=crashes,
            node_crashes=node_crashes,
            node_repairs=node_repairs,
            spare_arrivals=spare_arrivals,
            slowdowns=slowdowns,
            link_faults=link_faults,
            transient_rate=self.transient_rate,
        )


@dataclass
class ChaosResult:
    """Recovery metrics for one scenario."""

    scenario: ChaosScenario
    steps: int                    #: useful optimizer steps in the final history
    final_loss: float
    attempts: int                 #: restarts performed (0 = no crash)
    resume_step: int              #: snapshot step the last recovery resumed from
    lost_steps: int               #: work discarded by rollback (all recoveries)
    recovery_latency_s: float     #: wall seconds spent restoring (sum)
    virtual_time: float           #: simulated seconds, failed attempts included
    reshapes: int = 0             #: elastic grid resizes performed
    final_world: int = 0          #: rank count of the successful attempt
    #: virtual seconds spent in crashed attempts — the work thrown away
    #: plus the time spent reaching each crash (deterministic, unlike the
    #: wall-clock recovery_latency_s).  Voluntary reshape segments (grow,
    #: quarantine) are *not* recovery time: their steps all count.
    time_to_recover_s: float = 0.0
    grows: int = 0                #: grow-back reshapes (repair / spares)
    quarantines: int = 0          #: voluntary straggler evictions
    #: cumulative lag between capacity unlocking and the grid growing
    time_to_reclaim_s: float = 0.0
    run: ResilientRun = field(repr=False, default=None)

    @property
    def goodput(self) -> float:
        """Useful steps per simulated second (crashed work counts as cost)."""
        return self.steps / self.virtual_time if self.virtual_time else 0.0


DEFAULT_SCENARIOS: tuple[ChaosScenario, ...] = (
    ChaosScenario(name="healthy-serial", mode="serial"),
    ChaosScenario(name="healthy-tesseract"),
    ChaosScenario(name="crash-tesseract", crash_rank=1, crash_at=0.35),
    ChaosScenario(name="crash-early-tesseract", crash_rank=2, crash_at=0.02),
    ChaosScenario(name="straggler-tesseract", slow_rank=3, slow_factor=3.0),
    ChaosScenario(name="flaky-links-tesseract", transient_rate=0.05,
                  link_fault=(0, 1, 16.0)),
)

#: The ``repro chaos --elastic`` campaign: permanent loss, spares, node
#: fault domains, and the crash-during-recovery double fault.  Crash
#: times sit mid-run (the 2-epoch q=2 reference run spans ~0.65 virtual
#: seconds; the 8-rank d=2 variant is shorter per step but same order).
ELASTIC_SCENARIOS: tuple[ChaosScenario, ...] = (
    # rank 3 dies for good with no spares: 3 survivors only fit [1, 1, 1]
    ChaosScenario(name="elastic-shrink-rank", elastic=True,
                  crash_rank=3, crash_at=0.2),
    # node 1 takes ranks 4..7 with it: 4 survivors re-factorize to q=2, d=1
    ChaosScenario(name="elastic-node-loss", elastic=True, d=2,
                  node_crash=1, crash_at=0.25),
    # spare pool covers the loss: live replacement, same shape, no reshape
    ChaosScenario(name="elastic-replace", elastic=True, spares=2,
                  crash_rank=1, crash_at=0.2),
    # crash during recovery: attempt 1 dies too, then the grid shrinks
    ChaosScenario(name="elastic-double-fault", elastic=True, spares=1,
                  crash_rank=2, crash_at=0.2, recovery_crash=(3, 0.1)),
    # the upward direction: node 1 dies at 0.25 and is repaired at 0.45
    # (cumulative time) — shrink to [2, 2, 1], then grow back to
    # [2, 2, 2] at the next snapshot boundary past the repair
    ChaosScenario(name="elastic-grow-back", elastic=True, d=2,
                  node_crash=1, crash_at=0.25, node_repair_at=0.45),
    # fresh capacity: 4 spares arrive mid-run and the healthy [2, 2, 1]
    # grid grows to [2, 2, 2] without ever crashing
    ChaosScenario(name="elastic-spare-arrival", elastic=True,
                  spare_arrival=(4, 0.3)),
    # straggler quarantine: rank 5's node runs 4x slow until t=0.6; the
    # controller evicts the node (snapshot-clean, zero lost steps) and
    # readmits it once the slowdown window passes
    ChaosScenario(name="elastic-quarantine", elastic=True, d=2,
                  slow_rank=5, slow_factor=4.0, slow_until=0.6,
                  quarantine_factor=2.0),
)


def run_scenario(
    scenario: ChaosScenario,
    dataset: SyntheticImageClassification | None = None,
    max_restarts: int = 3,
) -> ChaosResult:
    """Train under the scenario's faults; returns its recovery metrics."""
    if dataset is None:
        dataset = SyntheticImageClassification(
            num_classes=4, image_size=8, train_size=64, test_size=32, seed=3
        )
    plan = scenario.fault_plan()

    # After a crash the replacement cluster is healthy (the failed part
    # was swapped out).  Straggler and link faults persist — they are
    # environment, not incidents — except *windowed* slowdowns (until
    # set): those model recoverable degradation the quarantine readmits,
    # so relaunches run them at full speed.
    survivors = None if plan is None else replace(
        plan, crashes=(), node_crashes=(), node_repairs=(),
        spare_arrivals=(),
        slowdowns=tuple(s for s in plan.slowdowns if s.until is None),
    )

    def engine_factory(launch: int, world: int | None) -> Engine:
        # ``launch`` counts every engine build: crash restarts and
        # voluntary grow/quarantine relaunches alike.  Launch 0 carries
        # the fault plan; later launches run on the survivor plan.
        # Nothing reads a chaos run's event log, so no engine keeps one.
        nranks = scenario.nranks if world is None else world
        if launch == 0:
            return Engine(nranks=nranks, fault_plan=plan, trace=False)
        if launch == 1 and scenario.recovery_crash is not None:
            # The double fault: the recovery attempt itself loses a rank.
            rank, at = scenario.recovery_crash
            return Engine(nranks=nranks, trace=False, fault_plan=replace(
                survivors or FaultPlan(seed=scenario.seed),
                crashes=(RankCrash(rank=rank, at=at),),
            ))
        return Engine(nranks=nranks, fault_plan=survivors, trace=False)

    def setup(ctx, shape):
        from repro.nn.optim import Adam

        from repro.models.vit import ViT

        if scenario.mode == "serial":
            pc = None
            model = ViT(ctx, CHAOS_VIT)
        else:
            from repro.grid.context import ParallelContext

            q, d = (shape.q, shape.d) if shape else (scenario.q, scenario.d)
            pc = ParallelContext.tesseract(ctx, q=q, d=d)
            model = ViT(pc, CHAOS_VIT)
        opt = Adam(model.parameter_list(), lr=3e-3)
        return model, opt, pc

    elastic = None
    if scenario.elastic:
        elastic = ElasticPolicy(
            spares=scenario.spares,
            min_world=1,
            quarantine_factor=scenario.quarantine_factor,
            min_steps_between_reshapes=scenario.min_steps_between_reshapes,
        )
    run = train_resilient(
        engine_factory,
        setup,
        dataset,
        epochs=scenario.epochs,
        batch_size=scenario.batch_size,
        resilience=ResilienceConfig(
            snapshot_every=scenario.snapshot_every, max_restarts=max_restarts
        ),
        elastic=elastic,
        # a plan without repairs, arrivals or windowed slowdowns returns
        # no capacity, so every elastic run can take the whole plan
        availability=plan if elastic is not None else None,
    )
    history = run.history
    recs = history.recoveries
    return ChaosResult(
        scenario=scenario,
        steps=len(history.losses),
        final_loss=history.losses[-1] if history.losses else float("nan"),
        attempts=run.attempts,
        resume_step=recs[-1].resume_step if recs else 0,
        lost_steps=sum(r.lost_steps for r in recs),
        recovery_latency_s=sum(r.latency_s for r in recs),
        virtual_time=run.total_virtual_time,
        reshapes=len(run.reshapes),
        final_world=run.final_world,
        time_to_recover_s=run.crashed_time,
        grows=run.grows,
        quarantines=run.quarantines,
        time_to_reclaim_s=run.time_to_reclaim_s,
        run=run,
    )


def run_chaos(
    scenarios: tuple[ChaosScenario, ...] = DEFAULT_SCENARIOS,
) -> list[ChaosResult]:
    """Run every scenario (shared dataset) in order."""
    dataset = SyntheticImageClassification(
        num_classes=4, image_size=8, train_size=64, test_size=32, seed=3
    )
    return [run_scenario(s, dataset=dataset) for s in scenarios]


def render_chaos(results: list[ChaosResult]) -> str:
    """Human-readable comparison table."""
    from repro.util.tables import Table

    table = Table(
        ["scenario", "ranks", "steps", "final loss", "restarts", "reshapes",
         "grows", "world", "lost", "sim time", "reclaim", "goodput",
         "recovery (wall)"],
        title="Chaos scenarios: goodput under injected faults",
    )
    for r in results:
        table.add_row([
            r.scenario.name,
            r.scenario.nranks,
            r.steps,
            f"{r.final_loss:.4f}",
            r.attempts,
            r.reshapes,
            r.grows,
            r.final_world or r.scenario.nranks,
            r.lost_steps,
            f"{r.virtual_time:.3f}s",
            f"{r.time_to_reclaim_s:.3f}s",
            f"{r.goodput:.1f} steps/s",
            f"{r.recovery_latency_s * 1e3:.1f}ms",
        ])
    return table.render()
