"""The serving simulation loop.

One :meth:`Engine.run` hosts the whole simulation: every rank executes
the same scheduler state machine over the same seeded workload, so every
scheduling decision is rank-identical and only the tensor work is
sharded.  Per-iteration barriers pin the recorded timestamps — a barrier
synchronizes all members' virtual clocks to the same instant, so TTFT /
completion times (and therefore the whole report) are identical on every
rank; the runner verifies this before returning.

One loop, one frame, uniform replicas
-------------------------------------
Every run is a *fleet*.  A dispatcher :class:`Scheduler` owns the arrival
stream and one shared queue; each :class:`_Replica` is a scheduler
admitting from that queue plus a KV cache.  Replica 0 is engine-backed:
it holds the model and a cache over this rank's batch band, runs the
forwards and barriers, and drives the clock.  Every other replica has no
model and a cache over an *empty* band, and goes through the same frame,
which for it skips only the forwards, barriers and clock advances — the
admit / preempt / grow / finish bookkeeping is the same code.  (Every
request carries its full pre-drawn token trace, see
:mod:`repro.serve.workload`, so an added replica needs no tensors.)
Without an :class:`AutoscaleConfig` the fleet is pinned at replica 0.

One iteration (:func:`_serve_rank`) and one replica frame
(:meth:`_Frames.frame`)::

    barrier -> poll arrivals -> outages, scale decisions
            -> replica 0's frame, then every other ready replica's
    frame:     admit -> (contiguous: prefill each admission whole, now)
            -> decode counts -> preempt until this frame's appends fit
            -> (paged: plan prefill chunks, run them)
            -> one batched decode step over the decode-ready slots
            -> barrier -> record emissions/completions

The two KV designs (:mod:`repro.serve.cache`) answer the same frame-level
calls, and the two schedulers (:mod:`repro.serve.scheduler`) the same
admission and victim-order calls, so the frame consults
``SchedulerConfig.paged`` only where the designs really differ: which LM
entry point feeds a prompt (a whole-prompt ``prefill`` vs ``decode_step``
resuming from the slot's blocks; they price differently on a grid),
prefill-at-admission vs planned chunks, and the paged / speculative / SLO
report sections.  Static batching runs the same frame; only the admission
rule differs.  Idle periods fast-forward the virtual clock to the next
arrival instead of spinning.  Every replica's block pool is audited
(``check()``) after every frame.

Crash recovery
--------------
With a :class:`~repro.sim.faults.FaultPlan` and ``max_restarts > 0`` the
runner survives injected rank crashes: rank 0 publishes a snapshot of
the fleet at every iteration boundary (a consistent point — all ranks are
barrier-synced there), and when a :class:`RankFailureError` escapes
:meth:`Engine.run` the loop rebuilds a fresh engine, replays the fleet
from the snapshot, and resumes at ``max(snapshot_now, crash_t)``.  The
engine hosted every replica's clock and KV state dies with it, so *all*
in-flight requests fleet-wide restart from their prompts at the *front*
of the queue (the same contract as a preemption — and counted as one);
completed requests keep their recorded timestamps, and the block pools'
cumulative counters are carried through the snapshot so the report
survives restarts.  A crash before the first snapshot restarts the
configured initial fleet.  Crashes that already fired
(:meth:`Engine.fired`) are filtered from the plan so each planned crash
costs exactly one restart (a correlated node crash is one event: every
rank it killed is filtered together); a rank that merely died with its
partners keeps its own crash for a later attempt.

Autoscaling
-----------
With an :class:`AutoscaleConfig` the fleet grows and shrinks.  Every
*ready* replica admits from the shared queue, replica 0 first then in
index order, at the same one-frame cadence; the fleet grows when the
queue backs up and shrinks — after a patience window of sustained low
load — by draining the highest replica, whose in-flight requests are
front-requeued as preemptions for the survivors to pick up.  A drained
replica's cache (and, paged, its prefix cache) goes with it; its
cumulative counters stay in the report.  Scale decisions read only shared
deterministic state, so every rank makes the same ones.

Planned :class:`ReplicaOutage` events compose with the fleet: at
``out_at`` the highest replica is drained out (replica 0 hosts the
engine and never goes out); at ``repair_at`` the repaired instance
rejoins, but only starts admitting from the shared queue after a
``warmup_iters`` health-check window — the same ``ready_at`` gate a
scaled-up replica waits behind.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.comm.communicator import Communicator
from repro.errors import RankFailureError, SimulationError
from repro.models.configs import TransformerConfig
from repro.serve.cache import KVCacheManager, PagedKVCache
from repro.serve.metrics import RequestRecord, summarize
from repro.serve.model import (
    build_lm,
    grid_shape,
    local_kv_width,
    serving_nranks,
)
from repro.serve.scheduler import PagedScheduler, Scheduler, SchedulerConfig
from repro.serve.workload import Request, WorkloadConfig, generate_workload
from repro.sim.engine import Engine
from repro.util.rng import rng_for
from repro.varray.varray import VArray

__all__ = ["AutoscaleConfig", "ReplicaOutage", "run_serving"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Reactive replica autoscaling for the serving fleet.

    Scale *up* when the fleet-wide queue depth exceeds
    ``scale_up_queue`` per ready replica; scale *down* after
    ``scale_down_patience`` consecutive iterations in which the total
    load (queued + active) would fit in one fewer replica.  A new
    replica accepts work only ``spinup_iters`` iterations after the
    scale-up decision (model-load latency); a drained replica's
    in-flight requests restart from their prompts elsewhere.
    """

    min_replicas: int = 1
    max_replicas: int = 4
    scale_up_queue: int = 4  #: queued requests per ready replica
    scale_down_patience: int = 8  #: low-load iterations before shrinking
    spinup_iters: int = 2  #: iterations before a new replica is ready

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise SimulationError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise SimulationError(
                f"max_replicas {self.max_replicas} < min_replicas "
                f"{self.min_replicas}"
            )
        if self.scale_up_queue < 1:
            raise SimulationError("scale_up_queue must be >= 1")
        if self.scale_down_patience < 1:
            raise SimulationError("scale_down_patience must be >= 1")
        if self.spinup_iters < 0:
            raise SimulationError("spinup_iters must be >= 0")


@dataclass(frozen=True)
class ReplicaOutage:
    """A planned replica outage with a scheduled repair.

    At iteration ``out_at`` the highest replica is taken out of the
    fleet — its in-flight requests are front-requeued as
    preemptions, exactly like a scale-down drain.  At ``repair_at`` the
    repaired instance rejoins (respecting ``max_replicas``), but only
    starts admitting from the shared queue ``warmup_iters`` iterations
    later: model reload plus health check, the same ``ready_at`` gate a
    scaled-up replica waits behind.  Replica 0 hosts the real engine and
    never goes out; an outage that finds only replica 0 is a no-op.
    """

    out_at: int
    repair_at: int
    warmup_iters: int = 2

    def __post_init__(self) -> None:
        if self.out_at < 0:
            raise SimulationError("out_at must be >= 0")
        if self.repair_at <= self.out_at:
            raise SimulationError(
                f"repair_at {self.repair_at} must be after out_at "
                f"{self.out_at}"
            )
        if self.warmup_iters < 0:
            raise SimulationError("warmup_iters must be >= 0")


@dataclass
class _Replica:
    """One fleet member: a scheduler admitting from the fleet's shared
    queue, and the KV cache it fills."""

    sch: Scheduler
    cache: KVCacheManager | PagedKVCache
    #: the LM on the engine-backed replica 0; ``None`` on a bookkeeping
    #: replica, whose cache is built over an empty band
    model: object | None
    ready_at: int  #: first iteration that may admit work


@dataclass
class _Ledger:
    """What the loop has counted so far.  All of it goes through the
    crash-recovery snapshot, so a restarted run reports the whole run."""

    iterations: int = 0
    max_queue: int = 0
    peak_kv: int = 0  #: replica 0's peak KV tokens before the last restart
    #: cumulative counters of block pools that are gone (crashed engines,
    #: drained replicas); see :func:`_pool_counters`
    pools: dict = field(default_factory=dict)
    spec_steps: int = 0  #: decode steps of one slot
    spec_tokens: int = 0  #: tokens those steps emitted
    scale_events: list = field(default_factory=list)  #: (iter, kind, size)
    replicas_peak: int = 0
    replica_iterations: int = 0  #: decode steps, summed over replicas
    down_streak: int = 0  #: consecutive low-load iterations
    step_dt: float = 0.0  #: duration of the last real decode step
    outage_down: set = field(default_factory=set)  #: outages taken out
    outage_back: set = field(default_factory=set)  #: outages rejoined


def _validate(
    model_cfg: TransformerConfig,
    workload: WorkloadConfig,
    sched: SchedulerConfig,
    bands: int,
) -> None:
    if model_cfg.vocab < workload.vocab:
        raise SimulationError(
            f"model vocab {model_cfg.vocab} < workload vocab {workload.vocab}"
        )
    if model_cfg.seq_len < workload.max_request_tokens:
        raise SimulationError(
            f"model seq_len {model_cfg.seq_len} cannot hold the longest "
            f"request ({workload.max_request_tokens} tokens)"
        )
    if sched.kv_budget_tokens < workload.max_request_tokens:
        raise SimulationError(
            f"kv budget {sched.kv_budget_tokens} cannot hold the longest "
            f"request ({workload.max_request_tokens} tokens)"
        )
    if sched.max_slots % bands:
        raise SimulationError(
            f"max_slots {sched.max_slots} must be divisible by the "
            f"batch-band count {bands}"
        )
    if sched.kv_block_tokens:
        nblocks = sched.kv_budget_tokens // sched.kv_block_tokens
        need = -(-workload.max_request_tokens // sched.kv_block_tokens) + 2
        if nblocks < need:
            raise SimulationError(
                f"block pool of {nblocks} x {sched.kv_block_tokens}-token "
                f"blocks cannot hold the longest request plus growth "
                f"headroom ({need} blocks)"
            )


def run_serving(
    mode: str = "serial",
    *,
    model_cfg: TransformerConfig,
    workload: WorkloadConfig,
    sched: SchedulerConfig,
    q: int | None = None,
    d: int | None = None,
    world: int | None = None,
    engine_mode: str = "symbolic",
    engine_seed: int = 0,
    fault_plan=None,
    max_restarts: int = 0,
    autoscale: AutoscaleConfig | None = None,
    outages: tuple = (),
) -> dict:
    """Simulate serving ``workload`` under ``sched`` and return the report.

    ``engine_mode="symbolic"`` (the default) runs shape-only tensors —
    the virtual-time schedule, and hence every metric, is identical to a
    real-valued run, at a fraction of the cost.

    With ``fault_plan`` the injected faults apply to the serving engine;
    up to ``max_restarts`` rank crashes are absorbed by snapshot/restart
    (see *Crash recovery* in the module docstring) and the report gains a
    ``"recoveries"`` key.  Without a plan the report is byte-identical to
    what this function always produced.

    With ``autoscale`` the runner simulates a replica fleet (see
    *Autoscaling* in the module docstring) and the report gains
    ``scale_events`` / ``replicas_peak`` / ``replicas_final`` /
    ``replica_iterations``.

    ``outages`` (a tuple of :class:`ReplicaOutage`, requires
    ``autoscale``) injects planned replica outages with scheduled
    repairs; the report then also gains ``outages`` / ``rejoins``.
    """
    gq, gd = grid_shape(mode, q, d, world)
    bands = gq * gd
    _validate(model_cfg, workload, sched, bands)
    if outages and autoscale is None:
        raise SimulationError(
            "outages require an AutoscaleConfig fleet to rejoin"
        )
    nranks = serving_nranks(mode, q, d, world)
    kv_width = local_kv_width(mode, model_cfg, q=gq if bands > 1 else None,
                              world=world)

    # drawn once per call, restarts included, and shared by every rank
    # (schedulers copy what they reorder; a Request is frozen)
    requests = generate_workload(workload)
    snap_box: dict = {}
    snapshot: dict | None = None
    plan = fault_plan
    recoveries = 0
    while True:
        def fn(ctx, _snapshot=snapshot):
            return _serve_rank(
                ctx, mode, model_cfg, workload, sched, requests=requests,
                q=q, d=d, world=world, bands=bands, kv_width=kv_width,
                autoscale=autoscale,
                snapshot=_snapshot,
                snap_box=snap_box if fault_plan is not None else None,
                outages=outages,
            )

        engine = Engine(nranks=nranks, mode=engine_mode, trace=False,
                        seed=engine_seed, fault_plan=plan)
        try:
            reports = engine.run(fn)
        except RankFailureError as exc:
            plan = plan.without_fired(engine.lost_ranks(), engine.fired()[1])
            engine.shutdown()
            if recoveries >= max_restarts:
                raise
            recoveries += 1
            # nothing published yet: restart the configured initial fleet
            snapshot = dict(snap_box.get("snap") or _empty_snapshot())
            snapshot["now"] = max(snapshot["now"], exc.t)
            continue
        for rank, rep in enumerate(reports[1:], start=1):
            if rep != reports[0]:
                raise SimulationError(
                    f"serving report diverged between rank 0 and rank {rank}"
                )
        report = reports[0]
        if fault_plan is not None:
            report["recoveries"] = recoveries
        return report


def _empty_snapshot() -> dict:
    """Pre-first-iteration state: nothing arrived, admitted, or emitted,
    and no fleet yet (``replicas=None``: the configured initial one)."""
    return {"now": 0.0, "records": {}, "replicas": None, "queue": [],
            "ledger": _Ledger()}


def _snapshot(now, records, replicas, queue, ledger, paged) -> dict:
    """Fleet state at an iteration boundary (rank 0 only)."""
    kept = copy.deepcopy(ledger)
    kept.peak_kv = max(kept.peak_kv, replicas[0].cache.peak_tokens)
    if paged:  # the live pools die with the engine
        kept.pools = _pool_counters(kept.pools, replicas)
    return {
        "now": now,
        "records": {
            rid: (rec.emitted, rec.first_token_time, rec.completion_time,
                  rec.preemptions)
            for rid, rec in records.items()
        },
        # per replica: its in-flight rids in admission order (so the
        # requeue after a restart preserves it), and its readiness
        "replicas": [
            ([r.sch.active[s] for s in
              sorted(r.sch.active, key=r.sch._admit_seq.get)], r.ready_at)
            for r in replicas
        ],
        "queue": list(queue),
        "ledger": kept,
    }


_POOL_SUMS = ("prefix_hit_tokens", "prompt_tokens", "cow_copies", "evictions")


def _pool_counters(gone: dict, replicas) -> dict:
    """The run's cumulative block-pool counters: ``gone`` (pools lost to a
    crash or drained away with their replica) plus these replicas' pools.
    Counts add up; ``blocks_peak`` is the most any one pool held live."""
    pools = [rep.cache.pool for rep in replicas]
    out = {key: gone.get(key, 0) + sum(getattr(p, key) for p in pools)
           for key in _POOL_SUMS}
    out["blocks_peak"] = max([gone.get("blocks_peak", 0)]
                             + [p.peak_live_blocks for p in pools])
    return out


def _requeued(records, rids) -> None:
    """Requests sent back to the queue (preempted, drained with their
    replica, or lost to a crash) restart from their prompts, and each is
    counted as one preemption."""
    for rid in rids:
        records[rid].preemptions += 1
        records[rid].emitted = 0


# --- the pieces of a frame ----------------------------------------------------


def _chunk_plan(sch, cache, budget: int) -> list[tuple[int, int]]:
    """This frame's prefill chunks ``[(slot, tokens), ...]``.

    Prefilling slots are served in admission order; ``budget`` caps the
    total prompt tokens prefilled per frame (0 = unchunked) so one long
    prompt cannot stall decode — the remainder resumes next frame from
    the slot's block table.
    """
    plan: list[tuple[int, int]] = []
    left = budget if budget > 0 else None
    for slot in sorted(
        (s for s in sch.active if not cache.prefill_done(s)),
        key=lambda s: sch._admit_seq[s],
    ):
        remaining = cache.prompt_len(slot) - cache.prefill_pos(slot)
        take = remaining if left is None else min(remaining, left)
        if take <= 0:
            continue
        plan.append((slot, take))
        if left is not None:
            left -= take
            if left == 0:
                break
    return plan


def _spec_counts(sch, cache, records, spec) -> dict[int, int]:
    """Tokens each decode-ready slot emits this frame.

    1 without speculation; with it, 1 + the run length of leading
    Bernoulli(accept_rate) successes from the stream ``(seed, "serve",
    rid, "spec", emitted)`` — progress-keyed, so preempted/restarted
    requests replay identical draws — capped by the remaining output.
    """
    counts: dict[int, int] = {}
    for slot, rid in sorted(sch.active.items()):
        if not cache.prefill_done(slot):
            continue
        rec = records[rid]
        remaining = rec.output_len - rec.emitted
        if rec.emitted < 1 or remaining <= 0:
            continue
        a = 1
        if spec is not None:
            draws = rng_for(spec.seed, "serve", rid, "spec",
                            rec.emitted).random(spec.spec_k)
            for u in draws:
                if float(u) >= spec.accept_rate:
                    break
                a += 1
        counts[slot] = a if a < remaining else remaining
    return counts


def _preempt_until_fit(sch, cache, records, counts, plan) -> None:
    """Preempt until this frame's chunk and decode appends fit the cache.

    The cache answers whether the ``{slot: tokens}`` appends fit; the
    scheduler orders the victims (youngest first; paged: lowest priority
    class first, youngest within a class).  Each preemption is enacted
    immediately (its tokens or blocks are released) and the appends are
    taken again — ``plan()`` re-plans the prefill chunks — since a victim
    may itself have been a prefilling or decoding slot.
    """
    while not cache.fits({**dict(plan()), **counts}):
        order = sch.preemption_order()
        if len(order) <= 1:
            raise SimulationError(
                "kv cache cannot hold a single active request"
            )
        _requeued(records, [sch.preempt(order[0])])
        cache.evict(order[0])
        counts.pop(order[0], None)  # a victim no longer decodes


class _Frames:
    """One rank's frame machinery: what the frames of every replica of a
    run share (the rank, its world barrier group, the record table, the
    ledger) and the frame itself."""

    def __init__(self, ctx, cfg: SchedulerConfig, num_layers: int,
                 bands: int, band_slots: range, records, ledger: _Ledger):
        self.ctx = ctx
        self.wcomm = Communicator(ctx, range(ctx.nranks))
        self.cfg = cfg
        self.paged = cfg.paged
        self.num_layers = num_layers
        self.bands = bands
        self.band = slice(band_slots.start, band_slots.stop)  #: frame rows
        self.records = records
        self.ledger = ledger
        #: requests not completed yet, counted down where one completes
        self.outstanding = sum(1 for rec in records.values() if not rec.done)

    def finish(self, rep: _Replica, slot: int, t: float) -> None:
        rid = rep.sch.complete(slot)
        rep.cache.evict(slot)
        self.records[rid].completion_time = t
        self.outstanding -= 1

    def first_token(self, rep: _Replica, slot: int, t: float) -> None:
        """A completed prefill yields the first output token, at ``t``."""
        rec = self.records[rep.sch.active[slot]]
        rec.emitted = 1
        if rec.first_token_time is None:
            rec.first_token_time = t
        if rec.emitted == rec.output_len:
            self.finish(rep, slot, t)

    def frame(self, rep: _Replica, t: float | None = None) -> bool:
        """One scheduler frame of one replica; True if it ran a decode step.

        The engine-backed replica stamps tokens with its own
        barrier-pinned clock; a bookkeeping replica (``rep.model is
        None``) moves no tensors and no clock — the token traces are
        pre-drawn, so only counters change — and stamps everything with
        ``t``, the fleet's barrier-synced time for this iteration.
        """
        ctx, cfg, sch, cache = self.ctx, self.cfg, rep.sch, rep.cache
        real, paged = rep.model is not None, self.paged
        t_admit = ctx.now if real else t
        for slot in sch.admit_to(cache, t_admit):
            if cache.prefill_done(slot):
                # A full-prompt prefix hit needs no forward at all: its
                # first token is emitted at the (barrier-pinned) frame time.
                self.first_token(rep, slot, t_admit)
            elif not paged:
                # Contiguous: each admission is prefilled whole, now, one
                # engine-level forward per request.
                self.prefill(rep, slot, cache.prompt_len(slot), t)
        if not sch.active:
            return False

        counts = _spec_counts(sch, cache, self.records, cfg.spec)
        # only the paged design leaves a slot mid-prefill to plan for
        plan = (partial(_chunk_plan, sch, cache, cfg.prefill_chunk_tokens)
                if paged else list)
        _preempt_until_fit(sch, cache, self.records, counts, plan)
        for slot, take in plan():
            self.prefill(rep, slot, take, t)
        if not counts:
            return False

        t_before = ctx.now if real else t
        self.decode(rep, counts)
        if real:
            self.wcomm.barrier("serve_step")
            t = ctx.now
            self.ledger.step_dt = t - t_before
        self.ledger.spec_steps += len(counts)
        self.ledger.spec_tokens += sum(counts.values())
        for slot in sorted(counts):
            rec = self.records[sch.active[slot]]
            rec.emitted += counts[slot]
            if rec.emitted == rec.output_len:
                self.finish(rep, slot, t)
        return True

    def prefill(self, rep: _Replica, slot: int, take: int,
                t: float | None) -> None:
        """Feed the next ``take`` prompt tokens of ``slot`` to the model.

        Contiguous: the whole prompt through ``prefill``.  Paged: a
        multi-token cached forward that resumes from the slot's assembled
        block table — including blocks re-mapped from the prefix cache —
        with positions offset to the resume point; ``decode_step``'s
        offset causal mask makes the chunked forward bitwise-equal to a
        monolithic prefill under exact kernels.  A chunk that completes
        the prompt emits the first token at its barrier (that pins TTFT
        identically on every rank).
        """
        cache = rep.cache
        kv = None
        if rep.model is not None:
            req = rep.sch.requests[rep.sch.active[slot]]
            pos = cache.prefill_pos(slot)
            toks = np.tile(
                np.asarray(req.prompt_tokens[pos:pos + take],
                           dtype=np.int64)[None, :],
                (self.bands, 1),
            )
            if self.paged:
                positions = np.tile(
                    np.arange(pos, pos + take, dtype=np.int64)[None, :],
                    (self.bands, 1),
                )
                past = cache.assemble_slot(slot) or [None] * self.num_layers
                _, kv = rep.model.decode_step(
                    VArray.from_numpy(toks), VArray.from_numpy(positions),
                    past,
                )
            else:
                _, kv = rep.model.prefill(VArray.from_numpy(toks))
        cache.append_prefill(slot, kv, take)
        if rep.model is not None:
            self.wcomm.barrier("serve_prefill")
        if cache.prefill_done(slot):
            self.first_token(rep, slot,
                             self.ctx.now if rep.model is not None else t)

    def decode(self, rep: _Replica, counts: dict[int, int]) -> None:
        """One batched (possibly multi-token) decode step over the frame.

        With speculation each row verifies its accepted draft run in one
        forward: row ``slot`` feeds ``counts[slot]`` query tokens, padded to
        the frame-wide ``t_max`` (padding queries clamp to the last real
        token and are masked out of every other row's attention; their
        outputs and KV are discarded).  The draft model is priced as a
        value-independent clock advance before the verify forward.  With
        every count 1 this is the plain one-token frame.
        """
        ctx, sch, cache, spec = self.ctx, rep.sch, rep.cache, self.cfg.spec
        rows = self.cfg.max_slots
        order = [s if s in counts else None for s in range(rows)]
        appended: dict[int, tuple[int, ...]] = {}
        for slot, a in counts.items():
            rid = sch.active[slot]
            first = self.records[rid].emitted - 1
            appended[slot] = sch.requests[rid].output_tokens[first:first + a]
        if rep.model is None:
            cache.append_decode(order, None, counts, appended)
            return

        lens = {s: cache.length(s) for s in counts}
        s_max = max(lens.values())
        t_max = max(counts.values())
        if spec is not None and spec.draft_step_s > 0:
            ctx.clock.sync_to(ctx.now + spec.spec_k * spec.draft_step_s)
        tokens = np.zeros((rows, t_max), dtype=np.int64)
        positions = np.zeros((rows, t_max), dtype=np.int64)
        # extra_mask [rows, 1, t_max, s_max + t_max]: -inf over each slot's
        # KV padding and over the padding query tokens' keys; padding rows
        # keep their own new-token columns so every softmax row stays finite.
        mask = np.zeros((rows, 1, t_max, s_max + t_max), dtype=np.float32)
        for row, slot in enumerate(order):
            if slot is None:
                mask[row, :, :, :s_max] = -np.inf
                continue
            toks, held = appended[slot], lens[slot]
            a = len(toks)
            for j in range(t_max):
                jj = j if j < a else a - 1
                tokens[row, j] = toks[jj]
                # a decode-ready slot holds prompt + emitted - 1 tokens
                positions[row, j] = held + jj
            mask[row, :, :, held:s_max] = -np.inf
            if a < t_max:
                mask[row, :, :, s_max + a:] = -np.inf
        past = cache.assemble(order[self.band], s_max)
        _, new_kv = rep.model.decode_step(
            VArray.from_numpy(tokens),
            VArray.from_numpy(positions),
            past,
            VArray.from_numpy(mask[self.band]),
        )
        cache.append_decode(order, new_kv, counts, appended)


def _serve_rank(
    ctx,
    mode: str,
    model_cfg: TransformerConfig,
    workload: WorkloadConfig,
    sched_cfg: SchedulerConfig,
    *,
    requests: list[Request] | None = None,
    q: int | None,
    d: int | None,
    world: int | None,
    bands: int,
    kv_width: int,
    autoscale: AutoscaleConfig | None = None,
    snapshot: dict | None = None,
    snap_box: dict | None = None,
    outages: tuple = (),
) -> dict:
    """One rank's serving program: the loop over the fleet's frames (see
    the module docstring)."""
    model = build_lm(ctx, mode, model_cfg, q=q, d=d, world=world)
    model.eval()
    rows = sched_cfg.max_slots
    rows_local = rows // bands
    band = model.pc.block_row if bands > 1 else 0
    band_slots = range(band * rows_local, (band + 1) * rows_local)
    paged = sched_cfg.paged

    if requests is None:  # a direct caller; run_serving draws them once
        requests = generate_workload(workload)
    # The dispatcher owns the arrival stream; its queue is the single
    # fleet-global queue every replica's scheduler admits from.
    dispatcher = Scheduler(sched_cfg, requests)
    queue = dispatcher.queue

    def new_replica(ready_at: int, engine_backed: bool = False) -> _Replica:
        slots = band_slots if engine_backed else range(0)
        args = (ctx, model_cfg.num_layers, rows, slots, kv_width,
                sched_cfg.kv_budget_tokens)
        if paged:
            sch = PagedScheduler.for_dispatch(sched_cfg, requests, queue)
            cache = PagedKVCache(*args, sched_cfg.kv_block_tokens)
        else:
            sch = Scheduler.for_dispatch(sched_cfg, requests, queue)
            cache = KVCacheManager(*args)
        return _Replica(sch, cache, model if engine_backed else None,
                        ready_at)

    records = {
        r.rid: RequestRecord(
            rid=r.rid, arrival=r.arrival,
            prompt_len=r.prompt_len, output_len=r.output_len,
            priority=r.priority, ttft_slo_s=r.ttft_slo_s,
        )
        for r in requests
    }

    # Start from the snapshot; a fresh run starts from the empty one.  The
    # snapshot is one object handed to every rank's program, so whatever
    # the loop mutates is copied out of it.  KV contents died with the
    # crashed engine, so every in-flight request fleet-wide restarts from
    # its prompt, requeued at the *front*: every replica's in-flight work
    # first (replica order, admission order within), then the backlog.
    snap = snapshot if snapshot is not None else _empty_snapshot()
    ledger = copy.deepcopy(snap["ledger"])
    # without autoscaling the fleet is pinned at its engine-backed replica
    fleet = snap["replicas"] or [((), 0)] * (
        autoscale.min_replicas if autoscale is not None else 1)
    replicas = [new_replica(ready_at, engine_backed=(i == 0))
                for i, (_, ready_at) in enumerate(fleet)]
    ledger.replicas_peak = max(ledger.replicas_peak, len(replicas))
    for rid, (emitted, ftt, ct, pre) in snap["records"].items():
        rec = records[rid]
        rec.emitted = emitted
        rec.first_token_time = ftt
        rec.completion_time = ct
        rec.preemptions = pre
    inflight = [rid for active, _ in fleet for rid in active]
    _requeued(records, inflight)
    queue[:] = inflight + snap["queue"]
    known = set(queue) | {rid for rid, rec in records.items() if rec.done}
    dispatcher._pending = [r for r in dispatcher._pending
                           if r.rid not in known]
    ctx.clock.sync_to(snap["now"])

    frames = _Frames(ctx, sched_cfg, model_cfg.num_layers, bands, band_slots,
                     records, ledger)
    head = replicas[0]  # the engine-backed replica

    def grow(kind: str, delay: int) -> None:
        replicas.append(new_replica(ledger.iterations + delay))
        ledger.replicas_peak = max(ledger.replicas_peak, len(replicas))
        ledger.scale_events.append((ledger.iterations, kind, len(replicas)))

    def shrink(kind: str) -> None:
        # drain() front-requeues the victim's in-flight work in admission
        # order; survivors re-admit it from the shared queue next
        # iteration (restarting from prompts).
        victim = replicas.pop()
        _requeued(records, victim.sch.drain())
        if paged:
            ledger.pools = _pool_counters(ledger.pools, [victim])
        ledger.scale_events.append((ledger.iterations, kind, len(replicas)))
        ledger.down_streak = 0

    while True:
        frames.wcomm.barrier("serve_iter")
        if snap_box is not None and ctx.rank == 0:
            # Published whole: a crash mid-iteration leaves the previous
            # consistent snapshot in place, never a half-written one.
            snap_box["snap"] = _snapshot(ctx.now, records, replicas, queue,
                                         ledger, paged)
        if not frames.outstanding:
            break

        # Arrivals land in the shared queue; every ready replica admits
        # from it below (replica 0 first, then index order).
        dispatcher.poll_arrivals(ctx.now)
        now_iter = ledger.iterations

        # Planned outages and their repairs.  Like a scale-down, an
        # outage drains the highest replica (replica 0 hosts the engine
        # and never goes out); the repaired instance rejoins at
        # ``repair_at`` but only starts admitting from the shared queue
        # once its warm-up health check passes (``ready_at``).
        for idx, outage in enumerate(outages):
            if idx not in ledger.outage_down and now_iter >= outage.out_at:
                ledger.outage_down.add(idx)
                if len(replicas) > 1:
                    shrink("out")
                else:
                    # Only the engine-backed replica is left: nothing
                    # went out, so nothing comes back at repair time.
                    ledger.outage_back.add(idx)
            if (idx in ledger.outage_down and idx not in ledger.outage_back
                    and now_iter >= outage.repair_at
                    and len(replicas) < autoscale.max_replicas):
                grow("rejoin", outage.warmup_iters)
                ledger.outage_back.add(idx)

        ledger.max_queue = max(ledger.max_queue, len(queue))

        # Scale decisions: pure functions of shared state, so every rank
        # reaches the same fleet shape at the same iteration.
        if autoscale is not None:
            ready = sum(1 for r in replicas if now_iter >= r.ready_at)
            load = len(queue) + sum(len(r.sch.active) for r in replicas)
            if (len(queue) > autoscale.scale_up_queue * ready
                    and len(replicas) < autoscale.max_replicas):
                grow("up", autoscale.spinup_iters)
                ledger.down_streak = 0
            elif (len(replicas) > autoscale.min_replicas
                  and load <= (len(replicas) - 1) * rows):
                ledger.down_streak += 1
                if ledger.down_streak >= autoscale.scale_down_patience:
                    shrink("down")
            else:
                ledger.down_streak = 0

        if all(r.sch.idle for r in replicas):
            nxt = dispatcher.next_arrival()
            assert nxt is not None  # else all requests would be done
            ctx.clock.sync_to(nxt)
            continue

        # Replica 0 does the real tensor work and drives the clock.
        decoded = frames.frame(head)
        if autoscale is not None and not decoded:
            # No real decode this iteration, but bookkeeping replicas
            # still tick — advance the shared clock by the last decode's
            # cost so their token timestamps keep moving.  (step_dt is
            # already set whenever this branch can matter: replica 0
            # admits first from the shared queue, so it decodes before
            # any bookkeeping replica ever holds work.)
            ctx.clock.sync_to(ctx.now + ledger.step_dt)
        ledger.replica_iterations += decoded
        if len(replicas) > 1:
            t = ctx.now
            for rep in replicas[1:]:
                if now_iter >= rep.ready_at:  # else still spinning up
                    ledger.replica_iterations += frames.frame(rep, t)
        if paged:  # every block pool's conservation audit, every frame
            for rep in replicas:
                rep.cache.check()
        ledger.iterations += 1

    sections: dict = {}
    if paged:
        counters = _pool_counters(ledger.pools, replicas)
        prompt_total = counters["prompt_tokens"]
        sections["paged"] = {
            "block_tokens": sched_cfg.kv_block_tokens,
            "num_blocks": head.cache.pool.num_blocks,
            "prefix_hit_rate": (
                counters["prefix_hit_tokens"] / prompt_total
                if prompt_total else 0.0
            ),
            **counters,
        }
        if workload.priorities:
            sections["priority_classes"] = tuple(
                c.name for c in workload.priorities)
        if sched_cfg.spec is not None:
            steps, tokens = ledger.spec_steps, ledger.spec_tokens
            sections["spec"] = {
                "steps": steps,
                "tokens": tokens,
                "accepted_per_step": tokens / steps if steps else 0.0,
            }
    report = summarize(
        sorted(records.values(), key=lambda r: r.rid),
        makespan=ctx.now,
        peak_kv_tokens=max(ledger.peak_kv, head.cache.peak_tokens),
        max_queue_depth=ledger.max_queue,
        iterations=ledger.iterations,
        **sections,
    )
    report["mode"] = mode
    report["policy"] = sched_cfg.policy
    report["nranks"] = ctx.nranks
    if autoscale is not None:
        events = [kind for _, kind, _ in ledger.scale_events]
        report["scale_events"] = len(events)
        report["replicas_peak"] = ledger.replicas_peak
        report["replicas_final"] = len(replicas)
        report["replica_iterations"] = ledger.replica_iterations
        if outages:
            report["outages"] = events.count("out")
            report["rejoins"] = events.count("rejoin")
    return report
