"""The serving simulation loop.

One :meth:`Engine.run` hosts the whole simulation: every rank executes
the same scheduler state machine over the same seeded workload, so every
scheduling decision is rank-identical and only the tensor work is
sharded.  Per-iteration barriers pin the recorded timestamps — a barrier
synchronizes all members' virtual clocks to the same instant, so TTFT /
completion times (and therefore the whole report) are identical on every
rank; the runner verifies this before returning.

Iteration shape (continuous batching)::

    barrier -> poll arrivals -> admit + prefill each admission
            -> preempt if the next step would blow the KV budget
            -> one batched decode step over all active slots
            -> barrier -> record emissions/completions

Static batching runs the same loop; only the admission rule differs
(see :mod:`repro.serve.scheduler`).  Idle periods fast-forward the
virtual clock to the next arrival instead of spinning.

Crash recovery
--------------
With a :class:`~repro.sim.faults.FaultPlan` and ``max_restarts > 0`` the
runner survives injected rank crashes: rank 0 publishes a scheduler
snapshot at every iteration boundary (a consistent point — all ranks are
barrier-synced there), and when a :class:`RankFailureError` escapes
:meth:`Engine.run` the loop rebuilds a fresh engine, replays the
scheduler from the snapshot, and resumes at
``max(snapshot_now, crash_t)``.  KV state dies with the engine, so
in-flight requests restart from their prompts at the *front* of the queue
(the same contract as a preemption — and counted as one); completed
requests keep their recorded timestamps.  Crashes that already fired are
filtered from the plan so each planned crash costs exactly one restart
(a correlated node crash is one event: every rank it killed is filtered
together).

Autoscaling
-----------
With an :class:`AutoscaleConfig` the runner simulates a *fleet*: replica
0 is the real engine-backed instance above; replicas ``>= 1`` are
bookkeeping-only — because every request carries its full pre-drawn
token trace (see :mod:`repro.serve.workload`), an added replica needs no
tensors at all, just a scheduler plus per-slot KV-token counters ticked
once per fleet iteration at the same one-decode-step cadence as replica
0.  A dispatcher owns the arrival stream and a single fleet-global FIFO
from which every *ready* replica admits, replica 0 first then in index
order; the fleet grows when the queue backs up and shrinks — after a
patience window of sustained low load — by draining the highest replica,
whose in-flight requests are front-requeued as preemptions for the
survivors to pick up.  Scale decisions read only shared deterministic
state, so every rank makes the same ones; crash recovery composes with
autoscaling because the snapshot carries the whole fleet.

Planned :class:`ReplicaOutage` events compose with the fleet: at
``out_at`` the highest bookkeeping replica is drained out (replica 0
hosts the engine and never goes out); at ``repair_at`` the repaired
instance rejoins, but only starts admitting from the shared FIFO after a
``warmup_iters`` health-check window — the same ``ready_at`` gate a
scaled-up replica waits behind.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    At iteration ``out_at`` the highest bookkeeping replica is taken out
    of the fleet — its in-flight requests are front-requeued as
    preemptions, exactly like a scale-down drain.  At ``repair_at`` the
    repaired instance rejoins (respecting ``max_replicas``), but only
    starts admitting from the shared FIFO ``warmup_iters`` iterations
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


class _Replica:
    """One fleet member's scheduling state.

    Index 0 wraps the real engine-backed scheduler (its KV lives in the
    :class:`KVCacheManager`); higher indices are bookkeeping-only, so
    ``lens`` tracks their virtual per-slot KV footprint directly.  All
    replicas admit from the same fleet-global ``queue`` list.
    """

    def __init__(self, cfg: SchedulerConfig, requests, queue, ready_at: int):
        self.sch = Scheduler.for_dispatch(cfg, requests, queue=queue)
        self.lens: dict[int, int] = {}  #: slot -> prompt + emitted tokens
        self.ready_at = ready_at  #: first iteration that may admit work

    @property
    def used_tokens(self) -> int:
        return sum(self.lens.values())


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
    if sched.paged and autoscale is not None:
        raise SimulationError(
            "paged serving does not compose with the autoscaled fleet yet"
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
            if sched.paged:
                serve = _serve_rank_paged
            else:
                serve = _serve_rank if autoscale is None else _serve_rank_fleet
            extra = {} if autoscale is None else {"outages": outages}
            return serve(
                ctx, mode, model_cfg, workload, sched, requests=requests,
                q=q, d=d, world=world, bands=bands, kv_width=kv_width,
                autoscale=autoscale,
                snapshot=_snapshot,
                snap_box=snap_box if fault_plan is not None else None,
                **extra,
            )

        engine = Engine(nranks=nranks, mode=engine_mode, trace=False,
                        seed=engine_seed, fault_plan=plan)
        try:
            reports = engine.run(fn)
        except RankFailureError as exc:
            fired = set(engine._dead) | {exc.rank} | engine.lost_ranks()
            fired_nodes = set(engine._fired_nodes)
            engine.shutdown()
            if recoveries >= max_restarts:
                raise
            recoveries += 1
            # Each planned crash fires at most once across restarts; a
            # node crash is one event covering all its member ranks.
            plan = replace(
                plan,
                crashes=tuple(c for c in plan.crashes
                              if c.rank not in fired),
                node_crashes=tuple(nc for nc in plan.node_crashes
                                   if nc.node not in fired_nodes),
            )
            snapshot = snap_box.get("snap")
            resume_t = max(snapshot["now"] if snapshot else 0.0, exc.t)
            snapshot = dict(snapshot) if snapshot else _empty_snapshot()
            snapshot["now"] = resume_t
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
    """Pre-first-iteration state: nothing arrived, admitted, or emitted."""
    return {"now": 0.0, "records": {}, "active": [], "queue": [],
            "iterations": 0, "max_queue": 0, "peak_kv": 0}


def _snapshot_state(now, sch, records, iterations, max_queue, peak_kv) -> dict:
    """Scheduler + record state at an iteration boundary (rank 0 only)."""
    return {
        "now": now,
        "records": {
            rid: (rec.emitted, rec.first_token_time, rec.completion_time,
                  rec.preemptions)
            for rid, rec in records.items()
        },
        # admission order, so the requeue after a restart preserves it
        "active": [sch.active[s] for s in
                   sorted(sch.active, key=lambda s: sch._admit_seq[s])],
        "queue": list(sch.queue),
        "iterations": iterations,
        "max_queue": max_queue,
        "peak_kv": peak_kv,
    }


def _restore_state(sch, records, snapshot) -> None:
    """Replay a snapshot into a fresh scheduler and record table.

    KV contents died with the crashed engine, so every in-flight request
    restarts from its prompt: emitted resets to zero and the request is
    requeued at the *front* (in admission order, ahead of the previously
    queued requests) — exactly the preemption contract, and counted as
    one preemption on the record.
    """
    for rid, (emitted, ftt, ct, pre) in snapshot["records"].items():
        rec = records[rid]
        rec.emitted = emitted
        rec.first_token_time = ftt
        rec.completion_time = ct
        rec.preemptions = pre
    inflight = list(snapshot["active"])
    queued = list(snapshot["queue"])
    done = {rid for rid, st in snapshot["records"].items()
            if st[2] is not None}
    known = set(inflight) | set(queued) | done
    sch._pending = [r for r in sch._pending if r.rid not in known]
    for rid in inflight:
        records[rid].emitted = 0
        records[rid].preemptions += 1
    sch.queue = inflight + queued


def _count_open(records) -> int:
    """Requests not completed yet.  Each serving loop takes this once, after
    any snapshot restore, and counts down wherever ``completion_time`` is
    set, instead of scanning every record every frame."""
    return sum(1 for rec in records.values() if not rec.done)


# --- the real (engine-backed) iteration pieces --------------------------------


def _prefill_admissions(ctx, model, wcomm, sch, cache, records, bands,
                        finish) -> None:
    """Admit from the queue and prefill each admission immediately."""
    for slot, rid in sch.admit(cache.used_tokens):
        req = sch.requests[rid]
        rec = records[rid]
        prompt = np.tile(
            np.asarray(req.prompt_tokens, dtype=np.int64)[None, :],
            (bands, 1),
        )
        _, kv = model.prefill(VArray.from_numpy(prompt))
        cache.insert(slot, kv, req.prompt_len)
        wcomm.barrier("serve_prefill")
        t = ctx.now
        rec.emitted = 1  # prefill yields the first output token
        if rec.first_token_time is None:
            rec.first_token_time = t
        if rec.emitted == req.output_len:
            finish(slot, t)


def _preempt_over_budget(sch, cache, records) -> None:
    """Preempt (youngest first) if this step's +1 token per slot would
    blow the budget; victims restart from their prompt later."""
    lens = {s: cache.length(s) for s in sch.active}
    for slot in sch.choose_preemptions(cache.used_tokens, lens):
        rid = sch.preempt(slot)
        cache.evict(slot)
        records[rid].preemptions += 1
        records[rid].emitted = 0


def _decode_active(ctx, model, sch, cache, records, rows, band,
                   rows_local) -> None:
    """One batched decode step over the fixed-slot frame."""
    order = sch.frame_order()
    lens = {s: cache.length(s) for s in sch.active}
    s_max = max(lens.values())
    tokens = np.zeros((rows, 1), dtype=np.int64)
    positions = np.zeros((rows, 1), dtype=np.int64)
    # extra_mask [rows, 1, 1, s_max + 1]: -inf over each slot's KV
    # padding; the last column is the new token, valid everywhere so
    # padding rows still softmax over at least one finite score.
    mask = np.zeros((rows, 1, 1, s_max + 1), dtype=np.float32)
    for row, slot in enumerate(order):
        if slot is None:
            mask[row, :, :, :s_max] = -np.inf
            continue
        req = sch.requests[sch.active[slot]]
        rec = records[req.rid]
        tokens[row, 0] = req.output_tokens[rec.emitted - 1]
        positions[row, 0] = req.prompt_len + rec.emitted - 1
        mask[row, :, :, lens[slot]:s_max] = -np.inf

    band_order = order[band * rows_local:(band + 1) * rows_local]
    past = cache.assemble(band_order, s_max)
    _, new_kv = model.decode_step(
        VArray.from_numpy(tokens),
        VArray.from_numpy(positions),
        past,
        VArray.from_numpy(mask[band * rows_local:(band + 1) * rows_local]),
    )
    cache.append_rows(band_order, new_kv)
    for slot in sch.active:
        cache.grow(slot)


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
    autoscale=None,
    snapshot: dict | None = None,
    snap_box: dict | None = None,
) -> dict:
    model = build_lm(ctx, mode, model_cfg, q=q, d=d, world=world)
    model.eval()
    wcomm = Communicator(ctx, range(ctx.nranks))
    rows = sched_cfg.max_slots
    rows_local = rows // bands
    band = model.pc.block_row if bands > 1 else 0
    band_slots = range(band * rows_local, (band + 1) * rows_local)

    if requests is None:  # a direct caller; run_serving draws them once
        requests = generate_workload(workload)
    sch = Scheduler(sched_cfg, requests)
    cache = KVCacheManager(
        ctx, model_cfg.num_layers, rows, band_slots, kv_width,
        sched_cfg.kv_budget_tokens,
    )
    records = {
        r.rid: RequestRecord(
            rid=r.rid, arrival=r.arrival,
            prompt_len=r.prompt_len, output_len=r.output_len,
        )
        for r in requests
    }
    iterations = 0
    max_queue = 0
    base_peak_kv = 0
    if snapshot is not None:
        _restore_state(sch, records, snapshot)
        iterations = snapshot["iterations"]
        max_queue = snapshot["max_queue"]
        base_peak_kv = snapshot["peak_kv"]
        ctx.clock.sync_to(snapshot["now"])
    outstanding = _count_open(records)

    def finish(slot: int, t: float) -> None:
        nonlocal outstanding
        rid = sch.complete(slot)
        cache.evict(slot)
        records[rid].completion_time = t
        outstanding -= 1

    while True:
        wcomm.barrier("serve_iter")
        if snap_box is not None and ctx.rank == 0:
            # Published whole: a crash mid-iteration leaves the previous
            # consistent snapshot in place, never a half-written one.
            snap_box["snap"] = _snapshot_state(
                ctx.now, sch, records, iterations, max_queue,
                max(base_peak_kv, cache.peak_tokens),
            )
        if not outstanding:
            break
        sch.poll_arrivals(ctx.now)
        max_queue = max(max_queue, len(sch.queue))

        if sch.idle:
            nxt = sch.next_arrival()
            assert nxt is not None  # else all requests would be done
            ctx.clock.sync_to(nxt)
            continue

        # Admission: each admitted request is prefilled immediately, one
        # engine-level forward per request.
        _prefill_admissions(ctx, model, wcomm, sch, cache, records, bands,
                            finish)
        if not sch.active:
            iterations += 1
            continue

        _preempt_over_budget(sch, cache, records)
        _decode_active(ctx, model, sch, cache, records, rows, band,
                       rows_local)

        wcomm.barrier("serve_step")
        t = ctx.now
        for slot in list(sch.active):
            req = sch.requests[sch.active[slot]]
            rec = records[req.rid]
            rec.emitted += 1
            if rec.emitted == req.output_len:
                finish(slot, t)
        iterations += 1

    report = summarize(
        sorted(records.values(), key=lambda r: r.rid),
        makespan=ctx.now,
        peak_kv_tokens=max(base_peak_kv, cache.peak_tokens),
        max_queue_depth=max_queue,
        iterations=iterations,
    )
    report["mode"] = mode
    report["policy"] = sched_cfg.policy
    report["nranks"] = ctx.nranks
    return report


# --- the paged serving loop ---------------------------------------------------


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
    for slot in sorted(sch.active):
        if not cache.prefill_done(slot):
            continue
        rid = sch.active[slot]
        rec = records[rid]
        remaining = sch.requests[rid].output_len - rec.emitted
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
        counts[slot] = min(a, remaining)
    return counts


def _preempt_over_budget_paged(sch, cache, records, counts, chunk_budget):
    """Preempt until this frame's chunk and decode appends fit the pool.

    Victims are lowest priority class first, youngest within a class;
    each preemption is enacted immediately (its blocks become free or
    cached-evictable) and the remaining need recomputed, since a victim
    may itself have been a prefilling or decoding slot.
    """
    while True:
        need = sum(
            cache.blocks_for_append(slot, take)
            for slot, take in _chunk_plan(sch, cache, chunk_budget)
        )
        need += sum(
            cache.blocks_for_append(slot, counts[slot])
            for slot in sch.active if slot in counts
        )
        if need <= cache.pool.available_blocks:
            return
        order = sch.preemption_order()
        if len(order) <= 1:
            raise SimulationError(
                "kv block pool cannot hold a single active request"
            )
        slot = order[0]
        rid = sch.preempt(slot)
        cache.evict(slot)
        records[rid].preemptions += 1
        records[rid].emitted = 0


def _prefill_chunks_paged(ctx, model, model_cfg, wcomm, sch, cache,
                          records, bands, plan, finish) -> None:
    """Run this frame's prefill chunks (multi-token cached forwards).

    Each chunk resumes from the slot's assembled block table — including
    blocks re-mapped from the prefix cache — with positions offset to
    the resume point; ``decode_step``'s offset causal mask makes the
    chunked forward bitwise-equal to a monolithic prefill under exact
    kernels.  A chunk that completes the prompt emits the first token at
    its barrier (that pins TTFT identically on every rank).
    """
    for slot, take in plan:
        if slot not in sch.active:
            continue  # preempted after planning
        rid = sch.active[slot]
        req = sch.requests[rid]
        rec = records[rid]
        pos = cache.prefill_pos(slot)
        chunk = req.prompt_tokens[pos:pos + take]
        toks = np.tile(np.asarray(chunk, dtype=np.int64)[None, :],
                       (bands, 1))
        positions = np.tile(
            np.arange(pos, pos + take, dtype=np.int64)[None, :], (bands, 1)
        )
        past = cache.assemble_slot(slot)
        if past is None:
            past = [None] * model_cfg.num_layers
        _, kv = model.decode_step(
            VArray.from_numpy(toks), VArray.from_numpy(positions), past
        )
        cache.append_prefill(slot, kv, take)
        wcomm.barrier("serve_prefill")
        if cache.prefill_done(slot):
            t = ctx.now
            rec.emitted = 1  # prefill yields the first output token
            if rec.first_token_time is None:
                rec.first_token_time = t
            if rec.emitted == req.output_len:
                finish(slot, t)


def _decode_active_paged(ctx, model, sch, cache, records, rows, band,
                         rows_local, counts, spec) -> dict[int, int]:
    """One batched (possibly multi-token) decode step over the frame.

    With speculation each row verifies its accepted draft run in one
    forward: row ``slot`` feeds ``counts[slot]`` query tokens, padded to
    the frame-wide ``t_max`` (padding queries clamp to the last real
    token and are masked out of every other row's attention; their
    outputs and KV are discarded).  The draft model is priced as a
    value-independent clock advance before the verify forward.
    """
    order = [s if s in counts else None for s in range(rows)]
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
    appended: dict[int, tuple[int, ...]] = {}
    for row, slot in enumerate(order):
        if slot is None:
            mask[row, :, :, :s_max] = -np.inf
            continue
        req = sch.requests[sch.active[slot]]
        rec = records[req.rid]
        a = counts[slot]
        for j in range(t_max):
            jj = min(j, a - 1)
            tokens[row, j] = req.output_tokens[rec.emitted - 1 + jj]
            positions[row, j] = req.prompt_len + rec.emitted - 1 + jj
        mask[row, :, :, lens[slot]:s_max] = -np.inf
        mask[row, :, :, s_max + a:] = -np.inf
        appended[slot] = tuple(
            req.output_tokens[rec.emitted - 1:rec.emitted - 1 + a]
        )
    band_order = order[band * rows_local:(band + 1) * rows_local]
    past = cache.assemble(band_order, s_max)
    _, new_kv = model.decode_step(
        VArray.from_numpy(tokens),
        VArray.from_numpy(positions),
        past,
        VArray.from_numpy(mask[band * rows_local:(band + 1) * rows_local]),
    )
    cache.append_decode(order, new_kv, counts, appended)
    return counts


def _serve_rank_paged(
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
    autoscale=None,
    snapshot: dict | None = None,
    snap_box: dict | None = None,
) -> dict:
    """The paged variant of :func:`_serve_rank`.

    Same barrier-pinned iteration skeleton; admission maps cached prefix
    blocks (a full-prompt hit emits its first token without any
    forward), prefills run in chunks interleaved with decode, and the
    decode step is multi-token under speculation.  The block pool is
    conservation-audited after every frame.  Crash recovery follows the
    legacy contract — KV and prefix cache die with the engine, in-flight
    requests restart from their prompts — with the pool's cumulative
    counters carried through the snapshot so the report survives
    restarts.
    """
    model = build_lm(ctx, mode, model_cfg, q=q, d=d, world=world)
    model.eval()
    wcomm = Communicator(ctx, range(ctx.nranks))
    rows = sched_cfg.max_slots
    rows_local = rows // bands
    band = model.pc.block_row if bands > 1 else 0
    band_slots = range(band * rows_local, (band + 1) * rows_local)

    if requests is None:
        requests = generate_workload(workload)
    sch = PagedScheduler(sched_cfg, requests)
    cache = PagedKVCache(
        ctx, model_cfg.num_layers, rows, band_slots, kv_width,
        sched_cfg.kv_budget_tokens, sched_cfg.kv_block_tokens,
    )
    records = {
        r.rid: RequestRecord(
            rid=r.rid, arrival=r.arrival,
            prompt_len=r.prompt_len, output_len=r.output_len,
            priority=r.priority, ttft_slo_s=r.ttft_slo_s,
        )
        for r in requests
    }
    iterations = 0
    max_queue = 0
    peak_kv_base = 0
    counter_base = {"prefix_hit_tokens": 0, "prompt_tokens": 0,
                    "cow_copies": 0, "evictions": 0, "blocks_peak": 0}
    spec_steps = 0
    spec_tokens = 0
    if snapshot is not None:
        _restore_state(sch, records, snapshot)
        iterations = snapshot["iterations"]
        max_queue = snapshot["max_queue"]
        peak_kv_base = snapshot["peak_kv"]
        pg = snapshot.get("paged", {})
        for key in counter_base:
            counter_base[key] = pg.get(key, 0)
        spec_steps = pg.get("spec_steps", 0)
        spec_tokens = pg.get("spec_tokens", 0)
        ctx.clock.sync_to(snapshot["now"])
    pool = cache.pool
    outstanding = _count_open(records)

    def paged_counters() -> dict:
        return {
            "prefix_hit_tokens": (counter_base["prefix_hit_tokens"]
                                  + pool.prefix_hit_tokens),
            "prompt_tokens": (counter_base["prompt_tokens"]
                              + pool.prompt_tokens),
            "cow_copies": counter_base["cow_copies"] + pool.cow_copies,
            "evictions": counter_base["evictions"] + pool.evictions,
            "blocks_peak": max(counter_base["blocks_peak"],
                               pool.peak_live_blocks),
        }

    def finish(slot: int, t: float) -> None:
        nonlocal outstanding
        rid = sch.complete(slot)
        cache.evict(slot)
        records[rid].completion_time = t
        outstanding -= 1

    while True:
        wcomm.barrier("serve_iter")
        if snap_box is not None and ctx.rank == 0:
            snap = _snapshot_state(
                ctx.now, sch, records, iterations, max_queue,
                max(peak_kv_base, cache.peak_tokens),
            )
            snap["paged"] = {**paged_counters(),
                            "spec_steps": spec_steps,
                            "spec_tokens": spec_tokens}
            snap_box["snap"] = snap
        if not outstanding:
            break
        sch.poll_arrivals(ctx.now)
        max_queue = max(max_queue, len(sch.queue))

        if sch.idle:
            nxt = sch.next_arrival()
            assert nxt is not None  # else all requests would be done
            ctx.clock.sync_to(nxt)
            continue

        # Admission maps each request's cached prefix immediately; a
        # full-prompt hit needs no forward at all — its first token is
        # emitted at the (barrier-pinned) frame time.
        t_admit = ctx.now
        for slot, rid, _hit in sch.admit_paged(cache, ctx.now):
            if cache.prefill_done(slot):
                rec = records[rid]
                rec.emitted = 1
                if rec.first_token_time is None:
                    rec.first_token_time = t_admit
                if rec.emitted == sch.requests[rid].output_len:
                    finish(slot, t_admit)

        if sch.active:
            counts = _spec_counts(sch, cache, records, sched_cfg.spec)
            _preempt_over_budget_paged(sch, cache, records, counts,
                                       sched_cfg.prefill_chunk_tokens)
            plan = _chunk_plan(sch, cache, sched_cfg.prefill_chunk_tokens)
            _prefill_chunks_paged(ctx, model, model_cfg, wcomm, sch, cache,
                                  records, bands, plan, finish)
            counts = {s: a for s, a in counts.items() if s in sch.active}
            if counts:
                _decode_active_paged(ctx, model, sch, cache, records, rows,
                                     band, rows_local, counts,
                                     sched_cfg.spec)
                wcomm.barrier("serve_step")
                t = ctx.now
                spec_steps += len(counts)
                spec_tokens += sum(counts.values())
                for slot in sorted(counts):
                    req = sch.requests[sch.active[slot]]
                    rec = records[req.rid]
                    rec.emitted += counts[slot]
                    if rec.emitted == req.output_len:
                        finish(slot, t)
        cache.check()
        iterations += 1

    counters = paged_counters()
    prompt_total = counters["prompt_tokens"]
    paged_report = {
        "block_tokens": sched_cfg.kv_block_tokens,
        "num_blocks": pool.num_blocks,
        "prefix_hit_rate": (
            counters["prefix_hit_tokens"] / prompt_total
            if prompt_total else 0.0
        ),
        **counters,
    }
    spec_report = None
    if sched_cfg.spec is not None:
        spec_report = {
            "steps": spec_steps,
            "tokens": spec_tokens,
            "accepted_per_step": (
                spec_tokens / spec_steps if spec_steps else 0.0
            ),
        }
    names = (tuple(c.name for c in workload.priorities)
             if workload.priorities else None)
    report = summarize(
        sorted(records.values(), key=lambda r: r.rid),
        makespan=ctx.now,
        peak_kv_tokens=max(peak_kv_base, cache.peak_tokens),
        max_queue_depth=max_queue,
        iterations=iterations,
        paged=paged_report,
        priority_classes=names,
        spec=spec_report,
    )
    report["mode"] = mode
    report["policy"] = sched_cfg.policy
    report["nranks"] = ctx.nranks
    return report


# --- autoscaled fleet ---------------------------------------------------------


def _tick_replica(rep: _Replica, records, t: float) -> tuple[int, int]:
    """One fleet iteration of a bookkeeping replica: ``(1 if it did work,
    requests it completed)``.

    Mirrors the real iteration shape — admit (prefill emits the first
    token), preempt if the +1-token step would blow the budget, one
    decode step over every active slot — but moves no tensors: the token
    traces are pre-drawn, so only counters change.  All timestamps use
    the fleet's barrier-synced iteration time ``t``.
    """
    sch = rep.sch
    finished = 0
    for slot, rid in sch.admit(rep.used_tokens):
        req = sch.requests[rid]
        rec = records[rid]
        rep.lens[slot] = req.prompt_len
        rec.emitted = 1
        if rec.first_token_time is None:
            rec.first_token_time = t
        if rec.emitted == req.output_len:
            sch.complete(slot)
            del rep.lens[slot]
            rec.completion_time = t
            finished += 1
    if not sch.active:
        return 0, finished
    for slot in sch.choose_preemptions(rep.used_tokens, dict(rep.lens)):
        rid = sch.preempt(slot)
        del rep.lens[slot]
        records[rid].preemptions += 1
        records[rid].emitted = 0
    for slot in list(sch.active):
        rid = sch.active[slot]
        rec = records[rid]
        rec.emitted += 1
        rep.lens[slot] += 1
        if rec.emitted == sch.requests[rid].output_len:
            sch.complete(slot)
            del rep.lens[slot]
            rec.completion_time = t
            finished += 1
    return 1, finished


def _snapshot_fleet(base: dict, replicas, scale_state: dict) -> dict:
    """Extend the rank-0 snapshot with the bookkeeping fleet's state.

    The shared fleet queue is already in ``base["queue"]`` (replica 0's
    scheduler holds the same list object); per-replica entries only need
    their active sets and readiness.
    """
    base["replicas"] = [
        {
            "active": [r.sch.active[s]
                       for s in sorted(r.sch.active,
                                       key=lambda s: r.sch._admit_seq[s])],
            "ready_at": r.ready_at,
        }
        for r in replicas[1:]
    ]
    base["scale"] = dict(scale_state)
    return base


def _restore_fleet(dispatcher, records, snapshot, sched_cfg, requests,
                   fleet_queue) -> list[_Replica]:
    """Rebuild the whole fleet from a snapshot after a crash.

    The engine hosted every replica's clock, so the crash preempts *all*
    in-flight requests fleet-wide (replica 0's KV died with the engine;
    bookkeeping replicas restart from prompts for symmetry — a real
    deployment would lose their instances with the failed node too).
    The shared queue restarts as: every replica's inflight work first
    (replica order, admission order within), then the queued backlog.
    """
    for rid, (emitted, ftt, ct, pre) in snapshot["records"].items():
        rec = records[rid]
        rec.emitted = emitted
        rec.first_token_time = ftt
        rec.completion_time = ct
        rec.preemptions = pre
    inflight = list(snapshot["active"])
    replicas = [_Replica(sched_cfg, requests, fleet_queue, ready_at=0)]
    for rs in snapshot.get("replicas", []):
        replicas.append(_Replica(sched_cfg, requests, fleet_queue,
                                 ready_at=rs["ready_at"]))
        inflight.extend(rs["active"])
    for rid in inflight:
        records[rid].emitted = 0
        records[rid].preemptions += 1
    fleet_queue[:] = inflight + list(snapshot["queue"])
    done = {rid for rid, st in snapshot["records"].items()
            if st[2] is not None}
    known = set(fleet_queue) | done
    dispatcher._pending = [r for r in dispatcher._pending
                           if r.rid not in known]
    return replicas


def _serve_rank_fleet(
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
    autoscale: AutoscaleConfig,
    snapshot: dict | None = None,
    snap_box: dict | None = None,
    outages: tuple = (),
) -> dict:
    """The autoscaled variant of :func:`_serve_rank` (see module docs)."""
    auto = autoscale
    model = build_lm(ctx, mode, model_cfg, q=q, d=d, world=world)
    model.eval()
    wcomm = Communicator(ctx, range(ctx.nranks))
    rows = sched_cfg.max_slots
    rows_local = rows // bands
    band = model.pc.block_row if bands > 1 else 0
    band_slots = range(band * rows_local, (band + 1) * rows_local)

    if requests is None:
        requests = generate_workload(workload)
    # The dispatcher owns the arrival stream; its queue is the single
    # fleet-global FIFO every replica's scheduler admits from.
    dispatcher = Scheduler(sched_cfg, requests)
    fleet_queue = dispatcher.queue
    replicas = [_Replica(sched_cfg, requests, fleet_queue, ready_at=0)
                for _ in range(auto.min_replicas)]
    cache = KVCacheManager(
        ctx, model_cfg.num_layers, rows, band_slots, kv_width,
        sched_cfg.kv_budget_tokens,
    )
    records = {
        r.rid: RequestRecord(
            rid=r.rid, arrival=r.arrival,
            prompt_len=r.prompt_len, output_len=r.output_len,
        )
        for r in requests
    }
    iterations = 0
    max_queue = 0
    base_peak_kv = 0
    scale_events: list[tuple] = []
    replicas_peak = len(replicas)
    replica_iterations = 0
    down_streak = 0
    step_dt = 0.0  #: duration of the last real decode step
    outage_down: set[int] = set()  #: outage indices already taken out
    outage_back: set[int] = set()  #: outage indices already rejoined
    if snapshot is not None:
        replicas = _restore_fleet(dispatcher, records, snapshot, sched_cfg,
                                  requests, fleet_queue)
        iterations = snapshot["iterations"]
        max_queue = snapshot["max_queue"]
        base_peak_kv = snapshot["peak_kv"]
        sc = snapshot.get("scale", {})
        scale_events = [tuple(e) for e in sc.get("events", [])]
        replicas_peak = sc.get("peak", len(replicas))
        replica_iterations = sc.get("replica_iterations", 0)
        down_streak = sc.get("down_streak", 0)
        step_dt = sc.get("step_dt", 0.0)
        outage_down = set(sc.get("outage_down", []))
        outage_back = set(sc.get("outage_back", []))
        ctx.clock.sync_to(snapshot["now"])
    sch = replicas[0].sch  # the engine-backed replica
    outstanding = _count_open(records)

    def finish(slot: int, t: float) -> None:
        nonlocal outstanding
        rid = sch.complete(slot)
        cache.evict(slot)
        records[rid].completion_time = t
        outstanding -= 1

    while True:
        wcomm.barrier("serve_iter")
        if snap_box is not None and ctx.rank == 0:
            snap_box["snap"] = _snapshot_fleet(
                _snapshot_state(
                    ctx.now, sch, records, iterations, max_queue,
                    max(base_peak_kv, cache.peak_tokens),
                ),
                replicas,
                {"events": [list(e) for e in scale_events],
                 "peak": replicas_peak,
                 "replica_iterations": replica_iterations,
                 "down_streak": down_streak,
                 "step_dt": step_dt,
                 "outage_down": sorted(outage_down),
                 "outage_back": sorted(outage_back)},
            )
        if not outstanding:
            break

        # Arrivals land in the shared fleet queue; every ready replica
        # admits from it below (replica 0 first, then index order).
        dispatcher.poll_arrivals(ctx.now)

        # Planned outages and their repairs.  Like a scale-down, an
        # outage drains the highest bookkeeping replica (replica 0 hosts
        # the engine and never goes out); the repaired instance rejoins
        # at ``repair_at`` but only starts admitting from the shared
        # FIFO once its warm-up health check passes (``ready_at``).
        for idx, outage in enumerate(outages):
            if idx not in outage_down and iterations >= outage.out_at:
                outage_down.add(idx)
                if len(replicas) > 1:
                    victim = replicas.pop()
                    for rid in victim.sch.drain():
                        records[rid].preemptions += 1
                        records[rid].emitted = 0
                    scale_events.append((iterations, "out", len(replicas)))
                    down_streak = 0
                else:
                    # Only the engine-backed replica is left: nothing
                    # went out, so nothing comes back at repair time.
                    outage_back.add(idx)
            if (idx in outage_down and idx not in outage_back
                    and iterations >= outage.repair_at
                    and len(replicas) < auto.max_replicas):
                replicas.append(_Replica(
                    sched_cfg, requests, fleet_queue,
                    ready_at=iterations + outage.warmup_iters,
                ))
                replicas_peak = max(replicas_peak, len(replicas))
                scale_events.append((iterations, "rejoin", len(replicas)))
                outage_back.add(idx)

        ready = sum(1 for r in replicas if iterations >= r.ready_at)
        total_q = len(fleet_queue)
        total_load = total_q + sum(len(r.sch.active) for r in replicas)
        max_queue = max(max_queue, total_q)

        # Scale decisions: pure functions of shared state, so every rank
        # reaches the same fleet shape at the same iteration.
        if (total_q > auto.scale_up_queue * ready
                and len(replicas) < auto.max_replicas):
            replicas.append(_Replica(
                sched_cfg, requests, fleet_queue,
                ready_at=iterations + auto.spinup_iters,
            ))
            replicas_peak = max(replicas_peak, len(replicas))
            scale_events.append((iterations, "up", len(replicas)))
            down_streak = 0
        elif (len(replicas) > auto.min_replicas
              and total_load <= (len(replicas) - 1) * sched_cfg.max_slots):
            down_streak += 1
            if down_streak >= auto.scale_down_patience:
                victim = replicas.pop()
                # drain() front-requeues the victim's in-flight work in
                # admission order; survivors re-admit it from the shared
                # queue next iteration (restarting from prompts).
                for rid in victim.sch.drain():
                    records[rid].preemptions += 1
                    records[rid].emitted = 0
                scale_events.append((iterations, "down", len(replicas)))
                down_streak = 0
        else:
            down_streak = 0

        if all(r.sch.idle for r in replicas):
            nxt = dispatcher.next_arrival()
            assert nxt is not None  # else all requests would be done
            ctx.clock.sync_to(nxt)
            continue

        # Replica 0 does the real tensor work and drives the clock.
        _prefill_admissions(ctx, model, wcomm, sch, cache, records, bands,
                            finish)
        if sch.active:
            _preempt_over_budget(sch, cache, records)
            t_before = ctx.now
            _decode_active(ctx, model, sch, cache, records, rows, band,
                           rows_local)
            wcomm.barrier("serve_step")
            step_dt = ctx.now - t_before
            t = ctx.now
            for slot in list(sch.active):
                req = sch.requests[sch.active[slot]]
                rec = records[req.rid]
                rec.emitted += 1
                if rec.emitted == req.output_len:
                    finish(slot, t)
            replica_iterations += 1
        else:
            # No real decode this iteration, but bookkeeping replicas
            # still tick — advance the shared clock by the last decode's
            # cost so their token timestamps keep moving.  (step_dt is
            # already set whenever this branch can matter: replica 0
            # admits first from the shared queue, so it decodes before
            # any bookkeeping replica ever holds work.)
            ctx.clock.sync_to(ctx.now + step_dt)
            t = ctx.now

        for rep in replicas[1:]:
            if iterations < rep.ready_at:
                continue  # still spinning up
            worked, finished = _tick_replica(rep, records, t)
            replica_iterations += worked
            outstanding -= finished
        iterations += 1

    report = summarize(
        sorted(records.values(), key=lambda r: r.rid),
        makespan=ctx.now,
        peak_kv_tokens=max(base_peak_kv, cache.peak_tokens),
        max_queue_depth=max_queue,
        iterations=iterations,
    )
    report["mode"] = mode
    report["policy"] = sched_cfg.policy
    report["nranks"] = ctx.nranks
    report["scale_events"] = len(scale_events)
    report["replicas_peak"] = replicas_peak
    report["replicas_final"] = len(replicas)
    report["replica_iterations"] = replica_iterations
    if outages:
        report["outages"] = sum(1 for e in scale_events if e[1] == "out")
        report["rejoins"] = sum(1 for e in scale_events if e[1] == "rejoin")
    return report
