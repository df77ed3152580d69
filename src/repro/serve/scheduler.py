"""Batching schedulers: continuous (iteration-level) vs static vs paged.

The scheduler is pure bookkeeping — it owns the queue, the slot table and
the admission/preemption *decisions*, all driven by the global KV-token
counts.  It never touches tensors, so it runs identically on every rank
(the runner feeds every rank the same inputs in the same order) and is
unit-testable without an engine.

The serving frame (:mod:`repro.serve.runner`) asks every scheduler the
same three things: :meth:`Scheduler.admit_to` a cache, the
:meth:`Scheduler.preemption_order` when the cache says this frame's
appends do not fit, and :meth:`Scheduler.preempt` / ``complete`` to
release a slot.  :class:`Scheduler` and :class:`PagedScheduler` differ
only in the two decisions: which queued request is next, and who is
preempted first.

Policies
--------
``continuous``
    vLLM-style iteration-level scheduling: before every decode step,
    admit queued requests into free slots while the KV budget allows;
    slots free the moment their request completes.
``static``
    The classical baseline: admit a batch only when *all* slots are
    empty, then decode that batch to completion.  Short requests finish
    early but their slots idle until the batch's longest member drains.

Paged mode
----------
With ``kv_block_tokens > 0`` every replica pairs the paged
:class:`~repro.serve.cache.PagedKVCache` (instead of the contiguous
:class:`~repro.serve.cache.KVCacheManager`) with this module's
:class:`PagedScheduler`, whose admission is *block-granular* and
SLO-aware: the queue is served highest priority class first,
earliest-TTFT-deadline first inside a class (requests whose deadline has
already passed yield to ones that can still make theirs), and a request
is admitted when its *new* blocks — after the prefix-cache probe — plus
a one-block growth reserve per active slot fit the pool.  Preemption
victims are lowest class first, youngest admission within a class.
``prefill_chunk_tokens`` caps prompt tokens prefilled per frame so long
prefills interleave with decode; :class:`SpecDecodeConfig` adds the
speculative-decoding cost model (both require paged mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.serve.workload import Request

__all__ = [
    "SchedulerConfig",
    "SpecDecodeConfig",
    "Scheduler",
    "PagedScheduler",
    "POLICIES",
]

POLICIES = ("continuous", "static")


@dataclass(frozen=True)
class SpecDecodeConfig:
    """Speculative-decoding cost model (paged mode only).

    Each decode step drafts ``spec_k`` tokens and verifies them with one
    multi-token forward; the number accepted is ``1 + r`` where ``r`` is
    the run length of leading Bernoulli(``accept_rate``) successes drawn
    from the named stream ``rng_for(seed, "serve", rid, "spec",
    emitted)`` — a pure function of request progress, so preemptions and
    restarts replay identical draws.  The draft model is priced at
    ``spec_k * draft_step_s`` virtual seconds per step, value-independent
    so symbolic and real runs agree exactly.
    """

    spec_k: int = 3
    accept_rate: float = 0.7
    draft_step_s: float = 2e-5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.spec_k < 1:
            raise ConfigError(f"spec_k must be >= 1, got {self.spec_k}")
        if not 0.0 <= self.accept_rate <= 1.0:
            raise ConfigError(
                f"accept_rate must be in [0, 1], got {self.accept_rate}")
        if not self.draft_step_s >= 0:
            raise ConfigError(
                f"draft_step_s must be >= 0, got {self.draft_step_s}")


@dataclass(frozen=True)
class SchedulerConfig:
    max_slots: int = 8
    kv_budget_tokens: int = 256
    policy: str = "continuous"
    #: block size of the paged KV cache; 0 keeps the contiguous cache
    kv_block_tokens: int = 0
    #: max prompt tokens prefilled per scheduler frame (0 = unchunked);
    #: requires paged mode
    prefill_chunk_tokens: int = 0
    #: speculative-decoding cost model; requires paged mode
    spec: SpecDecodeConfig | None = None

    def __post_init__(self) -> None:
        if self.max_slots <= 0:
            raise ConfigError(f"max_slots must be positive, got {self.max_slots}")
        if self.kv_budget_tokens <= 0:
            raise ConfigError(
                f"kv_budget_tokens must be positive, got {self.kv_budget_tokens}")
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; valid: {POLICIES}"
            )
        if self.kv_block_tokens < 0:
            raise ConfigError(
                f"kv_block_tokens must be >= 0, got {self.kv_block_tokens}")
        if self.prefill_chunk_tokens < 0:
            raise ConfigError(f"prefill_chunk_tokens must be >= 0, got "
                              f"{self.prefill_chunk_tokens}")
        if self.kv_block_tokens == 0:
            if self.prefill_chunk_tokens:
                raise ConfigError(
                    "prefill_chunk_tokens requires the paged cache "
                    "(set kv_block_tokens)"
                )
            if self.spec is not None:
                raise ConfigError(
                    "speculative decoding (spec) requires the paged cache "
                    "(set kv_block_tokens)"
                )
        elif self.policy != "continuous":
            raise ConfigError(
                f"the paged cache (kv_block_tokens={self.kv_block_tokens}) "
                f"requires the continuous policy, got policy {self.policy!r}"
            )

    @property
    def paged(self) -> bool:
        return self.kv_block_tokens > 0


class Scheduler:
    """Slot/queue state machine shared by both policies."""

    def __init__(self, cfg: SchedulerConfig, requests: list[Request]):
        self.cfg = cfg
        self.requests = {r.rid: r for r in requests}
        #: not-yet-arrived, ascending arrival time
        self._pending = sorted(requests, key=lambda r: (r.arrival, r.rid))
        self.queue: list[int] = []  #: arrived, waiting for a slot
        self.active: dict[int, int] = {}  #: slot -> rid
        self._admit_seq: dict[int, int] = {}  #: slot -> admission order
        self._seq = 0

    # --- arrivals ------------------------------------------------------------

    def poll_arrivals(self, now: float) -> None:
        while self._pending and self._pending[0].arrival <= now:
            self.queue.append(self._pending.pop(0).rid)

    def next_arrival(self) -> float | None:
        return self._pending[0].arrival if self._pending else None

    @property
    def all_arrived(self) -> bool:
        return not self._pending

    # --- admission -----------------------------------------------------------

    def _free_slots(self) -> list[int]:
        return [s for s in range(self.cfg.max_slots) if s not in self.active]

    def admit(self, used_tokens: int) -> list[tuple[int, int]]:
        """Decide admissions; returns ``[(slot, rid), ...]`` in order.

        A request is admissible when a slot is free and its prompt *plus
        one growth token per then-active slot* fits the budget — the
        growth reservation is what makes admit-then-instantly-preempt
        livelock impossible.
        """
        if self.cfg.policy == "static" and self.active:
            return []
        admitted: list[tuple[int, int]] = []
        free = self._free_slots()
        used = used_tokens
        while self.queue and free:
            req = self.requests[self.queue[0]]
            n_active = len(self.active) + len(admitted) + 1
            if used + req.prompt_len + n_active > self.cfg.kv_budget_tokens:
                break
            self.queue.pop(0)
            slot = free.pop(0)
            admitted.append((slot, req.rid))
            used += req.prompt_len
        for slot, rid in admitted:
            self.active[slot] = rid
            self._admit_seq[slot] = self._seq
            self._seq += 1
        return admitted

    def admit_to(self, cache, now: float) -> list[int]:
        """Admit into ``cache`` and claim the slots there; returns them in
        admission order.  FIFO and token-exact (:meth:`admit`); ``now`` is
        for schedulers that rank the queue by deadline."""
        admitted = self.admit(cache.used_tokens)
        for slot, rid in admitted:
            cache.admit(slot, self.requests[rid].prompt_tokens)
        return [slot for slot, _ in admitted]

    # --- preemption -----------------------------------------------------------

    def preemption_order(self) -> list[int]:
        """Victim candidates when a frame's appends do not fit the cache:
        youngest admission first (its requeued work is the cheapest to
        redo).  The loop preempts down this order until the cache says
        the appends fit; preempting requeues the request at the *front*
        of the queue so it reclaims a slot as soon as space frees."""
        return sorted(self.active, key=lambda s: -self._admit_seq[s])

    def preempt(self, slot: int) -> int:
        """Release ``slot`` and requeue its request; returns the rid."""
        rid = self.active.pop(slot)
        del self._admit_seq[slot]
        self.queue.insert(0, rid)
        return rid

    # --- dispatcher support ----------------------------------------------------

    @classmethod
    def for_dispatch(
        cls,
        cfg: SchedulerConfig,
        requests: list[Request],
        queue: list[int] | None = None,
    ) -> "Scheduler":
        """A replica scheduler fed by a dispatcher instead of the clock.

        It knows the full request table (token traces are looked up by
        rid) but owns no arrival stream of its own: requests enter only
        through :meth:`enqueue` or the shared ``queue`` — passing the
        dispatcher's queue *object* makes this replica admit from the
        fleet-global FIFO, so several replicas share one seeded workload
        without double-admitting an arrival.
        """
        sch = cls(cfg, requests)
        sch._pending = []
        if queue is not None:
            sch.queue = queue
        return sch

    def enqueue(self, rid: int, front: bool = False) -> None:
        """Hand a dispatched (or drained) request to this scheduler."""
        if front:
            self.queue.insert(0, rid)
        else:
            self.queue.append(rid)

    def drain(self) -> list[int]:
        """Preempt every active slot; returns the rids in admission order.

        Used when a replica is scaled away: its in-flight requests land
        at the *front* of the queue in admission order (the preemption
        contract — their KV state lived on the drained replica) for the
        survivors to pick up.
        """
        slots = sorted(self.active, key=lambda s: self._admit_seq[s],
                       reverse=True)
        return [self.preempt(s) for s in slots][::-1]

    # --- completion ------------------------------------------------------------

    def complete(self, slot: int) -> int:
        rid = self.active.pop(slot)
        del self._admit_seq[slot]
        return rid

    @property
    def idle(self) -> bool:
        return not self.active and not self.queue


class PagedScheduler(Scheduler):
    """Block-granular, SLO-aware admission over a :class:`PagedKVCache`.

    Inherits the queue/slot state machine; only the admission and
    preemption-ordering decisions change (see the module docstring).
    The scheduler stays tensor-free — the cache argument is consulted
    for bookkeeping only (prefix probes, block counts).
    """

    def _queue_rank(self, rid: int, now: float) -> tuple:
        """Admission order: class, then can-still-make-its-deadline
        before already-expired, then EDF, then arrival (FIFO tiebreak)."""
        req = self.requests[rid]
        deadline = req.ttft_deadline
        expired = deadline is not None and deadline < now
        return (
            req.priority,
            1 if expired else 0,
            deadline if deadline is not None else math.inf,
            req.arrival,
            rid,
        )

    def admit_paged(self, cache, now: float) -> list[tuple[int, int, int]]:
        """Admit while blocks allow; returns ``[(slot, rid, hit), ...]``.

        A request is admissible when its post-probe *new* blocks plus
        the blocks revived from the prefix cache plus a one-block growth
        reserve per then-active slot fit the pool's free + evictable
        capacity.  Admission maps the cached prefix immediately (so its
        blocks are pinned before anything this frame can evict them);
        the first request that does not fit stops admission — no bypass,
        so lower-ranked requests cannot starve a large one.
        """
        admitted: list[tuple[int, int, int]] = []
        free = self._free_slots()
        while self.queue and free:
            rid = min(self.queue, key=lambda r: self._queue_rank(r, now))
            req = self.requests[rid]
            hit, new_blocks, revive = cache.probe(req.prompt_tokens)
            n_active = len(self.active) + 1
            if new_blocks + revive + n_active > cache.pool.available_blocks:
                break
            self.queue.remove(rid)
            slot = free.pop(0)
            self.active[slot] = rid
            self._admit_seq[slot] = self._seq
            self._seq += 1
            admitted.append((slot, rid, cache.admit(slot, req.prompt_tokens)))
        return admitted

    def admit_to(self, cache, now: float) -> list[int]:
        """Ranked and block-granular (:meth:`admit_paged`, which also maps
        each admission's cached prefix into its slot)."""
        return [slot for slot, _, _ in self.admit_paged(cache, now)]

    def preemption_order(self) -> list[int]:
        """Victim candidates: lowest priority class first, youngest
        admission within a class (cheapest work to redo)."""
        return sorted(
            self.active,
            key=lambda s: (-self.requests[self.active[s]].priority,
                           -self._admit_seq[s]),
        )
