"""Per-rank KV-cache management for the serving engine.

Two cache designs live here — the two the serving simulator models and
compares — behind one frame-level call surface:

:class:`KVCacheManager`
    The contiguous design — one variable-length KV region per slot,
    filled by one whole-prompt prefill, freed wholesale on completion or
    preemption.  Capacity is token-exact and nothing is ever shared.

:class:`PagedKVCache` (on top of :class:`BlockPool`)
    The paged design: KV storage is carved into fixed-size token blocks,
    each slot holds a *block table*, blocks are reference-counted and
    full prompt blocks are registered in a hash-keyed prefix table so a
    preempted-and-restarted request — or a request sharing a prompt
    prefix — re-maps existing blocks instead of recomputing and
    re-storing them.  Appending into a shared or registered block goes
    through copy-on-write, so a cached prefix is immutable once
    published.

The serving frame (:mod:`repro.serve.runner`) asks either the same
things: ``admit(slot, prompt)`` (claim a slot; returns the prefix-hit
length), ``prompt_len`` / ``prefill_pos`` / ``prefill_done``,
``append_prefill(slot, kv, ntokens)``, ``append_decode(order, new_kv,
counts, tokens)``, ``fits({slot: tokens})`` (do these appends fit *now*),
``assemble(order, s_max)`` and ``evict(slot)``.  The designs stay two
classes because they price and store differently: a contiguous insert
prices nothing and stores band-locally, a paged prefill prices a
per-token split and concat on every rank; one counts capacity in tokens,
the other in blocks.

Bookkeeping vs storage
----------------------
Token *bookkeeping* (block tables, refcounts, lengths) is global and
identical on every rank — the scheduler's admission/preemption decisions
depend on it, and all ranks must decide identically.  Tensor *storage*
differs between the designs:

* The contiguous cache stores tensors band-locally: in the 2-D/2.5-D
  modes each rank only ever attends over the frame rows of its own batch
  band, so it stores (and its
  :class:`~repro.sim.memory.MemoryTracker` is charged for) only those
  slots' ``(k, v)`` tensors, in its own hidden slice.
* The paged cache stores *prefill* blocks on **every** rank: the runner
  tiles the prompt identically across bands, so each rank computes
  bitwise-identical prefix KV for its hidden slice, and storing it
  band-agnostically is what lets a prefix cached by a slot in one band
  be re-mapped by a slot in another.  Decode-appended blocks stay
  band-local (they are never registered for sharing).

A fleet's bookkeeping replicas are that separation taken to its end: a
cache over an *empty* band (``band_slots=range(0)``) fed ``kv=None`` does
the same admit / append / evict bookkeeping and stores, prices and
charges nothing.

Slots are fixed frame rows: slot ``s`` always occupies decode-frame row
``s``, so the band that serves a slot never changes and no cross-band KV
movement is ever needed.

Why block re-mapping cannot change the decode math
--------------------------------------------------
A slot's past-KV frame is the concatenation of its blocks' tensors in
table order, exactly the token order the contiguous cache stores.  Under
exact kernels the attention reduction folds over the key axis in token
order, so splitting the same tokens across different blocks — or
re-mapping blocks another request computed — reorders nothing; the
decode outputs stay ``np.array_equal`` to the full causal forward.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import RankContext
from repro.varray import ops
from repro.varray.varray import VArray

__all__ = ["KVCacheManager", "BlockPool", "PagedKVCache"]


def _append_kv(ctx: RankContext, owner, entry: list, new: list) -> list:
    """Per-layer ``(k, v)`` of ``entry`` with ``new``'s pieces appended along
    the token axis: the per-slot body of both caches' appends.

    Pure ``ops`` calls fixed by the operands' signatures, so it goes through
    :meth:`RankContext.replay`.  The op order is the one the loops around it
    always had; the clock's float adds depend on it.
    """

    def run() -> list:
        return [
            (
                ops.concat(ctx, [k_old, k_new], axis=1, tag="kv_append"),
                ops.concat(ctx, [v_old, v_new], axis=1, tag="kv_append"),
            )
            for (k_old, v_old), (k_new, v_new) in zip(entry, new)
        ]

    key = (owner, "append",
           tuple([(k.signature(), v.signature()) for k, v in entry]),
           tuple([(k.signature(), v.signature()) for k, v in new]))
    return ctx.replay(key, run)


def _assemble_frame(ctx: RankContext, num_layers: int, kv_width: int,
                    rows: list, s_max: int) -> list:
    """Padded past-KV frame for one rank's band rows, either design.

    ``rows[i]`` is ``None`` for a padding row, else ``(parts, ntokens)``
    with ``parts[layer] = (k_parts, v_parts)``: the stored tensors, each
    over consecutive tokens, that make up the slot's ``ntokens`` of KV —
    the one region of a contiguous slot, or a paged slot's blocks in table
    order.  Returns per-layer ``(K, V)`` of shape ``[len(rows), s_max,
    kv_width]``: each slot's cache zero-padded to ``s_max`` tokens (padding
    rows are all zeros).  Padded/empty positions must be masked by the
    caller's ``extra_mask`` — zeros are *valid* values to the attention
    kernel.
    """
    # one block of zeros per row, shared by its layers and by k and v
    lengths = [0 if row is None else row[1] for row in rows]
    pads = [VArray.zeros((1, s_max - n, kv_width), symbolic=ctx.symbolic)
            if n < s_max else None for n in lengths]
    out = []
    for layer in range(num_layers):
        ks, vs = [], []
        for row, pad in zip(rows, pads):
            if row is None:
                ks.append(pad)
                vs.append(pad)
                continue
            parts_k, parts_v = row[0][layer]
            if pad is not None:
                parts_k = (*parts_k, pad)
                parts_v = (*parts_v, pad)
            ks.append(
                parts_k[0] if len(parts_k) == 1
                else ops.concat(ctx, parts_k, axis=1, tag="kv_frame")
            )
            vs.append(
                parts_v[0] if len(parts_v) == 1
                else ops.concat(ctx, parts_v, axis=1, tag="kv_frame")
            )
        out.append(
            (
                ops.concat(ctx, ks, axis=0, tag="kv_frame"),
                ops.concat(ctx, vs, axis=0, tag="kv_frame"),
            )
        )
    return out


class KVCacheManager:
    """KV cache for ``num_slots`` fixed decode slots on one rank.

    Parameters
    ----------
    band_slots:
        The slot indices whose tensors this rank stores (its batch band).
        Bookkeeping still covers *all* slots.
    kv_width:
        Per-token hidden width of this rank's k/v slice (``hidden`` for
        serial, ``hidden / world`` for Megatron, ``hidden / q`` for the
        grid modes).
    """

    def __init__(
        self,
        ctx: RankContext,
        num_layers: int,
        num_slots: int,
        band_slots: range,
        kv_width: int,
        budget_tokens: int,
        dtype_bytes: int = 4,
    ):
        if budget_tokens <= 0:
            raise SimulationError("kv budget must be positive")
        self.ctx = ctx
        self.num_layers = num_layers
        self.num_slots = num_slots
        self.band_slots = band_slots
        self.kv_width = kv_width
        self.budget_tokens = budget_tokens
        #: bytes per cached token on THIS rank (k and v, all layers)
        self.bytes_per_token = 2 * dtype_bytes * kv_width * num_layers
        self._lens: dict[int, int] = {}  #: slot -> tokens (all slots)
        self._prompts: dict[int, int] = {}  #: slot -> prompt length
        self._kv: dict[int, list] = {}  #: slot -> per-layer (k, v) (band only)
        self.peak_tokens = 0

    # --- bookkeeping (global, rank-identical) --------------------------------

    @property
    def used_tokens(self) -> int:
        return sum(self._lens.values())

    def length(self, slot: int) -> int:
        return self._lens[slot]

    def prompt_len(self, slot: int) -> int:
        return self._prompts[slot]

    def prefill_pos(self, slot: int) -> int:
        return min(self._lens[slot], self._prompts[slot])

    def prefill_done(self, slot: int) -> bool:
        return self._lens[slot] >= self._prompts[slot]

    def fits(self, appends: dict[int, int]) -> bool:
        """Would appending ``appends[slot]`` tokens to each slot stay
        within the budget?  Token-exact; which slot grows does not matter."""
        return (self.used_tokens + sum(appends.values())
                <= self.budget_tokens)

    def admit(self, slot: int, prompt) -> int:
        """Claim ``slot`` for a request.  Nothing is ever shared, so the
        prefix hit is always 0 tokens: the whole prompt needs computing."""
        if slot in self._lens:
            raise SimulationError(f"slot {slot} already occupied")
        self._lens[slot] = 0
        self._prompts[slot] = len(prompt)
        return 0

    # --- storage -------------------------------------------------------------

    def insert(self, slot: int, kv: list | None, ntokens: int) -> None:
        """Install a freshly prefilled slot (``kv`` is per-layer ``(k, v)``
        of shape ``[1, ntokens, kv_width]``; ignored off-band)."""
        if self._lens.get(slot):  # an admitted slot is claimed, still empty
            raise SimulationError(f"slot {slot} already occupied")
        self._lens[slot] = ntokens
        self._prompts.setdefault(slot, ntokens)
        self.peak_tokens = max(self.peak_tokens, self.used_tokens)
        if slot in self.band_slots:
            self._kv[slot] = list(kv)
            self.ctx.mem.alloc(ntokens * self.bytes_per_token, "kvcache")

    def append_prefill(self, slot: int, kv: list | None, ntokens: int) -> None:
        """Store a prompt's KV.  The contiguous design prefills a prompt
        whole, so the one chunk is the slot's initial region."""
        self.insert(slot, kv, ntokens)

    def append_rows(self, order: list[int | None], new_kv: list) -> None:
        """Append one decode step's keys/values to this rank's band slots.

        ``order`` maps this rank's local frame rows to slot ids (``None``
        for padding rows); ``new_kv`` is per-layer ``(k, v)`` of shape
        ``[len(order), 1, kv_width]``.  Every slot (band or not) grows by
        one token in the bookkeeping via :meth:`grow`; this method only
        handles the tensors.
        """
        ctx = self.ctx
        rows = len(order)
        split = [
            (
                ops.split(ctx, k, rows, axis=0, tag="kv_append"),
                ops.split(ctx, v, rows, axis=0, tag="kv_append"),
            )
            for k, v in new_kv
        ]
        for row, slot in enumerate(order):
            if slot is None:
                continue
            self._kv[slot] = _append_kv(
                ctx, self, self._kv[slot],
                [(ks[row], vs[row]) for ks, vs in split],
            )
            ctx.mem.alloc(self.bytes_per_token, "kvcache")

    def grow(self, slot: int) -> None:
        """Bookkeeping: slot gained one token this decode step."""
        self._lens[slot] += 1
        self.peak_tokens = max(self.peak_tokens, self.used_tokens)

    def append_decode(self, order: list[int | None], new_kv: list | None,
                      counts, tokens) -> None:
        """Append one decode step's KV across the frame.

        ``order`` is the *global* frame order and ``new_kv`` covers this
        rank's band rows (see :meth:`append_rows`; ``None`` on a cache
        with no band).  Every slot in ``counts`` grows by its one token on
        every rank — a multi-token step needs the paged cache; the token
        ids are not kept here.
        """
        band = self.band_slots
        if band:
            self.append_rows(order[band.start:band.stop], new_kv)
        for slot in counts:
            self.grow(slot)

    def evict(self, slot: int) -> None:
        """Release a slot (completion or preemption)."""
        ntokens = self._lens.pop(slot)
        del self._prompts[slot]
        if slot in self._kv:
            del self._kv[slot]
            self.ctx.mem.free(ntokens * self.bytes_per_token, "kvcache")

    # --- decode-frame assembly ----------------------------------------------

    def assemble(self, order: list[int | None], s_max: int) -> list:
        """Build the padded past-KV frame for this rank's band rows (see
        :func:`_assemble_frame`): each slot is its one stored region."""
        rows = [None if slot is None
                else ([((k,), (v,)) for k, v in self._kv[slot]],
                      self._lens[slot]) for slot in order]
        return _assemble_frame(self.ctx, self.num_layers, self.kv_width,
                               rows, s_max)


# --- paged KV cache -----------------------------------------------------------


class _Block:
    """Bookkeeping record for one pool block (no tensors).

    ``tokens`` are the token ids whose KV the block holds; ``key`` is the
    full token *history* through this block's end once the block has been
    registered in the prefix table (``None`` while private).  All chains
    start at position 0, so a key of length ``L`` always maps to a block
    holding ``L % block_tokens`` tokens (or a full block when ``L`` is a
    multiple) — key lengths are globally aligned.
    """

    __slots__ = ("bid", "tokens", "refcount", "key", "last_use")

    def __init__(self, bid: int):
        self.bid = bid
        self.tokens: list[int] = []
        self.refcount = 1
        self.key: tuple[int, ...] | None = None
        self.last_use = 0


class BlockPool:
    """Reference-counted fixed-size block pool — pure bookkeeping.

    The pool never touches tensors, so it runs identically on every rank
    and is unit-testable without an engine (the tensor side lives in
    :class:`PagedKVCache`).  Invariants, audited by :meth:`check`:

    * every block id is exactly one of *free*, *live* (refcount > 0) or
      *cached* (refcount 0 but registered in the prefix table);
    * refcounts equal the number of slot-table references and never go
      negative;
    * a registered block is immutable — appends to a shared or
      registered block must :meth:`cow` first, so copy-on-write can
      never mutate a block another table (or the prefix table) can see.

    Eviction reclaims cached blocks least-recently-used first (ties by
    block id), which is deterministic because ``last_use`` ticks are.
    """

    def __init__(self, num_blocks: int, block_tokens: int):
        if num_blocks <= 0:
            raise SimulationError("block pool needs at least one block")
        if block_tokens <= 0:
            raise SimulationError("block_tokens must be positive")
        self.num_blocks = num_blocks
        self.block_tokens = block_tokens
        self._free: list[int] = list(range(num_blocks))  #: sorted
        self._blocks: dict[int, _Block] = {}
        self._table: dict[tuple[int, ...], int] = {}  #: history -> bid
        self._tick = 0
        # occupancy, kept at the refcount 0 <-> 1 and token-append
        # transitions (the scheduler reads it several times a frame);
        # :meth:`check` re-derives all three from the blocks
        self.live_blocks = 0  #: blocks with refcount > 0
        self.cached_blocks = 0  #: refcount 0 but prefix-registered
        self.live_tokens = 0  #: tokens held by live blocks
        # cumulative counters (report material)
        self.cow_copies = 0
        self.evictions = 0
        self.prefix_hit_tokens = 0
        self.prompt_tokens = 0
        self.peak_live_blocks = 0
        self.peak_live_tokens = 0

    # --- queries -------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def available_blocks(self) -> int:
        """Blocks an allocation may claim: free plus evictable cached."""
        return len(self._free) + self.cached_blocks

    def ntokens(self, bid: int) -> int:
        return len(self._blocks[bid].tokens)

    def refcount(self, bid: int) -> int:
        return self._blocks[bid].refcount

    def is_registered(self, bid: int) -> bool:
        return self._blocks[bid].key is not None

    def writable(self, bid: int) -> bool:
        """May the holder append in place?  Only when private: one
        reference and not published in the prefix table."""
        b = self._blocks[bid]
        return b.refcount == 1 and b.key is None

    def lookup(self, history) -> int | None:
        """The block registered under this token history, if any."""
        return self._table.get(tuple(history))

    # --- lifecycle -----------------------------------------------------------

    def touch(self, bid: int) -> None:
        self._tick += 1
        self._blocks[bid].last_use = self._tick

    def _note_peaks(self) -> None:
        self.peak_live_blocks = max(self.peak_live_blocks, self.live_blocks)
        self.peak_live_tokens = max(self.peak_live_tokens, self.live_tokens)

    def retain(self, bid: int) -> None:
        """One more table maps this block (revives a cached block)."""
        b = self._blocks[bid]
        b.refcount += 1
        if b.refcount == 1:  # cached -> live
            self.cached_blocks -= 1
            self.live_blocks += 1
            self.live_tokens += len(b.tokens)
        self.touch(bid)
        self._note_peaks()

    def release(self, bid: int) -> bool:
        """Drop one reference; returns True when the block left the pool
        map entirely (refcount hit zero and it was never registered) —
        the caller must drop its tensors.  A registered block stays
        behind as *cached*, re-mappable until evicted."""
        b = self._blocks[bid]
        if b.refcount <= 0:
            raise SimulationError(f"release of unreferenced block {bid}")
        b.refcount -= 1
        if b.refcount > 0:
            return False
        self.live_blocks -= 1
        self.live_tokens -= len(b.tokens)
        if b.key is not None:  # live -> cached
            self.cached_blocks += 1
            return False
        del self._blocks[bid]
        bisect.insort(self._free, bid)
        return True

    def register(self, history, bid: int) -> bool:
        """Publish ``bid`` under ``history`` in the prefix table.

        First registration wins: returns False (and leaves the block
        private) when the key is already taken by another block.
        """
        key = tuple(history)
        b = self._blocks[bid]
        if b.key is not None:
            raise SimulationError(f"block {bid} registered twice")
        if key in self._table:
            return False
        self._table[key] = bid
        b.key = key
        return True

    def alloc(self) -> tuple[int, int | None]:
        """A fresh private block (refcount 1).

        Returns ``(bid, evicted_bid)`` — ``evicted_bid`` is the cached
        block reclaimed to make room (LRU, ties by id), or None.  Raises
        when every block is live (the caller must preempt first).
        """
        evicted = None
        if not self._free:
            cands = [b for b in self._blocks.values() if b.refcount == 0]
            if not cands:
                raise SimulationError(
                    "block pool exhausted: every block is live"
                )
            victim = min(cands, key=lambda b: (b.last_use, b.bid))
            del self._table[victim.key]
            del self._blocks[victim.bid]
            self.cached_blocks -= 1
            bisect.insort(self._free, victim.bid)
            self.evictions += 1
            evicted = victim.bid
        bid = self._free.pop(0)
        self._blocks[bid] = _Block(bid)
        self.live_blocks += 1
        self.touch(bid)
        self._note_peaks()
        return bid, evicted

    def cow(self, bid: int) -> tuple[int, int | None]:
        """Copy-on-write: a private copy of ``bid`` for the caller.

        The new block carries the same tokens; the caller's reference to
        the shared original is dropped (it stays behind — cached or
        still held by its other sharers, never freed, because only
        shared-or-registered blocks ever reach here).  Returns
        ``(new_bid, evicted_bid)``.
        """
        src = self._blocks[bid]
        new_bid, evicted = self.alloc()
        self._blocks[new_bid].tokens = list(src.tokens)
        self.live_tokens += len(src.tokens)
        self.cow_copies += 1
        if self.release(bid):
            raise SimulationError(
                f"COW source {bid} was private — nothing to copy from"
            )
        self._note_peaks()
        return new_bid, evicted

    def append(self, bid: int, token: int) -> None:
        """Append one token id to a *private* block."""
        b = self._blocks[bid]
        if not self.writable(bid):
            raise SimulationError(
                f"append to shared/registered block {bid} without COW"
            )
        if len(b.tokens) >= self.block_tokens:
            raise SimulationError(f"block {bid} is full")
        b.tokens.append(int(token))
        self.live_tokens += 1
        self.touch(bid)
        self._note_peaks()

    # --- audit ---------------------------------------------------------------

    def stats(self) -> dict:
        """One audited snapshot of the pool's occupancy and counters."""
        cached_tokens = sum(len(b.tokens) for b in self._blocks.values()
                            if b.refcount == 0)
        return {
            "num_blocks": self.num_blocks,
            "block_tokens": self.block_tokens,
            "free": len(self._free),
            "live": self.live_blocks,
            "cached": self.cached_blocks,
            "live_tokens": self.live_tokens,
            "cached_tokens": cached_tokens,
            "registered": len(self._table),
            "refcount_sum": sum(b.refcount for b in self._blocks.values()),
            "cow_copies": self.cow_copies,
            "evictions": self.evictions,
            "prefix_hit_tokens": self.prefix_hit_tokens,
            "prompt_tokens": self.prompt_tokens,
            "peak_live_blocks": self.peak_live_blocks,
            "peak_live_tokens": self.peak_live_tokens,
        }

    def check(self, tables: dict[int, list[int]]) -> None:
        """Assert conservation against the slots' block tables.

        ``tables`` maps slot -> block table.  Raises
        :class:`SimulationError` on any violation; called by the runner
        after every scheduler frame.
        """
        s = self.stats()
        if s["free"] + s["live"] + s["cached"] != self.num_blocks:
            raise SimulationError(
                f"block conservation violated: {s['free']} free + "
                f"{s['live']} live + {s['cached']} cached != "
                f"{self.num_blocks}"
            )
        if set(self._free) & set(self._blocks):
            raise SimulationError("a block is both free and mapped")
        refs = Counter(bid for t in tables.values() for bid in t)
        if set(refs) - set(self._blocks):
            raise SimulationError("a slot table references a freed block")
        live = cached = live_tokens = 0
        for bid, b in self._blocks.items():
            if b.refcount < 0:
                raise SimulationError(f"negative refcount on block {bid}")
            if b.refcount:
                live += 1
                live_tokens += len(b.tokens)
            else:
                cached += 1
            if b.refcount != refs.get(bid, 0):
                raise SimulationError(
                    f"block {bid} refcount {b.refcount} != "
                    f"{refs.get(bid, 0)} table references"
                )
            if len(b.tokens) > self.block_tokens:
                raise SimulationError(f"block {bid} over capacity")
        if (live, cached, live_tokens) != (s["live"], s["cached"],
                                           s["live_tokens"]):
            raise SimulationError(
                f"occupancy counters diverged from the blocks: counted "
                f"{s['live']} live / {s['cached']} cached / "
                f"{s['live_tokens']} live tokens, blocks hold {live} / "
                f"{cached} / {live_tokens}"
            )
        for key, bid in self._table.items():
            b = self._blocks.get(bid)
            if b is None or b.key != key:
                raise SimulationError("prefix table points at a bad block")
            if list(key[len(key) - len(b.tokens):]) != b.tokens:
                raise SimulationError(
                    f"registered block {bid} content diverged from its key"
                )


@dataclass
class _PagedSlot:
    """One slot's view of the pool: its prompt and block table."""

    prompt: tuple[int, ...]
    table: list[int] = field(default_factory=list)
    ntokens: int = 0  #: total KV tokens mapped (prompt + decode)
    prefill_pos: int = 0  #: prompt tokens whose KV exists (hit + computed)


class PagedKVCache:
    """Paged per-rank KV cache: a :class:`BlockPool` plus tensor storage.

    Answers the same frame-level calls as :class:`KVCacheManager` (see
    the module docstring).  ``budget_tokens // block_tokens`` blocks are
    available; a slot's past-KV frame is the concatenation of its blocks'
    tensors in table order (see the module docstring for why that
    preserves bitwise decode equivalence).

    Sharing rules
    -------------
    * Full *prompt* blocks are registered in the prefix table the moment
      prefill fills them — live-sharable by same-prefix admissions.
    * A partial prompt tail is registered only when its slot is evicted
      *before decoding started* (mid-prefill preemption) — its content
      is still pure prompt.
    * Decode-appended blocks are never registered.
    * Appending into a shared or registered block copies it first
      (copy-on-write); the tensor "copy" re-references the immutable
      originals but is charged to the memory tracker like a real copy.
    """

    def __init__(
        self,
        ctx: RankContext,
        num_layers: int,
        num_slots: int,
        band_slots: range,
        kv_width: int,
        budget_tokens: int,
        block_tokens: int,
        dtype_bytes: int = 4,
    ):
        if budget_tokens <= 0:
            raise SimulationError("kv budget must be positive")
        if block_tokens <= 0:
            raise SimulationError("block_tokens must be positive")
        num_blocks = budget_tokens // block_tokens
        if num_blocks < 2:
            raise SimulationError(
                f"kv budget {budget_tokens} holds fewer than two "
                f"{block_tokens}-token blocks"
            )
        self.ctx = ctx
        self.num_layers = num_layers
        self.num_slots = num_slots
        self.band_slots = band_slots
        self.kv_width = kv_width
        self.block_tokens = block_tokens
        self.pool = BlockPool(num_blocks, block_tokens)
        #: bytes per cached token on THIS rank (k and v, all layers)
        self.bytes_per_token = 2 * dtype_bytes * kv_width * num_layers
        self._slots: dict[int, _PagedSlot] = {}
        self._store: dict[int, list] = {}  #: bid -> per-layer (k, v)
        self._stored: dict[int, int] = {}  #: bid -> tokens charged to mem

    # --- bookkeeping queries (global, rank-identical) ------------------------

    @property
    def used_tokens(self) -> int:
        """Tokens pinned by active slots (shared blocks counted once)."""
        return self.pool.live_tokens

    @property
    def peak_tokens(self) -> int:
        return self.pool.peak_live_tokens

    def length(self, slot: int) -> int:
        return self._slots[slot].ntokens

    def prompt_len(self, slot: int) -> int:
        return len(self._slots[slot].prompt)

    def prefill_pos(self, slot: int) -> int:
        return self._slots[slot].prefill_pos

    def prefill_done(self, slot: int) -> bool:
        st = self._slots[slot]
        return st.prefill_pos == len(st.prompt)

    def tables(self) -> dict[int, list[int]]:
        return {slot: list(st.table) for slot, st in self._slots.items()}

    # --- prefix probe / admission --------------------------------------------

    def _walk(self, prompt: tuple[int, ...]) -> tuple[list[int], int]:
        """Longest registered prefix of ``prompt``: full-block chain hits
        at block boundaries, then the longest registered partial tail."""
        bs = self.block_tokens
        pool = self.pool
        bids: list[int] = []
        pos = 0
        while pos + bs <= len(prompt):
            bid = pool.lookup(prompt[:pos + bs])
            if bid is None:
                break
            bids.append(bid)
            pos += bs
        if pos < len(prompt):
            for t in range(min(len(prompt) - pos, bs - 1), 0, -1):
                bid = pool.lookup(prompt[:pos + t])
                if bid is not None:
                    bids.append(bid)
                    pos += t
                    break
        return bids, pos

    def probe(self, prompt) -> tuple[int, int, int]:
        """Admission preview, no state change.

        Returns ``(hit_tokens, new_blocks, revive_blocks)``:
        prefix-cache hit length, fresh blocks the remaining prompt
        needs, and hit blocks that are currently *cached* (reviving them
        consumes evictable capacity just like an allocation).
        """
        prompt = tuple(int(t) for t in prompt)
        bids, hit = self._walk(prompt)
        new_blocks = -(-(len(prompt) - hit) // self.block_tokens)
        revive = sum(1 for b in bids if self.pool.refcount(b) == 0)
        return hit, new_blocks, revive

    def admit(self, slot: int, prompt) -> int:
        """Map the prompt's cached prefix into ``slot``; returns the hit
        length (``prefill_pos`` starts there — only the rest needs
        computing)."""
        if slot in self._slots:
            raise SimulationError(f"slot {slot} already occupied")
        prompt = tuple(int(t) for t in prompt)
        bids, hit = self._walk(prompt)
        for bid in bids:
            self.pool.retain(bid)
        self._slots[slot] = _PagedSlot(
            prompt=prompt, table=list(bids), ntokens=hit, prefill_pos=hit
        )
        self.pool.prefix_hit_tokens += hit
        self.pool.prompt_tokens += len(prompt)
        return hit

    # --- appends -------------------------------------------------------------

    def _drop(self, bid: int | None) -> None:
        """Forget a freed/evicted block's tensors on this rank."""
        if bid is None or bid not in self._store:
            return
        del self._store[bid]
        self.ctx.mem.free(
            self._stored.pop(bid) * self.bytes_per_token, "kvcache"
        )

    def _append(self, slot: int, tokens, parts, register: bool) -> None:
        """Append tokens (and optionally their tensors) to a slot.

        ``parts`` is a per-token list — ``parts[i]`` holds layer-indexed
        ``(k, v)`` pieces of shape ``[1, 1, kv_width]`` — or None when
        this rank does not store this slot's decode tensors.  The
        bookkeeping walk (COW, allocation, registration) runs
        identically on every rank regardless.
        """
        ctx = self.ctx
        st = self._slots[slot]
        pool = self.pool
        bs = self.block_tokens
        for i, tok in enumerate(tokens):
            fill = st.ntokens % bs
            if fill == 0 or not st.table:
                bid, evicted = pool.alloc()
                self._drop(evicted)
                st.table.append(bid)
            else:
                bid = st.table[-1]
                if not pool.writable(bid):
                    new_bid, evicted = pool.cow(bid)
                    self._drop(evicted)
                    if bid in self._store:
                        # The "copy" re-references the immutable source
                        # tensors but is charged like a real copy.
                        self._store[new_bid] = list(self._store[bid])
                        copied = self._stored[bid]
                        self._stored[new_bid] = copied
                        ctx.mem.alloc(
                            copied * self.bytes_per_token, "kvcache"
                        )
                    st.table[-1] = bid = new_bid
            pool.append(bid, tok)
            st.ntokens += 1
            if parts is not None:
                entry = self._store.get(bid)
                if entry is None:
                    self._store[bid] = list(parts[i])
                else:
                    self._store[bid] = _append_kv(ctx, self, entry, parts[i])
                self._stored[bid] = self._stored.get(bid, 0) + 1
                ctx.mem.alloc(self.bytes_per_token, "kvcache")
            if register and st.ntokens % bs == 0:
                # A freshly completed full prompt block: publish it for
                # live sharing (first registration wins).
                pool.register(st.prompt[:st.ntokens], bid)

    def _split_tokens(self, kv, ntokens: int) -> list:
        """Per-layer ``(k, v) [1, n, w]`` -> per-token list of per-layer
        ``(k, v) [1, 1, w]`` pieces."""
        ctx = self.ctx
        if ntokens == 1:
            return [[(k, v) for k, v in kv]]
        layer_pieces = [
            (
                ops.split(ctx, k, ntokens, axis=1, tag="kv_page"),
                ops.split(ctx, v, ntokens, axis=1, tag="kv_page"),
            )
            for k, v in kv
        ]
        return [
            [(ks[i], vs[i]) for ks, vs in layer_pieces]
            for i in range(ntokens)
        ]

    def append_prefill(self, slot: int, kv, ntokens: int) -> None:
        """Store one prefill chunk's KV (``kv`` per-layer ``(k, v)`` of
        shape ``[1, ntokens, kv_width]``) — on every rank, so the prompt
        blocks are band-agnostic and cross-band sharable.  ``kv=None``
        advances the bookkeeping alone (a cache that stores nothing)."""
        st = self._slots[slot]
        if st.prefill_pos != st.ntokens:
            raise SimulationError(f"slot {slot} already started decoding")
        if st.prefill_pos + ntokens > len(st.prompt):
            raise SimulationError(f"prefill chunk overruns slot {slot}")
        tokens = st.prompt[st.prefill_pos:st.prefill_pos + ntokens]
        parts = None if kv is None else self._split_tokens(kv, ntokens)
        self._append(slot, tokens, parts, register=True)
        st.prefill_pos += ntokens

    def append_decode(self, order: list[int | None], new_kv, counts,
                      tokens) -> None:
        """Append one decode step's KV across the frame.

        ``order`` is the *global* frame order; ``new_kv`` is per-layer
        ``(k, v)`` of shape ``[rows_local, t_max, kv_width]`` covering
        this rank's band rows; ``counts[slot]`` is how many of the
        ``t_max`` query tokens are real for that slot and
        ``tokens[slot]`` their ids.  Bookkeeping advances for every slot
        on every rank; tensors are stored band-locally (none, and
        ``new_kv`` is ignored, on a cache with no band).
        """
        ctx = self.ctx
        rows_local = len(self.band_slots)
        if rows_local:
            t_max = new_kv[0][0].shape[1]
            row_splits = [
                (
                    ops.split(ctx, k, rows_local, axis=0, tag="kv_append"),
                    ops.split(ctx, v, rows_local, axis=0, tag="kv_append"),
                )
                for k, v in new_kv
            ]
        for row, slot in enumerate(order):
            if slot is None or slot not in counts:
                continue
            a = counts[slot]
            parts = None
            if row in self.band_slots:
                local = row - self.band_slots.start
                row_kv = [(ks[local], vs[local]) for ks, vs in row_splits]
                parts = self._split_tokens(row_kv, t_max)[:a]
            self._append(slot, tokens[slot], parts, register=False)

    # --- release -------------------------------------------------------------

    def evict(self, slot: int) -> None:
        """Release a slot (completion or preemption).

        Full prompt blocks were registered at fill time and stay behind
        cached; a partial prompt *tail* is registered here when the slot
        never started decoding (mid-prefill preemption — the tail is
        still pure prompt).  Decode-contaminated blocks are freed.
        """
        st = self._slots.pop(slot)
        bs = self.block_tokens
        if (st.table and st.ntokens % bs
                and st.ntokens <= len(st.prompt)):
            tail = st.table[-1]
            if self.pool.writable(tail):
                self.pool.register(st.prompt[:st.ntokens], tail)
        for bid in st.table:
            if self.pool.release(bid):
                self._drop(bid)

    # --- capacity ------------------------------------------------------------

    def blocks_for_append(self, slot: int, t: int) -> int:
        """Blocks an append of ``t`` tokens to ``slot`` would claim
        (counting the copy-on-write block when the tail is shared)."""
        if t <= 0:
            return 0
        st = self._slots[slot]
        bs = self.block_tokens
        fill = st.ntokens % bs
        if fill == 0 or not st.table:
            return -(-t // bs)
        room = bs - fill
        rest = -(-max(0, t - room) // bs)
        if self.pool.writable(st.table[-1]):
            return rest
        return 1 + rest  # COW replaces the tail with a fresh block

    def fits(self, appends: dict[int, int]) -> bool:
        """Can the pool supply the blocks that appending ``appends[slot]``
        tokens to each slot would claim, from its free plus
        evictable-cached blocks?"""
        need = sum(self.blocks_for_append(slot, t)
                   for slot, t in appends.items())
        return need <= self.pool.available_blocks

    # --- decode-frame assembly -----------------------------------------------

    def assemble_slot(self, slot: int):
        """Per-layer ``(k, v) [1, ntokens, kv_width]`` for one slot — the
        unpadded past used to resume a chunked prefill (every rank holds
        prompt-block tensors).  None when the slot has no KV yet."""
        st = self._slots[slot]
        if not st.table:
            return None
        if len(st.table) == 1:
            return list(self._store[st.table[0]])
        ctx = self.ctx
        return [(ops.concat(ctx, ks, axis=1, tag="kv_frame"),
                 ops.concat(ctx, vs, axis=1, tag="kv_frame"))
                for ks, vs in self._parts(st.table)]

    def _parts(self, table: list[int]) -> list:
        """Per layer, the ``(k_parts, v_parts)`` of a block table's
        tensors in table order."""
        entries = [self._store[bid] for bid in table]
        return [([entry[layer][0] for entry in entries],
                 [entry[layer][1] for entry in entries])
                for layer in range(self.num_layers)]

    def assemble(self, order: list[int | None], s_max: int) -> list:
        """Padded past-KV frame for this rank's band rows (see
        :func:`_assemble_frame`): each slot's past is its blocks' tensors
        in table order."""
        slots = self._slots
        rows = [None if slot is None
                else (self._parts(slots[slot].table), slots[slot].ntokens)
                for slot in order]
        return _assemble_frame(self.ctx, self.num_layers, self.kv_width,
                               rows, s_max)

    # --- audit ---------------------------------------------------------------

    def stats(self) -> dict:
        """Pool occupancy/counters plus this rank's tensor-store view."""
        s = self.pool.stats()
        s["stored_blocks"] = len(self._store)
        s["stored_tokens"] = sum(self._stored.values())
        return s

    def check(self) -> None:
        """Assert pool conservation and store/bookkeeping agreement."""
        self.pool.check(self.tables())
        if set(self._store) - set(self.pool._blocks):
            raise SimulationError("tensors stored for an unmapped block")
        if set(self._store) != set(self._stored):
            raise SimulationError("store/memory-charge key mismatch")
        for bid, entry in self._store.items():
            n = entry[0][0].shape[1]
            if n != self._stored[bid]:
                raise SimulationError(
                    f"block {bid} charged for {self._stored[bid]} tokens "
                    f"but stores {n}"
                )
            if n > self.pool.ntokens(bid):
                raise SimulationError(
                    f"block {bid} stores more tokens than bookkeeping"
                )
        for slot, st in self._slots.items():
            if st.table:
                full = sum(self.pool.ntokens(b) for b in st.table[:-1])
                if full != (len(st.table) - 1) * self.block_tokens:
                    raise SimulationError(
                        f"slot {slot} has a partial non-tail block"
                    )
                if (full + self.pool.ntokens(st.table[-1])
                        != st.ntokens):
                    raise SimulationError(
                        f"slot {slot} length diverged from its table"
                    )
            elif st.ntokens:
                raise SimulationError(f"slot {slot} has tokens, no table")
