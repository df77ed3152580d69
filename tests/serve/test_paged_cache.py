"""Property tests for the paged KV block pool.

The pool invariants under test (see :meth:`BlockPool.check`):

* refcounts equal the slot-table references and can never go negative —
  over-release raises instead of wrapping;
* no block is ever both free and mapped; free + live + cached always
  equals ``num_blocks``;
* a registered or shared block is immutable — appending copies first
  (COW), and the copy never mutates the original's tokens *or tensors*.

Unit tests pin each rule; the fuzz machine then drives a random
slot-traffic sequence (admit with prefix reuse, prompt/decode appends,
mid-prefill and mid-decode evictions, pool exhaustion) and audits the
pool after every operation.
"""

import random

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.serve.cache import BlockPool, PagedKVCache
from repro.sim.engine import Engine
from repro.varray.varray import VArray

BS = 4  #: block size used throughout


# --- BlockPool unit rules ----------------------------------------------------


def test_alloc_until_exhausted_then_release():
    pool = BlockPool(num_blocks=3, block_tokens=BS)
    bids = [pool.alloc()[0] for _ in range(3)]
    assert pool.free_blocks == 0
    with pytest.raises(SimulationError, match="exhausted"):
        pool.alloc()
    assert pool.release(bids[0]) is True  # private -> freed outright
    assert pool.free_blocks == 1
    pool.check({0: bids[1:]})


def test_release_below_zero_raises():
    pool = BlockPool(num_blocks=2, block_tokens=BS)
    bid, _ = pool.alloc()
    pool.append(bid, 0)
    pool.register((0,), bid)
    assert pool.release(bid) is False  # cached at refcount 0
    with pytest.raises(SimulationError, match="unreferenced"):
        pool.release(bid)  # refcount must never go negative
    # a fully freed private block leaves the map entirely
    other, _ = pool.alloc()
    assert pool.release(other) is True
    with pytest.raises(KeyError):
        pool.release(other)


def test_register_first_wins_and_double_register_raises():
    pool = BlockPool(num_blocks=4, block_tokens=BS)
    a, _ = pool.alloc()
    b, _ = pool.alloc()
    for t in range(BS):
        pool.append(a, t)
        pool.append(b, t)
    assert pool.register((0, 1, 2, 3), a) is True
    assert pool.register((0, 1, 2, 3), b) is False  # key taken, b private
    assert pool.lookup((0, 1, 2, 3)) == a
    with pytest.raises(SimulationError, match="twice"):
        pool.register((0, 1, 2, 3, 9), a)


def test_registered_block_survives_release_as_cached():
    pool = BlockPool(num_blocks=2, block_tokens=BS)
    bid, _ = pool.alloc()
    for t in range(BS):
        pool.append(bid, t)
    pool.register((0, 1, 2, 3), bid)
    assert pool.release(bid) is False  # stays cached, not freed
    assert pool.cached_blocks == 1 and pool.free_blocks == 1
    assert pool.lookup((0, 1, 2, 3)) == bid
    pool.retain(bid)  # revive
    assert pool.refcount(bid) == 1
    pool.check({0: [bid]})


def test_lru_eviction_reclaims_oldest_cached_block():
    pool = BlockPool(num_blocks=2, block_tokens=BS)
    keys = [(0, 1, 2, 3), (4, 5, 6, 7)]
    bids = []
    for key in keys:
        bid, _ = pool.alloc()
        for t in key:
            pool.append(bid, t)
        pool.register(key, bid)
        pool.release(bid)
        bids.append(bid)
    pool.touch(bids[0])  # make the *first* block the most recent
    got, evicted = pool.alloc()
    assert evicted == bids[1]  # LRU victim, not insertion order
    assert pool.lookup(keys[1]) is None
    assert pool.lookup(keys[0]) == bids[0]
    assert pool.evictions == 1
    pool.check({0: [got]})


def test_append_requires_private_writable_block():
    pool = BlockPool(num_blocks=4, block_tokens=2)
    bid, _ = pool.alloc()
    pool.append(bid, 0)
    pool.retain(bid)  # now shared
    with pytest.raises(SimulationError, match="without COW"):
        pool.append(bid, 1)
    pool.release(bid)
    pool.append(bid, 1)  # private again
    with pytest.raises(SimulationError, match="full"):
        pool.append(bid, 2)
    reg, _ = pool.alloc()
    pool.append(reg, 7)
    pool.register((7,), reg)
    with pytest.raises(SimulationError, match="without COW"):
        pool.append(reg, 8)  # registered => immutable, even at refcount 1


def test_cow_copies_tokens_and_never_mutates_the_source():
    pool = BlockPool(num_blocks=4, block_tokens=BS)
    src, _ = pool.alloc()
    pool.append(src, 1)
    pool.append(src, 2)
    pool.retain(src)  # a second chain shares it
    new, _ = pool.cow(src)
    assert new != src
    assert pool.refcount(src) == 1  # the forker's reference moved over
    assert pool.refcount(new) == 1
    pool.append(new, 3)
    assert pool._blocks[src].tokens == [1, 2]  # source untouched
    assert pool._blocks[new].tokens == [1, 2, 3]
    assert pool.cow_copies == 1


def test_cow_of_a_private_block_raises():
    pool = BlockPool(num_blocks=4, block_tokens=BS)
    bid, _ = pool.alloc()
    pool.append(bid, 1)
    with pytest.raises(SimulationError, match="private"):
        pool.cow(bid)


def test_check_catches_free_and_mapped_overlap():
    pool = BlockPool(num_blocks=2, block_tokens=BS)
    bid, _ = pool.alloc()
    pool._free[0] = bid  # corrupt: free AND mapped (counts still balance)
    with pytest.raises(SimulationError, match="free and mapped"):
        pool.check({0: [bid]})


def test_check_catches_refcount_table_mismatch():
    pool = BlockPool(num_blocks=2, block_tokens=BS)
    bid, _ = pool.alloc()
    with pytest.raises(SimulationError, match="refcount"):
        pool.check({0: [bid], 1: [bid]})  # two refs, refcount 1


def _occupancy(pool):
    return pool.live_blocks, pool.cached_blocks, pool.live_tokens


def test_occupancy_counters_follow_every_transition():
    pool = BlockPool(num_blocks=3, block_tokens=BS)
    assert _occupancy(pool) == (0, 0, 0)
    a, _ = pool.alloc()  # free -> live
    pool.append(a, 1)
    pool.append(a, 2)
    assert _occupancy(pool) == (1, 0, 2)
    pool.register((1, 2), a)
    pool.retain(a)  # a second sharer: still one live block
    assert _occupancy(pool) == (1, 0, 2)
    pool.release(a)
    assert _occupancy(pool) == (1, 0, 2)
    pool.release(a)  # live -> cached
    assert _occupancy(pool) == (0, 1, 0)
    pool.retain(a)  # cached -> live (a prefix hit revives it)
    assert _occupancy(pool) == (1, 0, 2)
    b, _ = pool.cow(a)  # private copy carries the tokens; a goes back to cached
    assert _occupancy(pool) == (1, 1, 2)
    pool.append(b, 3)
    assert _occupancy(pool) == (1, 1, 3)
    c, _ = pool.alloc()
    d, evicted = pool.alloc()  # no free block left: the cached one is evicted
    assert evicted == a and _occupancy(pool) == (3, 0, 3)
    assert pool.release(c) is True  # private: live -> free
    assert _occupancy(pool) == (2, 0, 3)
    assert pool.available_blocks == 1
    pool.check({0: [b], 1: [d]})
    assert (pool.peak_live_blocks, pool.peak_live_tokens) == (3, 3)


@pytest.mark.parametrize("drift", [
    {"live_tokens": 1},
    {"live_blocks": 1, "cached_blocks": -1},  # conservation still balances
    {"live_blocks": -1, "cached_blocks": 1},
])
def test_check_rederives_the_occupancy_counters(drift):
    pool = BlockPool(num_blocks=4, block_tokens=BS)
    live, _ = pool.alloc()
    pool.append(live, 1)
    cached, _ = pool.alloc()
    pool.append(cached, 2)
    pool.register((2,), cached)
    pool.release(cached)
    pool.check({0: [live]})
    for counter, delta in drift.items():
        setattr(pool, counter, getattr(pool, counter) + delta)
    with pytest.raises(SimulationError, match="occupancy counters diverged"):
        pool.check({0: [live]})


# --- fuzz machine ------------------------------------------------------------
#
# Random slot traffic mirroring PagedKVCache's bookkeeping walk: chains
# append their prompt first (registering full blocks for sharing, like
# prefill), then decode tokens (never registered); admission walks the
# prefix table exactly like PagedKVCache._walk; eviction registers a
# writable pure-prompt partial tail.  The pool is audited after every op.

ALPHA = 3  #: tiny token alphabet so prefixes collide constantly


def _walk(pool, prompt):
    bids, pos = [], 0
    while pos + BS <= len(prompt):
        bid = pool.lookup(prompt[:pos + BS])
        if bid is None:
            break
        bids.append(bid)
        pos += BS
    if pos < len(prompt):
        for t in range(min(len(prompt) - pos, BS - 1), 0, -1):
            bid = pool.lookup(prompt[:pos + t])
            if bid is not None:
                bids.append(bid)
                pos += t
                break
    return bids, pos


def _append_one(pool, chain, tok):
    fill = chain["n"] % BS
    if fill == 0 or not chain["table"]:
        bid, _ = pool.alloc()
        chain["table"].append(bid)
    else:
        bid = chain["table"][-1]
        if not pool.writable(bid):
            bid, _ = pool.cow(bid)
            chain["table"][-1] = bid
    pool.append(bid, tok)
    chain["hist"].append(tok)
    chain["n"] += 1
    if chain["n"] <= len(chain["prompt"]) and chain["n"] % BS == 0:
        pool.register(tuple(chain["hist"]), bid)


def _evict(pool, chain):
    n, table = chain["n"], chain["table"]
    if (table and n % BS and n <= len(chain["prompt"])
            and pool.writable(table[-1])):
        pool.register(tuple(chain["hist"]), table[-1])
    for bid in table:
        pool.release(bid)


@pytest.mark.parametrize("seed", range(10))
def test_pool_invariants_under_random_slot_traffic(seed):
    rng = random.Random(seed)
    pool = BlockPool(num_blocks=8, block_tokens=BS)
    chains: dict[int, dict] = {}
    next_id = 0
    for _ in range(250):
        choices = ["admit"] + (["append", "append", "evict"] if chains
                               else [])
        op = rng.choice(choices)
        try:
            if op == "admit":
                prompt = tuple(rng.randrange(ALPHA)
                               for _ in range(rng.randint(1, 11)))
                bids, pos = _walk(pool, prompt)
                for bid in bids:
                    pool.retain(bid)
                chains[next_id] = {
                    "prompt": prompt, "hist": list(prompt[:pos]),
                    "table": list(bids), "n": pos,
                }
                next_id += 1
            elif op == "append":
                chain = chains[rng.choice(list(chains))]
                if chain["n"] < len(chain["prompt"]):
                    tok = chain["prompt"][chain["n"]]  # prefill continues
                else:
                    tok = rng.randrange(ALPHA)  # decode token
                _append_one(pool, chain, tok)
            else:
                slot = rng.choice(list(chains))
                _evict(pool, chains.pop(slot))
        except SimulationError as exc:
            # Exhaustion is legal under this traffic — the runner answers
            # it with preemption; anything else is a real violation.
            assert "exhausted" in str(exc), exc
            if chains:
                slot = rng.choice(list(chains))
                _evict(pool, chains.pop(slot))
        pool.check({s: c["table"] for s, c in chains.items()})
        for chain in chains.values():
            for bid in chain["table"]:
                assert pool.refcount(bid) > 0
    for slot in list(chains):
        _evict(pool, chains.pop(slot))
    pool.check({})
    assert pool.live_blocks == 0


# --- PagedKVCache: COW immutability with real tensors ------------------------


def _kv(rng, n, width):
    return [(
        VArray.from_numpy(rng.normal(size=(1, n, width)).astype(np.float32)),
        VArray.from_numpy(rng.normal(size=(1, n, width)).astype(np.float32)),
    )]


def test_cow_never_mutates_a_shared_blocks_tensors():
    """Fork a registered partial tail via append; the original block's
    stored tensors and prefix-table entry must be bit-identical after."""

    def prog(ctx):
        rng = np.random.default_rng(7)
        width = 4
        cache = PagedKVCache(ctx, 1, 2, range(2), width,
                             budget_tokens=10 * BS, block_tokens=BS)
        prompt = (1, 2, 0, 2, 1, 0)
        # Slot 0: prefill 3 of 6, then a mid-prefill eviction registers
        # the 3-token partial tail in the prefix table.
        cache.admit(0, prompt)
        cache.append_prefill(0, _kv(rng, 3, width), 3)
        cache.evict(0)
        src = cache.pool.lookup(prompt[:3])
        assert src is not None
        k0 = cache._store[src].data[0][0].copy()
        v0 = cache._store[src].data[0][1].copy()
        # Slot 1: same prompt hits the cached tail; resuming prefill must
        # fork it (COW), leaving the original untouched and re-mappable.
        assert cache.admit(1, prompt) == 3
        assert not cache.pool.writable(src)
        cache.append_prefill(1, _kv(rng, 3, width), 3)
        assert cache.pool.cow_copies == 1
        forked = cache.tables()[1][0]
        assert forked != src
        assert np.array_equal(cache._store[src].data[0][0], k0)
        assert np.array_equal(cache._store[src].data[0][1], v0)
        assert cache.pool.lookup(prompt[:3]) == src
        # The fork shares the source's first 3 token-tensors bitwise.
        assert np.array_equal(
            cache._store[forked].data[0][0][:, :3], k0
        )
        cache.check()
        return True

    assert Engine(nranks=1, seed=0).run(prog) == [True]


def test_admit_guards():
    def prog(ctx):
        cache = PagedKVCache(ctx, 1, 2, range(2), 4,
                             budget_tokens=4 * BS, block_tokens=BS)
        cache.admit(0, (1, 2, 3))
        try:
            cache.admit(0, (4, 5))
        except SimulationError as exc:
            return str(exc)
        return None

    (msg,) = Engine(nranks=1, seed=0).run(prog)
    assert msg is not None and "occupied" in msg


def test_budget_too_small_for_two_blocks_raises():
    def prog(ctx):
        try:
            PagedKVCache(ctx, 1, 1, range(1), 4,
                         budget_tokens=BS, block_tokens=BS)
        except SimulationError as exc:
            return str(exc)
        return None

    (msg,) = Engine(nranks=1, seed=0).run(prog)
    assert msg is not None and "fewer than two" in msg
