"""Bitwise equivalence of the incremental decode path vs the full forward.

For every parallel mode, running ``prefill(prompt)`` followed by T
single-token ``decode_step`` calls must produce logits **bit-identical**
(``np.array_equal``, not ``allclose``) to one full-sequence causal forward
over the same tokens.  This only holds under :func:`ops.exact_kernels`,
whose strict left-fold matmul/softmax reductions are stable under row/
column slicing and trailing exact-zero (masked) terms; BLAS picks
shape-dependent microkernels and numpy's pairwise sums pick length-
dependent trees, so the default kernels are only ``allclose``-equal.
"""

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.errors import SimulationError
from repro.grid.context import ParallelContext
from repro.models.configs import TransformerConfig
from repro.models.transformer import (
    MegatronTransformerLM,
    SerialTransformerLM,
    TesseractTransformerLM,
)
from repro.serve.cache import PagedKVCache
from repro.serve.model import build_lm, local_kv_width
from repro.sim.engine import Engine
from repro.varray import ops
from repro.varray.varray import VArray

B, S, LP = 4, 12, 5
CFG = TransformerConfig(
    num_layers=2, hidden=16, nheads=4, seq_len=S, vocab=8, causal=True
)
SEED = 123

# mode -> (nranks, q, d); serial/megatron have no grid.
MODES = {
    "serial": (1, None, None),
    "megatron": (4, None, None),
    "optimus": (4, 2, 1),
    "tesseract": (8, 2, 2),
}


def _build(ctx, mode):
    q, d = MODES[mode][1:]
    if mode == "serial":
        return SerialTransformerLM(ctx, CFG)
    if mode == "megatron":
        return MegatronTransformerLM(Communicator(ctx, range(4)), CFG)
    pc = ParallelContext.tesseract(ctx, q=q, d=d)
    return TesseractTransformerLM(pc, CFG)


def _full(mode, tokens):
    def prog(ctx):
        model = _build(ctx, mode)
        model.eval()
        with ops.exact_kernels():
            logits = model.forward(model.local_tokens(tokens))
        return logits.numpy()

    return Engine(nranks=MODES[mode][0], seed=SEED).run(prog)


def _incremental(mode, tokens):
    def prog(ctx):
        model = _build(ctx, mode)
        model.eval()
        with ops.exact_kernels():
            prompt = VArray.from_numpy(tokens[:, :LP].astype(np.int64))
            logits, kv = model.prefill(prompt)
            chunks = [logits.numpy()]
            for t in range(LP, S):
                tok = VArray.from_numpy(tokens[:, t : t + 1].astype(np.int64))
                pos = VArray.from_numpy(np.full((B, 1), t, dtype=np.int64))
                step, new = model.decode_step(tok, pos, kv)
                kv = [
                    (
                        ops.concat(ctx, [k, nk], axis=1, tag="kv_append"),
                        ops.concat(ctx, [v, nv], axis=1, tag="kv_append"),
                    )
                    for (k, v), (nk, nv) in zip(kv, new)
                ]
                chunks.append(step.numpy())
        return np.concatenate(chunks, axis=1)

    return Engine(nranks=MODES[mode][0], seed=SEED).run(prog)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_decode_matches_full_forward_bitwise(mode, rng):
    tokens = rng.integers(0, CFG.vocab, size=(B, S)).astype(np.int64)
    full = _full(mode, tokens)
    inc = _incremental(mode, tokens)
    assert len(full) == len(inc) == MODES[mode][0]
    for rank, (a, b) in enumerate(zip(full, inc)):
        assert a.shape == b.shape, f"rank {rank}: {a.shape} vs {b.shape}"
        assert np.array_equal(a, b), (
            f"{mode} rank {rank}: max abs diff "
            f"{np.max(np.abs(a - b))}, mismatches "
            f"{np.sum(a != b)}/{a.size}"
        )


def test_default_kernels_are_only_close(rng):
    """Sanity: without exact kernels the paths agree only approximately —
    documents *why* exact_kernels exists."""
    tokens = rng.integers(0, CFG.vocab, size=(B, S)).astype(np.int64)

    def full(ctx):
        model = SerialTransformerLM(ctx, CFG)
        model.eval()
        return model.forward(model.local_tokens(tokens)).numpy()

    def inc(ctx):
        model = SerialTransformerLM(ctx, CFG)
        model.eval()
        logits, kv = model.prefill(
            VArray.from_numpy(tokens[:, :LP].astype(np.int64)))
        chunks = [logits.numpy()]
        for t in range(LP, S):
            tok = VArray.from_numpy(tokens[:, t : t + 1].astype(np.int64))
            pos = VArray.from_numpy(np.full((B, 1), t, dtype=np.int64))
            step, new = model.decode_step(tok, pos, kv)
            kv = [
                (
                    ops.concat(ctx, [k, nk], axis=1, tag="kv_append"),
                    ops.concat(ctx, [v, nv], axis=1, tag="kv_append"),
                )
                for (k, v), (nk, nv) in zip(kv, new)
            ]
            chunks.append(step.numpy())
        return np.concatenate(chunks, axis=1)

    a = Engine(nranks=1, seed=SEED).run(full)[0]
    b = Engine(nranks=1, seed=SEED).run(inc)[0]
    assert np.allclose(a, b, atol=1e-4)


def test_prefill_requires_eval_mode():
    def prog(ctx):
        model = SerialTransformerLM(ctx, CFG)
        model.prefill(VArray.from_numpy(np.zeros((1, 2), dtype=np.int64)))

    with pytest.raises(SimulationError, match="eval"):
        Engine(nranks=1, seed=SEED).run(prog)


# --- paged block cache arm ---------------------------------------------------
#
# Same bitwise contract, but the KV lives in a PagedKVCache: chunked
# prefill resumes from assembled block tables, prompts share prefix
# blocks across requests (including a COW fork of a registered partial
# tail), decode frames are multi-token (the spec-verify shape, with
# clamped/masked padding queries), and one slot is preempted mid-decode
# and restored from the shared prefix blocks.  Every logit must still be
# np.array_equal to one full causal forward.

BS = 4  #: block size in tokens
LPG = 6  #: prompt length: one full block + a two-token tail
PAGED_BUDGET = 20 * BS


def _paged_world(mode):
    nranks, q, d = MODES[mode]
    bands = q * d if q is not None else 1
    world = nranks if mode == "megatron" else None
    return nranks, q, d, bands, world


def _full_paged(mode, tokens):
    nranks, q, d, _, world = _paged_world(mode)

    def prog(ctx):
        model = build_lm(ctx, mode, CFG, q=q, d=d, world=world)
        model.eval()
        with ops.exact_kernels():
            return model.forward(model.local_tokens(tokens)).numpy()

    return Engine(nranks=nranks, seed=SEED).run(prog)


def _paged_incremental(mode, tokens):
    """Drive PagedKVCache exactly the way the paged runner does.

    Returns per-rank ``(rows_local, S, vocab_local)`` logits covering
    every position: prefill chunks fill ``[0, LPG)``, decode frames fill
    ``[LPG, S)``.
    """
    nranks, q, d, bands, world = _paged_world(mode)

    def prog(ctx):
        model = build_lm(ctx, mode, CFG, q=q, d=d, world=world)
        model.eval()
        rows = B
        rows_local = rows // bands
        band = model.pc.block_row if bands > 1 else 0
        band_slots = range(band * rows_local, (band + 1) * rows_local)
        kv_width = local_kv_width(
            mode, CFG, q=q if bands > 1 else None, world=world
        )
        cache = PagedKVCache(
            ctx, CFG.num_layers, rows, band_slots, kv_width,
            PAGED_BUDGET, BS,
        )
        prompts = {
            b: tuple(int(t) for t in tokens[b, :LPG]) for b in range(B)
        }
        cols: dict[tuple[int, int], np.ndarray] = {}
        # All prompts are identical, so a prefill position's logits are
        # request-independent — exactly why the prefix cache may skip
        # recomputing them for later admissions.  Prefill is tiled
        # across bands, so every rank sees every chunk.
        pref: dict[int, np.ndarray] = {}

        def prefill_chunk(slot, take):
            pos = cache.prefill_pos(slot)
            toks = np.tile(
                np.asarray(prompts[slot][pos:pos + take],
                           dtype=np.int64)[None, :],
                (bands, 1),
            )
            poss = np.tile(
                np.arange(pos, pos + take, dtype=np.int64)[None, :],
                (bands, 1),
            )
            past = cache.assemble_slot(slot)
            if past is None:
                past = [None] * CFG.num_layers
            logits, kv = model.decode_step(
                VArray.from_numpy(toks), VArray.from_numpy(poss), past
            )
            cache.append_prefill(slot, kv, take)
            arr = logits.numpy()  # local (1, take, vocab_local)
            for j in range(take):
                pref[pos + j] = arr[0, j]
            cache.check()

        def decode_frame(counts, nxt):
            order = [s if s in counts else None for s in range(rows)]
            lens = {s: cache.length(s) for s in counts}
            s_max = max(lens.values())
            t_max = max(counts.values())
            toks = np.zeros((rows, t_max), dtype=np.int64)
            poss = np.zeros((rows, t_max), dtype=np.int64)
            mask = np.zeros(
                (rows, 1, t_max, s_max + t_max), dtype=np.float32
            )
            appended = {}
            for row, slot in enumerate(order):
                if slot is None:
                    mask[row, :, :, :s_max] = -np.inf
                    continue
                a = counts[slot]
                for j in range(t_max):
                    jj = min(j, a - 1)
                    toks[row, j] = tokens[slot, nxt[slot] + jj]
                    poss[row, j] = nxt[slot] + jj
                mask[row, :, :, lens[slot]:s_max] = -np.inf
                mask[row, :, :, s_max + a:] = -np.inf
                appended[slot] = tuple(
                    int(t)
                    for t in tokens[slot, nxt[slot]:nxt[slot] + a]
                )
            lo, hi = band * rows_local, (band + 1) * rows_local
            past = cache.assemble(order[lo:hi], s_max)
            logits, new_kv = model.decode_step(
                VArray.from_numpy(toks),
                VArray.from_numpy(poss),
                past,
                VArray.from_numpy(mask[lo:hi]),
            )
            cache.append_decode(order, new_kv, counts, appended)
            arr = logits.numpy()  # local (rows_local, t_max, vocab_local)
            res = {}
            for r, slot in enumerate(order[lo:hi]):
                if slot is None:
                    continue
                for j in range(counts[slot]):
                    res[(r, nxt[slot] + j)] = arr[r, j]
            cache.check()
            return res

        with ops.exact_kernels():
            # Slot 0: prefill half the prompt, evict mid-prefill (this
            # registers the 3-token partial tail in the prefix table),
            # re-admit against that tail and resume — the resume append
            # must COW the registered block.
            cache.admit(0, prompts[0])
            prefill_chunk(0, 3)
            cache.evict(0)
            assert cache.admit(0, prompts[0]) == 3
            prefill_chunk(0, 3)
            assert cache.pool.cow_copies >= 1, "COW path not exercised"
            # Slots 1-3 share slot 0's first (now registered) full block.
            for b in (1, 2, 3):
                assert cache.admit(b, prompts[b]) == BS
                prefill_chunk(b, LPG - BS)

            nxt = {b: LPG for b in range(B)}
            # one single-token frame, then a mixed multi-token frame
            # (the spec-verify shape)
            for counts in ({b: 1 for b in range(B)},
                           {0: 2, 1: 1, 2: 2, 3: 3}):
                cols.update(decode_frame(counts, nxt))
                for b, a in counts.items():
                    nxt[b] += a
            # Preempt slot 2 mid-decode and restore it from the shared
            # prefix blocks; the multi-token catch-up frame must replay
            # the first-pass logits bit-for-bit.
            cache.evict(2)
            assert cache.admit(2, prompts[2]) == BS
            prefill_chunk(2, LPG - BS)
            nxt2 = dict(nxt)
            nxt2[2] = LPG
            replay = decode_frame({2: nxt[2] - LPG}, nxt2)
            for key, val in replay.items():
                assert np.array_equal(val, cols[key]), (
                    f"restored slot replayed different logits at {key}"
                )
            # drain everyone with varied multi-token counts
            fidx = 0
            while any(nxt[b] < S for b in range(B)):
                counts = {
                    b: min(1 + (b + fidx) % 3, S - nxt[b])
                    for b in range(B) if nxt[b] < S
                }
                cols.update(decode_frame(counts, nxt))
                for b, a in counts.items():
                    nxt[b] += a
                fidx += 1

        width = next(iter(cols.values())).shape[0]
        out = np.full((rows_local, S, width), np.nan,
                      dtype=next(iter(cols.values())).dtype)
        for r in range(rows_local):
            for p in range(LPG):
                out[r, p] = pref[p]
        for (r, p), v in cols.items():
            out[r, p] = v
        assert not np.isnan(out).any(), "a position was never decoded"
        return out

    return Engine(nranks=nranks, seed=SEED).run(prog)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_paged_decode_matches_full_forward_bitwise(mode, rng):
    tokens = rng.integers(0, CFG.vocab, size=(B, S)).astype(np.int64)
    tokens[:, :LPG] = tokens[0, :LPG]  # shared prefix across all requests
    full = _full_paged(mode, tokens)
    inc = _paged_incremental(mode, tokens)
    assert len(full) == len(inc) == MODES[mode][0]
    for rank, (a, b) in enumerate(zip(full, inc)):
        assert a.shape == b.shape, f"rank {rank}: {a.shape} vs {b.shape}"
        assert np.array_equal(a, b), (
            f"{mode} rank {rank}: max abs diff "
            f"{np.max(np.abs(a - b))}, mismatches "
            f"{np.sum(a != b)}/{a.size}"
        )
