"""Tests for the transformer language model: serial, Megatron and Tesseract."""

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.grid.context import ParallelContext
from repro.models.configs import TransformerConfig
from repro.models.transformer import (
    MegatronTransformerLM,
    SerialTransformerLM,
    TesseractTransformerLM,
)
from repro.sim.engine import Engine
from repro.varray.varray import VArray

CFG = TransformerConfig(num_layers=1, hidden=16, nheads=4, seq_len=6, vocab=8)


class TestSerialLM:
    def test_forward_shape(self, rng):
        def prog(ctx):
            model = SerialTransformerLM(ctx, CFG)
            tokens = model.local_tokens(
                rng.integers(0, 8, size=(2, 6)).astype(np.int64))
            logits = model.forward(tokens)
            model.backward(VArray.from_numpy(
                np.zeros((2, 6, 8), dtype=np.float32)))
            return logits.shape

        assert Engine(nranks=1).run(prog) == [(2, 6, 8)]

    def test_requires_vocab(self):
        cfg = TransformerConfig(num_layers=1, hidden=8, nheads=2, seq_len=4)

        def prog(ctx):
            SerialTransformerLM(ctx, cfg)

        with pytest.raises(ValueError, match="vocab"):
            Engine(nranks=1).run(prog)

    def test_all_params_get_grads(self, rng):
        def prog(ctx):
            model = SerialTransformerLM(ctx, CFG)
            tokens = model.local_tokens(
                rng.integers(0, 8, size=(2, 6)).astype(np.int64))
            model.forward(tokens)
            model.backward(VArray.from_numpy(
                rng.normal(size=(2, 6, 8)).astype(np.float32)))
            return [n for n, p in model.parameters() if p.grad is None]

        assert Engine(nranks=1).run(prog)[0] == []


@pytest.mark.parametrize("q,d", [(2, 1), (2, 2)])
class TestTesseractLM:
    def test_matches_serial_logits(self, q, d, rng):
        tokens = rng.integers(0, 8, size=(8, 6)).astype(np.int64)

        def serial(ctx):
            model = SerialTransformerLM(ctx, CFG)
            return model.forward(model.local_tokens(tokens)).numpy()

        ref = Engine(nranks=1).run(serial)[0]

        def par(ctx):
            pc = ParallelContext.tesseract(ctx, q=q, d=d)
            model = TesseractTransformerLM(pc, CFG)
            logits = model.forward(model.local_tokens(tokens))
            return pc.block_row, logits.numpy()

        rows = 8 // (q * d)
        for h, logits in Engine(nranks=q * q * d).run(par):
            assert np.allclose(logits, ref[h * rows:(h + 1) * rows], atol=1e-3)

    def test_embedding_grads_identical_across_ranks(self, q, d, rng):
        tokens = rng.integers(0, 8, size=(8, 6)).astype(np.int64)
        dy = rng.normal(size=(8, 6, 8)).astype(np.float32)

        def par(ctx):
            pc = ParallelContext.tesseract(ctx, q=q, d=d)
            model = TesseractTransformerLM(pc, CFG)
            model.forward(model.local_tokens(tokens))
            rows = 8 // (q * d)
            h = pc.block_row
            model.backward(VArray.from_numpy(dy[h * rows:(h + 1) * rows]))
            return model.embed.table.grad.numpy()

        res = Engine(nranks=q * q * d).run(par)
        for g in res[1:]:
            assert np.allclose(g, res[0], atol=1e-5)

    def test_embedding_grads_match_serial(self, q, d, rng):
        tokens = rng.integers(0, 8, size=(8, 6)).astype(np.int64)
        dy = rng.normal(size=(8, 6, 8)).astype(np.float32)

        def serial(ctx):
            model = SerialTransformerLM(ctx, CFG)
            model.forward(model.local_tokens(tokens))
            model.backward(VArray.from_numpy(dy))
            return model.embed.table.grad.numpy()

        ref = Engine(nranks=1).run(serial)[0]

        def par(ctx):
            pc = ParallelContext.tesseract(ctx, q=q, d=d)
            model = TesseractTransformerLM(pc, CFG)
            model.forward(model.local_tokens(tokens))
            rows = 8 // (q * d)
            h = pc.block_row
            model.backward(VArray.from_numpy(dy[h * rows:(h + 1) * rows]))
            return model.embed.table.grad.numpy()

        for g in Engine(nranks=q * q * d).run(par):
            assert np.allclose(g, ref, atol=1e-3)


def _megatron_shard(name: str, g: np.ndarray, p: int, r: int) -> np.ndarray:
    """Rank ``r``'s shard of the serial gradient ``g`` of parameter ``name``:
    column shards for the first linear of a block and the head ([Q|K|V]
    column shards for the fused QKV), row shards for the second linear's
    weight, the whole tensor for everything replicated."""
    if name.endswith(("qkv.w", "qkv.b")):
        return np.concatenate([np.split(part, p, axis=-1)[r]
                               for part in np.split(g, 3, axis=-1)], axis=-1)
    if name.endswith(("fc1.w", "fc1.b", "head.fc.w", "head.fc.b")):
        return np.split(g, p, axis=-1)[r]
    if name.endswith(("proj.w", "fc2.w")):
        return np.split(g, p, axis=0)[r]
    return g


@pytest.mark.parametrize("tp", [2, 4])
def test_megatron_lm_backward_matches_serial(tp, rng):
    """dx and every parameter gradient, embedding and positions included."""
    tokens = rng.integers(0, 8, size=(4, 6)).astype(np.int64)
    dy = rng.normal(size=(4, 6, 8)).astype(np.float32)

    def run(model):
        model.forward(model.local_tokens(tokens))
        dx = model.backward(VArray.from_numpy(dy))
        return dx.numpy(), {n: p.grad.numpy() for n, p in model.parameters()}

    dx_ref, grads_ref = Engine(nranks=1).run(
        lambda ctx: run(SerialTransformerLM(ctx, CFG)))[0]

    def par(ctx):
        comm = Communicator(ctx, range(tp))
        return comm.rank, run(MegatronTransformerLM(comm, CFG))

    for r, (dx, grads) in Engine(nranks=tp).run(par):
        assert np.allclose(dx, dx_ref, atol=1e-3), f"dx rank {r}"
        assert grads.keys() == grads_ref.keys()
        for name, g in grads.items():
            expect = _megatron_shard(name, grads_ref[name], tp, r)
            assert np.allclose(g, expect, atol=1e-3), f"{name} rank {r}"
