"""Transformer encoder language model, serial and Tesseract-sharded.

The LM is: token embedding + learned positions -> ``num_layers`` pre-LN
transformer layers -> final LayerNorm -> vocabulary head.  As with the ViT
(:mod:`repro.models.vit`), the serial and sharded variants share all
logical weights.

Sharding note: the paper parallelizes the transformer *layers* (its
evaluation measures layer stacks); embeddings are outside its scope.  The
Tesseract variant therefore computes the embedding replicated on every
rank and hands each rank its A-layout block of the embedded activations
("embedding bridge").  The bridge is exact; its cost is an all-gather of
the activation gradient in the backward pass, charged like any other
collective.
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import Communicator
from repro.errors import SimulationError
from repro.grid.context import ParallelContext
from repro.models.configs import TransformerConfig
from repro.nn.embedding import Embedding
from repro.nn.module import Module
from repro.nn.normalization import LayerNorm
from repro.parallel.common import gather_a_layout
from repro.parallel.megatron.layers import (
    MegatronClassifierHead,
    MegatronTransformerLayer,
)
from repro.parallel.serial import SerialClassifierHead, SerialTransformerLayer
from repro.parallel.tesseract.layers import (
    TesseractClassifierHead,
    TesseractLayerNorm,
    TesseractTransformerLayer,
    local_block_a,
)
from repro.sim.engine import RankContext
from repro.util.mathutil import check_divides
from repro.varray import ops, vinit
from repro.varray.varray import VArray

__all__ = [
    "SerialTransformerLM",
    "MegatronTransformerLM",
    "TesseractTransformerLM",
]

_TAGS = ("lm",)


def _pos_global(ctx: RankContext, seq_len: int, hidden: int) -> VArray:
    if ctx.symbolic:
        return VArray.symbolic((seq_len, hidden))
    return VArray.from_numpy(
        vinit.normal(ctx.rng(*_TAGS, "pos"), (seq_len, hidden), std=0.02)
    )


def _embed_positions(model, tokens: VArray, positions: VArray) -> VArray:
    """Token embedding + gathered position rows (incremental variant).

    Unlike the full forward — which broadcast-adds the whole ``[seq_len,
    h]`` position table and therefore requires ``s == seq_len`` — this
    gathers exactly the rows named by ``positions`` (``[s]`` for prefill,
    ``[B, 1]`` for decode), so any prefix/step length works.  Row gathers
    and elementwise adds are position-stable, so the result matches the
    full forward bit-for-bit on the shared positions.
    """
    ctx = model.ctx
    x = model.embed.forward(tokens)
    p = ops.take_rows(ctx, model.pos.value, positions, tag="lm_pos")
    return ops.add(ctx, x, p, tag="lm_pos")


def _cached_pass(
    model,
    api: str,
    tokens: VArray,
    positions: VArray | None,
    past_kv: list,
    extra_mask: VArray | None = None,
    pc: ParallelContext | None = None,
) -> tuple[VArray, list]:
    """The pass behind every LM's ``prefill`` (``positions`` None: ``0 ..
    s-1``) and ``decode_step``; ``pc`` keeps this rank's A-layout block of
    the embedded batch (the Tesseract bridge).

    It goes through :meth:`RankContext.replay`, keyed by the model, the
    entry point and every operand's signature: symbolic weights carry no
    data, so prices, stashes and the shape-only result follow from those.
    """
    if model.training:
        raise SimulationError(
            f"{type(model).__name__}.{api} requires eval() mode — the cached "
            f"decode path never runs backward"
        )

    def run() -> tuple[VArray, list]:
        pos = positions
        if pos is None:
            pos = VArray.from_numpy(
                np.arange(tokens.shape[1], dtype=np.int64))
        x = _embed_positions(model, tokens, pos)
        if pc is not None:
            x = _slice_a_layout(pc, x)
        new_kv: list = []
        for block, pkv in zip(model.blocks, past_kv):
            x, layer_kv = block.forward_cached(x, pkv, extra_mask)
            new_kv.append(layer_kv)
        return model.head.forward(model.final_ln.forward(x)), new_kv

    key = (
        model, api, tokens.signature(),
        None if positions is None else positions.signature(),
        tuple([None if pkv is None
               else (pkv[0].signature(), pkv[1].signature())
               for pkv in past_kv]),
        None if extra_mask is None else extra_mask.signature(),
    )
    return model.ctx.replay(key, run)


class SerialTransformerLM(Module):
    """Single-rank LM; ``forward(tokens [b, s]) -> logits [b, s, vocab]``."""

    def __init__(self, ctx: RankContext, cfg: TransformerConfig):
        super().__init__(ctx)
        if cfg.vocab <= 0:
            raise ValueError("SerialTransformerLM needs cfg.vocab > 0")
        self.cfg = cfg
        self.embed = self.add_module(
            "embed", Embedding(ctx, cfg.vocab, cfg.hidden, init_tags=(*_TAGS, "tok"))
        )
        self.pos = self.add_param("pos", _pos_global(ctx, cfg.seq_len, cfg.hidden))
        self.blocks = [
            self.add_module(
                f"block{idx}",
                SerialTransformerLayer(
                    ctx, cfg.hidden, cfg.nheads, cfg.mlp_ratio,
                    init_tags=(*_TAGS, "layer", idx),
                    causal=cfg.causal,
                ),
            )
            for idx in range(cfg.num_layers)
        ]
        self.final_ln = self.add_module("final_ln", LayerNorm(ctx, cfg.hidden))
        self.head = self.add_module(
            "head",
            SerialClassifierHead(ctx, cfg.hidden, cfg.vocab,
                                 init_tags=(*_TAGS, "head")),
        )

    def local_tokens(self, tokens: np.ndarray) -> VArray:
        return VArray.from_numpy(tokens.astype(np.int64))

    def forward(self, tokens: VArray) -> VArray:
        ctx = self.ctx
        x = self.embed.forward(tokens)
        x = ops.add(ctx, x, self.pos.value, tag="lm_pos")
        for block in self.blocks:
            x = block.forward(x)
        x = self.final_ln.forward(x)
        return self.head.forward(x)

    def prefill(self, tokens: VArray) -> tuple[VArray, list]:
        """Run the prompt ``[B, s]`` through the causal stack, returning
        ``(logits [B, s, vocab], kv)`` where ``kv[i]`` is layer ``i``'s
        ``(k, v)`` tensors ``[B, s, hidden]`` for the caller's cache."""
        return _cached_pass(self, "prefill", tokens, None,
                            [None] * len(self.blocks))

    def decode_step(
        self,
        tokens: VArray,
        positions: VArray,
        past_kv: list,
        extra_mask: VArray | None = None,
    ) -> tuple[VArray, list]:
        """One incremental decode step.

        ``tokens [B, 1]`` are the newest token ids, ``positions [B, 1]``
        their absolute positions, ``past_kv`` the per-layer ``(k, v)``
        history.  Returns ``(logits [B, 1, vocab], new_kv)`` with
        ``new_kv[i]`` holding only this step's keys/values.
        """
        return _cached_pass(self, "decode_step", tokens, positions, past_kv,
                            extra_mask)

    def backward(self, dlogits: VArray) -> VArray:
        ctx = self.ctx
        dx = self.head.backward(dlogits)
        dx = self.final_ln.backward(dx)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        dpos = ops.reduce_sum(ctx, dx, axis=0, keepdims=False, tag="lm_dpos")
        self.pos.accumulate(dpos)
        return self.embed.backward(dx)


class MegatronTransformerLM(Module):
    """Megatron-sharded LM: replicated embedding/positions, tensor-parallel
    layers, replicated final LayerNorm, vocab-parallel head that all-gathers
    to full logits on every rank."""

    def __init__(self, comm: Communicator, cfg: TransformerConfig):
        super().__init__(comm.ctx)
        if cfg.vocab <= 0:
            raise ValueError("MegatronTransformerLM needs cfg.vocab > 0")
        check_divides(comm.size, cfg.vocab, "vocab vs group size")
        self.comm = comm
        self.cfg = cfg
        ctx = comm.ctx
        self.embed = self.add_module(
            "embed", Embedding(ctx, cfg.vocab, cfg.hidden, init_tags=(*_TAGS, "tok"))
        )
        self.pos = self.add_param("pos", _pos_global(ctx, cfg.seq_len, cfg.hidden))
        self.blocks = [
            self.add_module(
                f"block{idx}",
                MegatronTransformerLayer(
                    comm, cfg.hidden, cfg.nheads, cfg.mlp_ratio,
                    init_tags=(*_TAGS, "layer", idx),
                    causal=cfg.causal,
                ),
            )
            for idx in range(cfg.num_layers)
        ]
        self.final_ln = self.add_module("final_ln", LayerNorm(ctx, cfg.hidden))
        self.head = self.add_module(
            "head",
            MegatronClassifierHead(comm, cfg.hidden, cfg.vocab,
                                   init_tags=(*_TAGS, "head")),
        )

    def local_tokens(self, tokens: np.ndarray) -> VArray:
        """Activations are replicated: every rank takes all tokens."""
        return VArray.from_numpy(tokens.astype(np.int64))

    def forward(self, tokens: VArray) -> VArray:
        ctx = self.ctx
        x = self.embed.forward(tokens)
        x = ops.add(ctx, x, self.pos.value, tag="lm_pos")
        for block in self.blocks:
            x = block.forward(x)
        x = self.final_ln.forward(x)
        return self.head.forward(x)

    def prefill(self, tokens: VArray) -> tuple[VArray, list]:
        """See :meth:`SerialTransformerLM.prefill`; KV blocks here are this
        rank's head slice ``[B, s, hidden / group]``."""
        return _cached_pass(self, "prefill", tokens, None,
                            [None] * len(self.blocks))

    def decode_step(
        self,
        tokens: VArray,
        positions: VArray,
        past_kv: list,
        extra_mask: VArray | None = None,
    ) -> tuple[VArray, list]:
        """See :meth:`SerialTransformerLM.decode_step`."""
        return _cached_pass(self, "decode_step", tokens, positions, past_kv,
                            extra_mask)


class TesseractTransformerLM(Module):
    """Tesseract-sharded LM; layers are sharded, the embedding bridge is
    replicated (see module docstring)."""

    def __init__(
        self,
        pc: ParallelContext,
        cfg: TransformerConfig,
        layer_cls: type = TesseractTransformerLayer,
    ):
        super().__init__(pc.ctx)
        if cfg.vocab <= 0:
            raise ValueError("TesseractTransformerLM needs cfg.vocab > 0")
        check_divides(pc.q, cfg.vocab, "vocab vs q")
        self.pc = pc
        self.cfg = cfg
        self.embed = self.add_module(
            "embed",
            Embedding(pc.ctx, cfg.vocab, cfg.hidden, init_tags=(*_TAGS, "tok")),
        )
        self.pos = self.add_param(
            "pos", _pos_global(pc.ctx, cfg.seq_len, cfg.hidden)
        )
        self.blocks = [
            self.add_module(
                f"block{idx}",
                layer_cls(
                    pc, cfg.hidden, cfg.nheads, cfg.mlp_ratio,
                    init_tags=(*_TAGS, "layer", idx),
                    causal=cfg.causal,
                ),
            )
            for idx in range(cfg.num_layers)
        ]
        self.final_ln = self.add_module(
            "final_ln", TesseractLayerNorm(pc, cfg.hidden)
        )
        self.head = self.add_module(
            "head",
            TesseractClassifierHead(pc, cfg.hidden, cfg.vocab,
                                    init_tags=(*_TAGS, "head")),
        )

    def local_tokens(self, tokens: np.ndarray) -> VArray:
        """The embedding bridge is replicated: every rank takes all tokens."""
        return VArray.from_numpy(tokens.astype(np.int64))

    def local_labels(self, labels: np.ndarray) -> VArray:
        """This rank's batch band of the [b, s] label matrix."""
        pc = self.pc
        rows = check_divides(pc.d * pc.q, labels.shape[0], "batch size")
        h = pc.block_row
        return VArray.from_numpy(
            np.ascontiguousarray(labels[h * rows : (h + 1) * rows]).astype(np.int64)
        )

    def forward(self, tokens: VArray) -> VArray:
        ctx, pc = self.ctx, self.pc
        x_global = self.embed.forward(tokens)
        x_global = ops.add(ctx, x_global, self.pos.value, tag="lm_pos")
        # Bridge: keep this rank's A-layout block of the embedded batch.
        x = _slice_a_layout(pc, x_global)
        for block in self.blocks:
            x = block.forward(x)
        x = self.final_ln.forward(x)
        return self.head.forward(x)

    def prefill(self, tokens: VArray) -> tuple[VArray, list]:
        """Causal prefill on this rank's A-layout block.

        ``tokens`` is the *global* ``[B, s]`` prompt batch (the embedding
        bridge is replicated); the returned logits and KV blocks cover this
        rank's batch band / hidden slice: logits ``[B/(dq), s, vocab]``, KV
        ``[B/(dq), s, hidden/q]`` per layer.
        """
        return _cached_pass(self, "prefill", tokens, None,
                            [None] * len(self.blocks), pc=self.pc)

    def decode_step(
        self,
        tokens: VArray,
        positions: VArray,
        past_kv: list,
        extra_mask: VArray | None = None,
    ) -> tuple[VArray, list]:
        """One decode step; ``tokens``/``positions`` are global ``[B, 1]``,
        the returned logits/KV are this rank's blocks (see :meth:`prefill`).
        """
        return _cached_pass(self, "decode_step", tokens, positions, past_kv,
                            extra_mask, pc=self.pc)

    def backward(self, dlogits: VArray) -> VArray:
        ctx, pc = self.ctx, self.pc
        dx = self.head.backward(dlogits)
        dx = self.final_ln.backward(dx)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        # Bridge backward: reassemble the global activation gradient so the
        # replicated embedding computes identical gradients on every rank.
        dx_global = gather_a_layout(pc, dx, tag="lm_bridge")
        dpos = ops.reduce_sum(ctx, dx_global, axis=0, keepdims=False, tag="lm_dpos")
        self.pos.accumulate(dpos)
        return self.embed.backward(dx_global)


def _slice_a_layout(pc: ParallelContext, x: VArray) -> VArray:
    """This rank's A-layout block of a full activation tensor (device side)."""
    ctx = pc.ctx
    bands = ops.split(ctx, x, pc.d * pc.q, axis=0, tag="a_slice")
    band = bands[pc.block_row]
    cols = ops.split(ctx, band, pc.q, axis=-1, tag="a_slice")
    return cols[pc.j]
