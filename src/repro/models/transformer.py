"""Transformer encoder language model, one class for every scheme.

The LM is: token embedding + learned positions -> ``num_layers`` pre-LN
transformer layers -> final LayerNorm -> vocabulary head.  It is built over
the group the caller passes, whose layout (:mod:`repro.parallel.layers`)
shards the layers; every layout shares all logical weights, as with the
ViT (:mod:`repro.models.vit`).

Sharding note: the paper parallelizes the transformer *layers* (its
evaluation measures layer stacks); embeddings are outside its scope.  Every
rank therefore computes the embedding replicated and keeps its layout's
block of the embedded activations ("embedding bridge": the A-layout block
on the Tesseract grid, everything where activations are replicated).  The
bridge is exact; on the grid its cost is an all-gather of the activation
gradient in the backward pass, charged like any other collective.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.models.configs import TransformerConfig
from repro.nn.embedding import Embedding
from repro.nn.module import Module
from repro.parallel.layers import ClassifierHead, TransformerLayer, layout_of
from repro.sim.engine import RankContext
from repro.util.mathutil import check_divides
from repro.varray import ops, vinit
from repro.varray.varray import VArray

__all__ = ["TransformerLM"]

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
) -> tuple[VArray, list]:
    """The pass behind ``prefill`` (``positions`` None: ``0 .. s-1``) and
    ``decode_step``, on this rank's block of the embedded batch.

    It goes through :meth:`RankContext.replay`, keyed by the model's
    structure (``_pass_owner``), the entry point and every operand's
    signature: symbolic weights carry no data, so prices, stashes and the
    shape-only result follow from those.
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
        x = model.layout.scatter(_embed_positions(model, tokens, pos))
        new_kv: list = []
        for block, pkv in zip(model.blocks, past_kv):
            x, layer_kv = block.forward_cached(x, pkv, extra_mask)
            new_kv.append(layer_kv)
        return model.head.forward(model.final_ln.forward(x)), new_kv

    key = (
        model._pass_owner, api, tokens.signature(),
        None if positions is None else positions.signature(),
        tuple([None if pkv is None
               else (pkv[0].signature(), pkv[1].signature())
               for pkv in past_kv]),
        None if extra_mask is None else extra_mask.signature(),
    )
    return model.ctx.replay(key, run, model._modules)


class TransformerLM(Module):
    """``forward(tokens [b, s]) -> logits`` on the layout of ``group``.

    The embedding and positions are replicated (see the module docstring);
    the logits cover this rank's batch band, ``[b/(dq), s, vocab]`` on the
    Tesseract grid and ``[b, s, vocab]`` elsewhere.
    """

    def __init__(self, group, cfg: TransformerConfig):
        layout = layout_of(group)
        super().__init__(layout.ctx)
        if cfg.vocab <= 0:
            raise ValueError("TransformerLM needs cfg.vocab > 0")
        check_divides(layout.tp, cfg.vocab, "vocab vs tensor ranks")
        self.layout = layout
        self.pc = layout.pc
        self.cfg = cfg
        ctx = layout.ctx
        self.embed = self.add_module(
            "embed", Embedding(ctx, cfg.vocab, cfg.hidden, init_tags=(*_TAGS, "tok"))
        )
        self.pos = self.add_param("pos", _pos_global(ctx, cfg.seq_len, cfg.hidden))
        self.blocks = [
            self.add_module(
                f"block{idx}",
                TransformerLayer(
                    group, cfg.hidden, cfg.nheads, cfg.mlp_ratio,
                    init_tags=(*_TAGS, "layer", idx),
                    causal=cfg.causal,
                ),
            )
            for idx in range(cfg.num_layers)
        ]
        self.final_ln = self.add_module("final_ln", layout.layernorm(cfg.hidden))
        self.head = self.add_module(
            "head",
            ClassifierHead(group, cfg.hidden, cfg.vocab,
                           init_tags=(*_TAGS, "head")),
        )
        #: what fixes a symbolic pass besides its operands (the GPU, rank
        #: and world size are added by the context), interned once
        self._pass_owner = ctx.replay_owner(
            type(self), cfg, layout.family,
            (layout.tp, layout.index, layout.bands, layout.band,
             layout.cols, layout.col))
        self._modules = list(self.modules())  #: where a pass may stash

    @property
    def param_owner(self) -> str:
        return f"{self.layout.family}TransformerLM"

    def local_tokens(self, tokens: np.ndarray) -> VArray:
        """The embedding bridge is replicated: every rank takes all tokens."""
        return VArray.from_numpy(tokens.astype(np.int64))

    def local_labels(self, labels: np.ndarray) -> VArray:
        """This rank's batch band of the [b, s] label matrix."""
        return VArray.from_numpy(self.layout.rows(labels.astype(np.int64)))

    def forward(self, tokens: VArray) -> VArray:
        ctx = self.ctx
        x = self.embed.forward(tokens)
        x = ops.add(ctx, x, self.pos.value, tag="lm_pos")
        x = self.layout.scatter(x)
        for block in self.blocks:
            x = block.forward(x)
        x = self.final_ln.forward(x)
        return self.head.forward(x)

    def prefill(self, tokens: VArray) -> tuple[VArray, list]:
        """Run the global prompt batch ``[B, s]`` through the causal stack,
        returning ``(logits, kv)`` for this rank's block: logits ``[B/(dq),
        s, vocab]`` on the grid (``[B, s, vocab]`` elsewhere); ``kv[i]`` is
        layer ``i``'s ``(k, v)`` for the caller's cache, each ``[B/(dq), s,
        hidden/q]`` on the grid, ``[B, s, hidden/p]`` on Megatron's group
        (this rank's heads) and ``[B, s, hidden]`` serial."""
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

        ``tokens [B, 1]`` are the newest token ids (global), ``positions
        [B, 1]`` their absolute positions, ``past_kv`` the per-layer ``(k,
        v)`` history.  Returns ``(logits, new_kv)`` for this rank's block
        (see :meth:`prefill`) with ``new_kv[i]`` holding only this step's
        keys/values.
        """
        return _cached_pass(self, "decode_step", tokens, positions, past_kv,
                            extra_mask)

    def backward(self, dlogits: VArray) -> VArray:
        ctx = self.ctx
        dx = self.head.backward(dlogits)
        dx = self.final_ln.backward(dx)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        # Bridge backward: the global activation gradient, so the replicated
        # embedding computes identical gradients on every rank.
        dx = self.layout.gather(dx, tag="lm_bridge")
        dpos = ops.reduce_sum(ctx, dx, axis=0, keepdims=False, tag="lm_dpos")
        self.pos.accumulate(dpos)
        return self.embed.backward(dx)


#: the one LM under the names ``benchmarks/e2e/e2e_tracer.py`` wraps
SerialTransformerLM = MegatronTransformerLM = TransformerLM
TesseractTransformerLM = TransformerLM
