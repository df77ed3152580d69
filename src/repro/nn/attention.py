"""The scaled dot-product attention core.

:func:`attention_core` / :func:`attention_core_backward` implement the
head-batched attention math (Eq. 6 of the paper) on *local* tensors, and
:func:`attention_cached` its forward against a KV cache.  The one attention
block (:class:`repro.parallel.layers.SelfAttention`) runs them in every
layout: in the Tesseract layout each rank simply holds ``n/q`` heads of
dimension ``h/n`` (§3.2.1), so the identical kernel runs on a narrower
tensor — which is precisely why the attention inner loop needs no
communication.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sim.engine import RankContext
from repro.util.mathutil import check_divides
from repro.varray import ops, vinit
from repro.varray.varray import VArray

__all__ = [
    "attention_core",
    "attention_core_backward",
    "attention_cached",
    "causal_mask",
    "fused_qkv_weight",
]


def fused_qkv_weight(ctx: RankContext, hidden: int, init_tags: tuple):
    """The global fused [h, 3h] QKV weight: [Wq | Wk | Wv].

    Each component is an independent Xavier draw from a named stream, so
    any sharding can re-materialize exactly the columns it owns.
    """
    return np.concatenate([
        vinit.xavier_uniform(ctx.rng(*init_tags, name), (hidden, hidden))
        for name in ("wq", "wk", "wv")
    ], axis=1)


def _to_heads(ctx: RankContext, x: VArray, nheads: int) -> VArray:
    """[B, s, H] -> [B, nheads, s, H/nheads]."""
    b, s, hl = x.shape
    hd = check_divides(nheads, hl, "local hidden size vs local heads")
    x = ops.reshape(ctx, x, (b, s, nheads, hd))
    return ops.transpose(ctx, x, (0, 2, 1, 3), tag="attn_heads")


def _from_heads(ctx: RankContext, x: VArray) -> VArray:
    """[B, nheads, s, hd] -> [B, s, nheads*hd]."""
    b, nh, s, hd = x.shape
    x = ops.transpose(ctx, x, (0, 2, 1, 3), tag="attn_merge")
    return ops.reshape(ctx, x, (b, s, nh * hd))


def causal_mask(s_new: int, s_total: int, dtype=np.float32) -> VArray:
    """Additive causal mask ``[s_new, s_total]``.

    Query row ``r`` corresponds to absolute position ``s_total - s_new + r``
    and may attend keys at positions ``<= s_total - s_new + r``; later
    columns get ``-inf`` (which turns into an exactly-zero probability
    after softmax).  With ``s_new == s_total`` this is the standard
    lower-triangular training mask; with ``s_new < s_total`` it is the
    offset mask used when extending a KV cache.
    """
    offset = s_total - s_new
    if offset < 0:
        raise ShapeError(f"causal mask with s_new={s_new} > s_total={s_total}")
    col = np.arange(s_total)[None, :]
    row = np.arange(s_new)[:, None]
    m = np.where(col > row + offset, -np.inf, 0.0).astype(np.dtype(dtype))
    return VArray.from_numpy(m)


def _attend(
    ctx: RankContext,
    qh: VArray,
    kh: VArray,
    vh: VArray,
    scale: float,
    mask: VArray | None,
    extra_mask: VArray | None = None,
) -> tuple[VArray, VArray]:
    """Scaled dot-product attention on head-layout tensors.

    ``qh [B, nh, sq, hd]`` against ``kh/vh [B, nh, skv, hd]``; masks are
    additive and broadcast against the ``[B, nh, sq, skv]`` score tensor.
    Returns ``(out_h, probs)``.
    """
    scores = ops.scale(
        ctx, ops.matmul(ctx, qh, kh, transpose_b=True, tag="attn_qk"), scale,
        tag="attn_scale",
    )
    if mask is not None:
        scores = ops.add(ctx, scores, mask, tag="attn_mask")
    if extra_mask is not None:
        scores = ops.add(ctx, scores, extra_mask, tag="attn_mask")
    probs = ops.softmax(ctx, scores, axis=-1, tag="attn_softmax")
    out_h = ops.matmul(ctx, probs, vh, tag="attn_av")
    return out_h, probs


def attention_core(
    ctx: RankContext,
    q: VArray,
    k: VArray,
    v: VArray,
    nheads: int,
    scale: float,
    causal: bool = False,
) -> tuple[VArray, tuple]:
    """Multi-head attention on local tensors.

    Inputs are ``[B, s, H_local]``; ``nheads`` is the *local* head count and
    ``scale`` is ``1/sqrt(h/n)`` computed from the **global** head
    dimension (identical across shardings, so the math is exact).  With
    ``causal`` True, position ``t`` attends only positions ``<= t``
    (decoder-style); masked probabilities are exactly zero, so the backward
    pass needs no mask of its own.

    Returns ``(output [B, s, H_local], cache)`` with the cache consumed by
    :func:`attention_core_backward`.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    qh = _to_heads(ctx, q, nheads)
    kh = _to_heads(ctx, k, nheads)
    vh = _to_heads(ctx, v, nheads)
    mask = causal_mask(q.shape[1], q.shape[1], dtype=q.dtype) if causal else None
    out_h, probs = _attend(ctx, qh, kh, vh, scale, mask)
    out = _from_heads(ctx, out_h)
    cache = (qh, kh, vh, probs, scale)
    return out, cache


def attention_cached(
    ctx: RankContext,
    q: VArray,
    k: VArray,
    v: VArray,
    nheads: int,
    scale: float,
    extra_mask: VArray | None = None,
) -> VArray:
    """Causal attention of ``q [B, s_new, H_local]`` against a (possibly
    longer) key/value history ``k/v [B, s_total, H_local]``.

    The query rows are the *last* ``s_new`` positions of the sequence, so
    the causal mask is offset by ``s_total - s_new`` (for single-token
    decode, ``s_new == 1`` attends the entire history and the causal mask
    is omitted — it would add exact zeros).  ``extra_mask`` is an optional
    additive mask (e.g. ``[B, 1, s_new, s_total]``) used by the serving
    scheduler to invalidate padding columns of ragged batches.

    Forward-only: returns just the output ``[B, s_new, H_local]``.
    """
    if k.shape != v.shape:
        raise ShapeError(f"k/v shapes differ: {k.shape} vs {v.shape}")
    if q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise ShapeError(f"q {q.shape} incompatible with cache {k.shape}")
    s_new, s_total = q.shape[1], k.shape[1]
    qh = _to_heads(ctx, q, nheads)
    kh = _to_heads(ctx, k, nheads)
    vh = _to_heads(ctx, v, nheads)
    mask = causal_mask(s_new, s_total, dtype=q.dtype) if s_new > 1 else None
    out_h, _ = _attend(ctx, qh, kh, vh, scale, mask, extra_mask)
    return _from_heads(ctx, out_h)


def attention_core_backward(
    ctx: RankContext, cache: tuple, dout: VArray
) -> tuple[VArray, VArray, VArray]:
    """Gradients (dq, dk, dv) for :func:`attention_core`."""
    qh, kh, vh, probs, scale = cache
    nheads = qh.shape[1]
    dout_h = _to_heads(ctx, dout, nheads)
    dv_h = ops.matmul(ctx, probs, dout_h, transpose_a=True, tag="attn_dv")
    dprobs = ops.matmul(ctx, dout_h, vh, transpose_b=True, tag="attn_dp")
    dscores = ops.scale(
        ctx, ops.softmax_grad(ctx, probs, dprobs, axis=-1, tag="attn_dsm"), scale,
        tag="attn_dscale",
    )
    dq_h = ops.matmul(ctx, dscores, kh, tag="attn_dq")
    dk_h = ops.matmul(ctx, dscores, qh, transpose_a=True, tag="attn_dk")
    return _from_heads(ctx, dq_h), _from_heads(ctx, dk_h), _from_heads(ctx, dv_h)
