"""One transformer layer for every tensor-parallel scheme (§3.2).

The paper's §3.2 builds a Tesseract layer from the serial pre-LN layer with
three changes: matmuls run as 2.5-D kernels, LayerNorm statistics are
all-reduced along rows, and the gradients of column-replicated parameters
are summed over columns and depth.  Megatron-LM's 1-D layer (§2.5) is the
same layer with column- and row-sharded weights.  So the layer, the MLP,
the attention block and the classifier head are written once here, over a
:class:`Layout` that supplies only what differs between the schemes:

* the linear kinds and the LayerNorm;
* ``tp``, the number of ranks the heads split over, and the split-tag
  prefix;
* the head's gather group and this rank's slice of its output;
* the activation bridge the models use: this rank's A-layout block of a
  full activation, the all-gather back, and the column+depth gradient sync.

:func:`layout_of` picks the layout from the group the caller passes: a
:class:`~repro.sim.engine.RankContext` is serial, a
:class:`~repro.comm.communicator.Communicator` is Megatron's 1-D group and a
:class:`~repro.grid.context.ParallelContext` is the ``[q, q, d]`` grid
(Optimus is its ``d = 1`` case).  Every layout slices the same named
global weight streams, so every scheme computes the serial model's math.
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import Communicator
from repro.errors import ShapeError, SimulationError
from repro.grid.context import ParallelContext
from repro.nn.attention import (
    attention_cached,
    attention_core,
    attention_core_backward,
    fused_qkv_weight,
)
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.normalization import LayerNorm
from repro.sim.engine import RankContext
from repro.util.mathutil import check_divides
from repro.varray import ops
from repro.varray.varray import VArray

__all__ = [
    "Layout",
    "layout_of",
    "MLP",
    "SelfAttention",
    "TransformerLayer",
    "ClassifierHead",
]


class Layout:
    """The serial layout: one rank holds every weight and activation.

    The scheme layouts (:class:`~repro.parallel.megatron.layers.MegatronLayout`,
    :class:`~repro.parallel.tesseract.layers.TesseractLayout`) override the
    attributes and methods below; nothing else in the model differs.
    """

    #: prefix of the models' parameter names (``SerialViT.pos``)
    family = "Serial"
    #: prefix of the attention block's split tags
    tag = "attn"
    #: the :class:`~repro.nn.parameter.Parameter` layout of a parameter
    #: that holds an activation's hidden slice
    slice_layout = "full"
    #: the grid context, or the Megatron group (None where not that scheme)
    pc: ParallelContext | None = None
    comm: Communicator | None = None
    #: the group the head all-gathers its logits over (None: no gather)
    head_comm: Communicator | None = None

    def __init__(self, ctx: RankContext):
        self.ctx = ctx
        #: heads and head outputs split over ``tp`` ranks; this rank's part
        self.tp, self.index = 1, 0
        #: an activation's batch bands and hidden slices, and this rank's
        self.bands, self.band = 1, 0
        self.cols, self.col = 1, 0

    def linear(self, in_features: int, out_features: int, init_tags: tuple,
               row: bool = False, fused_parts: int = 1) -> Module:
        """A linear layer.  ``row`` marks the second linear of a block,
        whose input is the first's sharded output (Megatron's row-parallel
        kind); ``fused_parts`` concatenates that many square weights."""
        weight = None
        if fused_parts > 1 and not self.ctx.symbolic:
            weight = fused_qkv_weight(self.ctx, in_features, init_tags)
        return Linear(self.ctx, in_features, out_features,
                      init_tags=init_tags, weight=weight)

    def layernorm(self, dim: int) -> Module:
        return LayerNorm(self.ctx, dim)

    # --- the activation bridge (device side) ------------------------------------

    def scatter(self, x: VArray) -> VArray:
        """This rank's block of an activation every rank holds in full."""
        return x

    def gather(self, dx: VArray, tag: str) -> VArray:
        """The full activation gradient, reassembled from every block."""
        return dx

    def sync(self, grad: VArray, tag: str) -> VArray:
        """Sum the gradient of a parameter holding a hidden slice over the
        ranks that hold the same slice."""
        return grad

    def take(self, x: VArray, tag: str) -> VArray:
        """This rank's ``1/tp`` slice of the last axis (the head's part of
        the logits gradient, the ViT's part of the patch features)."""
        if self.head_comm is None:
            return x
        return ops.split(self.ctx, x, self.tp, axis=-1, tag=tag)[self.index]

    # --- host side ----------------------------------------------------------------

    def local_shape(self, batch: int, seq: int, hidden: int) -> tuple:
        """Shape of this rank's block of a global ``[b, s, h]`` activation."""
        return (check_divides(self.bands, batch, "batch size"), seq,
                check_divides(self.cols, hidden, "hidden size"))

    def rows(self, x: np.ndarray) -> np.ndarray:
        """This rank's batch band (axis 0) of a global host array."""
        n = check_divides(self.bands, x.shape[0], "batch size")
        return np.ascontiguousarray(x[self.band * n:(self.band + 1) * n])

    def columns(self, x: np.ndarray) -> np.ndarray:
        """This rank's hidden slice (last axis) of a global host array."""
        n = check_divides(self.cols, x.shape[-1], "hidden dim")
        return np.ascontiguousarray(x[..., self.col * n:(self.col + 1) * n])

    def block(self, x: np.ndarray) -> np.ndarray:
        """This rank's block of a global activation (host side)."""
        return self.columns(self.rows(x))

    def combine(self, blocks: dict) -> np.ndarray:
        """The global activation from per-rank output blocks."""
        return next(iter(blocks.values()))


def layout_of(group) -> Layout:
    """The layout of the group a module is built over: the one place a
    scheme is chosen."""
    # The scheme modules derive their layouts from Layout and so import
    # this module; look them up on use.
    from repro.parallel.megatron.layers import MegatronLayout
    from repro.parallel.tesseract.layers import TesseractLayout

    if isinstance(group, ParallelContext):
        return TesseractLayout(group)
    if isinstance(group, Communicator):
        return MegatronLayout(group)
    return Layout(group)


class MLP(Module):
    """The feed-forward block (§3.2.1, Fig. 5a): [h -> 4h] GELU [4h -> h]."""

    def __init__(self, group, hidden: int, mlp_ratio: int = 4,
                 init_tags: tuple = ("mlp",)):
        layout = layout_of(group)
        super().__init__(layout.ctx)
        self.fc1 = self.add_module("fc1", layout.linear(
            hidden, mlp_ratio * hidden, (*init_tags, "fc1")))
        self.fc2 = self.add_module("fc2", layout.linear(
            mlp_ratio * hidden, hidden, (*init_tags, "fc2"), row=True))

    def forward(self, x: VArray) -> VArray:
        h = self.fc1.forward(x)
        self.save_for_backward(h)
        return self.fc2.forward(ops.gelu(self.ctx, h, tag="mlp_gelu"))

    def backward(self, dy: VArray) -> VArray:
        (h,) = self.saved()
        da = self.fc2.backward(dy)
        return self.fc1.backward(ops.gelu_grad(self.ctx, h, da,
                                               tag="mlp_gelu_bwd"))


class SelfAttention(Module):
    """Multi-head self-attention (§2.4; sharded per §3.2.1, Fig. 5b).

    One fused QKV projection ``[h, 3h]``, the attention core, the output
    projection ``[h, h]``.  The fused weight is three independent draws
    (streams ``wq``/``wk``/``wv``), so a rank's share of the projection
    splits into the Q/K/V columns of its ``n/tp`` whole heads and the core
    runs without communication.  ``scale`` is ``1/sqrt(h/n)`` from the
    *global* head dimension, the same in every layout.
    """

    def __init__(self, group, hidden: int, nheads: int,
                 init_tags: tuple = ("attn",), causal: bool = False):
        layout = layout_of(group)
        super().__init__(layout.ctx)
        self.tag = layout.tag
        self.causal = causal
        self.local_heads = check_divides(layout.tp, nheads,
                                         "attention heads vs tensor ranks")
        head_dim = check_divides(nheads, hidden, "hidden vs heads")
        self.scale = 1.0 / float(head_dim) ** 0.5
        self.qkv = self.add_module("qkv", layout.linear(
            hidden, 3 * hidden, (*init_tags, "qkv"), fused_parts=3))
        self.proj = self.add_module("proj", layout.linear(
            hidden, hidden, (*init_tags, "proj"), row=True))

    def forward(self, x: VArray) -> VArray:
        ctx = self.ctx
        qkv = self.qkv.forward(x)
        q, k, v = ops.split(ctx, qkv, 3, axis=-1, tag=f"{self.tag}_split")
        out, cache = attention_core(ctx, q, k, v, self.local_heads, self.scale,
                                    causal=self.causal)
        self.save_for_backward(cache)
        return self.proj.forward(out)

    def forward_cached(
        self,
        x: VArray,
        past_kv: tuple[VArray, VArray] | None = None,
        extra_mask: VArray | None = None,
    ) -> tuple[VArray, tuple[VArray, VArray]]:
        """Incremental (inference-only) forward against this rank's KV cache.

        ``x [B, s_new, H_local]`` are the newest positions; ``past_kv`` is
        this layer's ``(k, v)`` history, each ``[B, s_prev, H_local]`` —
        this rank's heads, so cache reads need no communication.  Returns
        ``(out, (k_new, v_new))`` with only the *new* positions' keys and
        values; the caller owns cache storage.  Requires eval() mode, so
        the projections' stashes never pile up across steps.
        """
        if self.training:
            raise SimulationError(
                f"{type(self).__name__}.forward_cached requires eval() mode")
        ctx = self.ctx
        qkv = self.qkv.forward(x)
        q, k, v = ops.split(ctx, qkv, 3, axis=-1, tag="attn_split")
        k_all, v_all = k, v
        if past_kv is not None:
            pk, pv = past_kv
            k_all = ops.concat(ctx, [pk, k], axis=1, tag="kv_concat")
            v_all = ops.concat(ctx, [pv, v], axis=1, tag="kv_concat")
        out = attention_cached(ctx, q, k_all, v_all, self.local_heads,
                               self.scale, extra_mask=extra_mask)
        return self.proj.forward(out), (k, v)

    def backward(self, dy: VArray) -> VArray:
        (cache,) = self.saved()
        ctx = self.ctx
        dout = self.proj.backward(dy)
        dq, dk, dv = attention_core_backward(ctx, cache, dout)
        return self.qkv.backward(
            ops.concat(ctx, [dq, dk, dv], axis=-1, tag=f"{self.tag}_dsplit"))


class TransformerLayer(Module):
    """Pre-LN transformer layer: x + attn(ln1(x)), then x + mlp(ln2(x)).

    Residual adds are local in every layout (§3.2.2: "these kinds of
    sections will conduct operations locally on individual GPUs").
    """

    def __init__(self, group, hidden: int, nheads: int, mlp_ratio: int = 4,
                 init_tags: tuple = ("layer",), causal: bool = False):
        layout = layout_of(group)
        super().__init__(layout.ctx)
        self.ln1 = self.add_module("ln1", layout.layernorm(hidden))
        self.attn = self.add_module("attn", SelfAttention(
            group, hidden, nheads, init_tags=(*init_tags, "attn"),
            causal=causal))
        self.ln2 = self.add_module("ln2", layout.layernorm(hidden))
        self.mlp = self.add_module("mlp", MLP(
            group, hidden, mlp_ratio, init_tags=(*init_tags, "mlp")))

    def forward(self, x: VArray) -> VArray:
        ctx = self.ctx
        a = self.attn.forward(self.ln1.forward(x))
        x = ops.add(ctx, x, a, tag="residual")
        m = self.mlp.forward(self.ln2.forward(x))
        return ops.add(ctx, x, m, tag="residual")

    def forward_cached(self, x, past_kv=None, extra_mask=None):
        """Inference forward against a KV cache; see
        :meth:`SelfAttention.forward_cached`."""
        ctx = self.ctx
        a, kv = self.attn.forward_cached(self.ln1.forward(x), past_kv,
                                         extra_mask)
        x = ops.add(ctx, x, a, tag="residual")
        m = self.mlp.forward(self.ln2.forward(x))
        return ops.add(ctx, x, m, tag="residual"), kv

    def backward(self, dy: VArray) -> VArray:
        ctx = self.ctx
        dm = self.ln2.backward(self.mlp.backward(dy))
        dx = ops.add(ctx, dy, dm, tag="residual_bwd")
        da = self.ln1.backward(self.attn.backward(dx))
        return ops.add(ctx, dx, da, tag="residual_bwd")


class ClassifierHead(Module):
    """Final classifier: a column-split linear whose output the layout's
    head group all-gathers, so every rank holds the full logits of its own
    batch shard and evaluates the loss locally.  The backward pass keeps
    this rank's slice of the incoming gradient."""

    def __init__(self, group, hidden: int, num_classes: int,
                 init_tags: tuple = ("head",)):
        layout = layout_of(group)
        super().__init__(layout.ctx)
        self.layout = layout
        self.num_classes = num_classes
        self.fc = self.add_module("fc", layout.linear(hidden, num_classes,
                                                      init_tags))

    def forward(self, x: VArray) -> VArray:
        local = self.fc.forward(x)
        comm = self.layout.head_comm
        if comm is None:
            return local
        gathered = comm.all_gather(local, tag="head_gather")
        return ops.concat(self.ctx, gathered, axis=-1, tag="head_concat")

    def backward(self, dlogits: VArray) -> VArray:
        if dlogits.shape[-1] != self.num_classes:
            raise ShapeError(
                f"head backward expected last dim {self.num_classes}, got "
                f"{dlogits.shape}"
            )
        return self.fc.backward(self.layout.take(dlogits, "head_slice"))
