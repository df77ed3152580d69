"""Vision Transformer, one class for every scheme (the Fig. 7 model).

* patchify -> linear patch projection -> +learned position embedding,
* ``num_layers`` pre-LN transformer layers,
* final LayerNorm -> mean-pool over patches -> linear classifier head,

built over the group the caller passes, whose layout
(:mod:`repro.parallel.layers`) shards it.  Every layout draws each weight
from the same named streams, so for identical inputs they produce
identical logits, losses and gradients — the paper's §4.3 claim
("Tesseract does not introduce any approximations") in executable form.

Sharding notes:

* each rank receives its *batch band* of raw images (host-side split by
  ``local_images``: ``[b/dq, C, H, W]`` on the Tesseract grid, the whole
  batch where activations are replicated), patchifies locally, and keeps
  its ``1/tp`` slice of the patch features — the grid's column ``j``, so
  the patch projection is a regular :class:`TesseractLinear`; Megatron's
  rank slice, the input of a row-parallel projection;
* the position embedding holds the activation's hidden slice
  (``[num_patches, h/q]`` on the grid, replicated along columns/depth, with
  the matching gradient all-reduce);
* the classifier head all-gathers logits over the layout's head group so
  every rank evaluates the loss on its own batch shard.
"""

from __future__ import annotations

import numpy as np

from repro.models.configs import ViTConfig
from repro.nn.embedding import patchify
from repro.nn.module import Module
from repro.parallel.layers import ClassifierHead, TransformerLayer, layout_of
from repro.sim.engine import RankContext
from repro.util.mathutil import check_divides
from repro.varray import ops, vinit
from repro.varray.varray import VArray

__all__ = ["ViT"]

_TAGS = ("vit",)


class ViT(Module):
    """``forward(images) -> logits`` for this rank's batch band."""

    def __init__(self, group, cfg: ViTConfig):
        layout = layout_of(group)
        super().__init__(layout.ctx)
        self.layout = layout
        self.cfg = cfg
        ctx = layout.ctx
        for dim, what in ((cfg.patch_dim, "patch dim"), (cfg.hidden, "hidden"),
                          (cfg.nheads, "heads"), (cfg.num_classes, "classes")):
            check_divides(layout.tp, dim, f"{what} vs tensor ranks")
        self.patch_proj = self.add_module(
            "patch_proj",
            layout.linear(cfg.patch_dim, cfg.hidden, (*_TAGS, "patch"),
                          row=True),
        )
        if ctx.symbolic:
            pos = VArray.symbolic((cfg.num_patches, cfg.hidden // layout.cols))
        else:
            pos = VArray.from_numpy(layout.columns(vinit.normal(
                ctx.rng(*_TAGS, "pos"), (cfg.num_patches, cfg.hidden),
                std=0.02)))
        self.pos = self.add_param("pos", pos, layout=layout.slice_layout)
        self.blocks = [
            self.add_module(
                f"block{idx}",
                TransformerLayer(
                    group, cfg.hidden, cfg.nheads, cfg.mlp_ratio,
                    init_tags=(*_TAGS, "layer", idx),
                ),
            )
            for idx in range(cfg.num_layers)
        ]
        self.final_ln = self.add_module("final_ln", layout.layernorm(cfg.hidden))
        self.head = self.add_module(
            "head",
            ClassifierHead(group, cfg.hidden, cfg.num_classes,
                           init_tags=(*_TAGS, "head")),
        )

    @property
    def param_owner(self) -> str:
        return f"{self.layout.family}ViT"

    def local_images(self, images: np.ndarray) -> VArray:
        """This rank's batch band of the global image batch."""
        return VArray.from_numpy(self.layout.rows(images))

    def local_labels(self, labels: np.ndarray) -> VArray:
        """This rank's batch band of the global label vector."""
        return VArray.from_numpy(self.layout.rows(labels))

    def forward(self, images: VArray) -> VArray:
        ctx, cfg = self.ctx, self.cfg
        patches = patchify(ctx, images, cfg.patch_size)
        x = self.patch_proj.forward(self.layout.take(patches, "vit_patch_slice"))
        x = ops.add(ctx, x, self.pos.value, tag="vit_pos")
        self.save_for_backward(None)
        for block in self.blocks:
            x = block.forward(x)
        x = self.final_ln.forward(x)
        pooled = ops.reduce_mean(ctx, x, axis=1, keepdims=False, tag="vit_pool")
        return self.head.forward(pooled)

    def backward(self, dlogits: VArray) -> VArray:
        self.saved()
        ctx, cfg = self.ctx, self.cfg
        dpooled = self.head.backward(dlogits)
        # d(mean over seq): broadcast /seq over the patch axis.
        dseq = ops.scale(ctx, dpooled, 1.0 / cfg.num_patches, tag="vit_dpool")
        dx = _broadcast_axis1(ctx, dseq, cfg.num_patches)
        dx = self.final_ln.backward(dx)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        dpos = dx
        while dpos.ndim > 2:
            dpos = ops.reduce_sum(ctx, dpos, axis=0, keepdims=False, tag="vit_dpos")
        self.pos.accumulate(self.layout.sync(dpos, tag="vit_dpos"))
        return self.patch_proj.backward(dx)


#: the one ViT under the names ``benchmarks/e2e/e2e_tracer.py`` wraps
SerialViT = TesseractViT = ViT


def _broadcast_axis1(ctx: RankContext, x: VArray, n: int) -> VArray:
    """Insert axis 1 of length n by broadcasting (gradient of a seq-mean)."""
    expanded = ops.reshape(ctx, x, (x.shape[0], 1) + x.shape[1:],
                           tag="bcast_axis1")
    ones = VArray.full((1, n, 1), 1.0, dtype=x.dtype, symbolic=x.is_symbolic)
    return ops.mul(ctx, expanded, ones, tag="bcast_axis1")
