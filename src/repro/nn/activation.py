"""Pointwise activation layers: GELU, ReLU, deterministic Dropout."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nn.module import Module
from repro.sim.engine import RankContext
from repro.varray import ops
from repro.varray.varray import VArray

__all__ = ["GELU", "ReLU", "Dropout"]


class GELU(Module):
    """GELU (tanh approximation), the transformer MLP activation."""

    def forward(self, x: VArray) -> VArray:
        self.save_for_backward(x)
        return ops.gelu(self.ctx, x)

    def backward(self, dy: VArray) -> VArray:
        (x,) = self.saved()
        return ops.gelu_grad(self.ctx, x, dy)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: VArray) -> VArray:
        self.save_for_backward(x)
        return ops.relu(self.ctx, x)

    def backward(self, dy: VArray) -> VArray:
        (x,) = self.saved()
        return ops.relu_grad(self.ctx, x, dy)


class Dropout(Module):
    """Inverted dropout with a deterministic per-call mask.

    The mask stream is derived from ``(seed, "dropout", rank, call_index)``
    so runs are reproducible; in eval mode (or p = 0) the layer is the
    identity.  In symbolic mode the mask multiply is charged but no mask is
    materialized.
    """

    def __init__(self, ctx: RankContext, p: float = 0.1):
        super().__init__(ctx)
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._calls = 0

    def forward(self, x: VArray) -> VArray:
        if not self.training or self.p == 0.0:
            self.save_for_backward(None)
            return x
        self._calls += 1
        if x.is_symbolic:
            mask = VArray.symbolic(x.shape, x.dtype)
        else:
            rng = self.ctx.rank_rng("dropout", self._calls)
            keep = (rng.random(x.shape) >= self.p).astype(x.dtype.type)
            mask = VArray.from_numpy(keep / np.float32(1.0 - self.p))
        self.save_for_backward(mask)
        return ops.mul(self.ctx, x, mask, tag="dropout")

    def backward(self, dy: VArray) -> VArray:
        (mask,) = self.saved()
        if mask is None:
            return dy
        return ops.mul(self.ctx, dy, mask, tag="dropout_bwd")
