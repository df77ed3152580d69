"""Adam with decoupled weight decay (AdamW).

The Fig. 7 experiment trains ViT with "Adam ... learning rate 0.003 with a
weight decay of 0.3"; at that magnitude the decay is the decoupled (AdamW)
form used by ViT codebases, which is what we implement (set
``weight_decay=0`` for classic Adam).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigError
from repro.nn.optim.base import Optimizer
from repro.nn.parameter import Parameter
from repro.varray import ops
from repro.varray.varray import VArray

__all__ = ["Adam"]


class Adam(Optimizer):
    """AdamW: moment estimates + bias correction + decoupled decay."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigError(f"betas must be in [0, 1), got {betas}")
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[int, VArray] = {}
        self._v: dict[int, VArray] = {}

    def _moments(self, p: Parameter) -> tuple[VArray, VArray]:
        key = id(p)
        if key not in self._m:
            sym = p.value.is_symbolic
            self._m[key] = VArray.zeros(p.value.shape, p.value.dtype, symbolic=sym)
            self._v[key] = VArray.zeros(p.value.shape, p.value.dtype, symbolic=sym)
            p.ctx.mem.alloc(2 * p.value.nbytes, "optimizer")
        return self._m[key], self._v[key]

    def _slot_state(self) -> dict:
        out = {}
        for i, p in enumerate(self.params):
            m = self._m.get(id(p))
            if m is None or m.is_symbolic:
                continue
            out[i] = {"m": m.numpy().copy(), "v": self._v[id(p)].numpy().copy()}
        return out

    def _load_slot_state(self, slots: dict) -> None:
        self._m.clear()
        self._v.clear()
        for i, mv in slots.items():
            p = self.params[int(i)]
            self._m[id(p)] = VArray.from_numpy(mv["m"].copy())
            self._v[id(p)] = VArray.from_numpy(mv["v"].copy())
            p.ctx.mem.alloc(2 * p.value.nbytes, "optimizer")

    def update_direction(self, p: Parameter) -> VArray:
        """The bias-corrected Adam step direction m̂ / (sqrt(v̂) + eps).

        Exposed separately so LAMB can reuse it for its trust-ratio step.
        """
        ctx = p.ctx
        g = p.grad
        m, v = self._moments(p)
        m = ops.add(
            ctx,
            ops.scale(ctx, m, self.b1, tag="adam_m"),
            ops.scale(ctx, g, 1.0 - self.b1, tag="adam_m"),
            tag="adam_m",
        )
        v = ops.add(
            ctx,
            ops.scale(ctx, v, self.b2, tag="adam_v"),
            ops.scale(ctx, ops.square(ctx, g, tag="adam_v"), 1.0 - self.b2,
                      tag="adam_v"),
            tag="adam_v",
        )
        self._m[id(p)], self._v[id(p)] = m, v
        mhat = ops.scale(ctx, m, 1.0 / (1.0 - self.b1**self.t), tag="adam_bc")
        vhat = ops.scale(ctx, v, 1.0 / (1.0 - self.b2**self.t), tag="adam_bc")
        denom = ops.add(
            ctx,
            ops.sqrt(ctx, vhat, tag="adam_denom"),
            VArray.full((1,), self.eps, dtype=p.value.dtype,
                        symbolic=p.value.is_symbolic),
            tag="adam_denom",
        )
        return ops.div(ctx, mhat, denom, tag="adam_dir")

    def _update(self, p: Parameter) -> None:
        ctx = p.ctx
        direction = self.update_direction(p)
        if self.weight_decay:
            direction = ops.add(
                ctx, direction,
                ops.scale(ctx, p.value, self.weight_decay, tag="adam_wd"),
                tag="adam_wd",
            )
        p.assign(
            ops.sub(ctx, p.value, ops.scale(ctx, direction, self.lr, tag="adam"),
                    tag="adam")
        )
