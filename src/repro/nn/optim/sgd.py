"""Stochastic gradient descent with optional momentum and weight decay."""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigError
from repro.nn.optim.base import Optimizer
from repro.nn.parameter import Parameter
from repro.varray import ops
from repro.varray.varray import VArray

__all__ = ["SGD"]


class SGD(Optimizer):
    """w <- w - lr * (momentum-buffer of (grad + wd * w))."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._buf: dict[int, VArray] = {}

    def _slot_state(self) -> dict:
        out = {}
        for i, p in enumerate(self.params):
            buf = self._buf.get(id(p))
            if buf is None or buf.is_symbolic:
                continue
            out[i] = buf.numpy().copy()
        return out

    def _load_slot_state(self, slots: dict) -> None:
        self._buf.clear()
        for i, arr in slots.items():
            p = self.params[int(i)]
            self._buf[id(p)] = VArray.from_numpy(arr.copy())

    def _update(self, p: Parameter) -> None:
        ctx = p.ctx
        g = p.grad
        if self.weight_decay:
            g = ops.add(
                ctx, g, ops.scale(ctx, p.value, self.weight_decay, tag="sgd_wd"),
                tag="sgd_wd",
            )
        if self.momentum:
            buf = self._buf.get(id(p))
            if buf is None:
                buf = g
            else:
                buf = ops.add(
                    ctx, ops.scale(ctx, buf, self.momentum, tag="sgd_mom"), g,
                    tag="sgd_mom",
                )
            self._buf[id(p)] = buf
            g = buf
        p.assign(ops.sub(ctx, p.value, ops.scale(ctx, g, self.lr, tag="sgd"), tag="sgd"))
