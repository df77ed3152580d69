"""Optimizer base class."""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigError
from repro.nn.parameter import Parameter

__all__ = ["Optimizer"]


class Optimizer:
    """Updates a fixed set of parameters from their accumulated gradients.

    Subclasses implement :meth:`_update` for one parameter; :meth:`step`
    applies it to every parameter that has a gradient and advances the step
    counter (used by schedules and Adam bias correction).
    """

    def __init__(self, params: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ConfigError("optimizer needs at least one parameter")
        self.lr = lr
        self.t = 0

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self.t += 1
        for p in self.params:
            if p.grad is None:
                continue
            self._update(p)

    def zero_grad(self) -> None:
        """Clear all gradients."""
        for p in self.params:
            p.zero_grad()

    def set_lr(self, lr: float) -> None:
        """Set the current learning rate (called by schedules)."""
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    # --- persistence (checkpoint/restart recovery) ---------------------------

    def state_dict(self) -> dict:
        """Snapshot of the optimizer state (step count, lr, slot buffers).

        Slot buffers (Adam moments, SGD momentum) are keyed by *parameter
        position*, not identity, so the state survives a model rebuild on
        a fresh engine — the recovery path in :mod:`repro.train.resilience`
        relies on this.  Symbolic-mode buffers are skipped (they carry no
        data; a restore recreates them lazily as zeros).
        """
        return {"t": self.t, "lr": self.lr, "slots": self._slot_state()}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        The optimizer must already hold the same parameters (same count,
        same shapes) the snapshot was taken with.
        """
        self.t = int(state["t"])
        self.lr = float(state["lr"])
        self._load_slot_state(state.get("slots", {}))

    def _slot_state(self) -> dict:
        """Subclass hook: position-keyed numpy copies of slot buffers."""
        return {}

    def _load_slot_state(self, slots: dict) -> None:
        """Subclass hook: restore buffers saved by :meth:`_slot_state`."""

    def _update(self, p: Parameter) -> None:
        raise NotImplementedError
