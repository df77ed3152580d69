"""Learning-rate schedules.

A schedule maps a 1-based step index to a learning rate; the trainer calls
``optimizer.set_lr(schedule(step))`` before each update.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError

__all__ = ["LRSchedule", "ConstantLR", "CosineWithWarmup", "StepDecay"]


class LRSchedule:
    """Base class: callable step -> lr."""

    def __call__(self, step: int) -> float:
        raise NotImplementedError


class ConstantLR(LRSchedule):
    """A fixed learning rate."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = lr

    def __call__(self, step: int) -> float:
        return self.lr


class CosineWithWarmup(LRSchedule):
    """Linear warmup to ``peak_lr`` then cosine decay to ``min_lr``.

    The standard ViT/BERT schedule (the Fig. 7 training recipe).
    """

    def __init__(
        self, peak_lr: float, warmup_steps: int, total_steps: int,
        min_lr: float = 0.0,
    ):
        if peak_lr <= 0:
            raise ConfigError(f"peak_lr must be positive, got {peak_lr}")
        if warmup_steps < 0 or total_steps <= warmup_steps:
            raise ConfigError(
                f"need 0 <= warmup_steps < total_steps, got "
                f"{warmup_steps}, {total_steps}"
            )
        self.peak_lr = peak_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.min_lr = min_lr

    def __call__(self, step: int) -> float:
        if self.warmup_steps > 0 and step <= self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        progress = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        progress = min(max(progress, 0.0), 1.0)
        return self.min_lr + 0.5 * (self.peak_lr - self.min_lr) * (
            1.0 + math.cos(math.pi * progress)
        )


class StepDecay(LRSchedule):
    """Multiply the base lr by ``gamma`` every ``every`` steps."""

    def __init__(self, base_lr: float, every: int, gamma: float = 0.1):
        if base_lr <= 0 or every <= 0 or not 0 < gamma <= 1:
            raise ConfigError("invalid StepDecay configuration")
        self.base_lr = base_lr
        self.every = every
        self.gamma = gamma

    def __call__(self, step: int) -> float:
        return self.base_lr * (self.gamma ** ((step - 1) // self.every))
