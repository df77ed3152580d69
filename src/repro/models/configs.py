"""Model configuration dataclasses with validation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.util.mathutil import check_positive

__all__ = ["TransformerConfig", "ViTConfig"]


def _check_divides(cfg, part: str, whole: str) -> None:
    if getattr(cfg, whole) % getattr(cfg, part):
        raise ConfigError(f"{whole} {getattr(cfg, whole)} must be divisible "
                          f"by {part} {getattr(cfg, part)}")


@dataclass(frozen=True)
class TransformerConfig:
    """A Megatron-style transformer encoder stack.

    ``hidden % nheads == 0`` is required; a parallel mode's divisibility
    rules span the config and the grid, so the entry point that gets both
    checks them (e.g. :func:`~repro.serve.runner.run_serving`).
    """

    num_layers: int
    hidden: int
    nheads: int
    seq_len: int
    vocab: int = 0  #: 0 for the benchmark stack (no embedding)
    mlp_ratio: int = 4
    causal: bool = False  #: decoder-style causal attention (serving/decode)

    def __post_init__(self) -> None:
        check_positive(self.num_layers, "num_layers")
        check_positive(self.hidden, "hidden")
        check_positive(self.nheads, "nheads")
        check_positive(self.seq_len, "seq_len")
        _check_divides(self, "nheads", "hidden")
        if self.vocab < 0:
            raise ConfigError(f"vocab must be >= 0, got {self.vocab}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.nheads


@dataclass(frozen=True)
class ViTConfig:
    """A Vision Transformer for image classification (Fig. 7's model)."""

    image_size: int
    patch_size: int
    channels: int
    hidden: int
    nheads: int
    num_layers: int
    num_classes: int
    mlp_ratio: int = 4

    def __post_init__(self) -> None:
        check_positive(self.image_size, "image_size")
        check_positive(self.patch_size, "patch_size")
        check_positive(self.nheads, "nheads")
        check_positive(self.num_classes, "num_classes")
        _check_divides(self, "patch_size", "image_size")
        _check_divides(self, "nheads", "hidden")

    @property
    def num_patches(self) -> int:
        g = self.image_size // self.patch_size
        return g * g

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size
