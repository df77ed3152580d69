"""Megatron-LM style 1-D tensor-parallel layers (§2.5 of the paper)."""

from repro.parallel.megatron.layers import (
    MegatronColumnLinear,
    MegatronLayout,
    MegatronRowLinear,
)

__all__ = ["MegatronColumnLinear", "MegatronRowLinear", "MegatronLayout"]
