"""Optimus (2-D SUMMA) transformer layers.

The paper's own framing (§3.1): "d = 1 makes Tesseract a 2-D algorithm like
SUMMA".  Optimus *is* the depth-1 special case of the Tesseract layout —
activations in ``[q, q]`` blocks, weights in ``[q, q]`` blocks, SUMMA for
every matmul — so the ``optimus`` mode builds the one layer skeleton
(:mod:`repro.parallel.layers`) over the grid layout at ``d = 1``, and these
classes are that skeleton, the Tesseract linear and LayerNorm behind a
guard that rejects a deeper :class:`~repro.grid.context.ParallelContext`.

The communication behaviour (2 broadcasts + accumulate per SUMMA step,
``2*beta*b*s*h^2*q*log(p)/p``-style volume) is exactly Optimus'.
"""

from __future__ import annotations

from repro.errors import GridError
from repro.grid.context import ParallelContext
from repro.parallel.layers import (
    MLP,
    ClassifierHead,
    SelfAttention,
    TransformerLayer,
)
from repro.parallel.tesseract.layers import TesseractLayerNorm, TesseractLinear

__all__ = [
    "OptimusLinear",
    "OptimusLayerNorm",
    "OptimusMLP",
    "OptimusSelfAttention",
    "OptimusTransformerLayer",
    "OptimusClassifierHead",
]


def _require_2d(pc: ParallelContext, what: str) -> ParallelContext:
    if pc.d != 1:
        raise GridError(
            f"{what} is a 2-D (Optimus) layer and requires depth d=1; got "
            f"shape {pc.shape} — use the Tesseract layers for d > 1"
        )
    return pc


class OptimusLinear(TesseractLinear):
    """SUMMA-based linear layer on a [q, q] grid."""

    def __init__(self, pc: ParallelContext, *args, **kwargs):
        super().__init__(_require_2d(pc, "OptimusLinear"), *args, **kwargs)


class OptimusLayerNorm(TesseractLayerNorm):
    """Distributed LayerNorm on a [q, q] grid (row all-reduce of moments)."""

    def __init__(self, pc: ParallelContext, *args, **kwargs):
        super().__init__(_require_2d(pc, "OptimusLayerNorm"), *args, **kwargs)


class OptimusMLP(MLP):
    """Feed-forward block with SUMMA matmuls on a [q, q] grid."""

    def __init__(self, pc: ParallelContext, *args, **kwargs):
        super().__init__(_require_2d(pc, "OptimusMLP"), *args, **kwargs)


class OptimusSelfAttention(SelfAttention):
    """Self-attention with SUMMA projections on a [q, q] grid."""

    def __init__(self, pc: ParallelContext, *args, **kwargs):
        super().__init__(_require_2d(pc, "OptimusSelfAttention"), *args, **kwargs)


class OptimusTransformerLayer(TransformerLayer):
    """Pre-LN transformer layer on a [q, q] grid."""

    def __init__(self, pc: ParallelContext, *args, **kwargs):
        super().__init__(_require_2d(pc, "OptimusTransformerLayer"), *args, **kwargs)


class OptimusClassifierHead(ClassifierHead):
    """Classifier head with a row all-gather of logits on a [q, q] grid."""

    def __init__(self, pc: ParallelContext, *args, **kwargs):
        super().__init__(_require_2d(pc, "OptimusClassifierHead"), *args, **kwargs)
