"""Complete models: Transformer language model and Vision Transformer.

Each model is one class built over the group the caller passes (a
:class:`~repro.sim.engine.RankContext`, a Megatron
:class:`~repro.comm.communicator.Communicator` or a Tesseract
:class:`~repro.grid.context.ParallelContext`); every layout shares every
logical weight (same named RNG streams), which is how the Fig. 7 exactness
experiment is constructed.
"""

from repro.models.configs import TransformerConfig, ViTConfig
from repro.models.transformer import TransformerLM
from repro.models.vit import ViT

__all__ = ["TransformerConfig", "ViTConfig", "TransformerLM", "ViT"]
