"""Neural-network substrate: explicit forward/backward modules + optimizers.

No autograd: every module implements ``forward`` and ``backward`` by hand
(the paper's §3.2 derives the backward rules explicitly, e.g. Eq. 3 for the
linear layers and Eq. 14 for LayerNorm — this package is those equations in
code).  All math flows through :mod:`repro.varray.ops`, so the same modules
run in real mode (numerics) and symbolic mode (paper-scale timing), and
every flop lands on the owning rank's virtual clock.

The building blocks live here; the transformer layer, MLP, attention block
and classifier head are written once in :mod:`repro.parallel.layers` and
run serial or sharded (Megatron/Optimus/Tesseract) over a layout.
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module, Sequential
from repro.nn.linear import Linear
from repro.nn.activation import GELU, ReLU, Dropout
from repro.nn.normalization import LayerNorm
from repro.nn.attention import attention_core, attention_core_backward
from repro.nn.embedding import Embedding, PatchEmbedding
from repro.nn.checkpoint import ActivationCheckpoint
from repro.nn.serialize import (
    load_checkpoint,
    load_state_dict,
    save_checkpoint,
    state_dict,
)
from repro.nn.loss import SoftmaxCrossEntropy, MeanSquaredError

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "GELU",
    "ReLU",
    "Dropout",
    "LayerNorm",
    "attention_core",
    "attention_core_backward",
    "Embedding",
    "PatchEmbedding",
    "ActivationCheckpoint",
    "state_dict",
    "load_state_dict",
    "save_checkpoint",
    "load_checkpoint",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
]
