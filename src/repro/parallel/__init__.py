"""Sharded transformer layers for each tensor-parallel scheme.

One layer skeleton (:mod:`repro.parallel.layers`: the transformer layer,
MLP, attention and classifier head) runs every scheme; a small layout,
chosen by :func:`~repro.parallel.layers.layout_of` from the group a module
is built over, supplies only what differs:

* serial (a :class:`~repro.sim.engine.RankContext`): :class:`~repro.nn.Linear`
  and :class:`~repro.nn.LayerNorm`;
* :mod:`repro.parallel.megatron` (a
  :class:`~repro.comm.communicator.Communicator`) — the 1-D baseline
  (§2.5): column/row weight shards, replicated activations, one all-reduce
  per block per direction;
* :mod:`repro.parallel.tesseract` (a
  :class:`~repro.grid.context.ParallelContext`) — the paper's 2.5-D scheme
  (§3): activations blocked over a ``[q, q]`` grid and banded across ``d``
  depth slices; :mod:`repro.parallel.optimus` (§2.2) is its ``d = 1``
  guard.

All layouts materialize their local weights by *slicing the same global
Xavier draws*, so every scheme computes bit-identical logical math
(checked by the equivalence tests, against a numpy oracle, and Fig. 7).
"""

from repro.parallel import megatron, optimus, tesseract
from repro.parallel.dp import dp_batch_slice, sync_gradients
from repro.parallel.factory import build_transformer_stack
from repro.parallel.layers import (
    MLP,
    ClassifierHead,
    Layout,
    SelfAttention,
    TransformerLayer,
    layout_of,
)
from repro.parallel.pipeline import PipelineStage
from repro.parallel.zero import ZeroOptimizer

__all__ = [
    "ZeroOptimizer",
    "megatron",
    "optimus",
    "tesseract",
    "Layout",
    "layout_of",
    "TransformerLayer",
    "MLP",
    "SelfAttention",
    "ClassifierHead",
    "build_transformer_stack",
    "sync_gradients",
    "dp_batch_slice",
    "PipelineStage",
]
