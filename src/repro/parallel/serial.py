"""The serial transformer layer, under the name the benchmark tracer wraps.

The serial model is :mod:`repro.parallel.layers`' one skeleton over the
base :class:`~repro.parallel.layers.Layout` (a
:class:`~repro.sim.engine.RankContext` group): every parallel layout slices
the same named weight streams, so it is the "single GPU" baseline of Fig. 7
and the reference of every parallel == serial test, itself checked against
an independent numpy layer (``tests/parallel/oracle.py``).
"""

from repro.parallel.layers import TransformerLayer

__all__ = ["SerialTransformerLayer"]

#: the one layer under the name ``benchmarks/e2e/e2e_tracer.py`` wraps
SerialTransformerLayer = TransformerLayer
