"""Per-GPU memory of one distributed matmul (the paper's Eq. 7-10).

All functions return *element counts*; multiply by the dtype size for
bytes (:func:`elements_to_bytes`).  A whole transformer layer's footprint
is not a closed form here: :meth:`repro.plan.cost.PlanCostModel.estimate`
derives it from the layer's declared parameter shards and saved tensors.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GridError

__all__ = [
    "tesseract_matmul_memory",
    "megatron_matmul_memory",
    "summa_matmul_memory",
    "solomonik_matmul_memory",
    "elements_to_bytes",
]


def tesseract_matmul_memory(a: int, b: int, c: int, q: int, d: int) -> float:
    """Eq. 7/8: per-GPU elements for C = A[a,b] @ B[b,c] on [q, q, d].

    ``a*b/p + b*c*d/p + a*c/p`` with ``p = d q^2`` — A and C are fully
    partitioned; B is replicated ``d`` times (the ``b*c*d`` term the paper
    calls "negligible").
    """
    p = d * q * q
    if p < 1:
        raise GridError(f"invalid grid [{q},{q},{d}]")
    return a * b / p + b * c * d / p + a * c / p


def megatron_matmul_memory(a: int, b: int, c: int, p: int) -> float:
    """Eq. 9/10: Megatron-LM per-GPU elements: ``a*b + b*c/p + a*c/p``.

    The input matrix A is fully replicated — the ``p``-times-larger term
    the paper's comparison hinges on.
    """
    if p < 1:
        raise GridError(f"p must be >= 1, got {p}")
    return a * b + b * c / p + a * c / p


def summa_matmul_memory(a: int, b: int, c: int, q: int) -> float:
    """2-D SUMMA (Optimus) per-GPU elements: the d = 1 case of Eq. 8."""
    return tesseract_matmul_memory(a, b, c, q, 1)


def solomonik_matmul_memory(a: int, b: int, c: int, q: int, d: int) -> float:
    """2.5-D per-GPU elements: *both* inputs replicated ``d`` times.

    ``d(a*b + b*c)/q^2 /d + ...`` — each layer holds a full [q, q] block of
    A and B (``a*b/q^2 + b*c/q^2``) plus its C partial, i.e. ``d`` times the
    2-D footprint for the inputs.  This is the §2.3 memory-for-communication
    trade Tesseract avoids on the A side.
    """
    if d < 1 or q < 1:
        raise GridError(f"invalid grid [{q},{q},{d}]")
    return a * b / (q * q) + b * c / (q * q) + a * c / (q * q)


def elements_to_bytes(elements: float, dtype=np.float32) -> float:
    """Convert element counts to bytes for a dtype."""
    return elements * np.dtype(dtype).itemsize
