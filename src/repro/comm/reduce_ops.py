"""Reduction operators for reducing collectives.

Reductions are applied in group-rank order by a single engine thread, so
floating-point results are deterministic across runs (§4 of the paper fixes
seeds for the same reason).
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from repro.errors import CommError, ShapeError
from repro.varray.varray import VArray

__all__ = ["ReduceOp", "combine"]


class ReduceOp(enum.Enum):
    """Supported reduction operators."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"
    PROD = "prod"

    # Members are singletons compared by identity, so they may hash by
    # identity too: ``Enum.__hash__`` hashes the member name in Python,
    # and every reduction call looks its op spec up by a key holding it.
    __hash__ = object.__hash__


_NUMPY_FN = {
    ReduceOp.SUM: np.add,
    ReduceOp.MAX: np.maximum,
    ReduceOp.MIN: np.minimum,
    ReduceOp.PROD: np.multiply,
}


def combine(op: ReduceOp, payloads: Sequence[VArray]) -> VArray:
    """Fold ``payloads`` (in order) with ``op``; symbolic-aware.

    All payloads must share shape and dtype.  In real mode the fold is
    performed left-to-right in the payload dtype, mirroring how NCCL
    accumulates.
    """
    if not payloads:
        raise CommError("cannot reduce zero payloads")
    first = payloads[0]
    for p in payloads[1:]:
        if p.shape != first.shape:
            raise ShapeError(
                f"reduce shape mismatch across ranks: {p.shape} vs {first.shape}"
            )
        if p.dtype != first.dtype:
            raise ShapeError(
                f"reduce dtype mismatch across ranks: {p.dtype} vs {first.dtype}"
            )
    if any(p.is_symbolic for p in payloads):
        return VArray.symbolic(first.shape, first.dtype)
    fn = _NUMPY_FN[op]
    acc = payloads[0].numpy()
    for p in payloads[1:]:
        acc = fn(acc, p.numpy())
    return VArray(first.shape, first.dtype, acc)
