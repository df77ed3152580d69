"""The :class:`VArray` container: a numpy array or just its shape.

Design notes
------------
* A VArray is immutable in spirit: ops return new VArrays.  (Optimizers
  update parameters by *replacing* the VArray, never by writing through a
  view another rank might hold.)
* ``data is None`` marks a symbolic array.  All shape/dtype bookkeeping is
  identical in both modes, so an algorithm that type-checks symbolically is
  guaranteed to run real data through the same code path.
* Symbolic mode stores nothing per element, so Table 1's hidden-8192 /
  batch-768 configurations simulate in constant memory.
* ``size`` and ``nbytes`` are computed once, at construction: every priced
  op reads them several times and a shape never changes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ShapeError

__all__ = ["VArray"]


class VArray:
    """A dense tensor that may or may not carry data.

    Construct via :meth:`from_numpy`, :meth:`symbolic`, :meth:`zeros` or
    :meth:`full` rather than the raw constructor.
    """

    #: ``size`` (element count) and ``nbytes`` (storage footprint in bytes,
    #: real or would-be) are derived from ``shape`` and ``dtype`` once, here
    __slots__ = ("shape", "dtype", "data", "size", "nbytes")

    def __init__(
        self,
        shape: Sequence[int],
        dtype: np.dtype | str = np.float32,
        data: np.ndarray | None = None,
    ):
        shape = tuple([int(s) for s in shape])
        for s in shape:
            if s < 0:
                raise ShapeError(f"negative dimension in shape {shape}")
        dtype = np.dtype(dtype)
        if data is not None:
            if tuple(data.shape) != shape:
                raise ShapeError(
                    f"data shape {data.shape} does not match declared {shape}"
                )
            if data.dtype != dtype:
                data = data.astype(dtype)
        self.shape: tuple[int, ...] = shape
        self.dtype = dtype
        self.data = data
        self.size: int = math.prod(shape)
        self.nbytes: int = self.size * dtype.itemsize

    # --- constructors ---------------------------------------------------------

    @classmethod
    def _trusted(
        cls, shape: tuple[int, ...], dtype: np.dtype, data: np.ndarray | None
    ) -> "VArray":
        """Build an op output without re-validating what the op just inferred.

        The caller guarantees what ``__init__`` would otherwise check or
        convert: ``shape`` is a tuple of non-negative Python ints, ``dtype``
        is an ``np.dtype`` instance, and ``data`` is either ``None`` or an
        array of exactly that shape and dtype.  Internal to
        :mod:`repro.varray`; everything else goes through the public
        constructors.
        """
        self = object.__new__(cls)
        self.shape = shape
        self.dtype = dtype
        self.data = data
        self.size = size = math.prod(shape)
        self.nbytes = size * dtype.itemsize
        return self

    @classmethod
    def from_numpy(cls, arr: np.ndarray, dtype: np.dtype | str | None = None) -> "VArray":
        """Wrap a numpy array (copying only if a dtype conversion is needed)."""
        arr = np.asarray(arr)
        dt = np.dtype(dtype) if dtype is not None else arr.dtype
        if arr.dtype != dt:
            arr = arr.astype(dt)
        return cls(arr.shape, dt, arr)

    @classmethod
    def symbolic(cls, shape: Sequence[int], dtype: np.dtype | str = np.float32) -> "VArray":
        """A shape-only array (no storage)."""
        return cls(shape, dtype, None)

    @classmethod
    def zeros(
        cls,
        shape: Sequence[int],
        dtype: np.dtype | str = np.float32,
        symbolic: bool = False,
    ) -> "VArray":
        """An all-zeros array, real or symbolic."""
        if symbolic:
            return cls.symbolic(shape, dtype)
        return cls(shape, dtype, np.zeros(shape, dtype=dtype))

    @classmethod
    def full(
        cls,
        shape: Sequence[int],
        value: float,
        dtype: np.dtype | str = np.float32,
        symbolic: bool = False,
    ) -> "VArray":
        """A constant-filled array, real or symbolic."""
        if symbolic:
            return cls.symbolic(shape, dtype)
        return cls(shape, dtype, np.full(shape, value, dtype=dtype))

    # --- properties -------------------------------------------------------------

    @property
    def is_symbolic(self) -> bool:
        """True when this array carries no data."""
        return self.data is None

    @property
    def ndim(self) -> int:
        return len(self.shape)

    # --- accessors --------------------------------------------------------------

    def numpy(self) -> np.ndarray:
        """The underlying numpy array; raises on symbolic arrays."""
        if self.data is None:
            raise ShapeError(
                f"VArray{self.shape} is symbolic; numerical access is only "
                f"available in real mode"
            )
        return self.data

    def copy(self) -> "VArray":
        """A deep copy (symbolic arrays copy trivially)."""
        data = self.data
        return VArray._trusted(
            self.shape, self.dtype, None if data is None else data.copy()
        )

    def like(self, shape: Sequence[int]) -> "VArray":
        """A symbolic/real-*consistent* empty-ish array of a new shape.

        Used by ops to build outputs: symbolic input -> symbolic output.
        """
        if self.is_symbolic:
            return VArray.symbolic(shape, self.dtype)
        return VArray.zeros(shape, self.dtype)

    def astuple(self) -> tuple[tuple[int, ...], str, bool]:
        """(shape, dtype name, is_symbolic) — handy for assertions."""
        return (self.shape, self.dtype.name, self.is_symbolic)

    def signature(self) -> tuple[tuple[int, ...], np.dtype, bool]:
        """(shape, dtype, is_symbolic): all that a shape-only pass over this
        array can depend on.  Hashable, and cheaper than :meth:`astuple`
        (no dtype name); ``RankContext.replay`` keys are built from it."""
        return (self.shape, self.dtype, self.data is None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "symbolic" if self.is_symbolic else "real"
        return f"VArray(shape={self.shape}, dtype={self.dtype.name}, {kind})"
