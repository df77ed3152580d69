"""Every op output built by a ``tests/varray`` test is checked against the
``VArray`` size invariant: ``size`` and ``nbytes`` are stored at construction
(by the public and the trusted constructor alike), so they must agree with
``shape`` and ``dtype`` on whatever an op returns."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.varray import ops
from repro.varray.varray import VArray


def assert_sizes(v: VArray) -> None:
    """``size == prod(shape)``, ``nbytes == size * itemsize``, plain types."""
    assert type(v.shape) is tuple and all(type(s) is int for s in v.shape)
    assert isinstance(v.dtype, np.dtype)
    assert v.size == math.prod(v.shape)
    assert v.nbytes == v.size * v.dtype.itemsize
    if v.data is not None:
        assert v.data.shape == v.shape and v.data.dtype == v.dtype


def _checked(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        for v in out if isinstance(out, list) else [out]:
            assert_sizes(v)
        return out

    return wrapper


@pytest.fixture(autouse=True)
def _op_outputs_keep_the_size_invariant(monkeypatch):
    for name in ops.__all__:
        if not name.startswith("exact_kernels"):
            monkeypatch.setattr(ops, name, _checked(getattr(ops, name)))
