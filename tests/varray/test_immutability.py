"""No ``ops`` function writes to a :class:`VArray` after its construction.

``RankContext.replay`` hands the *same* shape-only arrays to every caller
of a recorded pass, and the KV caches re-reference block tensors instead of
copying them.  Both are sound only while an array, once built, is never
written again: not its ``shape``/``dtype``/``data`` slots, and not the numpy
buffer behind ``data``.  This pins that for every function in ``ops``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.varray import ops
from repro.varray.varray import VArray

A = np.arange(1, 13, dtype=np.float32).reshape(3, 4) / 7.0
B = np.arange(12, 0, -1, dtype=np.float32).reshape(3, 4) / 5.0
IDX = np.array([2, 0, 2], dtype=np.int64)

#: op name -> (numpy inputs, call on the VArrays built from them)
CASES = {
    "matmul": ((A, B.T.copy()), lambda c, a, b: ops.matmul(c, a, b)),
    "add": ((A, B), ops.add),
    "sub": ((A, B), ops.sub),
    "mul": ((A, B), ops.mul),
    "div": ((A, B), ops.div),
    "scale": ((A,), lambda c, a: ops.scale(c, a, 0.5)),
    "neg": ((A,), ops.neg),
    "exp": ((A,), ops.exp),
    "sqrt": ((A,), ops.sqrt),
    "square": ((A,), ops.square),
    "reciprocal": ((A,), ops.reciprocal),
    "tanh": ((A,), ops.tanh),
    "power": ((A,), lambda c, a: ops.power(c, a, 2.0)),
    "gelu": ((A,), ops.gelu),
    "gelu_grad": ((A, B), ops.gelu_grad),
    "relu": ((A,), ops.relu),
    "relu_grad": ((A, B), ops.relu_grad),
    "softmax": ((A,), ops.softmax),
    "softmax_grad": ((A, B), ops.softmax_grad),
    "reduce_sum": ((A,), ops.reduce_sum),
    "reduce_mean": ((A,), ops.reduce_mean),
    "reduce_max": ((A,), ops.reduce_max),
    "transpose": ((A,), lambda c, a: ops.transpose(c, a, (1, 0))),
    "swap_last_two": ((A,), ops.swap_last_two),
    "reshape": ((A,), lambda c, a: ops.reshape(c, a, (4, 3))),
    "concat": ((A, B), lambda c, a, b: ops.concat(c, [a, b], axis=1)),
    "split": ((A,), lambda c, a: ops.split(c, a, 2, axis=1)),
    "take_rows": ((A, IDX), ops.take_rows),
    "add_at_rows": ((IDX, A), lambda c, i, v: ops.add_at_rows(c, (3, 4), i, v)),
    "cast": ((A,), lambda c, a: ops.cast(c, a, np.float64)),
    "argmax": ((A,), ops.argmax),
}


def test_every_op_is_covered():
    assert set(CASES) == set(ops.__all__) - {"exact_kernels",
                                             "exact_kernels_enabled"}


@pytest.fixture
def frozen(monkeypatch):
    """Ids of arrays that must not be written any more; writing a slot of
    one of them fails the test at the offending statement."""
    ids: set[int] = set()

    def guarded(self, name, value):
        assert id(self) not in ids, (
            f"VArray.{name} assigned after construction")
        object.__setattr__(self, name, value)

    monkeypatch.setattr(VArray, "__setattr__", guarded, raising=False)
    return ids


@pytest.mark.parametrize("symbolic", [False, True], ids=["real", "symbolic"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_op_leaves_its_operands_as_built(ctx1, frozen, name, symbolic):
    arrays, call = CASES[name]
    operands = [
        VArray.symbolic(a.shape, a.dtype)
        if symbolic and a.dtype != np.int64 else VArray.from_numpy(a.copy())
        for a in arrays
    ]
    before = [(v.shape, v.dtype, v.size, v.nbytes, v.data,
               None if v.data is None else v.data.tobytes())
              for v in operands]
    frozen.update(id(v) for v in operands)
    with ops.exact_kernels(name == "matmul"):
        out = call(ctx1, *operands)
    outputs = out if isinstance(out, list) else [out]
    # a second op over the first one's outputs must leave those alone too
    frozen.update(id(v) for v in outputs)
    kept = [None if v.data is None else v.data.tobytes() for v in outputs]
    for v in outputs:
        ops.scale(ctx1, v, 2.0)
    assert kept == [None if v.data is None else v.data.tobytes()
                    for v in outputs]
    for v, (shape, dtype, size, nbytes, data, raw) in zip(operands, before):
        assert v.shape is shape and v.dtype is dtype
        assert (v.size, v.nbytes) == (size, nbytes)
        assert v.data is data
        assert raw is None or data.tobytes() == raw


def test_the_guard_sees_a_write(frozen):
    v = VArray.symbolic((2, 2))
    frozen.add(id(v))
    with pytest.raises(AssertionError, match="after construction"):
        v.shape = (4,)
