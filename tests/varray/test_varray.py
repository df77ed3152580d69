"""Tests for the VArray container."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.varray.varray import VArray
from tests.varray.conftest import assert_sizes


class TestConstruction:
    def test_from_numpy(self):
        a = VArray.from_numpy(np.ones((2, 3), dtype=np.float32))
        assert a.shape == (2, 3)
        assert not a.is_symbolic
        assert a.dtype == np.float32

    def test_from_numpy_dtype_conversion(self):
        a = VArray.from_numpy(np.ones(3, dtype=np.float64), dtype=np.float32)
        assert a.dtype == np.float32

    def test_symbolic(self):
        a = VArray.symbolic((4, 5))
        assert a.is_symbolic
        assert a.shape == (4, 5)
        assert a.size == 20

    def test_zeros_real(self):
        a = VArray.zeros((2, 2))
        assert float(a.numpy().sum()) == 0.0

    def test_zeros_symbolic(self):
        assert VArray.zeros((2, 2), symbolic=True).is_symbolic

    def test_full(self):
        a = VArray.full((3,), 2.5)
        assert np.allclose(a.numpy(), 2.5)

    def test_negative_dim_rejected(self):
        with pytest.raises(ShapeError):
            VArray.symbolic((2, -1))

    def test_data_shape_mismatch(self):
        with pytest.raises(ShapeError):
            VArray((2, 3), np.float32, np.ones((3, 2), dtype=np.float32))


F32 = np.dtype(np.float32)

#: every way a VArray comes into being, public and trusted, real and symbolic
CONSTRUCTION_PATHS = {
    "init_symbolic": lambda: VArray((2, 3, 4), np.float64),
    "init_real": lambda: VArray((2, 3), np.float32, np.ones((2, 3), np.float32)),
    "init_converts_dtype": lambda: VArray((2,), np.float32, np.ones(2, np.float64)),
    "init_numpy_int_dims": lambda: VArray(np.array([2, 5]), "int64"),
    "init_zero_dim": lambda: VArray((0, 7)),
    "from_numpy": lambda: VArray.from_numpy(np.ones((3, 5), np.float64)),
    "from_numpy_dtype": lambda: VArray.from_numpy(np.ones(3), dtype=np.float16),
    "symbolic": lambda: VArray.symbolic((4, 5), np.int64),
    "symbolic_scalar": lambda: VArray.symbolic(()),
    "zeros_real": lambda: VArray.zeros((2, 2)),
    "zeros_symbolic": lambda: VArray.zeros((2, 2), symbolic=True),
    "full_real": lambda: VArray.full((3,), 2.5, np.float64),
    "full_symbolic": lambda: VArray.full((3, 3), 2.5, symbolic=True),
    "copy_real": lambda: VArray.from_numpy(np.ones((2, 3), np.float32)).copy(),
    "copy_symbolic": lambda: VArray.symbolic((6,), np.float64).copy(),
    "like_real": lambda: VArray.zeros((2,), np.float64).like((4, 4)),
    "like_symbolic": lambda: VArray.symbolic((2,), np.float64).like((4, 4)),
    "trusted_symbolic": lambda: VArray._trusted((3, 4), F32, None),
    "trusted_real": lambda: VArray._trusted((3, 4), F32, np.ones((3, 4), np.float32)),
    "trusted_scalar": lambda: VArray._trusted((), F32, None),
}


class TestStoredSizes:
    """``size`` and ``nbytes`` are stored once, by every construction path."""

    @pytest.mark.parametrize("path", sorted(CONSTRUCTION_PATHS))
    def test_every_construction_path(self, path):
        assert_sizes(CONSTRUCTION_PATHS[path]())

    def test_sizes_are_plain_slots(self):
        assert {"size", "nbytes"} <= set(VArray.__slots__)
        assert not isinstance(vars(VArray)["size"], property)
        assert not isinstance(vars(VArray)["nbytes"], property)

    def test_copy_is_deep(self):
        a = VArray.from_numpy(np.ones((2, 2), np.float32))
        b = a.copy()
        b.numpy()[0, 0] = 5.0
        assert a.numpy()[0, 0] == 1.0

    @pytest.mark.parametrize("shape", [(-1,), (2, -3), (-2, -3)])
    def test_public_constructor_rejects_negative_dims(self, shape):
        with pytest.raises(ShapeError, match="negative dimension"):
            VArray(shape)

    def test_public_constructor_rejects_mismatched_data(self):
        with pytest.raises(ShapeError, match="does not match declared"):
            VArray((4,), np.float32, np.ones((2, 2), np.float32))

    def test_public_constructor_converts_data_dtype(self):
        a = VArray((2,), np.float32, np.ones(2, np.float64))
        assert a.numpy().dtype == np.float32


class TestProperties:
    def test_nbytes(self):
        assert VArray.symbolic((10, 10), np.float32).nbytes == 400
        assert VArray.symbolic((10,), np.float64).nbytes == 80

    def test_ndim(self):
        assert VArray.symbolic((1, 2, 3)).ndim == 3

    def test_scalar_shape(self):
        s = VArray.symbolic(())
        assert s.size == 1
        assert s.ndim == 0

    def test_numpy_raises_on_symbolic(self):
        with pytest.raises(ShapeError, match="symbolic"):
            VArray.symbolic((2,)).numpy()

    def test_astuple(self):
        assert VArray.symbolic((2,), np.float32).astuple() == ((2,), "float32", True)


class TestCopyAndLike:
    def test_copy_real_is_deep(self):
        a = VArray.from_numpy(np.zeros(3, dtype=np.float32))
        b = a.copy()
        b.numpy()[0] = 5
        assert a.numpy()[0] == 0

    def test_copy_symbolic(self):
        assert VArray.symbolic((2,)).copy().is_symbolic

    def test_like_preserves_mode(self):
        real = VArray.zeros((2,))
        sym = VArray.symbolic((2,))
        assert not real.like((5,)).is_symbolic
        assert sym.like((5,)).is_symbolic
        assert sym.like((5,)).shape == (5,)
