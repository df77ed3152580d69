"""Tests for the transformer-stack factory."""

import numpy as np
import pytest

from repro.errors import ConfigError, GridError
from repro.parallel.factory import (
    MODES,
    StackHandle,
    build_transformer_stack,
    grid_shape,
)
from repro.sim.engine import Engine
from repro.varray.varray import VArray

from tests.conftest import run_spmd


class TestGridShape:
    """grid_shape is the one check of a mode and its grid dimensions."""

    def test_depth_bounded_by_q(self):
        with pytest.raises(GridError, match=r"d=3 must satisfy 1 <= d <= q=2"):
            grid_shape("tesseract", q=2, d=3)

    def test_megatron_needs_its_group_size(self):
        with pytest.raises(GridError, match="world"):
            grid_shape("megatron")
        with pytest.raises(GridError, match="world"):
            grid_shape("megatron", world=0)
        assert grid_shape("megatron", world=4) == (1, 1)

    def test_unused_dimensions_are_not_read(self):
        assert grid_shape("serial", q=0, d=-1, world=0) == (1, 1)
        assert grid_shape("tesseract", q=2, d=2, world=0) == (2, 2)

    def test_a_grid_error_is_a_config_error(self):
        assert issubclass(GridError, ConfigError)
        assert issubclass(ConfigError, ValueError)


class TestBuild:
    def test_all_modes_construct(self):
        def prog(ctx):
            out = []
            for mode in MODES:
                handle = build_transformer_stack(
                    ctx, mode, num_layers=1, hidden=8, nheads=4, q=2, d=1,
                    world=4,
                )
                out.append((mode, len(handle.layers)))
            return out

        res = run_spmd(4, prog, mode="symbolic")[0]
        assert res == [(m, 1) for m in MODES]

    def test_unknown_mode(self):
        def prog(ctx):
            build_transformer_stack(ctx, "3d", 1, 8, 2)

        with pytest.raises(GridError, match="unknown parallel mode"):
            run_spmd(1, prog)

    def test_grid_modes_require_q(self):
        def prog(ctx):
            build_transformer_stack(ctx, "tesseract", 1, 8, 2)

        with pytest.raises(GridError, match="requires the grid dimension"):
            run_spmd(1, prog)

    def test_optimus_rejects_depth(self):
        def prog(ctx):
            build_transformer_stack(ctx, "optimus", 1, 8, 2, q=2, d=2)

        with pytest.raises(GridError, match="d=1"):
            run_spmd(8, prog, mode="symbolic")

    def test_num_layers_respected(self):
        def prog(ctx):
            handle = build_transformer_stack(ctx, "serial", 3, 8, 2)
            return len(handle.layers)

        assert run_spmd(1, prog, mode="symbolic") == [3]


class TestLocalShapes:
    def test_serial_and_megatron_full(self):
        def prog(ctx):
            s = build_transformer_stack(ctx, "serial", 1, 8, 2)
            m = build_transformer_stack(ctx, "megatron", 1, 8, 2, world=2)
            return s.local_shape(4, 3, 8), m.local_shape(4, 3, 8)

        res = run_spmd(2, prog, mode="symbolic")[0]
        assert res == ((4, 3, 8), (4, 3, 8))

    def test_tesseract_blocks(self):
        def prog(ctx):
            t = build_transformer_stack(ctx, "tesseract", 1, 8, 2, q=2, d=2)
            return t.local_shape(16, 3, 8)

        assert run_spmd(8, prog, mode="symbolic") == [(4, 3, 4)] * 8

    def test_symbolic_input(self):
        def prog(ctx):
            t = build_transformer_stack(ctx, "tesseract", 1, 8, 2, q=2, d=1)
            x = t.symbolic_input(8, 3, 8)
            return x.is_symbolic, x.shape

        assert run_spmd(4, prog, mode="symbolic") == [(True, (4, 3, 4))] * 4

    def test_local_input_slices_correctly(self, rng):
        x = rng.normal(size=(8, 2, 8)).astype(np.float32)

        def prog(ctx):
            t = build_transformer_stack(ctx, "tesseract", 1, 8, 2, q=2, d=2)
            pc = t.pc
            block = t.local_input(x).numpy()
            h = pc.block_row
            rows = x.shape[0] // (pc.d * pc.q)
            expect = x[h * rows:(h + 1) * rows, :, pc.j * 4:(pc.j + 1) * 4]
            return np.array_equal(block, expect)

        assert all(run_spmd(8, prog))

    def test_combine_output_roundtrip(self, rng):
        x = rng.normal(size=(8, 2, 8)).astype(np.float32)

        def prog(ctx):
            t = build_transformer_stack(ctx, "tesseract", 1, 8, 2, q=2, d=2)
            pc = t.pc
            return (pc.i, pc.j, pc.k), t.local_input(x).numpy(), t

        res = Engine(nranks=8).run(prog)
        handle = res[0][2]
        blocks = {k: v for k, v, _ in res}
        assert np.array_equal(handle.combine_output(blocks), x)
