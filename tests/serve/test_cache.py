"""Tests for the per-rank KV cache manager."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.serve.cache import KVCacheManager
from repro.sim.engine import Engine
from repro.varray.varray import VArray


def _kv(layers, ntokens, width=4):
    rng = np.random.default_rng(ntokens)
    return [
        (
            VArray.from_numpy(rng.normal(size=(1, ntokens, width))
                              .astype(np.float32)),
            VArray.from_numpy(rng.normal(size=(1, ntokens, width))
                              .astype(np.float32)),
        )
        for _ in range(layers)
    ]


def _run(fn):
    return Engine(nranks=1, trace=False).run(fn)[0]


class TestBookkeeping:
    def test_insert_grow_evict(self):
        def prog(ctx):
            cache = KVCacheManager(ctx, num_layers=2, num_slots=4,
                                   band_slots=range(4), kv_width=4,
                                   budget_tokens=64)
            cache.insert(0, _kv(2, 5), 5)
            cache.insert(1, _kv(2, 3), 3)
            assert cache.used_tokens == 8
            assert cache.fits({0: 56}) and not cache.fits({0: 57})
            cache.grow(0)
            assert cache.length(0) == 6
            assert cache.peak_tokens == 9
            cache.evict(0)
            assert cache.used_tokens == 3
            return cache.peak_tokens

        assert _run(prog) == 9

    def test_double_insert_raises(self):
        def prog(ctx):
            cache = KVCacheManager(ctx, num_layers=1, num_slots=2,
                                   band_slots=range(2), kv_width=4,
                                   budget_tokens=64)
            cache.insert(0, _kv(1, 2), 2)
            cache.insert(0, _kv(1, 2), 2)

        with pytest.raises(SimulationError, match="occupied"):
            _run(prog)

    def test_memory_accounting(self):
        def prog(ctx):
            cache = KVCacheManager(ctx, num_layers=2, num_slots=2,
                                   band_slots=range(1), kv_width=8,
                                   budget_tokens=64)
            # 2 (k+v) * 4 B * width 8 * 2 layers = 128 B per token.
            assert cache.bytes_per_token == 128
            cache.insert(0, _kv(2, 4, width=8), 4)  # band slot: charged
            cache.insert(1, _kv(2, 4, width=8), 4)  # off band: bookkeeping only
            assert ctx.mem.current("kvcache") == 4 * 128
            cache.evict(0)
            cache.evict(1)
            assert ctx.mem.current("kvcache") == 0
            return True

        assert _run(prog)


class TestAssembleAppend:
    def test_assemble_pads_to_s_max(self):
        def prog(ctx):
            cache = KVCacheManager(ctx, num_layers=1, num_slots=3,
                                   band_slots=range(3), kv_width=4,
                                   budget_tokens=64)
            kv0, kv1 = _kv(1, 5), _kv(1, 3)
            cache.insert(0, kv0, 5)
            cache.insert(1, kv1, 3)
            frame = cache.assemble([0, 1, None], s_max=5)
            (k, v), = frame
            assert k.shape == (3, 5, 4) and v.shape == (3, 5, 4)
            assert np.array_equal(k.data[0], kv0[0][0].data[0])
            assert np.array_equal(k.data[1, :3], kv1[0][0].data[0])
            assert np.all(k.data[1, 3:] == 0)  # padding tokens
            assert np.all(k.data[2] == 0)  # padding row
            return True

        assert _run(prog)

    def test_append_rows_extends_band_slots(self):
        def prog(ctx):
            cache = KVCacheManager(ctx, num_layers=1, num_slots=2,
                                   band_slots=range(2), kv_width=4,
                                   budget_tokens=64)
            cache.insert(0, _kv(1, 2), 2)
            cache.insert(1, _kv(1, 3), 3)
            step = np.arange(8, dtype=np.float32).reshape(2, 1, 4)
            new_kv = [(VArray.from_numpy(step), VArray.from_numpy(step + 100))]
            cache.append_rows([0, 1], new_kv)
            cache.grow(0)
            cache.grow(1)
            frame = cache.assemble([0, 1], s_max=4)
            (k, v), = frame
            assert np.array_equal(k.data[0, 2], step[0, 0])
            assert np.array_equal(k.data[1, 3], step[1, 0])
            assert np.array_equal(v.data[1, 3], step[1, 0] + 100)
            assert np.all(k.data[0, 3] == 0)  # slot 0 padded to s_max
            return True

        assert _run(prog)

    def test_symbolic_mode_shapes(self):
        def prog(ctx):
            cache = KVCacheManager(ctx, num_layers=2, num_slots=2,
                                   band_slots=range(2), kv_width=4,
                                   budget_tokens=64)
            kv = [(VArray.symbolic((1, 3, 4)), VArray.symbolic((1, 3, 4)))
                  for _ in range(2)]
            cache.insert(0, kv, 3)
            frame = cache.assemble([0, None], s_max=3)
            assert all(k.is_symbolic and k.shape == (2, 3, 4)
                       for k, _ in frame)
            return True

        assert Engine(nranks=1, mode="symbolic", trace=False).run(prog)[0]

    def test_budget_validation(self):
        def prog(ctx):
            KVCacheManager(ctx, num_layers=1, num_slots=1,
                           band_slots=range(1), kv_width=4, budget_tokens=0)

        with pytest.raises(SimulationError, match="budget"):
            _run(prog)
