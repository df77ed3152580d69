"""THE central correctness property: every sharding == the serial model.

The paper's §4.3 ("Tesseract does not introduce any approximations") and §4
("to guarantee outputs are the same") demand that Megatron-1D, Optimus-2D
and Tesseract-2.5D stacks produce the serial model's outputs and gradients
bit-for-bit up to float32 reassociation.  The serial model itself is first
checked against an independent numpy layer (:mod:`tests.parallel.oracle`).
"""

import numpy as np
import pytest

from repro.parallel.factory import build_transformer_stack
from repro.pblas.layouts import combine_c
from repro.sim.engine import Engine
from repro.varray.varray import VArray

from tests.parallel import oracle

B, S, H, NH, NL = 8, 5, 16, 4, 2
ATOL = 5e-4


def _serial(x, dy, causal):
    """The serial stack's output, input gradient, gradients and weights."""

    def prog(ctx):
        handle = build_transformer_stack(ctx, "serial", NL, H, NH,
                                         causal=causal)
        y = handle.layers.forward(VArray.from_numpy(x))
        dx = handle.layers.backward(VArray.from_numpy(dy))
        params = dict(handle.layers.parameters())
        grads = {name: p.grad.numpy().copy() for name, p in params.items()}
        weights = {name: p.value.numpy().copy() for name, p in params.items()}
        return y.numpy(), dx.numpy(), grads, weights

    return Engine(nranks=1).run(prog)[0]


@pytest.fixture(scope="module")
def reference():
    """The serial stack, first checked against the independent numpy layer
    (causal and not), which shares no code with the skeleton every layout
    runs."""
    rng = np.random.default_rng(99)
    x = rng.normal(size=(B, S, H)).astype(np.float32)
    dy = rng.normal(size=(B, S, H)).astype(np.float32)

    for causal in (True, False):
        y, dx, grads, weights = _serial(x, dy, causal)
        y_np, dx_np, grads_np = oracle.stack(weights, x, dy, NL, NH, causal)
        assert np.allclose(y, y_np, atol=ATOL), f"serial fwd, causal={causal}"
        assert np.allclose(dx, dx_np, atol=ATOL), f"serial bwd, causal={causal}"
        assert grads.keys() == grads_np.keys()
        for name, g in grads.items():
            assert np.allclose(g, grads_np[name], atol=ATOL), (name, causal)
    return x, dy, y, dx, grads


class TestMegatronEquivalence:
    def test_forward_backward_match_serial(self, reference):
        x, dy, y_ref, dx_ref, _ = reference

        def prog(ctx):
            handle = build_transformer_stack(ctx, "megatron", NL, H, NH)
            y = handle.layers.forward(VArray.from_numpy(x))
            dx = handle.layers.backward(VArray.from_numpy(dy))
            return y.numpy(), dx.numpy()

        for rank, (y, dx) in enumerate(Engine(nranks=4).run(prog)):
            assert np.allclose(y, y_ref, atol=ATOL), f"fwd rank {rank}"
            assert np.allclose(dx, dx_ref, atol=ATOL), f"bwd rank {rank}"

    def test_layernorm_grads_match_serial(self, reference):
        x, dy, _, _, grads_ref = reference

        def prog(ctx):
            handle = build_transformer_stack(ctx, "megatron", NL, H, NH)
            handle.layers.forward(VArray.from_numpy(x))
            handle.layers.backward(VArray.from_numpy(dy))
            return {
                name: p.grad.numpy()
                for name, p in handle.layers.parameters()
                if ".ln" in name
            }

        grads = Engine(nranks=4).run(prog)[0]
        for name, g in grads.items():
            assert np.allclose(g, grads_ref[name], atol=ATOL), name


@pytest.mark.parametrize("mode,q,d", [
    ("optimus", 2, 1),
    ("tesseract", 2, 1),
    ("tesseract", 2, 2),
    ("tesseract", 4, 1),
    ("tesseract", 4, 2),
])
class TestGridEquivalence:
    def test_forward_backward_match_serial(self, reference, mode, q, d):
        x, dy, y_ref, dx_ref, _ = reference

        def prog(ctx):
            handle = build_transformer_stack(ctx, mode, NL, H, NH, q=q, d=d)
            y = handle.layers.forward(handle.local_input(x))
            dx = handle.layers.backward(handle.local_input(dy))
            pc = handle.pc
            return (pc.i, pc.j, pc.k), y.numpy(), dx.numpy()

        res = Engine(nranks=q * q * d).run(prog)
        y = combine_c({k: v for k, v, _ in res}, q, d)
        dx = combine_c({k: v for k, _, v in res}, q, d)
        assert np.allclose(y, y_ref, atol=ATOL), f"{mode} fwd"
        assert np.allclose(dx, dx_ref, atol=ATOL), f"{mode} bwd"


class TestWeightShardConsistency:
    def test_tesseract_weight_blocks_replicated_over_depth(self):
        def prog(ctx):
            handle = build_transformer_stack(ctx, "tesseract", 1, H, NH,
                                             q=2, d=2)
            pc = handle.pc
            w = dict(handle.layers.parameters())["0.mlp.fc1.w"]
            return (pc.i, pc.j, pc.k), w.value.numpy()

        res = dict(Engine(nranks=8).run(prog))
        for i in range(2):
            for j in range(2):
                assert np.array_equal(res[(i, j, 0)], res[(i, j, 1)])

    def test_shards_tile_the_serial_weight(self):
        def serial(ctx):
            handle = build_transformer_stack(ctx, "serial", 1, H, NH)
            return dict(handle.layers.parameters())["0.mlp.fc1.w"].value.numpy()

        w_ref = Engine(nranks=1).run(serial)[0]

        def par(ctx):
            handle = build_transformer_stack(ctx, "tesseract", 1, H, NH,
                                             q=2, d=1)
            pc = handle.pc
            w = dict(handle.layers.parameters())["0.mlp.fc1.w"]
            return (pc.i, pc.j), w.value.numpy()

        blocks = dict(Engine(nranks=4).run(par))
        rows, cols = w_ref.shape[0] // 2, w_ref.shape[1] // 2
        for (i, j), blk in blocks.items():
            expect = w_ref[i * rows:(i + 1) * rows, j * cols:(j + 1) * cols]
            assert np.array_equal(blk, expect)
