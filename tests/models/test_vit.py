"""Tests for the Vision Transformer: serial, Megatron and Tesseract."""

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.grid.context import ParallelContext
from repro.models.configs import ViTConfig
from repro.models.vit import SerialViT, TesseractViT, ViT
from repro.sim.engine import Engine
from repro.varray.varray import VArray

CFG = ViTConfig(image_size=8, patch_size=4, channels=3, hidden=16, nheads=4,
                num_layers=1, num_classes=4)


class TestSerialViT:
    def test_forward_shape(self, rng):
        def prog(ctx):
            model = SerialViT(ctx, CFG)
            x = model.local_images(
                rng.normal(size=(4, 3, 8, 8)).astype(np.float32))
            logits = model.forward(x)
            model.backward(VArray.from_numpy(
                np.zeros((4, 4), dtype=np.float32)))
            return logits.shape

        assert Engine(nranks=1).run(prog) == [(4, 4)]

    def test_gradients_populate_all_params(self, rng):
        def prog(ctx):
            model = SerialViT(ctx, CFG)
            x = model.local_images(
                rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
            model.forward(x)
            model.backward(VArray.from_numpy(
                rng.normal(size=(2, 4)).astype(np.float32)))
            return [name for name, p in model.parameters() if p.grad is None]

        assert Engine(nranks=1).run(prog)[0] == []

    def test_deterministic(self, rng):
        imgs = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)

        def prog(ctx):
            model = SerialViT(ctx, CFG)
            y = model.forward(model.local_images(imgs))
            return y.numpy().tobytes()

        assert Engine(nranks=1).run(prog) == Engine(nranks=1).run(prog)


@pytest.mark.parametrize("q,d", [(2, 1), (2, 2)])
class TestTesseractViT:
    def test_matches_serial_logits(self, q, d, rng):
        imgs = rng.normal(size=(8, 3, 8, 8)).astype(np.float32)

        def serial(ctx):
            model = SerialViT(ctx, CFG)
            return model.forward(model.local_images(imgs)).numpy()

        logits_ref = Engine(nranks=1).run(serial)[0]

        def par(ctx):
            pc = ParallelContext.tesseract(ctx, q=q, d=d)
            model = TesseractViT(pc, CFG)
            logits = model.forward(model.local_images(imgs))
            return pc.block_row, logits.numpy()

        res = Engine(nranks=q * q * d).run(par)
        rows = 8 // (q * d)
        for h, logits in res:
            expect = logits_ref[h * rows:(h + 1) * rows]
            assert np.allclose(logits, expect, atol=1e-3)

    def test_label_slicing_matches_image_slicing(self, q, d, rng):
        labels = np.arange(8, dtype=np.int64)

        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=q, d=d)
            model = TesseractViT(pc, CFG)
            local = model.local_labels(labels).numpy()
            rows = 8 // (q * d)
            h = pc.block_row
            return np.array_equal(local, labels[h * rows:(h + 1) * rows])

        assert all(Engine(nranks=q * q * d).run(prog))

    def test_pos_embedding_is_column_slice(self, q, d):
        def serial(ctx):
            return SerialViT(ctx, CFG).pos.value.numpy()

        pos_ref = Engine(nranks=1).run(serial)[0]

        def par(ctx):
            pc = ParallelContext.tesseract(ctx, q=q, d=d)
            model = TesseractViT(pc, CFG)
            return pc.j, model.pos.value.numpy()

        cols = CFG.hidden // q
        for j, pos in Engine(nranks=q * q * d).run(par):
            assert np.array_equal(pos, pos_ref[:, j * cols:(j + 1) * cols])


class TestTesseractViTValidation:
    def test_divisibility_checked_at_construction(self):
        bad = ViTConfig(image_size=8, patch_size=4, channels=3, hidden=16,
                        nheads=4, num_layers=1, num_classes=5)

        def prog(ctx):
            pc = ParallelContext.tesseract(ctx, q=2, d=1)
            TesseractViT(pc, bad)  # 5 classes not divisible by q=2

        with pytest.raises(Exception):
            Engine(nranks=4).run(prog)


@pytest.mark.parametrize("tp", [2, 4])
def test_megatron_vit_matches_serial(tp, rng):
    """Logits, and the gradient of every replicated parameter (positions,
    LayerNorms, the row-parallel biases), equal the serial ViT's."""
    imgs = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
    dlogits = rng.normal(size=(4, CFG.num_classes)).astype(np.float32)

    def run(model):
        logits = model.forward(model.local_images(imgs))
        model.backward(VArray.from_numpy(dlogits))
        return logits.numpy(), {n: (p.layout, p.grad.numpy())
                                for n, p in model.parameters()}

    logits_ref, grads_ref = Engine(nranks=1).run(
        lambda ctx: run(ViT(ctx, CFG)))[0]
    for logits, grads in Engine(nranks=tp).run(
            lambda ctx: run(ViT(Communicator(ctx, range(tp)), CFG))):
        assert np.allclose(logits, logits_ref, atol=1e-3)
        replicated = [n for n, (layout, _) in grads.items() if layout == "full"]
        assert "pos" in replicated and "final_ln.g" in replicated
        for name in replicated:
            assert np.allclose(grads[name][1], grads_ref[name][1],
                               atol=1e-3), name
