#!/usr/bin/env python
"""Train a Transformer language model with Tesseract tensor parallelism.

The workload the paper's introduction motivates: a Megatron-style encoder
LM too big for one device, sharded over a [2,2,2] Tesseract grid.  This
example trains on a synthetic next-token task with the full production
loop — distributed global-norm gradient clipping and per-rank checkpoint
saving — compares the loss curve to the serial model, and reports
per-rank memory (the quantity Eq. 7-10 say Tesseract saves).

Run:  python examples/language_model.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.data.synthetic import random_token_batch
from repro.grid import ParallelContext
from repro.models import TransformerConfig, TransformerLM
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.optim import Adam
from repro.nn.serialize import save_checkpoint
from repro.sim import Engine
from repro.train.clip import clip_grad_norm
from repro.util.formatting import format_bytes
from repro.varray import ops
from repro.varray.varray import VArray

CFG = TransformerConfig(num_layers=2, hidden=32, nheads=4, seq_len=8, vocab=32)
Q, D = 2, 2
BATCH, STEPS, LR = 8, 25, 3e-3
MAX_GRAD_NORM = 1.0
CKPT_DIR = Path(tempfile.gettempdir()) / "repro_lm_checkpoints"


def train(ctx, parallel: bool):
    if parallel:
        pc = ParallelContext.tesseract(ctx, q=Q, d=D)
        model = TransformerLM(pc, CFG)
    else:
        pc = None
        model = TransformerLM(ctx, CFG)
    opt = Adam(model.parameter_list(), lr=LR)
    losses = []
    for step in range(STEPS):
        tokens, labels = random_token_batch(0, BATCH, CFG.seq_len, CFG.vocab,
                                            step=step)
        logits = model.forward(model.local_tokens(tokens))
        if parallel:
            labels_local = model.local_labels(labels)
        else:
            labels_local = VArray.from_numpy(labels)
        rows = labels_local.size
        logits2d = ops.reshape(ctx, logits, (rows, CFG.vocab))
        labels1d = ops.reshape(ctx, labels_local, (rows,))
        loss_fn = SoftmaxCrossEntropy(ctx, normalizer=BATCH * CFG.seq_len)
        loss = loss_fn.forward(logits2d, labels1d)
        dlogits = ops.reshape(ctx, loss_fn.backward(), logits.shape)
        model.backward(dlogits)
        # Distributed global-norm clipping: the same norm (and therefore
        # the same scale) is computed on every rank, so clipped parallel
        # training remains exactly serial training.
        clip_grad_norm(model, MAX_GRAD_NORM, pc=pc)
        opt.step()
        model.zero_grad()
        loss_val = float(loss.numpy())
        if parallel:
            from repro.parallel.common import global_scalar_sum

            total = global_scalar_sum(
                pc, VArray.from_numpy(np.asarray([loss_val], np.float64)))
            loss_val = float(total.numpy()[0])
        losses.append(loss_val)
    if parallel:
        CKPT_DIR.mkdir(exist_ok=True)
        save_checkpoint(
            model, CKPT_DIR / f"rank{ctx.rank}.npz",
            metadata={"coords": [pc.i, pc.j, pc.k], "steps": STEPS},
        )
    param_bytes = sum(p.value.nbytes for p in model.parameter_list())
    return losses, param_bytes


def main() -> None:
    serial_losses, serial_bytes = Engine(nranks=1).run(
        lambda ctx: train(ctx, parallel=False))[0]

    engine = Engine(nranks=Q * Q * D)
    results = engine.run(lambda ctx: train(ctx, parallel=True))
    par_losses, par_bytes = results[0]

    print(f"model: {CFG.num_layers} layers, hidden {CFG.hidden}, "
          f"vocab {CFG.vocab}; tesseract [{Q},{Q},{D}] on "
          f"{engine.topology.cluster.num_nodes} nodes\n")
    print(f"{'step':>4}  {'serial loss':>12}  {'tesseract loss':>14}")
    for i in range(0, STEPS, 5):
        print(f"{i:>4}  {serial_losses[i]:>12.4f}  {par_losses[i]:>14.4f}")
    max_div = max(abs(a - b) for a, b in zip(serial_losses, par_losses))
    print(f"\nmax loss divergence serial vs tesseract: {max_div:.2e}")
    print(f"transformer-layer params per GPU: serial {format_bytes(serial_bytes)}"
          f" -> tesseract {format_bytes(par_bytes)} "
          f"({serial_bytes / par_bytes:.1f}x smaller)")
    print(f"loss went {serial_losses[0]:.3f} -> {serial_losses[-1]:.3f}")
    ckpts = sorted(CKPT_DIR.glob("rank*.npz"))
    print(f"per-rank checkpoints written: {len(ckpts)} files in {CKPT_DIR}")
    assert max_div < 1e-2, "parallel training diverged from serial"
    assert par_losses[-1] < par_losses[0], "LM failed to learn"
    assert len(ckpts) == Q * Q * D
    print("OK: Tesseract LM training (with clipping + checkpointing) "
          "matches serial and converges.")


if __name__ == "__main__":
    main()
