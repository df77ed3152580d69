"""The Fig. 7 experiment: ViT training accuracy, serial vs Tesseract.

Trains the same ViT (same seeds, same data order, same initialization) on
(1) a single GPU, (2) Tesseract [2,2,1], (3) Tesseract [2,2,2] and checks
that the accuracy curves *coincide* — the paper's §4.3 claim that
"Tesseract does not introduce any approximations, thus it does not affect
the training accuracy".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.experiments import Fig7Config
from repro.data.synthetic import SyntheticImageClassification
from repro.grid.context import ParallelContext
from repro.models.configs import ViTConfig
from repro.models.vit import ViT
from repro.nn.optim.adam import Adam
from repro.sim.engine import Engine
from repro.train.trainer import TrainHistory, train_classifier
from repro.util.asciiplot import line_plot

__all__ = ["Fig7Result", "run_fig7", "render_fig7"]


@dataclass
class Fig7Result:
    """Per-setting training histories plus the curve-identity verdict."""

    histories: dict[str, TrainHistory]
    max_loss_divergence: float
    curves_identical: bool

    def final_accuracy(self) -> dict[str, float]:
        return {
            label: (h.eval_acc[-1] if h.eval_acc else float("nan"))
            for label, h in self.histories.items()
        }


def _vit_config(cfg: Fig7Config) -> ViTConfig:
    return ViTConfig(
        image_size=cfg.image_size,
        patch_size=cfg.patch_size,
        channels=cfg.channels,
        hidden=cfg.hidden,
        nheads=cfg.nheads,
        num_layers=cfg.num_layers,
        num_classes=cfg.num_classes,
    )


def _dataset(cfg: Fig7Config) -> SyntheticImageClassification:
    return SyntheticImageClassification(
        num_classes=cfg.num_classes,
        image_size=cfg.image_size,
        channels=cfg.channels,
        train_size=cfg.train_size,
        test_size=cfg.test_size,
        noise=cfg.noise,
        seed=cfg.seed,
    )


def run_fig7(cfg: Fig7Config, tolerance: float = 1e-2) -> Fig7Result:
    """Run all Fig. 7 settings and compare their training curves.

    ``tolerance`` bounds the allowed per-step loss divergence: the parallel
    schedules reassociate float32 sums, so "identical" means identical to
    well below training noise (typically ~1e-7 relative here).
    """
    vit_cfg = _vit_config(cfg)
    data = _dataset(cfg)
    histories: dict[str, TrainHistory] = {}

    for q, d in cfg.settings:
        nranks = q * q * d
        label = "single GPU" if nranks == 1 else f"tesseract[{q},{q},{d}]"

        def program(ctx, q=q, d=d, nranks=nranks):
            if nranks == 1:
                model = ViT(ctx, vit_cfg)
                pc = None
            else:
                pc = ParallelContext.tesseract(ctx, q=q, d=d)
                model = ViT(pc, vit_cfg)
            opt = Adam(
                model.parameter_list(), lr=cfg.lr, weight_decay=cfg.weight_decay
            )
            return train_classifier(
                model, data, opt, epochs=cfg.epochs, batch_size=cfg.batch_size,
                pc=pc,
            )

        engine = Engine(nranks=nranks, seed=cfg.seed, trace=False)
        results = engine.run(program)
        histories[label] = results[0]

    labels = list(histories)
    ref = histories[labels[0]]
    max_div = 0.0
    for label in labels[1:]:
        h = histories[label]
        if len(h.losses) != len(ref.losses):
            max_div = float("inf")
            break
        max_div = max(
            max_div,
            max(abs(a - b) for a, b in zip(h.losses, ref.losses)),
        )
    return Fig7Result(
        histories=histories,
        max_loss_divergence=max_div,
        curves_identical=max_div <= tolerance,
    )


def render_fig7(result: Fig7Result) -> str:
    """An ASCII rendering of the accuracy curves (the figure itself)."""
    series = {
        label: h.eval_acc for label, h in result.histories.items() if h.eval_acc
    }
    plot = line_plot(
        series,
        title="Fig. 7: ViT top-1 eval accuracy per epoch "
        "(curves coincide -> markers overlap)",
        xlabel="epoch",
        ylabel="acc",
    )
    verdict = (
        f"max per-step loss divergence: {result.max_loss_divergence:.3e} "
        f"-> curves identical: {result.curves_identical}"
    )
    return plot + "\n" + verdict
