"""Machine-readable experiment definitions with the paper's reported values.

``TABLE1_ROWS`` / ``TABLE2_ROWS`` transcribe the paper's Table 1 (strong
scaling) and Table 2 (weak scaling) verbatim; the runner executes the same
configurations on the simulated cluster and the report prints both side by
side.

The paper does not state the sequence length or layer count of the
benchmark stack; we fix ``seq_len=1024`` and ``num_layers=12`` (a
GPT-2-ish stack) for all rows, which preserves every relative comparison
(the metrics are ratios between runs of identical depth).  At this
sequence length every headline comparison of §4.1/§4.2 lands on the
paper's side of 1.0 (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, GridError

__all__ = [
    "BenchRow",
    "TABLE1_ROWS",
    "TABLE2_ROWS",
    "Fig7Config",
    "FIG7_CONFIG",
    "DEFAULT_SEQ_LEN",
    "DEFAULT_NUM_LAYERS",
]

DEFAULT_SEQ_LEN = 1024
DEFAULT_NUM_LAYERS = 12


@dataclass(frozen=True)
class BenchRow:
    """One row of Table 1 or Table 2.

    ``shape`` is the paper's GPU-shape notation: ``(p,)`` for Megatron,
    ``(q, q)`` for Optimus, ``(q, q, d)`` for Tesseract.  The four paper_*
    fields hold the published measurements (seconds / iterations-per-s).
    """

    table: str
    parallelization: str  #: "megatron" | "optimus" | "tesseract"
    gpus: int
    shape: tuple[int, ...]
    batch: int
    hidden: int
    heads: int
    paper_forward: float
    paper_backward: float
    paper_throughput: float
    paper_inference: float

    def __post_init__(self) -> None:
        expected = {"megatron": 1, "optimus": 2, "tesseract": 3}
        if self.parallelization not in expected:
            raise GridError(f"unknown parallelization {self.parallelization!r}")
        if len(self.shape) != expected[self.parallelization]:
            raise GridError(
                f"{self.parallelization} shape must have "
                f"{expected[self.parallelization]} dims, got {self.shape}"
            )
        prod = 1
        for s in self.shape:
            prod *= s
        if prod != self.gpus:
            raise GridError(f"shape {self.shape} does not multiply to {self.gpus}")

    @property
    def mode(self) -> str:
        """Factory mode string for this row."""
        return self.parallelization

    @property
    def q(self) -> int | None:
        if self.parallelization == "megatron":
            return None
        return self.shape[0]

    @property
    def d(self) -> int:
        if self.parallelization == "tesseract":
            return self.shape[2]
        return 1

    @property
    def label(self) -> str:
        return f"{self.parallelization}{list(self.shape)}"


TABLE1_ROWS: tuple[BenchRow, ...] = (
    BenchRow("table1", "megatron", 4, (4,), 12, 3072, 64,
             0.1225, 0.4749, 1.6739, 8.1633),
    BenchRow("table1", "megatron", 16, (16,), 12, 3072, 64,
             0.1143, 0.4293, 1.8396, 8.7489),
    BenchRow("table1", "megatron", 64, (64,), 12, 3072, 64,
             0.1195, 0.5306, 1.5382, 8.3682),
    BenchRow("table1", "optimus", 4, (2, 2), 12, 3072, 64,
             0.1676, 0.5019, 1.4937, 5.9666),
    BenchRow("table1", "optimus", 16, (4, 4), 12, 3072, 64,
             0.2099, 0.6159, 1.2109, 4.7642),
    BenchRow("table1", "optimus", 64, (8, 8), 12, 3072, 64,
             0.1329, 0.3986, 1.8815, 7.5245),
    BenchRow("table1", "tesseract", 4, (2, 2, 1), 12, 3072, 64,
             0.1666, 0.5014, 1.4970, 6.0024),
    BenchRow("table1", "tesseract", 8, (2, 2, 2), 12, 3072, 64,
             0.0999, 0.3002, 2.4994, 10.0100),
    BenchRow("table1", "tesseract", 16, (4, 4, 1), 12, 3072, 64,
             0.1444, 0.4343, 1.7280, 6.9252),
    BenchRow("table1", "tesseract", 32, (4, 4, 2), 12, 3072, 64,
             0.1244, 0.3727, 2.0117, 8.0386),
    # The paper uses batch 16 here because 12 is not divisible by d*q = 16.
    BenchRow("table1", "tesseract", 64, (4, 4, 4), 16, 3072, 64,
             0.0869, 0.2636, 2.8531, 11.5075),
    BenchRow("table1", "tesseract", 64, (8, 8, 1), 12, 3072, 64,
             0.1799, 0.5178, 1.4333, 5.5586),
)

TABLE2_ROWS: tuple[BenchRow, ...] = (
    BenchRow("table2", "megatron", 4, (4,), 60, 2048, 32,
             0.0793, 0.2613, 2.9360, 12.6103),
    BenchRow("table2", "megatron", 16, (16,), 60, 4096, 64,
             0.2081, 0.5149, 1.3831, 4.8054),
    BenchRow("table2", "megatron", 64, (64,), 30, 8192, 128,
             0.4638, 1.0963, 0.6410, 2.1561),
    BenchRow("table2", "optimus", 4, (2, 2), 96, 2048, 32,
             0.0827, 0.2445, 3.0562, 12.0919),
    BenchRow("table2", "optimus", 16, (4, 4), 192, 4096, 64,
             0.1829, 0.5458, 1.3723, 5.4675),
    BenchRow("table2", "optimus", 64, (8, 8), 384, 8192, 128,
             0.1962, 0.5964, 1.2617, 5.0968),
    BenchRow("table2", "tesseract", 1, (1, 1, 1), 48, 1024, 16,
             0.0603, 0.1669, 4.4014, 16.5837),
    BenchRow("table2", "tesseract", 4, (2, 2, 1), 96, 2048, 32,
             0.0867, 0.2557, 2.9206, 11.5340),
    BenchRow("table2", "tesseract", 8, (2, 2, 2), 192, 2048, 32,
             0.0864, 0.2552, 2.9274, 11.5741),
    BenchRow("table2", "tesseract", 16, (4, 4, 1), 192, 4096, 64,
             0.1177, 0.3553, 2.1142, 8.4962),
    BenchRow("table2", "tesseract", 32, (4, 4, 2), 384, 4096, 64,
             0.1173, 0.3521, 2.1304, 8.5251),
    BenchRow("table2", "tesseract", 64, (4, 4, 4), 768, 4096, 64,
             0.1155, 0.3468, 2.1631, 8.6580),
    BenchRow("table2", "tesseract", 64, (8, 8, 1), 384, 8192, 128,
             0.1799, 0.5178, 1.4333, 5.5586),
)


@dataclass(frozen=True)
class Fig7Config:
    """The Fig. 7 training experiment, scaled to the simulated substrate.

    The paper trains ViT on ImageNet-100 for 300 epochs with batch 512,
    Adam lr 3e-3 and weight decay 0.3, on (1) a single GPU, (2) Tesseract
    [2,2,1], (3) Tesseract [2,2,2], with fixed seeds — and the three
    accuracy curves coincide.  We run the identical comparison on the
    synthetic ImageNet-100 stand-in with a CPU-sized ViT; the *claim* being
    reproduced is curve identity plus convergence, not ImageNet accuracy.
    """

    image_size: int = 16
    patch_size: int = 4
    channels: int = 3
    hidden: int = 32
    nheads: int = 4
    num_layers: int = 2
    num_classes: int = 10
    train_size: int = 320
    test_size: int = 80
    epochs: int = 5
    batch_size: int = 32
    lr: float = 3e-3
    weight_decay: float = 0.3
    noise: float = 2.5  #: class-noise level; higher = slower accuracy rise
    seed: int = 0
    settings: tuple[tuple[int, int], ...] = ((1, 1), (2, 1), (2, 2))  #: (q, d)

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


FIG7_CONFIG = Fig7Config()
