"""The auto-parallel configuration space.

A candidate assigns every GPU of a ``world`` to one point of the
dp x pp x tensor decomposition (Fig. 6 of the paper) and picks the
tensor-parallel *scheme* for the innermost dimension:

* ``serial``    — tp = 1, data/pipeline parallelism only;
* ``megatron``  — 1-D row/column split over all ``tp`` ranks (§2.5);
* ``optimus``   — 2-D SUMMA ``[q, q]`` grid, the d = 1 case (§2.2);
* ``tesseract`` — the paper's ``[q, q, d]`` grid with depth d > 1 (§3.1).

:func:`enumerate_configs` yields every *valid* factorization: world =
dp * pp * tp, tp = d * q^2 with 1 <= d <= q for the grid schemes, the
layer count divisible by the stage count, hidden size and head count
divisible by the tensor split, and the per-replica batch divisible into
microbatches that respect the grid's ``d*q`` batch-sharding rule.  The
enumeration is deterministic (sorted output) so planner runs are
reproducible byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GridError
from repro.parallel.factory import MODES as SCHEMES
from repro.parallel.factory import grid_shape
from repro.plan.inventory import DTYPE_BYTES, layer_ops

__all__ = [
    "ModelSpec",
    "MODEL_PRESETS",
    "CandidateConfig",
    "enumerate_configs",
    "divisors",
]

@dataclass(frozen=True)
class ModelSpec:
    """A transformer model size the planner can be asked about."""

    name: str
    hidden: int
    num_layers: int
    nheads: int
    mlp_ratio: int = 4
    seq_len: int = 1024

    @property
    def param_elements(self) -> int:
        """Total parameter elements across all layers: the serial layer's
        declared shards (:func:`~repro.plan.inventory.layer_ops`)."""
        serial = CandidateConfig("serial", dp=1, pp=1, tp=1)
        layer = layer_ops(self, serial, 1, self.seq_len)
        return self.num_layers * layer.param_bytes // DTYPE_BYTES

    def describe(self) -> str:
        return (f"{self.name}: {self.num_layers} layers, hidden "
                f"{self.hidden}, {self.nheads} heads, "
                f"{self.param_elements / 1e6:.0f}M params")


#: GPT-style sizes ladder (hidden/layers/heads in the Megatron-LM
#: convention) plus a ``tiny`` preset for smoke tests and CI goldens.
MODEL_PRESETS: dict[str, ModelSpec] = {
    m.name: m
    for m in (
        ModelSpec("tiny", hidden=64, num_layers=4, nheads=4, seq_len=32),
        ModelSpec("350M", hidden=1024, num_layers=24, nheads=16),
        ModelSpec("1.3B", hidden=2048, num_layers=24, nheads=32),
        ModelSpec("2.7B", hidden=2560, num_layers=32, nheads=32),
        ModelSpec("6.7B", hidden=4096, num_layers=32, nheads=32),
    )
}


@dataclass(frozen=True, order=True)
class CandidateConfig:
    """One point of the search space.

    ``tp == d * q**2`` for the grid schemes and ``q == d == 1`` for
    serial/megatron, so ``dp * pp * tp`` always multiplies out to the
    world size.  ``microbatches`` is the per-step microbatch count M; the
    per-microbatch batch is ``global_batch / (dp * M)``.
    """

    scheme: str
    dp: int
    pp: int
    tp: int
    q: int = 1
    d: int = 1
    microbatches: int = 1

    def __post_init__(self) -> None:
        if min(self.dp, self.pp, self.tp, self.microbatches) < 1:
            raise GridError(f"non-positive dimension in {self}")
        # serial and megatron have no grid: grid_shape gives them (1, 1)
        q, d = grid_shape(self.scheme, self.q, self.d, world=self.tp)
        if (q, d) != (self.q, self.d):
            raise GridError(f"{self.scheme} must have q = d = 1, got {self}")
        if self.scheme != "megatron" and self.tp != d * q * q:
            raise GridError(f"{self.scheme} needs tp == d*q^2, got {self}")

    @property
    def world(self) -> int:
        """Total GPUs the candidate occupies."""
        return self.dp * self.pp * self.tp

    def microbatch_size(self, global_batch: int) -> int:
        """Sequences per microbatch: ``global_batch / (dp * M)``, exact."""
        if global_batch % (self.dp * self.microbatches):
            raise GridError(
                f"batch {global_batch} does not divide into dp={self.dp} x "
                f"M={self.microbatches}"
            )
        return global_batch // (self.dp * self.microbatches)

    @property
    def label(self) -> str:
        """Compact human-readable tag, e.g. ``tesseract[2,2,2] dp2 pp2 M4``."""
        if self.scheme in ("optimus", "tesseract"):
            tensor = f"{self.scheme}[{self.q},{self.q},{self.d}]"
        elif self.scheme == "megatron":
            tensor = f"megatron(tp={self.tp})"
        else:
            tensor = "serial"
        return (f"{tensor} dp{self.dp} pp{self.pp} "
                f"M{self.microbatches}")


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, ascending."""
    if n < 1:
        raise GridError(f"need a positive integer, got {n}")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _tensor_schemes(tp: int, model: ModelSpec):
    """Valid (scheme, q, d) triples for a tensor-group size ``tp``."""
    out = []
    if tp == 1:
        return [("serial", 1, 1)]
    if model.hidden % tp == 0 and model.nheads % tp == 0:
        out.append(("megatron", 1, 1))
    for d in divisors(tp):
        q = math.isqrt(tp // d)
        if q * q * d != tp or q < 2 or d > q:
            continue
        if model.hidden % q or model.nheads % q:
            continue
        out.append(("optimus" if d == 1 else "tesseract", q, d))
    return out


def enumerate_configs(
    world: int,
    model: ModelSpec,
    global_batch: int,
    max_microbatches: int = 32,
) -> tuple[CandidateConfig, ...]:
    """Every valid candidate for ``world`` GPUs, sorted deterministically.

    Microbatching without a pipeline only adds launch overhead, so pp = 1
    configs carry M = 1; pipelined configs enumerate every divisor of the
    per-replica batch up to ``max_microbatches`` (the bubble-vs-memory
    trade is left to the step walk to arbitrate).  The arguments are
    checked by :meth:`~repro.plan.search.Planner.search`.
    """
    out: list[CandidateConfig] = []
    for dp in divisors(world):
        if global_batch % dp:
            continue
        replica_batch = global_batch // dp
        for pp in divisors(world // dp):
            if model.num_layers % pp:
                continue
            tp = world // (dp * pp)
            for scheme, q, d in _tensor_schemes(tp, model):
                micro_options = (
                    [1] if pp == 1 else
                    [m for m in divisors(replica_batch)
                     if m <= max_microbatches]
                )
                for m in micro_options:
                    mb = replica_batch // m
                    if scheme in ("optimus", "tesseract") and mb % (d * q):
                        continue
                    out.append(CandidateConfig(
                        scheme=scheme, dp=dp, pp=pp, tp=tp, q=q, d=d,
                        microbatches=m,
                    ))
    return tuple(sorted(out))
