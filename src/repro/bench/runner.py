"""Execute benchmark rows on the simulated cluster.

For each :class:`~repro.bench.experiments.BenchRow` the runner builds the
row's parallelization on a MeluXina-sized cluster (4 A100/node), runs one
forward+backward of a 12-layer transformer stack in symbolic mode at the
row's exact batch/hidden/heads, and reads the simulated times off the
virtual clocks.  One iteration suffices: the simulation is deterministic
and stateless across iterations (the paper averages 20 hardware runs for
the same reason we don't have to).  A table runs its rows one at a time,
each through :meth:`~repro.sim.engine.Engine.run` on an engine of its own
that is shut down after the row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.experiments import (
    DEFAULT_NUM_LAYERS,
    DEFAULT_SEQ_LEN,
    BenchRow,
)
from repro.errors import ConfigError
from repro.hardware.spec import ClusterSpec, meluxina
from repro.hardware.topology import Placement
from repro.parallel.factory import build_transformer_stack
from repro.sim.cost import CollectiveAlg
from repro.sim.engine import Engine
from repro.util.mathutil import ceil_div
from repro.varray.varray import VArray

__all__ = ["MeasuredRow", "engine_for_row", "run_row", "run_table",
           "effective_batch"]


def _shutdown_quietly(engine: Engine) -> None:
    """Best-effort shutdown of a row's engine once the row is done.

    A shutdown that raises (half-dead worker state after an aborted run)
    must not mask the row's own error — the engine is discarded either
    way.
    """
    try:
        engine.shutdown()
    except Exception:
        pass


@dataclass
class MeasuredRow:
    """Simulated measurements for one benchmark row."""

    row: BenchRow
    forward: float  #: seconds per batch (max over ranks)
    backward: float
    effective_batch: int  #: batch after divisibility rounding (== row.batch
    #: except where the paper itself had to bump it)
    peak_memory_bytes: float  #: max over ranks of peak device memory
    comm: dict[str, tuple[int, float]] = field(default_factory=dict)
    #: per-collective (count, bytes) over the whole iteration; counts are
    #: once per group, bytes sum the per-rank volumes (see the accounting
    #: convention in :mod:`repro.comm.communicator`)

    @property
    def throughput(self) -> float:
        """Iterations per second over fwd+bwd (the paper's metric)."""
        return 1.0 / (self.forward + self.backward)

    @property
    def inference(self) -> float:
        """Iterations per second over fwd only (the paper's metric)."""
        return 1.0 / self.forward


def effective_batch(row: BenchRow) -> int:
    """The batch actually used: rounded up to a multiple of d*q.

    The paper does the same ("the batch size needed to be divisible by
    ... d*q", which is why its [4,4,4] row uses 16): rounding up can only
    make Tesseract's numbers *worse*, never better.
    """
    if row.parallelization == "megatron":
        return row.batch
    dq = row.d * row.shape[0]
    return ceil_div(row.batch, dq) * dq


def engine_for_row(
    row: BenchRow,
    cluster: ClusterSpec | None = None,
    comm_alg: CollectiveAlg = CollectiveAlg.AUTO,
    placement: Placement = Placement.BLOCK,
    collect_comm: bool = True,
) -> Engine:
    """Build the symbolic-mode engine a benchmark row runs on.

    The scheduler backend is resolved here, per engine, so a
    ``REPRO_ENGINE_BACKEND`` change takes effect at the next row.
    """
    if cluster is None:
        cluster = meluxina(ceil_div(row.gpus, 4))
    return Engine(
        cluster=cluster,
        nranks=row.gpus,
        mode="symbolic",
        placement=placement,
        comm_alg=comm_alg,
        trace=collect_comm,
    )


def run_row(
    row: BenchRow,
    seq_len: int = DEFAULT_SEQ_LEN,
    num_layers: int = DEFAULT_NUM_LAYERS,
    cluster: ClusterSpec | None = None,
    comm_alg: CollectiveAlg = CollectiveAlg.AUTO,
    placement: Placement = Placement.BLOCK,
    collect_comm: bool = True,
    engine: Engine | None = None,
) -> MeasuredRow:
    """Simulate one table row and return its measurements.

    Without ``engine`` the row builds its own (:func:`engine_for_row`)
    and shuts it down once its results and comm breakdown are read, also
    when the run raised.  An ``engine`` the caller passes in is left
    open; its trace is cleared first so accounting stays per-row.
    """
    for name, value in (("seq_len", seq_len), ("num_layers", num_layers)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    batch = effective_batch(row)
    own_engine = engine is None
    if own_engine:
        engine = engine_for_row(row, cluster, comm_alg, placement, collect_comm)
    else:
        if engine.nranks != row.gpus:
            raise ValueError(
                f"reused engine has {engine.nranks} ranks, row needs {row.gpus}"
            )
        engine.trace.clear()
    try:
        results = engine.run(_row_program(row, batch, seq_len, num_layers))
        return MeasuredRow(
            row=row,
            forward=max(t1 - t0 for t0, t1, _, _ in results),
            backward=max(t2 - t1 for _, t1, t2, _ in results),
            effective_batch=batch,
            peak_memory_bytes=max(m for *_, m in results),
            comm=engine.trace.comm_breakdown() if collect_comm else {},
        )
    finally:
        if own_engine:
            _shutdown_quietly(engine)


def _row_program(row: BenchRow, batch: int, seq_len: int, num_layers: int):
    """The per-rank program of one table row (fwd+bwd, symbolic)."""

    def program(ctx):
        handle = build_transformer_stack(
            ctx,
            row.mode,
            num_layers=num_layers,
            hidden=row.hidden,
            nheads=row.heads,
            q=row.q,
            d=row.d if row.parallelization == "tesseract" else None,
            world=row.gpus,
        )
        x = handle.symbolic_input(batch, seq_len, row.hidden)
        t0 = ctx.now
        y = handle.layers.forward(x)
        t1 = ctx.now
        dy = VArray.symbolic(y.shape, y.dtype)
        handle.layers.backward(dy)
        t2 = ctx.now
        return t0, t1, t2, ctx.mem.peak_total

    return program


def run_table(
    rows, seq_len: int = DEFAULT_SEQ_LEN, num_layers: int = DEFAULT_NUM_LAYERS,
    **kwargs,
) -> list[MeasuredRow]:
    """Run every row of a table, one at a time, each on an engine of its
    own (:func:`run_row`); returns measurements in row order."""
    return [run_row(row, seq_len=seq_len, num_layers=num_layers, **kwargs)
            for row in rows]
