"""Execute benchmark rows on the simulated cluster.

For each :class:`~repro.bench.experiments.BenchRow` the runner builds the
row's parallelization on a MeluXina-sized cluster (4 A100/node), runs one
forward+backward of a 12-layer transformer stack in symbolic mode at the
row's exact batch/hidden/heads, and reads the simulated times off the
virtual clocks.  One iteration suffices: the simulation is deterministic
and stateless across iterations (the paper averages 20 hardware runs for
the same reason we don't have to).  A table runs its rows one at a time,
each through :meth:`~repro.sim.engine.Engine.run` on the cached engine of
its configuration.
"""

from __future__ import annotations

from collections import OrderedDict
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
from repro.sim.schedulers import resolve_backend
from repro.util.mathutil import ceil_div
from repro.varray.varray import VArray

__all__ = ["MeasuredRow", "engine_for_row", "run_row", "run_table",
           "effective_batch", "clear_engine_cache"]

#: Session-scoped engine cache.  Engines (and therefore topologies and the
#: persistent rank-worker pool's warm threads) are shared across *tables*,
#: not just across the rows of one ``run_table`` call: every bench in a
#: session that asks for the same (cluster, nranks, placement, alg, trace)
#: configuration reuses one engine.  Safe because the engine is stateless
#: across runs apart from its trace, which is cleared before each reuse.
#:
#: The cache is LRU-bounded two ways: by entry count and by estimated
#: memory footprint.  A long session sweeping many cluster shapes would
#: otherwise pin one engine (trace buffers, topology tables) per distinct
#: configuration forever — and a pure entry bound treats a 1024-rank
#: engine with a fat trace the same as a 4-rank one, so the byte budget
#: (summing :meth:`Engine.estimated_footprint`) evicts oldest-first until
#: the survivors fit.  Evicted engines are shut down so their buffers are
#: released immediately.
_ENGINE_CACHE: OrderedDict[tuple, Engine] = OrderedDict()

#: Most distinct engine configurations kept alive at once.
ENGINE_CACHE_MAX = 8

#: Estimated-footprint budget over all cached engines.  The newest entry
#: is never evicted, even when it alone exceeds the budget — the caller
#: is about to use it, so shutting it down would only thrash.
ENGINE_CACHE_MAX_BYTES = 64 * 1024 * 1024


def _shutdown_quietly(engine: Engine) -> None:
    """Best-effort shutdown of an evicted/discarded engine.

    The engine is already out of the cache when this runs; a shutdown
    that raises (half-dead worker state after an aborted run) must not
    mask the caller's own error or wedge the eviction loop — the engine
    is discarded either way.
    """
    try:
        engine.shutdown()
    except Exception:
        pass


def clear_engine_cache() -> None:
    """Drop all session-cached engines (tests that tune engines use this)."""
    while _ENGINE_CACHE:
        _, engine = _ENGINE_CACHE.popitem(last=False)
        _shutdown_quietly(engine)


def _cache_footprint() -> int:
    """Summed estimated footprint of every cached engine, in bytes."""
    return sum(e.estimated_footprint() for e in _ENGINE_CACHE.values())


def _cache_put(key: tuple, engine: Engine) -> None:
    """Insert most-recently-used; evict (and shut down) oldest-first.

    Eviction runs until both bounds hold: at most ``ENGINE_CACHE_MAX``
    entries and at most ``ENGINE_CACHE_MAX_BYTES`` of summed estimated
    footprint — except that the just-inserted engine itself is never
    evicted (``len > 1`` guard).
    """
    _ENGINE_CACHE[key] = engine
    _ENGINE_CACHE.move_to_end(key)
    while len(_ENGINE_CACHE) > ENGINE_CACHE_MAX or (
        len(_ENGINE_CACHE) > 1 and _cache_footprint() > ENGINE_CACHE_MAX_BYTES
    ):
        _, stale = _ENGINE_CACHE.popitem(last=False)
        _shutdown_quietly(stale)


def _evict_engine(engine: Engine) -> None:
    """Drop a poisoned engine from the cache and discard it.

    Called when a run on a cached engine raised: the engine's rank state
    may be wedged mid-rendezvous, so handing it to the next row would
    turn one failure into a cascade.
    """
    for key, cached in list(_ENGINE_CACHE.items()):
        if cached is engine:
            del _ENGINE_CACHE[key]
            break
    _shutdown_quietly(engine)


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
    cache: bool = False,
) -> Engine:
    """Build the symbolic-mode engine a benchmark row runs on.

    With ``cache=True`` the engine comes from the session-scoped cache:
    equal configurations (cluster, rank count, placement, collective
    algorithm, tracing) share one engine across every table of the
    session, and a cached engine's trace is cleared before it is handed
    out.
    """
    if cluster is None:
        cluster = meluxina(ceil_div(row.gpus, 4))
    # The scheduler backend is part of the key: a REPRO_ENGINE_BACKEND
    # change mid-session must not hand out an engine built under the old
    # backend.
    key = (cluster, row.gpus, placement, comm_alg, collect_comm,
           resolve_backend(None).name)
    if cache:
        engine = _ENGINE_CACHE.get(key)
        if engine is not None:
            _ENGINE_CACHE.move_to_end(key)
            engine.trace.clear()
            return engine
    engine = Engine(
        cluster=cluster,
        nranks=row.gpus,
        mode="symbolic",
        placement=placement,
        comm_alg=comm_alg,
        trace=collect_comm,
    )
    if cache:
        _cache_put(key, engine)
    return engine


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

    Pass ``engine`` to reuse one engine (and its persistent rank workers)
    across rows of equal GPU count — :func:`run_table` does this; the trace
    is cleared between rows so accounting stays per-row.
    """
    batch = effective_batch(row)
    if engine is None:
        engine = engine_for_row(row, cluster, comm_alg, placement, collect_comm)
    else:
        if engine.nranks != row.gpus:
            raise ValueError(
                f"reused engine has {engine.nranks} ranks, row needs {row.gpus}"
            )
        engine.trace.clear()

    results = engine.run(_row_program(row, batch, seq_len, num_layers))
    return MeasuredRow(
        row=row,
        forward=max(t1 - t0 for t0, t1, _, _ in results),
        backward=max(t2 - t1 for _, t1, t2, _ in results),
        effective_batch=batch,
        peak_memory_bytes=max(m for *_, m in results),
        comm=engine.trace.comm_breakdown() if collect_comm else {},
    )


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
    """Run every row of a table, one at a time; returns measurements in
    row order.

    Engines come from the session-scoped cache (:func:`engine_for_row`
    with ``cache=True``): rows with the same GPU count share one engine
    *within* the table, and repeated ``run_table`` calls — the full
    benchmark suite runs many tables at the same cluster sizes — reuse
    the same engines *across* tables too.

    A row that raises evicts its cached engine (its rank state may be
    wedged mid-rendezvous) before the error propagates.
    """
    for name, value in (("seq_len", seq_len), ("num_layers", num_layers)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    out: list[MeasuredRow] = []
    for row in rows:
        engine = engine_for_row(row, cache=True, **kwargs)
        try:
            out.append(run_row(row, seq_len=seq_len, num_layers=num_layers,
                               engine=engine, **kwargs))
        except Exception:
            _evict_engine(engine)
            raise
    return out
