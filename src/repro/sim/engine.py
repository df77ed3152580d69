"""SPMD engine with deterministic collective rendezvous.

Each simulated GPU is a rank task running the *actual* parallel algorithm
(the same lines of code a real SPMD program would run) under a scheduler
backend (:mod:`repro.sim.schedulers`).  The engine provides:

* one :class:`~repro.sim.clock.VirtualClock` per rank, advanced by the
  compute cost model for local work and synchronized at collectives;
* a rendezvous service used by :mod:`repro.comm` — all members of a group
  deposit their payloads, the last arriver computes the result and the
  completion time, everyone proceeds with their clock moved to it;
* buffered point-to-point messaging (MPI "bsend" semantics) so ring shifts
  like Cannon's algorithm do not deadlock;
* deadlock detection: a wait that can never complete raises
  :class:`~repro.errors.DeadlockError` naming the missing ranks;
* fail-fast abort: if one rank raises, every other rank is released and
  :meth:`Engine.run` re-raises the original exception.

Determinism: reductions are applied in group-rank order by a single rank,
so results (and therefore every downstream number) are bit-stable across
runs and platforms.

Synchronization design
----------------------
The engine must itself run as fast as the hardware allows — the benchmark
harness calls :meth:`Engine.run` hundreds of times at 64 ranks.

* **Two scheduler backends** (:mod:`repro.sim.schedulers`).  The
  channel/mailbox state machine below is written against a small backend
  interface — ``make_event`` / ``make_lock`` / ``wait`` / ``run`` — so
  *how* ranks wait is swappable.  ``"event"`` (the default) keeps exactly
  one rank runnable on a single drive loop and hands off explicitly at
  every blocking point; a drained run queue with blocked tasks *is* the
  deadlock condition, detected instantly.  ``"threaded"`` (one preemptive
  OS thread per rank from a persistent pool, plus a process-wide watchdog
  thread that sleeps until the earliest outstanding deadline) is the
  independent oracle: ``Engine(backend=...)`` / ``REPRO_ENGINE_BACKEND``
  select it so the fuzz, fault and deadlock suites can require that both
  produce bit-identical results, traces, virtual times and error
  messages.
* **One rendezvous, on a persistent per-group channel.**  Every
  collective — a single op or a whole *batch window* of queued ops on
  one group — goes through :meth:`Engine.fused_collective`: each group
  owns one :class:`_GroupChannel` with one :class:`_Gen` per generation,
  and the last arriver computes every member's results and the per-op
  cost offsets once.  The per-rank group sequence counter doubles as the
  generation number, so matching is deterministic under any
  interleaving.  Deposit, dead-member failure, mismatch, joined-twice
  and deadlock naming exist once, here; pending p2p receives own their
  own backend event under one of ``_N_SHARDS`` mailbox locks.
* **Two ways a generation completes**, chosen by the engine alone.
  *Blocking*: completion is ``max(arrivals) + offset``, every non-last
  member parks on the generation's one event and the last arriver wakes
  them with a single broadcast.  *Deferred* (a symbolic-mode engine with
  no fault plan and tracing off, on a backend with
  ``supports_deferred_sync``): a rank needs a collective's result when
  it passes it, not its completion *time*, and for most op kinds the
  result is computable from shapes.  The rank deposits its arrival and
  runs straight on with a provisional clock; completion times resolve
  later as a dependency DAG over the generations (a generation's true
  arrival is its members' resolved previous generation plus their
  logged compute deltas — the same float fold blocking completion
  performs, hence bit-identical times).  Any observation of real time —
  ``ctx.now``, a p2p send/receive, the end of the run — force-syncs the
  rank first via :meth:`Engine.sync_rank`.  A whole sweep then executes
  with no scheduler hand-off at all, and a run that ends with incomplete
  generations raises the same :class:`DeadlockError` blocking
  completion produces, named from the earliest incomplete generation.

Fault injection
---------------
An engine built with a ``fault_plan`` (:class:`~repro.sim.faults.FaultPlan`)
simulates failures.  A scheduled :class:`~repro.sim.faults.RankCrash`
kills its rank the first time that rank's *virtual* clock reaches the
crash time; the engine marks the rank dead, records a
:class:`~repro.sim.events.FaultEvent`, and **promptly** fails every
channel generation or pending receive the dead rank can no
longer join — surviving partners raise
:class:`~repro.errors.RankFailureError` (naming the dead rank and crash
time) instead of ever reaching the watchdog timeout.  Failure cascades
deterministically: a rank that raises :class:`RankFailureError` is itself
marked dead (with the *root* cause), so transitively-blocked ranks fail
at the first operation — in their own program order — that depends on the
failed component, while unrelated ranks run to completion.  Because both
crash detection and the cascade are functions of per-rank program order
and virtual time only, the same fault plan reproduces a bit-identical
failure trace on every rerun.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, ClassVar, Sequence

from repro.errors import (
    CommError,
    ConfigError,
    DeadlockError,
    GridError,
    RankFailureError,
    SimulationError,
)
from repro.hardware.spec import ClusterSpec, meluxina
from repro.hardware.topology import Placement, Topology
from repro.sim.clock import VirtualClock
from repro.sim.cost import CollectiveAlg, CommCostModel, ComputeCostModel
from repro.sim.events import ComputeEvent, FaultEvent, MarkerEvent, Trace
from repro.sim.faults import FaultPlan
from repro.sim.memory import MemoryTracker
from repro.sim.schedulers import SchedulerBackend, resolve_backend
from repro.util.mathutil import ceil_div
from repro.util.rng import rng_for
from repro.varray.varray import VArray

__all__ = ["Engine", "RankContext", "run_engines"]

#: Number of independent lock shards for the p2p mailbox registry.
#: Must be a power of two (shard selection is ``hash & (_N_SHARDS - 1)``).
_N_SHARDS = 16


class _Gen:
    """One generation of a group channel: one collective or one window.

    ``sig`` is the tuple of op kinds every member must agree on,
    ``arrivals`` maps rank to its per-op payloads, ``t_arrive`` is the
    latest arrival time so far, and the last arriver fills ``results``.
    A blocking engine then sets the absolute per-op completion times
    ``t_ends`` at once.  A deferring one keeps the cost ``offsets``,
    drops the payloads and wires the generation into the resolution DAG,
    which fills ``t_ends`` later; its links are kept by group position:
    ``prevs[i]`` is member ``i``'s previous generation and ``since[i]``
    the clock deltas logged since, or ``None`` and the arrival time
    itself when the member's clock was true at its deposit.  Ranks run
    ahead of their peers, so thousands of generations can wait at once:
    each keeps little, and ``results``, ``dependents`` and ``readers``
    (the ranks that parked for their results) are made on first use.
    ``event`` is made only when a rank parks.
    """

    __slots__ = ("granks", "gen", "sig", "seq", "arrivals", "t_arrive",
                 "results", "t_ends", "done", "event", "failed", "prevs",
                 "since", "offsets", "resolved", "unresolved_inputs",
                 "dependents", "readers")

    def __init__(self, granks: tuple[int, ...], gen: int,
                 sig: tuple[str, ...], seq: int, deferred: bool):
        self.granks = granks
        self.gen = gen
        self.sig = sig
        self.seq = seq  #: engine-wide creation order (deferred stall naming)
        self.arrivals: dict[int, Sequence[Any]] | None = {}
        self.t_arrive = 0.0
        self.results: dict[int, list[Any]] | None = None
        self.t_ends: tuple[float, ...] = ()
        self.done = False  #: every member deposited and results exist
        self.event: Any = None  #: backend event; set once done or failed
        self.failed: RankFailureError | None = None  #: a member died
        self.prevs: list["_Gen | None"] | None = None
        self.since: list[Any] | None = None
        if deferred:
            self.prevs = [None] * len(granks)
            self.since = [None] * len(granks)
        self.offsets: Sequence[float] = ()
        self.resolved = False  #: deferred only: ``t_ends`` computed
        self.unresolved_inputs = 0
        self.dependents: list["_Gen"] | None = None
        self.readers: list[int] | None = None


#: Sentinel local-result rules for a deferring engine.  The common
#: early-result shapes need no callable: a timing-only op whose result
#: is always ``None`` (barrier, non-root reduce/gather) passes
#: ``LOCAL_NONE``; a symbolic op whose result is value-identical to the
#: caller's own payload (symbolic all_reduce, a symbolic root reduce, a
#: broadcast root, a non-root's symbolic broadcast receive buffer: same
#: shape, same dtype, no data) passes ``LOCAL_ECHO``.  Anything
#: shape-changing or dependent on another rank's arrival is a
#: ``(op_index, arrivals, rank) -> (ok, value)`` callable.
LOCAL_NONE = object()
LOCAL_ECHO = object()


class _GroupChannel:
    """Persistent rendezvous state for one rank group.

    The channel outlives individual collectives: back-to-back same-group
    calls reuse its lock and its generation table.  A blocking engine
    has at most two generations live at once (a rank that completed
    generation ``g`` may arrive for ``g + 1`` while a peer has not yet
    picked up its ``g`` result); a deferring one keeps every incomplete
    generation its ranks have run past.  ``seqs[i]`` is the next
    generation of the member at group index ``i``: every member issues
    the same collectives in the same order, so the counters agree, and
    only member ``i`` ever touches its own entry.  ``specs`` is where
    :class:`~repro.comm.communicator.Communicator` keeps the op specs
    the group's members share; the engine never reads it.
    """

    __slots__ = ("lock", "granks", "size", "gens", "seqs", "specs")

    def __init__(self, granks: tuple[int, ...], lock: Any):
        self.lock = lock
        self.granks = granks
        self.size = len(granks)
        self.gens: dict[int, _Gen] = {}
        self.seqs = [0] * len(granks)
        self.specs: dict[Any, Any] = {}


class _Mailbox:
    """Buffered p2p message slot (sender does not block)."""

    __slots__ = ("payload", "t_sent")

    def __init__(self, payload: Any, t_sent: float):
        self.payload = payload
        self.t_sent = t_sent


class _Shard:
    """One lock's worth of the p2p mailbox registry."""

    __slots__ = ("lock", "mailboxes", "recv_waiters")

    def __init__(self, lock: Any) -> None:
        self.lock = lock
        self.mailboxes: dict[Any, _Mailbox] = {}
        self.recv_waiters: dict[Any, Any] = {}


class _Tape:
    """What the pass being recorded by :meth:`RankContext.replay` did."""

    __slots__ = ("dts", "stashes", "mem_changes")

    def __init__(self, mem_changes: int):
        #: healthy price of every ``compute``, in program order; one entry
        #: per kernel, never summed, so a replay makes the same float adds
        self.dts: list[float] = []
        #: ``(module, bytes)`` of every ``Module.save_for_backward``
        self.stashes: list[tuple[Any, float]] = []
        #: ``MemoryTracker.changes`` if nothing but those stashes touched
        #: the tracker since the recording began
        self.mem_changes = mem_changes


class _NotShapeOnly(Exception):
    """A pass returned something a replay cannot hand out again."""


def _copy_shapes(x: Any) -> Any:
    """Copy a pass result so that it can be handed out more than once.

    Lists and tuples are rebuilt, because callers edit them; shape-only
    arrays are shared, because nothing writes ``.data`` or ``.shape`` of
    a :class:`VArray` after construction.  Real data, or any other kind
    of object, raises :class:`_NotShapeOnly`.
    """
    kind = type(x)
    if kind is list:
        return [_copy_shapes(v) for v in x]
    if kind is tuple:
        return tuple([_copy_shapes(v) for v in x])
    if x is None or (kind is VArray and x.data is None):
        return x
    raise _NotShapeOnly


#: ``RankContext._recordings`` lookup miss (``None`` means "never replay")
_UNSEEN = object()
#: structural owner of replayed passes -> its id (see
#: :meth:`RankContext.replay_owner`)
_OWNERS: dict[tuple, int] = {}
_OWNER_IDS = itertools.count()


class RankContext:
    """Everything one simulated rank needs: identity, clock, accounting.

    Instances are created by :meth:`Engine.run` and passed as the first
    argument to the rank function.  Algorithm code charges local work via
    :meth:`compute` and performs communication through
    :class:`repro.comm.Communicator` objects built from this context.
    """

    def __init__(self, engine: "Engine", rank: int):
        self.engine = engine
        self.rank = rank
        self.nranks = engine.nranks
        self.clock = VirtualClock()
        self.trace = engine.trace
        self.mode = engine.mode
        self.mem = MemoryTracker(capacity_bytes=engine.cluster.gpu.memory_bytes)
        #: the compute model's price table, read directly by :meth:`compute`
        self._op_times = engine.compute_model.op_times
        #: per-(src, dst, tag) p2p sequence counters
        self._p2p_seq: dict[tuple[int, int, Any], int] = {}
        plan = engine.fault_plan
        #: effective virtual crash time for this rank (None = immortal):
        #: the engine-resolved minimum of its personal crash and any
        #: NodeCrash covering its host node
        site = engine._crash_site.get(rank)
        self._crash_at = site[0] if site is not None else None
        #: the node whose correlated loss kills this rank (None when the
        #: effective crash is a personal RankCrash, or no crash at all)
        self._crash_node = site[1] if site is not None else None
        #: straggler multiplier for local kernels; windowed slowdowns
        #: (ComputeSlowdown.until) re-evaluate the factor per kernel start
        self._compute_factor = (
            plan.compute_factor(rank) if plan is not None else 1.0
        )
        self._windowed_slowdown = (
            plan is not None and plan.has_windowed_slowdown(rank)
        )
        #: virtual seconds this rank spent in local kernels — unlike the
        #: clock (which collectives drag forward to the slowest member),
        #: this isolates per-rank compute, so the elastic controller can
        #: detect stragglers from it (deterministic across backends)
        self.compute_seconds = 0.0
        #: kernels priced on this rank, whether executed or replayed: the
        #: same in a real-mode and a symbolic run of one program
        self.kernels = 0
        #: a healthy rank's kernel costs the table's price and nothing
        #: else: a crash site needs the fault check after every kernel and
        #: a slow-down (the factor counts windowed entries too) reprices
        #: each kernel by its start time.  Only a healthy symbolic rank
        #: replays (:meth:`replay`), so a faulted rank, like a real-mode or
        #: a traced one, executes every pass.
        self._healthy = (
            self._crash_at is None
            and self._compute_factor == 1.0
            and not self._windowed_slowdown
        )
        self._replays = self.mode == "symbolic" and self._healthy
        self._tape: _Tape | None = None  #: the open recording, if any
        #: deferred-timing state: the last generation this rank deposited
        #: into, how many of its generations are unresolved, and the event
        #: a force-sync is parked on (swept by ``_abort``)
        self._prev_gen: _Gen | None = None
        self._pending = 0
        self._sync_event: Any = None

    # --- local work -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time of this rank."""
        self._tape = None  # a pass that reads the clock is not replayable
        if self._prev_gen is not None:
            self.engine.sync_rank(self)
        return self.clock.now

    @property
    def symbolic(self) -> bool:
        """True when the engine runs in shape-only (symbolic) mode."""
        return self.mode == "symbolic"

    def compute(
        self, flops: float, bytes_touched: float = 0.0, tag: str = "",
        min_dim: float | None = None,
    ) -> None:
        """Charge one local kernel to this rank's clock.

        ``min_dim`` is the smallest matmul dimension, used by the compute
        model's tile-quantization penalty (see :class:`GPUSpec`).
        """
        clock = self.clock
        t0 = clock.now
        # the healthy-GPU price depends on the kernel's size alone, so it is
        # read from the cost model's table; slow-downs apply to that price
        dt = self._op_times.get((flops, bytes_touched, min_dim))
        if dt is None:
            dt = self.engine.compute_model.op_time(flops, bytes_touched, min_dim)
        self.kernels += 1
        if self._tape is not None:
            self._tape.dts.append(dt)
        if self._windowed_slowdown:
            dt *= self.engine.fault_plan.compute_factor(self.rank, now=t0)
        elif self._compute_factor != 1.0:
            dt *= self._compute_factor
        t1 = clock.advance(dt)
        self.compute_seconds += dt
        if self.trace.enabled:
            self.trace.record(
                ComputeEvent(
                    rank=self.rank,
                    t_start=t0,
                    t_end=t1,
                    flops=flops,
                    bytes_touched=bytes_touched,
                    tag=tag,
                )
            )
        if self._crash_at is not None:
            self.check_faults()

    def marker(self, name: str) -> None:
        """Drop a named marker at the current simulated time."""
        self._tape = None  # reads the clock, like ``now``
        self.trace.record(MarkerEvent(rank=self.rank, t=self.clock.now, name=name))

    def compute_each(self, count: int, flops: float,
                     bytes_touched: float = 0.0, tag: str = "") -> None:
        """Charge ``count`` identical kernels: what ``count`` calls of
        :meth:`compute` do, with one price lookup.

        The clock and ``compute_seconds`` still take one add per kernel,
        in order, and an open recording one entry per kernel, so every
        bit is the same.  A traced rank (one event per kernel), a crash
        site (a fault check per kernel) or a slowed rank (a price per
        kernel start) charges them one by one.
        """
        if self.trace.enabled or not self._healthy:
            for _ in range(count):
                self.compute(flops, bytes_touched, tag)
            return
        dt = self._op_times.get((flops, bytes_touched, None))
        if dt is None:
            dt = self.engine.compute_model.op_time(flops, bytes_touched)
        dts = [dt] * count
        self.kernels += count
        if self._tape is not None:
            self._tape.dts.extend(dts)
        self.compute_seconds = self.clock.advance_each(
            dts, self.compute_seconds)

    # --- replaying a symbolic pass ------------------------------------------------

    #: recordings kept by the process (and owner ids interned, see
    #: :meth:`replay_owner`).  A recording of a serving LM pass takes about
    #: 3.8 kB (key 1.1, prices 1.1, result 1.0, stashes 0.8), so a full
    #: table holds about 8 MB; the serving benchmarks fill 618 entries.
    #: Like the price table, a full one stops growing and later keys
    #: simply execute.
    MAX_RECORDINGS = 1 << 11

    #: key -> (dts, stash module indices, stash bytes, result), or None
    #: for a key whose pass did something that cannot be replayed.  One
    #: table for the process: a key is structural, so a recording serves
    #: every later run, and it holds no module, context or engine.
    _recordings: ClassVar[dict[Any, tuple | None]] = {}

    def replay_owner(self, *parts: Any) -> int:
        """The id that starts the replay keys of one pass owner on this
        rank: the same wherever this rank's GPU spec, rank and world size
        and the hashable ``parts`` (the owner's structure: its class, its
        configuration, its layout) are equal.  The owner computes it once,
        so a replay hashes a small int, not those objects."""
        owner = (self.engine.cluster.gpu, self.rank, self.nranks, *parts)
        oid = _OWNERS.get(owner)
        if oid is None:
            oid = next(_OWNER_IDS)
            if len(_OWNERS) < self.MAX_RECORDINGS:  # past it: never shared
                _OWNERS[owner] = oid
        return oid

    def replay(self, key: Any, fn: Callable[[], Any],
               modules: Sequence[Any] = ()) -> Any:
        """Run the communication-free pass ``fn``, or replay its recording.

        The caller guarantees that in symbolic mode everything ``fn``
        does to this rank is fixed by ``key``: an id from
        :meth:`replay_owner`, the entry point, and the shape, dtype and
        symbolic flag of every operand.  ``modules`` lists every module
        whose ``save_for_backward`` the pass may call.  The first time
        the process sees a key the pass executes while a :class:`_Tape`
        notes each kernel's price, each stash (as an index into
        ``modules`` and its byte count) and the result; afterwards, in
        this run or any later one, the pass is not run: the same prices
        are added to the clock and to ``compute_seconds`` one by one,
        each stash frees the module's previous one and allocates its
        bytes again (the memory tracker sees an executed eval-mode pass;
        the tensors are not kept) and the result's containers are
        rebuilt around the recorded shape-only arrays.

        Whether to replay is decided from what the rank can observe, not
        by an option: real-mode, traced and faulted ranks call ``fn()``.
        A pass that communicates, reads the clock, changes the memory
        tracker other than by stashing (``Module.saved`` frees, so it
        counts), stashes on a module in training mode or outside
        ``modules``, returns real data or reaches another ``replay``
        abandons its recording: it still runs to the end, and its key is
        never replayed.  A pass that raises leaves no entry.
        """
        if not self._replays or self.trace.enabled:
            return fn()
        self._tape = None  # a pass that nests another is not replayable
        recordings = self._recordings
        rec = recordings.get(key, _UNSEEN)
        if rec is None:
            return fn()
        if rec is _UNSEEN:
            if len(recordings) >= self.MAX_RECORDINGS:
                return fn()
            return self._record(key, fn, modules)
        dts, stashed, nbytes, result = rec
        self.compute_seconds = self.clock.advance_each(
            dts, self.compute_seconds
        )
        self.kernels += len(dts)
        for index, size in zip(stashed, nbytes):
            modules[index].restash(size)
        return _copy_shapes(result)

    def _record(self, key: Any, fn: Callable[[], Any],
                modules: Sequence[Any]) -> Any:
        """Execute ``fn`` under a fresh tape; keep it if nothing abandoned."""
        recordings = self._recordings
        recordings[key] = None  # until the pass proves replayable
        tape = self._tape = _Tape(self.mem.changes)
        try:
            result = fn()
        except BaseException:
            recordings.pop(key, None)
            raise
        finally:
            intact = self._tape is tape
            self._tape = None
        if intact and self.mem.changes == tape.mem_changes:
            index = {id(m): i for i, m in enumerate(modules)}
            try:
                kept = _copy_shapes(result)
                stashed = tuple([index[id(m)] for m, _ in tape.stashes])
            except (_NotShapeOnly, KeyError):
                return result
            recordings[key] = (tuple(tape.dts), stashed,
                               tuple([size for _, size in tape.stashes]),
                               kept)
        return result

    def abandon_recording(self) -> None:
        """The running pass did something no replay could repeat (called
        by :class:`~repro.comm.communicator.Communicator` on every
        collective, p2p and batch window)."""
        self._tape = None

    def check_faults(self) -> None:
        """Die if this rank's scheduled crash time has passed.

        Called after every local kernel and at every communication entry
        point, so crash detection is a function of *virtual* time and
        program order only — never of wall-clock interleaving.  A rank
        already marked dead (by its crash or by a cascaded failure) raises
        the recorded cause again, so programs that swallow the error
        cannot keep communicating.
        """
        eng = self.engine
        if eng._dead:
            cause = eng._dead.get(self.rank)
            if cause is not None:
                raise cause.clone()
        if self._crash_at is not None and self.clock.now >= self._crash_at:
            raise eng._kill(self.rank, self._crash_at, node=self._crash_node)

    def rng(self, *tags) -> "Any":
        """Rank-independent named RNG stream (same data on every rank)."""
        return rng_for(self.engine.seed, *tags)

    def rank_rng(self, *tags) -> "Any":
        """Rank-specific named RNG stream."""
        return rng_for(self.engine.seed, "rank", self.rank, *tags)

    # --- sequence numbers -------------------------------------------------------

    def next_p2p_seq(self, src: int, dst: int, tag: Any) -> int:
        key = (src, dst, tag)
        seq = self._p2p_seq.get(key, 0)
        self._p2p_seq[key] = seq + 1
        return seq


class Engine:
    """The SPMD simulation engine.

    Parameters
    ----------
    cluster:
        Hardware description; defaults to a MeluXina slice big enough for
        ``nranks`` (4 GPUs per node).
    nranks:
        Number of ranks to simulate.
    mode:
        ``"real"`` (numpy data flows through every op) or ``"symbolic"``
        (shape-only; used by the paper-scale benchmarks).
    placement:
        Rank-to-node placement policy.
    comm_alg:
        Collective pricing family (see :class:`CollectiveAlg`).
    trace:
        Keep the event log (:class:`~repro.sim.events.Trace`): one event
        per kernel, collective, marker and fault on every rank, held until
        the engine is dropped.  Each costs about 5 us of host time and
        145 bytes (an 8-rank real-mode training run under faults records
        ~230,000).  A traced symbolic run also executes every pass and
        blocks on every collective.  Pass ``False`` when nothing reads
        ``engine.trace``; priced results and virtual times are the same.
    op_timeout:
        Wall-clock seconds a rank may wait inside one rendezvous before the
        threaded backend's watchdog declares a deadlock.  The event
        backend detects the same deadlocks instantly (a drained run queue
        with blocked ranks cannot recover); the value still appears in
        its error messages so diagnostics are backend-independent.
    seed:
        Base seed for all RNG streams.
    fault_plan:
        Optional :class:`~repro.sim.faults.FaultPlan` of injected failures
        (rank crashes, correlated node losses, link degradation,
        stragglers, transient sends, delivery jitter).  ``None`` simulates
        a healthy cluster.
    backend:
        Scheduler backend: ``"event"`` (default: one drive loop, deferred
        collective timing), ``"threaded"`` (one OS thread per rank; the
        reference the test suites compare against), or a
        :class:`~repro.sim.schedulers.SchedulerBackend` instance.
        ``None`` consults ``REPRO_ENGINE_BACKEND``; an unrecognized name
        raises :class:`ValueError`.  Backends trade wall-clock dispatch
        cost only; modeled virtual time, results and traces are
        bit-identical between them.

    Examples
    --------
    >>> from repro.sim import Engine
    >>> eng = Engine(nranks=4)
    >>> def program(ctx):
    ...     ctx.compute(flops=1e9)
    ...     return ctx.rank * 10
    >>> eng.run(program)
    [0, 10, 20, 30]
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        nranks: int | None = None,
        mode: str = "real",
        placement: Placement = Placement.BLOCK,
        comm_alg: CollectiveAlg = CollectiveAlg.AUTO,
        trace: bool = True,
        op_timeout: float = 120.0,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        backend: str | SchedulerBackend | None = None,
    ):
        if mode not in ("real", "symbolic"):
            raise ConfigError(f"mode must be 'real' or 'symbolic', got {mode!r}")
        if nranks is None:
            nranks = cluster.total_gpus if cluster is not None else 1
        if cluster is None:
            cluster = meluxina(ceil_div(nranks, 4))
        self.cluster = cluster
        self.nranks = int(nranks)
        self.mode = mode
        self.seed = seed
        self.op_timeout = op_timeout
        self.topology = Topology(cluster, nranks=self.nranks, placement=placement)
        self.fault_plan = fault_plan
        #: rank -> (effective crash time, node index | None): the merge of
        #: personal RankCrash entries with NodeCrash fault domains resolved
        #: against this engine's topology.  Ties go to the node — the
        #: correlated event subsumes the solo crash.
        self._crash_site: dict[int, tuple[float, int | None]] = {}
        if fault_plan is not None:
            for crash in fault_plan.crashes:
                if not 0 <= crash.rank < self.nranks:
                    raise ConfigError(
                        f"fault plan kills rank {crash.rank}, but the engine "
                        f"has only {self.nranks} ranks"
                    )
                self._crash_site[crash.rank] = (crash.at, None)
            for nc in fault_plan.node_crashes:
                try:
                    members = self.topology.node_ranks(nc.node)
                except GridError:
                    raise ConfigError(
                        f"fault plan kills node {nc.node}, but the engine's "
                        f"topology only uses {self.topology.nodes_used} "
                        f"node(s)"
                    ) from None
                for r in members:
                    prev = self._crash_site.get(r)
                    if prev is None or nc.at <= prev[0]:
                        self._crash_site[r] = (nc.at, nc.node)
            for lf in fault_plan.link_faults:
                self.topology.degrade_link(lf.src, lf.dst, lf.factor)
        self.compute_model = ComputeCostModel(cluster.gpu)
        self.comm_model = CommCostModel(self.topology, alg=comm_alg)
        self.trace = Trace(enabled=trace)

        self._sched = resolve_backend(backend)
        #: resolved backend name ("event" / "threaded")
        self.backend = self._sched.name
        #: the live scheduler backend (the event one exposes ``handoffs``,
        #: the deterministic hand-off count of the most recent run)
        self.scheduler = self._sched
        self._shards = tuple(
            _Shard(self._sched.make_lock()) for _ in range(_N_SHARDS)
        )
        #: group -> its rendezvous channel
        self._channels: dict[Any, _GroupChannel] = {}
        self._channels_lock = self._sched.make_lock()
        self._err_lock = self._sched.make_lock()
        self._error: BaseException | None = None
        #: how collectives complete (see :meth:`fused_collective`).
        #: Deferring is sound only when nothing observable depends on
        #: mid-run wall order — symbolic data (results are
        #: shape-functions), no fault plan (crash times compare against
        #: live clocks), tracing off (events embed times at record time),
        #: and a backend whose one-runner invariant makes the DAG
        #: bookkeeping lock-free.  Everything else blocks, which is what
        #: keeps the event backend bit-identical over the fuzzer corpus.
        self._deferred = (
            mode == "symbolic"
            and fault_plan is None
            and not self.trace.enabled
            and self.nranks > 1
            and getattr(self._sched, "supports_deferred_sync", False)
        )
        self._gen_seq = 0  #: generations created this run
        #: global rank -> root-cause failure, for ranks that can no longer
        #: communicate (crashed, or cascaded out by a partner's crash)
        self._dead: dict[int, RankFailureError] = {}
        #: ranks whose *scheduled* crash actually fired (subset of _dead —
        #: cascaded deaths are excluded), and the node fault domains that
        #: fired; together these define :meth:`lost_ranks`
        self._crashed: set[int] = set()
        self._fired_nodes: set[int] = set()
        self.contexts: list[RankContext] = []
        self.closed = False  #: set by :meth:`shutdown` (cache eviction)

    # --- running programs -------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
    ) -> list[Any]:
        """Run ``fn(ctx, *args, **kwargs)`` on every rank; return all results.

        Results are ordered by rank.  If any rank raises, all ranks are
        aborted and the first exception (by rank) is re-raised.  Any
        threads the backend needs come from persistent process-wide
        pools, so calling ``run`` repeatedly (the benchmark harness does,
        hundreds of times) does not pay thread spawn/join per call.
        """
        kwargs = kwargs or {}
        for shard in self._shards:
            shard.mailboxes.clear()
            shard.recv_waiters.clear()
        with self._channels_lock:
            self._channels.clear()
        self._error = None
        self._dead = {}
        self._crashed = set()
        self._fired_nodes = set()
        self._gen_seq = 0
        self.closed = False
        self.contexts = [RankContext(self, r) for r in range(self.nranks)]
        results: list[Any] = [None] * self.nranks
        errors: list[BaseException | None] = [None] * self.nranks

        def worker(rank: int) -> None:
            ctx = self.contexts[rank]
            try:
                results[rank] = fn(ctx, *args, **kwargs)
            except RankFailureError as exc:
                # Injected-fault path: the failure already propagated to
                # exactly the ranks that depend on the dead one (see
                # _mark_dead); unrelated ranks keep running, so this must
                # NOT trip the global abort sweep.
                errors[rank] = exc
                self._mark_dead(rank, exc)
            except BaseException as exc:  # noqa: BLE001 - must abort peers
                errors[rank] = exc
                self._abort(exc)

        if self.nranks == 1:
            worker(0)
        else:
            self._sched.run(self.nranks, worker)
        if self._deferred:
            self._finalize_deferred()
        for rank, exc in enumerate(errors):
            if exc is not None and not isinstance(exc, _AbortedError):
                raise exc
        if self._error is not None and not isinstance(self._error, _AbortedError):
            # No rank raised directly (e.g. the watchdog flagged a deadlock
            # while every rank merely observed the abort): surface the cause.
            raise self._error
        return results

    def max_time(self) -> float:
        """Largest rank clock after a run — the simulated makespan."""
        if not self.contexts:
            raise SimulationError("engine has not run anything yet")
        return max(ctx.clock.now for ctx in self.contexts)

    # --- failure handling -----------------------------------------------------

    def _abort(self, exc: BaseException) -> None:
        """Record the first failure and release every waiting rank."""
        with self._err_lock:
            if self._error is None:
                self._error = exc
        for shard in self._shards:
            with shard.lock:
                for evt in shard.recv_waiters.values():
                    evt.set()
        with self._channels_lock:
            channels = list(self._channels.values())
        for ch in channels:
            with ch.lock:
                for g in ch.gens.values():
                    if g.event is not None:
                        g.event.set()
        # Ranks parked inside a deferred force-sync.
        for ctx in self.contexts:
            evt = ctx._sync_event
            if evt is not None:
                evt.set()

    def _check_abort(self) -> None:
        if self._error is not None:
            raise _AbortedError("aborted because another rank failed")

    # --- fault injection -------------------------------------------------------

    def _kill(
        self, rank: int, t: float, node: int | None = None
    ) -> RankFailureError:
        """Execute rank ``rank``'s scheduled crash at virtual time ``t``.

        Records the :class:`FaultEvent`, marks the rank dead (waking every
        pending wait that can no longer complete) and returns the error
        for the dying rank's own thread to raise.  ``node`` names the
        correlated fault domain when the crash is part of a
        :class:`~repro.sim.faults.NodeCrash` — each node member still dies
        by its *own* clock reaching ``t`` (never by a sibling's wall-clock
        progress), which is what keeps node losses bit-identical across
        scheduler backends.
        """
        if node is None:
            cause = RankFailureError(rank, t)
            kind = "crash"
        else:
            cause = RankFailureError(
                rank, t,
                message=(
                    f"rank {rank} died at t={t:.6e}s "
                    f"(node {node} lost: correlated fault domain)"
                ),
            )
            kind = "node_crash"
            self._fired_nodes.add(node)
        self._crashed.add(rank)
        self.trace.record(
            FaultEvent(rank=rank, kind=kind, t=t, detail=str(cause))
        )
        self._mark_dead(rank, cause)
        return cause.clone()

    def fired(self) -> tuple[set[int], set[int]]:
        """What the last run's fault plan actually did: the ranks whose
        own scheduled crash fired, and the nodes whose
        :class:`~repro.sim.faults.NodeCrash` fired.

        Ranks that died only because a partner did (a cascade) are not
        in it, so a restart strips exactly these crashes from its plan.
        """
        return set(self._crashed), set(self._fired_nodes)

    def lost_ranks(self) -> set[int]:
        """Ranks lost to *fired* scheduled crashes, expanded to whole nodes.

        A node member that never individually reached its crash time (it
        was blocked, or cascaded out by a partner's death first) is still
        lost — the host is gone — so recovery logic must not count it as a
        survivor.  Cascaded deaths of ranks with no fired crash of their
        own are *not* included: that hardware is healthy and available to
        the next restart attempt.
        """
        lost, nodes = self.fired()
        for node in nodes:
            lost.update(self.topology.node_ranks(node))
        return lost

    def _mark_dead(self, rank: int, cause: RankFailureError) -> None:
        """Mark ``rank`` unable to communicate; promptly fail its waiters.

        Every channel generation or pending receive that is still
        waiting for ``rank`` is marked failed and woken *now* — no
        surviving partner ever rides out the watchdog timeout.  A
        generation the dead rank already deposited into is left alone: it
        can still complete for the others (the crash happened after the
        rank's arrival in its own program order).  ``cause`` is the *root*
        failure, so cascaded deaths keep naming the originally-crashed
        rank.
        """
        with self._err_lock:
            if rank in self._dead:
                return
            self._dead[rank] = cause
        for shard in self._shards:
            with shard.lock:
                for key, evt in shard.recv_waiters.items():
                    if (isinstance(key, tuple) and len(key) >= 4
                            and key[1] == "p2p" and key[2] == rank
                            and key not in shard.mailboxes):
                        evt.set()
        with self._channels_lock:
            channels = [
                ch for ch in self._channels.values() if rank in ch.granks
            ]
        for ch in channels:
            with ch.lock:
                for g in ch.gens.values():
                    if (not g.done and g.failed is None
                            and rank not in g.arrivals):
                        g.failed = cause
                        if g.event is not None:
                            g.event.set()

    def _fail_rank(self, rank: int, cause: RankFailureError) -> RankFailureError:
        """Cascade: ``rank`` can never finish this op, so it dies too.

        Marking it dead immediately (instead of waiting for the exception
        to unwind to the worker) wakes *its* pending partners without a
        detour through wall-clock time.  Returns the error to raise.
        """
        self._mark_dead(rank, cause)
        return cause.clone()

    def _dead_member(
        self, granks: Sequence[int], arrivals: dict[int, Any]
    ) -> RankFailureError | None:
        """Root cause if some group member is dead and can never arrive."""
        for r in granks:
            cause = self._dead.get(r)
            if cause is not None and r not in arrivals:
                return cause
        return None

    def estimated_footprint(self) -> int:
        """Estimated resident bytes this engine pins while cached.

        Used by the bench engine cache (:mod:`repro.bench.runner`) to
        evict by memory cost rather than by entry count alone.  The
        estimate is deliberately simple and monotone in the things that
        actually grow: per-rank contexts (clock, counters, memory
        tracker), the topology's per-rank tables, and — dominant after a
        traced run — the accumulated trace events.
        """
        per_rank = 4096       # RankContext + clock + seq counters + tracker
        # slotted event + list slot + payload floats: 140-145 B measured
        # (tracemalloc) on a traced 64-rank table row and a chaos run
        per_event = 145
        base = 65536          # engine, shards, channels, cost models
        return int(
            base
            + self.nranks * per_rank
            + len(self.trace) * per_event
        )

    def shutdown(self) -> None:
        """Release all rendezvous/trace state (engine-cache eviction).

        The engine stays usable — :meth:`run` rebuilds everything — but a
        shut-down engine holds no payload references (mailboxes, or the
        channel generations an aborted run leaves behind), no trace
        events and no live rendezvous, so evicting it from a cache
        actually frees memory.
        """
        for shard in self._shards:
            with shard.lock:
                shard.mailboxes.clear()
                shard.recv_waiters.clear()
        with self._channels_lock:
            self._channels.clear()
        self.trace.clear()
        self.contexts = []
        self._error = None
        self._dead = {}
        self.closed = True

    def _shard(self, key: Any) -> _Shard:
        return self._shards[hash(key) & (_N_SHARDS - 1)]

    # --- group-channel rendezvous ---------------------------------------------

    def channel(self, group: Any) -> _GroupChannel:
        """``group``'s rendezvous channel for the current run.

        A :class:`~repro.comm.communicator.Communicator` resolves it once,
        when it is built, so a deposit never hashes the group.
        """
        ch = self._channels.get(group)
        if ch is None:
            with self._channels_lock:
                ch = self._channels.get(group)
                if ch is None:
                    ch = _GroupChannel(group.ranks, self._sched.make_lock())
                    self._channels[group] = ch
        return ch

    def fused_collective(
        self,
        ch: _GroupChannel,
        ctx: RankContext,
        index: int,
        payloads: list[Any],
        sig: tuple[str, ...],
        rules: Sequence[Any],
        complete: Callable[
            [dict[int, Any], list[int] | None],
            tuple[dict[int, list[Any]], Sequence[float]],
        ],
    ) -> tuple[list[Any], tuple[float, ...]]:
        """Join ``ctx``'s next generation of channel ``ch``.

        ``index`` is the rank's position in the channel's group.
        ``payloads`` holds one entry per op — a plain collective passes
        one, a batch window one per queued op — and ``sig`` their kinds;
        every member of the generation must pass an identical ``sig`` or
        the engine aborts with :class:`CommError`.  ``complete`` runs
        exactly once, on the last arriver, with the full ``{rank:
        payloads}`` map and the ranks whose results it must build
        (``None``: every member); it validates every arrival and returns
        per-rank result lists plus per-op cost offsets from the group's
        arrival.  Returns this rank's results and the per-op completion
        times.

        A blocking engine completes at ``max(arrivals) + offset``: every
        non-last rank parks on the generation's one event, and the last
        arriver wakes them all.  A deferring engine (symbolic, untraced,
        unfaulted, one-runner backend) leaves the rank at its provisional
        arrival time and wires the generation into the resolution DAG
        (see :meth:`_resolve`); a non-last rank takes its results from
        its local ``rules`` (:meth:`_local_results`) and parks only when
        they cannot answer, and completion builds results only for the
        last arriver and the ranks that parked.

        The generation counter is the channel's entry for ``index``, so a
        deposit hashes nothing and costs O(ops), not O(members).
        """
        if ctx._crash_at is not None or self._dead:
            ctx.check_faults()
        if self._error is not None:
            self._check_abort()
        rank = ctx.rank
        seqs = ch.seqs
        gen = seqs[index]
        seqs[index] = gen + 1
        clock = ctx.clock
        t = clock._now
        deferred = self._deferred
        mismatch: CommError | None = None
        with ch.lock:
            g = ch.gens.get(gen)
            if g is None:
                g = ch.gens[gen] = _Gen(ch.granks, gen, sig, self._gen_seq,
                                        deferred)
                self._gen_seq += 1
            failed = g.failed
            if failed is None and self._dead:
                failed = self._dead_member(ch.granks, g.arrivals)
                if failed is not None:
                    g.failed = failed
                    if g.event is not None:
                        g.event.set()
            if failed is not None:
                pass
            elif g.sig != sig:
                mismatch = CommError(
                    f"collective mismatch in group {ch.granks} (gen {gen}): "
                    f"rank {rank} called {self._sig_name(sig)!r} but the "
                    f"group already started {self._sig_name(g.sig)!r}"
                )
            elif rank in g.arrivals:
                raise CommError(
                    f"rank {rank} joined generation {gen} of group "
                    f"{ch.granks} twice (sequence counters out of sync?)"
                )
            else:
                g.arrivals[rank] = payloads
                if t > g.t_arrive:
                    g.t_arrive = t
                if deferred:
                    # the link carries the clock deltas logged since the
                    # rank's previous deposit; a new epoch starts here
                    dts = clock.begin_epoch()
                    prev = ctx._prev_gen
                    g.prevs[index] = prev
                    g.since[index] = dts if prev is not None else t
                    ctx._prev_gen = g
                    ctx._pending += 1
                is_last = len(g.arrivals) == ch.size
                if not (is_last or deferred) and g.event is None:
                    # made under the lock, so an abort or death sweep
                    # that runs before this rank parks still finds it
                    g.event = self._sched.make_event()
        if failed is not None:
            raise self._fail_rank(rank, failed)
        if mismatch is not None:
            self._abort(mismatch)
            raise mismatch

        if is_last:
            self._complete(ch, g, complete, rank)
        else:
            if deferred:
                results = self._local_results(g, rank, rules)
                if results is not None:
                    return results, (t,) * len(sig)
                if g.readers is None:
                    g.readers = []
                g.readers.append(rank)
            self._park(ch, g, rank)
        if deferred:
            results = g.results.pop(rank)
            if not g.results:
                g.results = None
            return results, (t,) * len(sig)
        with ch.lock:
            results = g.results.pop(rank)
            g.arrivals.pop(rank, None)
            # Last rank to pick up its results reclaims the generation.
            if not g.arrivals:
                ch.gens.pop(gen, None)
        return results, g.t_ends

    #: Names kept only because ``benchmarks/e2e/e2e_tracer.py`` wraps them;
    #: each is the one rendezvous above.
    collective = fused_collective_deferred = fused_collective
    collective_deferred_single = fused_collective

    def _complete(self, ch: _GroupChannel, g: _Gen,
                  complete: Callable[..., Any], rank: int) -> None:
        """Last arriver ``rank``: validate, price and build the results
        that will be read, time the generation (now, or through the
        resolution DAG), wake any parked member."""
        if self._deferred:
            need: list[int] | None = g.readers or []
            need.append(rank)
            g.readers = None
        else:
            need = None  # every non-last member is parked or about to be
        try:
            g.results, offsets = complete(g.arrivals, need)
        except BaseException as exc:
            self._abort(exc)
            raise
        if self._deferred:
            g.offsets = offsets
            g.done = True
            # the payloads were read; a generation waiting on its inputs
            # to resolve keeps only its links
            g.arrivals = None
            del ch.gens[g.gen]
            inputs = {
                id(prev): prev
                for prev in g.prevs
                if prev is not None and not prev.resolved
            }
            g.unresolved_inputs = len(inputs)
            for prev in inputs.values():
                if prev.dependents is None:
                    prev.dependents = []
                prev.dependents.append(g)
            if not g.unresolved_inputs:
                self._resolve(g)
        else:
            g.t_ends = tuple([g.t_arrive + off for off in offsets])
            g.done = True
        if g.event is not None:
            g.event.set()  # one wakeup broadcast for the whole group

    def _park(self, ch: _GroupChannel, g: _Gen, rank: int) -> None:
        """Block until ``g`` completes; raise if it never can."""
        if g.event is None:
            g.event = self._sched.make_event()
        if self._error is not None:
            # An abort may have swept the channels before this generation
            # existed; don't sleep on a dead run.
            g.event.set()
        if self._deferred:
            fire = self._fire_stall
        else:
            def fire() -> None:
                self._fire_deadlock(ch, g)
        self._sched.wait(g.event, self.op_timeout, fire)
        if not g.done:
            if g.failed is not None:
                raise self._fail_rank(rank, g.failed)
            self._check_abort()
            # Backstop: the deadline callback itself failed to fire.
            err = self._deadlock_error(g)
            if isinstance(err, RankFailureError):
                raise self._fail_rank(rank, err)
            self._abort(err)
            raise err

    @staticmethod
    def _sig_name(sig: tuple[str, ...]) -> str:
        return sig[0] if len(sig) == 1 else f"fused[{', '.join(sig)}]"

    def _deadlock_error(self, g: _Gen) -> SimulationError:
        granks = g.granks
        arrived = sorted(g.arrivals)
        missing = sorted(set(granks) - set(arrived))
        for r in missing:
            cause = self._dead.get(r)
            if cause is not None:
                # Not a deadlock: the missing partner is dead.
                return cause.clone()
        return DeadlockError(
            f"rendezvous {(granks, 'coll', g.gen)} ({self._sig_name(g.sig)}) "
            f"timed out after {self.op_timeout}s: {len(arrived)}/"
            f"{len(granks)} ranks arrived {arrived}; missing ranks {missing}"
        )

    def _fire_deadlock(self, ch: _GroupChannel, g: _Gen) -> None:
        if g.done or g.failed is not None or self._error is not None:
            return
        err = self._deadlock_error(g)
        if isinstance(err, RankFailureError):
            with ch.lock:
                if g.failed is None and not g.done:
                    g.failed = err
                    g.event.set()
            return
        self._abort(err)

    # --- deferred timing ------------------------------------------------------
    #
    # All state below is mutated without locks: deferral requires the
    # event backend, whose one-runner invariant makes every method here a
    # critical section by construction.

    def _local_results(
        self, g: _Gen, rank: int, rules: Sequence[Any]
    ) -> list[Any] | None:
        """Per-op results computable from the arrivals so far, else None.

        Entries are :data:`LOCAL_NONE`/:data:`LOCAL_ECHO` sentinels,
        ``None`` (not computable early) or callables.  A callable receives
        its op index, the raw arrival map ``{grank: payloads}`` *by
        reference* and the calling rank — a rule that only needs this
        rank's own payload (the symbolic reduce-scatter shape rule) must
        not pay for a copy of everyone else's; keeping deposits O(ops) is
        what makes the deferred sweep linear in group size.
        """
        vals: list[Any] = []
        arrivals = g.arrivals
        own: list[Any] | None = None
        for k, fn in enumerate(rules):
            if fn is None:
                return None
            if fn is LOCAL_NONE:
                vals.append(None)
                continue
            if fn is LOCAL_ECHO:
                if own is None:
                    own = arrivals[rank]
                vals.append(own[k])
                continue
            ok, val = fn(k, arrivals, rank)
            if not ok:
                return None
            vals.append(val)
        return vals

    def _resolve(self, g: _Gen) -> None:
        """Compute true completion times for ``g`` and every dependent
        that becomes resolvable (iterative worklist, no recursion).

        The arithmetic is the blocking completion's, performed late: each
        member's true arrival is its previous generation's last
        completion time folded left-to-right with the member's logged
        clock deltas; the group arrival is the max; per-op completion is
        arrival + offset.
        """
        stack = [g]
        while stack:
            n = stack.pop()
            t_arrive = 0.0
            for prev, since in zip(n.prevs, n.since):
                if prev is None:
                    t = since  # the clock was true at deposit
                else:
                    t = prev.t_ends[-1]
                    for dt in since:
                        t += dt
                if t > t_arrive:
                    t_arrive = t
            n.t_ends = tuple(t_arrive + off for off in n.offsets)
            n.resolved = True
            n.prevs = n.since = None
            for r in n.granks:
                ctx = self.contexts[r]
                ctx._pending -= 1
                if ctx._pending == 0 and ctx._sync_event is not None:
                    ctx._sync_event.set()
            dependents = n.dependents or ()
            n.dependents = None
            for dep in dependents:
                dep.unresolved_inputs -= 1
                if not dep.unresolved_inputs:
                    stack.append(dep)

    def sync_rank(self, ctx: RankContext) -> None:
        """Force ``ctx``'s deferred timeline to true virtual time.

        No-op unless the rank has an open deferred epoch.  Called before
        anything that observes real time: ``ctx.now``, p2p send/receive
        and the end-of-run finalization.  If the rank's pending
        generations cannot resolve yet the rank parks; a drained run
        queue then names the earliest incomplete generation, exactly like
        a blocked collective would.
        """
        if ctx._prev_gen is None:
            return
        while ctx._pending:
            if self._error is not None:
                self._check_abort()
            evt = self._sched.make_event()
            ctx._sync_event = evt
            self._sched.wait(evt, self.op_timeout, self._fire_stall)
            ctx._sync_event = None
            if ctx._pending:
                self._check_abort()
                err = self._stall_error()
                self._abort(err)
                raise err
        g = ctx._prev_gen
        ctx._prev_gen = None
        ctx.clock.end_epoch(g.t_ends[-1])

    def _stall_error(self) -> SimulationError | None:
        """A deferred stall is explained by the earliest incomplete
        generation in the channel table (None when there is none)."""
        pending = [g for ch in self._channels.values()
                   for g in ch.gens.values() if not g.done]
        if not pending:
            return None
        return self._deadlock_error(min(pending, key=lambda g: g.seq))

    def _fire_stall(self) -> None:
        if self._error is None:
            err = self._stall_error()
            if err is not None:
                self._abort(err)

    def _finalize_deferred(self) -> None:
        """End-of-run pass: flag leftover incomplete generations as the
        deadlock they are (every rank returned, yet a collective never
        completed — a blocking engine would have parked its members
        forever), then land every rank's clock on true time."""
        self._fire_stall()
        if self._error is None:
            for ctx in self.contexts:
                g = ctx._prev_gen
                if g is not None:
                    ctx._prev_gen = None
                    ctx.clock.end_epoch(g.t_ends[-1])

    # --- buffered p2p ---------------------------------------------------------------

    def post_message(self, key: Any, payload: Any, t_sent: float) -> None:
        """Deposit a buffered p2p message (sender side, non-blocking)."""
        self._check_abort()
        shard = self._shard(key)
        with shard.lock:
            if key in shard.mailboxes:
                raise CommError(
                    f"duplicate p2p message at {key}; sequence counters out of sync"
                )
            shard.mailboxes[key] = _Mailbox(payload, t_sent)
            waiter = shard.recv_waiters.get(key)
            if waiter is not None:
                waiter.set()

    def take_message(
        self, key: Any, rank: int | None = None, src: int | None = None
    ) -> tuple[Any, float]:
        """Block until the matching message exists; return (payload, t_sent).

        ``rank`` (the receiver) and ``src`` (the expected sender) are used
        only for fault propagation: a receive whose sender died before
        posting fails immediately with :class:`RankFailureError` — a
        message posted *before* the sender's crash is still delivered
        (program order on the sender decides, deterministically).
        """
        self._check_abort()
        if self._dead and rank is not None:
            cause = self._dead.get(rank)
            if cause is not None:
                raise cause.clone()
        shard = self._shard(key)
        with shard.lock:
            box = shard.mailboxes.pop(key, None)
            if box is None:
                if src is not None and src in self._dead:
                    dead_src = self._dead[src]
                else:
                    dead_src = None
                    evt = shard.recv_waiters.setdefault(
                        key, self._sched.make_event()
                    )
        if box is None:
            if dead_src is not None:
                # Sender is dead and never posted: it can never post.
                if rank is not None:
                    raise self._fail_rank(rank, dead_src)
                raise dead_src.clone()
            if self._error is not None:
                evt.set()
            self._sched.wait(
                evt, self.op_timeout,
                lambda: self._fire_recv_deadlock(key),
            )
            with shard.lock:
                shard.recv_waiters.pop(key, None)
                box = shard.mailboxes.pop(key, None)
            if box is None:
                if src is not None and src in self._dead:
                    # Woken by the death sweep, not by a post.
                    cause = self._dead[src]
                    if rank is not None:
                        raise self._fail_rank(rank, cause)
                    raise cause.clone()
                self._check_abort()
                err = self._recv_deadlock_error(key)
                if isinstance(err, RankFailureError):
                    if rank is not None:
                        raise self._fail_rank(rank, err)
                    raise err
                self._abort(err)
                raise err
        return box.payload, box.t_sent

    def _recv_deadlock_error(self, key: Any) -> SimulationError:
        detail = ""
        if isinstance(key, tuple) and len(key) >= 4 and key[1] == "p2p":
            cause = self._dead.get(key[2])
            if cause is not None:
                # Not a deadlock: the sender died before posting.
                return cause.clone()
            detail = f" (missing sender: rank {key[2]})"
        return DeadlockError(
            f"recv at {key} timed out after {self.op_timeout}s: "
            f"no matching send was posted{detail}"
        )

    def _fire_recv_deadlock(self, key: Any) -> None:
        shard = self._shard(key)
        with shard.lock:
            delivered = key in shard.mailboxes or key not in shard.recv_waiters
        if delivered or self._error is not None:
            return
        self._abort(self._recv_deadlock_error(key))


class _AbortedError(SimulationError):
    """Raised inside non-failing ranks when a peer rank aborted the run."""


def run_engines(
    jobs: Sequence[tuple["Engine", Callable[..., Any]]],
) -> list[list[Any]]:
    """Run several engines' programs back to back, one :meth:`Engine.run`
    each.

    ``jobs`` is a sequence of ``(engine, program)`` pairs.  Results are
    returned per job, in order.  Errors are surfaced after *every* job
    has run, first job first — one engine's failure does not stop the
    jobs after it.
    """
    out: list[list[Any]] = []
    failure: BaseException | None = None
    for engine, fn in jobs:
        try:
            out.append(engine.run(fn))
        except BaseException as exc:  # noqa: BLE001 - run every job first
            out.append([])
            if failure is None:
                failure = exc
    if failure is not None:
        raise failure
    return out
